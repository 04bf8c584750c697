import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from liftwing import default_config, sweep

# CI runs set HYPOTHESIS_PROFILE=ci: the same examples on every run, so a
# bit-identity property cannot turn red by chance; local runs stay random
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def bundle(cfg):
    return cfg.bundle()


@pytest.fixture(scope="session")
def default_sweep(bundle, cfg):
    """The 900-cell default sweep, computed once per session."""
    return sweep(bundle, cfg.grid)


@pytest.fixture()
def data_dir():
    return Path(__file__).parent / "data"
