"""`compare` regenerates its committed golden outputs byte for byte."""

import json

import pytest
from golden import CASES, GOLDEN_DIR, run

INDEX = json.loads((GOLDEN_DIR / "cases.json").read_text())


def test_index_lists_every_case():
    assert {name: entry["argv"] for name, entry in INDEX.items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_compare_matches_golden(name, monkeypatch):
    monkeypatch.delenv("LIFTWING_CONFIG", raising=False)
    code, stdout = run(CASES[name])
    assert code == INDEX[name]["exit_code"]
    assert stdout.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()
