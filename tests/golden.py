"""Golden `liftwing compare` outputs: the cases, and a writer for tests/data/golden/compare/.

Each case is one `compare` argv on the built-in default config. Its stdout is
stored byte for byte in `<name>.out`, and its argv and exit code in
`cases.json`; `tests/test_golden.py` runs every case again and requires both
to match. Regenerate only for a deliberate model change, from the repo root:

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

from liftwing import cli

GOLDEN_DIR = Path(__file__).parent / "data" / "golden" / "compare"
CRUISE = "--speeds=5,7.5,10,12.5,15,17.5,20,22.5,25"
EDGE = "--speeds=-5,0,60,15"

CASES = {
    f"{fmt}_{name}": ["--format", fmt, "compare", *argv]
    for fmt in ("json", "text")
    for name, argv in (("gamma35_cruise", [CRUISE, "--gamma", "35"]),
                       ("gamma20_cruise", [CRUISE, "--gamma", "20"]),
                       ("edge_speeds", [EDGE]))
}


def run(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) in this process: its exit code and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def write() -> None:
    os.environ.pop("LIFTWING_CONFIG", None)  # the built-in default config only
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    index = {}
    for name, argv in CASES.items():
        code, stdout = run(argv)
        (GOLDEN_DIR / f"{name}.out").write_bytes(stdout.encode())
        index[name] = {"argv": argv, "exit_code": code}
    (GOLDEN_DIR / "cases.json").write_text(json.dumps(index, indent=2) + "\n")


if __name__ == "__main__":
    write()
    print(f"wrote {len(CASES)} cases to {GOLDEN_DIR}")
