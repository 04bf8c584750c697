#!/usr/bin/env python3
"""liftwing benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced and reports its end-to-end
metrics; ``--trace 1`` reports the per-layer metrics. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every figure with its unit. A result
file with provenance goes to ``.perfbench_runs/results/``; compare two sets
of them with ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("cli-cold", "sweep-fine", "compare-dense")


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    is_repo = (ROOT / ".git").exists()
    status = _git("status", "--porcelain", "--untracked-files=no") if is_repo else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git("rev-parse", "HEAD") if is_repo else None,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def _fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(oc, args) -> None:
    print(f"== {oc.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    rows = {**oc.metrics, **oc.named}
    for name, m in rows.items():
        note = m.get("note") or m.get("missing") or ""
        print(f"  {name:<34} {_fmt(m['value']):>14} {m['unit']:<6} {note}")
    print(f"  operations attempted {oc.attempted}, failed {oc.failed}")
    for failure in oc.failures[:20]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "liftwing" / "__init__.py").is_file():
        print(f"perfbench: no liftwing package under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liftwing
    package = Path(liftwing.__file__).resolve().parent
    if package != (SRC / "liftwing").resolve():
        print(f"perfbench: imported liftwing from {package}, not from {SRC}", file=sys.stderr)
        return 2

    import inputs
    import layers
    import workloads

    run_id = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    tmp = RUNS / "tmp" / run_id
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()[0]
    outcomes = []
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            gen = inputs.GENERATORS[name](args.seed)
            inputs_dir = tmp / name / "inputs"
            gen.write(inputs_dir)
            ctx = workloads.Context(src=package.parent, tmp=tmp / name, seed=args.seed,
                                    seconds=args.seconds)
            if args.trace:
                oc = layers.run_traced(ctx, name, gen, inputs_dir,
                                       results / f"{run_id}.{name}.spans.jsonl")
            else:
                oc = workloads.run_untraced(ctx, name, gen, inputs_dir)
            outcomes.append(oc)
            report(oc, args)
    finally:
        workloads.close_spawner()
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(oc.attempted for oc in outcomes)
    failed = sum(oc.failed for oc in outcomes)
    if args.workload == "all":
        metrics = {f"{oc.workload}.{k}": {"value": v["value"], "unit": v["unit"]}
                   for oc in outcomes for k, v in oc.named.items()}
    else:
        metrics = outcomes[0].metrics
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    doc = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": {**provenance(args.seed), "loadavg_1m_before": load_before,
                       "loadavg_1m_after": os.getloadavg()[0]},
        "result": line,
        "workloads": {oc.workload: {"attempted": oc.attempted, "failed": oc.failed,
                                    "failures": oc.failures, "named": oc.named,
                                    "metrics": oc.metrics, "samples": oc.samples}
                      for oc in outcomes},
    }
    path = results / f"{run_id}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
