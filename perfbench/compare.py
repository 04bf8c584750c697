#!/usr/bin/env python3
"""Compare two sets of benchmark result files: parent against change.

    python3 perfbench/compare.py --parent DIR_OR_FILES... --change DIR_OR_FILES...

Runs pair up by workload, trace setting and seed. For each workload and
metric the table gives each side's quartiles, the pairs the change won
(ties count for neither) and a verdict, each metric on its own row:

- improved: at least 10 pairs, the change wins at least 9 in 10 of them,
  and the medians differ by more than the parent's interquartile range;
- worse: an end-to-end metric whose median is worse than the parent's by
  more than its bound in BENCHMARK.json; a per-layer metric, which has no
  bound, that loses by the mirror of the "improved" rule;
- unresolved: the parent's own spread (IQR over median) exceeds the bound,
  and not every change run beats every parent run; for per-layer metrics,
  a median shift beyond the parent's IQR that the pair rule does not
  settle;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
COMPARABLE = ("nproc", "cpu_model", "python", "numpy", "scipy")


def load(paths: list[str]) -> list[dict]:
    files: list[Path] = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    docs = []
    for f in files:
        doc = json.loads(f.read_text())
        if doc.get("workload") in (None, "all"):
            continue  # combined runs have no per-workload pairing
        docs.append(doc)
    return docs


def runs_by_key(docs: list[dict]) -> dict[tuple, list[dict]]:
    keyed: dict[tuple, list[dict]] = {}
    for doc in docs:
        key = (doc["workload"], doc["trace"], doc["provenance"]["seed"])
        keyed.setdefault(key, []).append(doc)
    return keyed


def verdict(parent: list[float], change: list[float], pairs: list[tuple],
            better: str, bound: float | None) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    iqr = q3 - q1
    gain = sign * (c_med - p_med)
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gain > iqr:
        return "improved", wins
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and -gain > iqr:
            return "worse", wins
        return ("unchanged" if abs(gain) <= iqr else "unresolved"), wins
    # a metric with a bound is worse only beyond it
    if p_med and -gain / abs(p_med) > bound:
        return "worse", wins
    if p_med and iqr / abs(p_med) > bound:
        all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
        return ("unchanged" if all_better else "unresolved"), wins
    return "unchanged", wins


def _cell(values: list[float]) -> str:
    return " / ".join(f"{q:.5g}" for q in quartiles(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: (m["better"], m.get("bound")) for m in bench["end_to_end"]}
    spec.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})

    parent, change = load(args.parent), load(args.change)
    for field in COMPARABLE:
        seen = {d["provenance"].get(field) for d in parent + change}
        if len(seen) > 1:
            print(f"warning: the runs differ in {field}: {sorted(map(str, seen))}")
    loads = [d["provenance"][k] for d in parent + change
             for k in ("loadavg_1m_before", "loadavg_1m_after")]
    if loads:
        print(f"1-minute load average across runs: {min(loads):.2f} .. {max(loads):.2f}")

    p_runs, c_runs = runs_by_key(parent), runs_by_key(change)
    groups = sorted({k[:2] for k in p_runs} & {k[:2] for k in c_runs})
    if not groups:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'t':<2} {'metric':<30} {'parent q1 / median / q3':<36} "
          f"{'change q1 / median / q3':<36} {'won':>7}  verdict")
    for workload, trace in groups:
        keys = sorted(k for k in p_runs if k[:2] == (workload, trace))
        pairs_docs = [(p, c) for k in keys for p, c in zip(p_runs[k], c_runs.get(k, []))]
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            docs = [d for k, v in runs.items() if k[:2] == (workload, trace) for d in v]
            att = sum(d["result"]["attempted"] for d in docs)
            fail = sum(d["result"]["failed"] for d in docs)
            print(f"{workload:<14} {trace:<2} operations failed on the {side} side: {fail} of {att}")
        for name, (better, bound) in spec.items():
            pairs = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                     for p, c in pairs_docs
                     if name in p["result"]["metrics"] and name in c["result"]["metrics"]]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
            result, wins = verdict(pv, cv, pairs, better, bound)
            print(f"{workload:<14} {trace:<2} {name:<30} {_cell(pv):<36} {_cell(cv):<36} "
                  f"{wins:>3}/{len(pairs):<3}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
