"""The three workloads with tracing off: closed-loop runners and their metrics.

One client runs operations back to back, each after the previous one ends.
``cli-cold`` starts one ``python -m liftwing`` child per operation;
``sweep-fine`` and ``compare-dense`` run in one worker interpreter that calls
``liftwing.cli.main`` in-process. Outputs are checked after the timed loop.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import reference
from stats import tail_percentile

SETUP_PAIRS = 2  # set-up/reference pairs before the timed loop, and again after it
CHILD_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent


@dataclass
class Context:
    src: Path      # directory that holds the liftwing package under test
    tmp: Path      # this run's scratch directory inside the checkout
    seed: int
    seconds: int

    @property
    def table(self) -> Path:
        return self.src / "liftwing" / "data" / "prop_bench_table.dat"


@dataclass
class Outcome:
    workload: str
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # the BENCHMARK.json metrics
    named: dict = field(default_factory=dict)    # per-workload end-to-end figures
    samples: dict = field(default_factory=dict)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")


def put(table: dict, name: str, value, unit: str, note: str = "") -> None:
    table[name] = {"value": value, "unit": unit}
    if note:
        table[name]["note"] = note


def child_env(src: Path) -> dict:
    """The caller's environment with an absolute PYTHONPATH to the package."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LIFTWING_CONFIG")}
    env["PYTHONPATH"] = str(src)
    return env


_spawner: subprocess.Popen | None = None


def close_spawner() -> None:
    """Stop the spawner process, if one was started, and wait for it."""
    global _spawner
    if _spawner is not None:
        _spawner.stdin.close()
        try:
            _spawner.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _spawner.kill()
            _spawner.wait()
        _spawner.stdout.close()
        _spawner = None


def run_child(cmd: list[str], cwd: Path, env: dict,
              timeout: float = CHILD_TIMEOUT_S) -> tuple[int, float, int, str, str]:
    """Run one child in ``cwd``: (exit code, wall s, its ru_maxrss in KiB, stdout, stderr).

    Children start from spawner.py, so their peak resident size is their own.
    """
    global _spawner
    cwd.mkdir(parents=True, exist_ok=True)
    if _spawner is None:
        _spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    _spawner.stdin.write(json.dumps({"cmd": cmd, "cwd": str(cwd), "env": env,
                                     "timeout": timeout}) + "\n")
    _spawner.stdin.flush()
    reply = _spawner.stdout.readline()
    if not reply:
        raise RuntimeError(f"spawner exited with {_spawner.wait()}")
    r = json.loads(reply)
    return (r["rc"], r["wall_s"], r["maxrss_kb"], (cwd / "stdout.txt").read_text(),
            (cwd / "stderr.txt").read_text())


def worker_run(ctx: Context, config: Path, tag: str, argv: list | None = None) -> dict:
    """One fresh worker interpreter; with ``argv`` it also runs the timed loop."""
    d = ctx.tmp / tag
    d.mkdir(parents=True)
    spec = {"src": str(ctx.src), "config": str(config), "loop": argv is not None,
            "argv": argv or [], "seconds": ctx.seconds, "tmp": str(d),
            "result": str(d / "result.json"), "ops": str(d / "ops.jsonl")}
    (d / "spec.json").write_text(json.dumps(spec))
    rc, _, _, _, err = run_child([sys.executable, str(HERE / "worker.py"), str(d / "spec.json")],
                                 d, child_env(ctx.src), timeout=ctx.seconds + CHILD_TIMEOUT_S)
    if rc != 0:
        raise RuntimeError(f"worker {tag} exited {rc}: {err.strip()[-2000:]}")
    result = json.loads((d / "result.json").read_text())
    if argv is not None:
        with open(d / "ops.jsonl") as fh:
            result["ops"] = [json.loads(line) for line in fh]
    return result


def setup_pairs(ctx: Context, config: Path, first: int) -> tuple[list[tuple], int]:
    """SETUP_PAIRS fresh set-up workers, each paired with a set-up reference.

    Returns [(set-up s, reference s)] and the workers' largest ru_maxrss.
    Which of the two runs first alternates from pair to pair.
    """
    pairs, rss = [], 0
    for k in range(first, first + SETUP_PAIRS):
        ref_dir = ctx.tmp / f"setup{k}-ref"
        if k % 2:
            _, ref = reference.interpreter(run_child, ref_dir, child_env(ctx.src))
            run = worker_run(ctx, config, f"setup{k}")
        else:
            run = worker_run(ctx, config, f"setup{k}")
            _, ref = reference.interpreter(run_child, ref_dir, child_env(ctx.src))
        pairs.append((run["setup_s"], ref))
        rss = max(rss, run["maxrss_kb"])
    return pairs, rss


def _finish(oc: Outcome, setups: list[tuple], rss_kb: int, walls: list[float],
            scale: float) -> Outcome:
    """The BENCHMARK.json metrics: raw figures rescaled to the reference speed.

    ``scale`` is the run's NOMINAL / typical reference time for its
    operations. Operation time is the mean, not the median: the host's speed
    drifts within a run, and the mean integrates over the same window as
    the references that rescale it, where a median of a few operations jumps.
    ``setups`` holds (set-up s, set-up reference s) pairs; set-up time is
    the median pair ratio at the nominal reference speed (see reference.py).
    """
    setup_s = reference.SETUP_NOMINAL_S * statistics.median(s / r for s, r in setups)
    put(oc.named, "setup_raw_s", statistics.median(s for s, _ in setups), "s",
        f"raw median of {len(setups)} fresh workers")
    put(oc.named, "setup_ref_s", statistics.median(r for _, r in setups), "s",
        "median reference import of numpy and scipy.optimize")
    put(oc.named, "peak_rss_mb", rss_kb / 1024.0, "MB")
    put(oc.named, "ops_failed_ratio", oc.failed / oc.attempted, "ratio",
        f"{oc.failed} failed / {oc.attempted} attempted")
    mean_ms = 1000.0 * statistics.fmean(walls)
    put(oc.named, "op_mean_ms", mean_ms, "ms", f"raw mean of {len(walls)} operations")
    put(oc.named, "reference_scale", scale, "ratio",
        "nominal / measured reference time; normalized figures are raw x this")
    put(oc.metrics, "latency_norm_ms", mean_ms * scale, "ms")
    put(oc.metrics, "setup_s", setup_s, "s")
    put(oc.metrics, "peak_rss_mb", rss_kb / 1024.0, "MB")
    oc.samples["setup_pairs_s"] = setups
    return oc


def cold_op(ctx: Context, env: dict, op: dict, inputs_dir: Path, d: Path,
            launcher: list[str] | None = None) -> dict:
    """One cold invocation in its own cwd and output directory."""
    argv = inputs.materialize(op["argv"], inputs_dir, d / "out", ctx.table)
    cmd = [sys.executable] + (launcher or ["-m", "liftwing"]) + argv
    rc, wall, rss, out, err = run_child(cmd, d, env)
    return {"kind": op["kind"], "argv": argv, "rc": rc, "wall_s": wall, "maxrss_kb": rss,
            "stdout": out, "stderr": err, "out_dir": d / "out"}


def run_cli_cold(ctx: Context, gen: inputs.Inputs, inputs_dir: Path) -> Outcome:
    oc = Outcome("cli-cold")
    config = inputs_dir / "config.json"
    setups, rss = setup_pairs(ctx, config, 0)
    env = child_env(ctx.src)
    per_round = len(inputs.CLI_COMMANDS)
    rounds = [gen.ops[k:k + per_round] for k in range(0, len(gen.ops), per_round)]
    done, refs = [], []
    # the window counts operation time only: each operation's reference
    # interpreter takes nearly as long as the operation itself
    while sum(r["wall_s"] for r in done) < ctx.seconds:
        # whole rounds only, so every command keeps one fifth of the mix
        for op in rounds[len(done) // per_round % len(rounds)]:
            d = ctx.tmp / "cold" / f"op{len(done)}"
            refs.append(reference.interpreter(run_child, d / "ref", env)[0])
            done.append(cold_op(ctx, env, op, inputs_dir, d))
    after, after_rss = setup_pairs(ctx, config, SETUP_PAIRS)
    setups += after
    rss = max(rss, after_rss)

    cfg = checks.ConfigCache().get(str(config))
    by_kind: dict[str, list[float]] = {}
    for i, r in enumerate(done):
        oc.record(f"op{i} {r['kind']}", checks.check_cold_op(
            r["kind"], r["argv"], r["rc"], r["stdout"], r["stderr"], r["out_dir"], cfg))
        by_kind.setdefault(r["kind"], []).append(r["wall_s"])
        rss = max(rss, r["maxrss_kb"])

    for kind in inputs.CLI_COMMANDS:
        put(oc.named, f"cold_{kind}_s", statistics.median(by_kind[kind]), "s",
            f"median of {len(by_kind[kind])}")
    walls = [r["wall_s"] for r in done]
    tail = tail_percentile(walls)
    if tail:
        put(oc.named, f"cold_p{tail[0]}_s", tail[1], "s",
            f"n={len(walls)}; highest percentile <= p90 with ten samples beyond it")
    else:
        put(oc.named, "cold_p90_s", None, "s",
            f"n={len(walls)}: no percentile >= p50 has ten samples beyond it")
    oc.samples.update({f"cold_{k}_s": v for k, v in by_kind.items()})
    oc.samples["ref_cold_s"] = refs
    return _finish(oc, setups, rss, walls, reference.scale(refs, reference.COLD_NOMINAL_S))


def check_in_process_op(workload: str, op: dict, argv: list[str], cfg,
                        expected: list | None) -> tuple[list[str], dict]:
    """Checks of one in-process operation, and the counts it produced."""
    if workload == "sweep-fine":
        problems = checks.check_exit(op["rc"], op["stderr"])
        if problems:
            return problems, {}
        problems, counts, csv_bytes = checks.check_sweep_outputs(Path(op["out_dir"]), cfg)
        return problems, {"status": dict(counts), "csv_bytes": csv_bytes}
    problems = checks.check_exit(op["rc"], op["stderr"], checks.compare_exit_code(expected))
    if problems:
        return problems, {}
    problems, rows = checks.check_compare_json(op["stdout"], expected)
    return problems, {"rows": len(rows),
                      "rows_marked": sum("saving_percent" not in r for r in rows),
                      "wing_ok": sum("wing_current_A" in r for r in rows)}


def run_in_process(ctx: Context, workload: str, gen: inputs.Inputs,
                   inputs_dir: Path) -> Outcome:
    oc = Outcome(workload)
    argvs = [inputs.materialize(op["argv"], inputs_dir, Path("{out}"), ctx.table)
             for op in gen.ops]
    config = Path(checks.flag(argvs[0], "--config"))
    setups, rss = setup_pairs(ctx, config, 0)
    # the loop worker's own set-up is one more sample, its reference taken first
    _, ref = reference.interpreter(run_child, ctx.tmp / "loop-ref", child_env(ctx.src))
    res = worker_run(ctx, config, "loop", argv=argvs)
    setups.append((res["setup_s"], ref))
    after, after_rss = setup_pairs(ctx, config, SETUP_PAIRS)
    setups += after
    rss = max(rss, res["maxrss_kb"], after_rss)

    cache = checks.ConfigCache()
    expected: dict[int, list] = {}
    walls, units_done, counts = [], 0, []
    for k, op in enumerate(res["ops"]):
        argv = argvs[op["index"]]
        cfg = cache.get(checks.flag(argv, "--config"))
        if workload == "compare-dense" and op["index"] not in expected:
            expected[op["index"]] = checks.compare_expectation(cfg, argv)
        problems, count = check_in_process_op(workload, op, argv, cfg, expected.get(op["index"]))
        shutil.rmtree(op["out_dir"], ignore_errors=True)
        oc.record(f"op{k}", problems)
        walls.append(op["wall_s"])
        counts.append(count)
        if not problems:
            units_done += cfg.grid.cell_count() if workload == "sweep-fine" else count["rows"]

    p50 = statistics.median(walls)
    throughput = units_done / sum(walls)
    if workload == "sweep-fine":
        put(oc.named, "sweep_fine_p50_s", p50, "s", f"median of {len(walls)} sweeps")
        put(oc.named, "sweep_cells_per_s", throughput, "1/s", "cells of ok sweeps / summed wall")
    else:
        put(oc.named, "compare_call_p50_ms", 1000.0 * p50, "ms", f"median of {len(walls)} calls")
        put(oc.named, "compare_rows_per_s", throughput, "1/s", "rows of ok calls / summed wall")
    tail = tail_percentile(walls)
    if tail:
        put(oc.named, f"op_p{tail[0]}_ms", 1000.0 * tail[1], "ms", f"n={len(walls)}")
    oc.samples.update({"wall_s": walls, "counts": counts, "ref_loop_s": res["ref_loop_s"]})
    return _finish(oc, setups, rss, walls,
                   reference.LOOP_NOMINAL_S / reference.bracketed(res["ref_loop_s"]))


def run_untraced(ctx: Context, workload: str, gen: inputs.Inputs, inputs_dir: Path) -> Outcome:
    if workload == "cli-cold":
        return run_cli_cold(ctx, gen, inputs_dir)
    return run_in_process(ctx, workload, gen, inputs_dir)
