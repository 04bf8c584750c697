"""The traced run: per-layer metrics from direct calls and from spans.

Every workload's traced run makes the same layer pass over inputs drawn from
its seed, so each one reports every per-layer metric. Only
``trace.overhead_ratio`` belongs to the workload itself: its operations run
in pairs, once untraced and once traced, in alternating order, and the
ratio is the median over pairs. End-to-end metrics come from untraced runs.

A layer whose function no longer exists is reported as missing, with the
reason, instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs
import workloads
from spans import WRAP_POINTS, Tracer, children_index, self_time_ns
from stats import quartiles
from worker import call_main
from workloads import Outcome, put

HERE = Path(__file__).resolve().parent

STATUSES = ("ok", "aero-infeasible", "surrogate-domain", "esc-domain",
            "hover-degenerate", "rpm-infeasible")

# metric -> (unit, the step of the layer pass that measures it)
PER_LAYER = {
    "import.total_ms": ("ms", "import"),
    "import.scipy_ms": ("ms", "import"),
    "import.numpy_ms": ("ms", "import"),
    "config.load_ms": ("ms", "config"),
    "trim.solve_trim_us": ("us", "micro"),
    "trim.trim_airspeed_us": ("us", "micro"),
    "trim.trim_at_speed_us": ("us", "micro"),
    "trim.wingless_us": ("us", "micro"),
    "trim.theta_solve_us": ("us", "compare"),
    "propulsion.required_rpm_us": ("us", "micro"),
    "propulsion.required_rpm_calls": ("count", "sweep"),
    "propulsion.torque_esc_us": ("us", "micro"),
    "propulsion.rpm_share": ("ratio", "micro"),
    "sweep.cells": ("count", "sweep"),
    "sweep.cell_us": ("us", "sweep"),
    "sweep.argmax_ms": ("ms", "sweep"),
    "sweep.feasible_ratio": ("ratio", "sweep"),
    **{f"sweep.status.{s}": ("count", "sweep") for s in STATUSES},
    "sweep.csv_ms": ("ms", "sweep"),
    "sweep.curves_ms": ("ms", "sweep"),
    "sweep.summary_ms": ("ms", "sweep"),
    "sweep.csv_bytes": ("bytes", "sweep"),
    "sweep.pool_wall_s.fine": ("s", "pool"),
    "sweep.pool_speedup.fine": ("ratio", "pool"),
    "sweep.pool_wall_s.900": ("s", "pool"),
    "sweep.pool_speedup.900": ("ratio", "pool"),
    "cli.write_ms": ("ms", "sweep"),
    "cli.overhead_ms": ("ms", "sweep"),
    "fitting.parse_ms": ("ms", "fitting"),
    "fitting.fit_prop_ms": ("ms", "fitting"),
    "compare.rows": ("count", "compare"),
    "compare.rows_marked": ("count", "compare"),
    "compare.wing_ok_ratio": ("ratio", "compare"),
    "trace.overhead_ratio": ("ratio", "overhead"),
}

IMPORT_RUNS = 3
CONFIG_LOADS = 20
MICRO_POINTS = 48
MICRO_REPEATS = 5
COMPARE_CALLS = 8
POOL_PAIRS = {"fine": 4, "900": 12}  # serial/pooled pairs per grid
FIT_REPEATS = 10
ARGMAX_REPEATS = 5

_ns = time.perf_counter_ns


class Missing(Exception):
    """A layer the benchmark reaches no longer exists in the program."""


def lookup(module, attr: str):
    value = getattr(module, attr, None)
    if value is None:
        raise Missing(f"{module.__name__}.{attr} does not exist")
    return value


def parse_importtime(text: str) -> dict[str, float]:
    """Milliseconds of ``-X importtime`` output: all of liftwing, scipy, numpy.

    A package's figure is the cumulative time of its outermost entries, so
    numpy imported by scipy counts in both.
    """
    entries = []  # (depth, name, cumulative us), children before parents
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip()
        name = field.lstrip(" ")
        entries.append(((len(field) - len(name) - 1) // 2, name, int(parts[1])))

    def outermost(package: str) -> float:
        total, open_ = 0, []
        for depth, name, cumulative in reversed(entries):  # parents first
            while open_ and open_[-1][0] >= depth:
                open_.pop()
            hit = name == package or name.startswith(package + ".")
            if hit and not any(h for _, h in open_):
                total += cumulative
            open_.append((depth, hit))
        return total / 1000.0

    return {"total": outermost("liftwing"), "scipy": outermost("scipy"),
            "numpy": outermost("numpy")}


def _median_us(times_ns: list[int]) -> float:
    return statistics.median(times_ns) / 1e3


class LayerRun:
    def __init__(self, ctx: workloads.Context, workload: str, gen: inputs.Inputs,
                 inputs_dir: Path):
        self.ctx = ctx
        self.oc = Outcome(workload)
        self.tracer = Tracer()
        self.next_op = 0
        self.reasons: dict[str, str] = {}
        self.generated = {workload: (gen, inputs_dir)}
        self.configs = checks.ConfigCache()
        self.expected: dict[tuple, list] = {}
        self.env = workloads.child_env(ctx.src)

    def inputs_for(self, workload: str) -> tuple[inputs.Inputs, Path]:
        if workload not in self.generated:
            gen = inputs.GENERATORS[workload](self.ctx.seed)
            directory = self.ctx.tmp / f"{workload}-inputs"
            gen.write(directory)
            self.generated[workload] = (gen, directory)
        return self.generated[workload]

    def argv(self, op: dict, inputs_dir: Path, out: Path) -> list[str]:
        return inputs.materialize(op["argv"], inputs_dir, out, self.ctx.table)

    def set(self, name: str, value) -> None:
        if value is None:
            self.oc.metrics[name] = {"value": None, "unit": PER_LAYER[name][0],
                                     "missing": "no sample"}
        else:
            put(self.oc.metrics, name, value, PER_LAYER[name][0])

    def metric(self, name: str, compute) -> None:
        try:
            self.set(name, compute())
        except Missing as err:
            self.oc.metrics[name] = {"value": None, "unit": PER_LAYER[name][0],
                                     "missing": str(err)}

    def spans_named(self, spans: list, name: str) -> list:
        paths = [f"{m}.{a}" for m, a, n in WRAP_POINTS if n == name]
        gone = [p for p in paths if p in self.tracer.missing]
        if gone and len(gone) == len(paths):
            raise Missing(f"{' and '.join(gone)} no longer exist")
        return [s for s in spans if s[1] == name]

    def op_spans(self, op: int) -> list:
        return [s for s in self.tracer.spans if s[5] == op]

    def cli_op(self, argv: list[str], traced: bool, capture: dict | None = None) -> dict:
        """One in-process ``liftwing.cli.main`` call, traced or not."""
        op = self.next_op
        self.next_op += 1
        around = contextlib.nullcontext
        if traced:
            self.tracer.op = op
            self.tracer.install(capture)
            around = functools.partial(self.tracer.span, "cli.main")
        try:
            rc, wall, out, err = call_main(argv, around)
        finally:
            self.tracer.restore()
            self.tracer.op = None
        return {"op": op, "rc": rc, "wall_s": wall, "stdout": out, "stderr": err}

    def check_op(self, workload: str, res: dict, argv: list[str]) -> tuple[list[str], dict]:
        cfg = self.configs.get(checks.flag(argv, "--config"))
        expected = None
        if workload == "compare-dense":
            key = tuple(argv)
            if key not in self.expected:
                self.expected[key] = checks.compare_expectation(cfg, argv)
            expected = self.expected[key]
        return workloads.check_in_process_op(workload, res, argv, cfg, expected)

    # ---- the layer pass ------------------------------------------------

    def import_layer(self) -> None:
        parsed = []
        for k in range(IMPORT_RUNS):
            rc, _, _, _, err = workloads.run_child(
                [sys.executable, "-X", "importtime", "-c", "import liftwing"],
                self.ctx.tmp / "importtime" / str(k), self.env)
            self.oc.record(f"importtime {k}", checks.check_exit(rc, err))
            parsed.append(parse_importtime(err))
        for key in ("total", "scipy", "numpy"):
            self.set(f"import.{key}_ms", statistics.median(p[key] for p in parsed))

    def config_layer(self) -> None:
        from liftwing.config import load_config
        gen, directory = self.generated[self.oc.workload]
        path = directory / sorted(gen.files)[0]
        times = []
        for _ in range(CONFIG_LOADS):
            t = _ns()
            load_config(path)
            times.append(_ns() - t)
        self.set("config.load_ms", statistics.median(times) / 1e6)

    def micro_layer(self) -> None:
        """Direct calls into trim and propulsion on seeded feasible points."""
        import liftwing.propulsion as prop
        import liftwing.trim as trim
        from liftwing.config import default_config
        from liftwing.errors import LiftwingError
        cfg = default_config()
        b = cfg.bundle()
        models = (b.airframe, b.environment, b.aero, b.thrust_surrogate,
                  b.torque_surrogate, b.esc, b.battery)
        tilt = b.apply_tilt_loss
        rng = random.Random(f"layers/{self.ctx.seed}")
        angles, speeds = [], []
        while len(angles) < MICRO_POINTS:
            g, a = rng.choice(cfg.grid.gammas()), rng.choice(cfg.grid.alphas())
            if checks.trim_feasible(cfg, g, alpha=a):
                angles.append((g, a))
        while len(speeds) < MICRO_POINTS:
            g, v = round(rng.uniform(20.0, 45.0), 2), round(rng.uniform(5.0, 25.0), 2)
            if checks.trim_feasible(cfg, g, speed=v):
                speeds.append((g, v))

        solve_trim = lookup(trim, "solve_trim")
        trim_airspeed = lookup(trim, "trim_airspeed")
        required_rpm = lookup(prop, "required_rpm")
        t_solve, t_air, t_rpm, t_tq = [], [], [], []
        for _ in range(MICRO_REPEATS):
            for g, a in angles:
                t = _ns()
                p = solve_trim(*models, g, a, apply_tilt_loss=tilt)
                t_solve.append(_ns() - t)
                t = _ns()
                trim_airspeed(b.airframe, b.environment, b.aero, g, a)
                t_air.append(_ns() - t)
                # replay the propulsion chain of the solved point
                vp = prop.axial_inflow(p.airspeed, p.theta)
                t = _ns()
                required_rpm(b.thrust_surrogate, p.thrust_per_rotor, vp)
                t_rpm.append(_ns() - t)
                t = _ns()
                prop.esc_current(b.esc, prop.torque(b.torque_surrogate, p.rpm, vp))
                t_tq.append(_ns() - t)
        self.set("trim.solve_trim_us", _median_us(t_solve))
        self.set("trim.trim_airspeed_us", _median_us(t_air))
        self.set("propulsion.required_rpm_us", _median_us(t_rpm))
        self.set("propulsion.torque_esc_us", _median_us(t_tq))
        self.set("propulsion.rpm_share", sum(t_rpm) / sum(t_solve))

        trim_at_speed = lookup(trim, "trim_at_speed")
        wingless = lookup(trim, "wingless_trim_at_speed")
        t_speed, t_bare = [], []
        for _ in range(MICRO_REPEATS):
            for g, v in speeds:
                t = _ns()
                trim_at_speed(*models, g, v, apply_tilt_loss=tilt)
                t_speed.append(_ns() - t)
                t = _ns()
                try:
                    wingless(b.airframe, b.environment, b.thrust_surrogate, b.torque_surrogate,
                             b.esc, b.battery, v, parasite_drag_area=cfg.parasite_drag_area,
                             apply_tilt_loss=tilt)
                except LiftwingError:
                    continue
                t_bare.append(_ns() - t)
        self.set("trim.trim_at_speed_us", _median_us(t_speed))
        self.set("trim.wingless_us", _median_us(t_bare))

    def compare_layer(self) -> None:
        gen, directory = self.inputs_for("compare-dense")
        rows = marked = wing_ok = 0
        ops = []
        for op in gen.ops[:COMPARE_CALLS]:
            argv = self.argv(op, directory, directory)
            res = self.cli_op(argv, traced=True)
            problems, count = self.check_op("compare-dense", res, argv)
            self.oc.record(f"traced compare op{res['op']}", problems)
            rows += count.get("rows", 0)
            marked += count.get("rows_marked", 0)
            wing_ok += count.get("wing_ok", 0)
            ops.append(res["op"])
        self.set("compare.rows", rows)
        self.set("compare.rows_marked", marked)
        self.set("compare.wing_ok_ratio", wing_ok / rows if rows else None)

        def theta_solve():
            # trim_at_speed minus its propulsion children: the pitch root solve
            spans = [s for op in ops for s in self.op_spans(op)]
            kids = children_index(spans)
            for name in ("propulsion.required_rpm", "propulsion.torque", "propulsion.esc_current"):
                self.spans_named(spans, name)
            times = [self_time_ns(s, kids[s[0]])
                     for s in self.spans_named(spans, "trim.trim_at_speed") if s[0] in kids]
            return _median_us(times)
        self.metric("trim.theta_solve_us", theta_solve)

    def sweep_layer(self) -> None:
        sweep_mod = importlib.import_module("liftwing.sweep")
        gen, directory = self.inputs_for("sweep-fine")
        out = self.ctx.tmp / "traced-sweep"
        argv = self.argv(gen.ops[0], directory, out)
        captured: list = []
        res = self.cli_op(argv, traced=True, capture={"sweep.sweep": captured})
        res["out_dir"] = out
        problems, count = self.check_op("sweep-fine", res, argv)
        shutil.rmtree(out, ignore_errors=True)
        self.oc.record(f"traced sweep op{res['op']}", problems)
        if problems:
            raise RuntimeError("the traced sweep failed its checks")
        status = count["status"]
        cells = sum(status.values())
        self.set("sweep.cells", cells)
        for s in STATUSES:
            self.set(f"sweep.status.{s}", status.get(s, 0))
        self.set("sweep.feasible_ratio", status.get("ok", 0) / cells)
        self.set("sweep.csv_bytes", count["csv_bytes"])

        spans = self.op_spans(res["op"])
        kids = children_index(spans)

        def total_ms(name):
            return sum(s[3] - s[2] for s in self.spans_named(spans, name)) / 1e6

        self.metric("sweep.cell_us", lambda: total_ms("sweep.sweep") * 1e3 / cells)
        self.metric("propulsion.required_rpm_calls",
                    lambda: len(self.spans_named(spans, "propulsion.required_rpm")))
        self.metric("sweep.csv_ms", lambda: total_ms("sweep.cells_to_csv"))
        self.metric("sweep.curves_ms", lambda: total_ms("sweep.curve_to_csv"))
        self.metric("sweep.summary_ms", lambda: total_ms("sweep.summary_to_json"))
        self.metric("cli.write_ms", lambda: total_ms("cli.write_text"))
        # main() less everything traced under it: config, sweep, serializers, writes
        main_span = next(s for s in spans if s[1] == "cli.main")
        self.set("cli.overhead_ms", self_time_ns(main_span, kids.get(main_span[0], [])) / 1e6)

        def argmax_ms():
            apply_alpha_cap = lookup(sweep_mod, "apply_alpha_cap")
            if not captured:
                raise Missing("liftwing.cli.sweep returned nothing to re-rank")
            cfg = self.configs.get(checks.flag(argv, "--config"))
            times = []
            for _ in range(ARGMAX_REPEATS):
                t = _ns()
                apply_alpha_cap(captured[0], cfg.airframe.stall_alpha, cfg.airframe.safety_margin)
                times.append(_ns() - t)
            return statistics.median(times) / 1e6
        self.metric("sweep.argmax_ms", argmax_ms)

    def pool_layer(self) -> None:
        sweep_mod = importlib.import_module("liftwing.sweep")
        from liftwing.config import default_config, load_config
        sweep = lookup(sweep_mod, "sweep")
        if "jobs" not in inspect.signature(sweep).parameters:
            raise Missing("sweep() takes no jobs argument: the process pool is gone")
        jobs = min(2, os.cpu_count() or 1)
        gen, directory = self.inputs_for("sweep-fine")
        for label, cfg in (("fine", load_config(directory / sorted(gen.files)[0])),
                           ("900", default_config())):
            # pairs alternate which of serial and pooled runs first, so drift
            # and warm-up fall on both sides; the figure is the median pair ratio
            bundle, pooled, ratios = cfg.bundle(), [], []
            for k in range(POOL_PAIRS[label]):
                wall, result = {}, {}
                for n in ((1, jobs) if k % 2 == 0 else (jobs, 1)):
                    t = time.perf_counter()
                    result[n] = sweep(bundle, cfg.grid, jobs=n)
                    wall[n] = time.perf_counter() - t
                self.oc.record(f"pool {label}", [] if result[1] == result[jobs] else
                               [f"jobs={jobs} sweep differs from the serial one"])
                pooled.append(wall[jobs])
                ratios.append(wall[1] / wall[jobs])
            self.set(f"sweep.pool_wall_s.{label}", statistics.median(pooled))
            self.set(f"sweep.pool_speedup.{label}", statistics.median(ratios))
            q1, med, q3 = quartiles(ratios)
            put(self.oc.named, f"sweep.pool_speedup.{label}.spread", (q3 - q1) / med, "ratio",
                f"IQR over median of {len(ratios)} pair ratios, jobs={jobs}")
            self.oc.samples[f"pool_ratios.{label}"] = ratios

    def fitting_layer(self) -> None:
        import liftwing.fitting as fitting
        from liftwing.config import SURROGATE_BASIS
        parse = lookup(fitting, "parse_propeller_table")
        fit = lookup(fitting, "fit_poly_surrogate")
        t_parse, t_fit = [], []
        for _ in range(FIT_REPEATS):
            t = _ns()
            with open(self.ctx.table) as fh:
                table = parse(fh)
            t_parse.append(_ns() - t)
            t = _ns()
            fit(table, SURROGATE_BASIS, target="thrust", output_unit="N")
            model, _ = fit(table, SURROGATE_BASIS, target="torque", output_unit="N*m")
            t_fit.append(_ns() - t)
        doc = {"torque_surrogate": {"terms": [list(term) for term in model.terms]}}
        self.oc.record("fit prop", checks.check_fit_prop(json.dumps(doc)))
        self.set("fitting.parse_ms", statistics.median(t_parse) / 1e6)
        self.set("fitting.fit_prop_ms", statistics.median(t_fit) / 1e6)

    def workload_op(self, op: dict, traced: bool) -> float:
        """One operation of the run's own workload; returns its wall time."""
        workload = self.oc.workload
        gen, directory = self.generated[workload]
        d = self.ctx.tmp / "overhead" / f"op{self.next_op}"
        if workload == "cli-cold":
            op_id = self.next_op
            self.next_op += 1
            spans_file = d / "spans.jsonl"
            launcher = [str(HERE / "traced_child.py"), str(spans_file)] if traced else None
            r = workloads.cold_op(self.ctx, self.env, op, directory, d, launcher)
            cfg = self.configs.get(str(directory / "config.json"))
            self.oc.record(f"overhead op{op_id} {op['kind']}", checks.check_cold_op(
                op["kind"], r["argv"], r["rc"], r["stdout"], r["stderr"], r["out_dir"], cfg))
            if traced and spans_file.exists():
                self._adopt(spans_file, op_id)
            shutil.rmtree(d, ignore_errors=True)
            return r["wall_s"]
        argv = self.argv(op, directory, d)
        res = self.cli_op(argv, traced)
        res["out_dir"] = d
        problems, _ = self.check_op(workload, res, argv)
        shutil.rmtree(d, ignore_errors=True)
        self.oc.record(f"overhead op{res['op']}", problems)
        return res["wall_s"]

    def _adopt(self, spans_file: Path, op_id: int) -> None:
        """Append a child's spans, renumbered, under this run's operation id."""
        base = len(self.tracer.spans)
        with open(spans_file) as fh:
            for line in fh:
                sid, name, start, end, parent, _, error = json.loads(line)
                self.tracer.spans.append((sid + base, name, start, end,
                                          None if parent is None else parent + base,
                                          op_id, error))

    def overhead_layer(self) -> None:
        gen, _ = self.generated[self.oc.workload]
        ratios = []
        start = time.perf_counter()
        while not ratios or time.perf_counter() - start < self.ctx.seconds:
            op = gen.ops[len(ratios) % len(gen.ops)]
            order = (False, True) if len(ratios) % 2 == 0 else (True, False)
            wall = {traced: self.workload_op(op, traced) for traced in order}
            ratios.append(wall[True] / wall[False])
        self.oc.samples["overhead_ratios"] = ratios
        self.set("trace.overhead_ratio", statistics.median(ratios))

    def run(self, spans_path: Path) -> Outcome:
        steps = (("import", self.import_layer), ("config", self.config_layer),
                 ("micro", self.micro_layer), ("compare", self.compare_layer),
                 ("sweep", self.sweep_layer), ("pool", self.pool_layer),
                 ("fitting", self.fitting_layer), ("overhead", self.overhead_layer))
        for label, step in steps:
            try:
                step()
            except Missing as err:
                self.reasons[label] = str(err)
            except Exception as err:
                traceback.print_exc(file=sys.stderr)
                self.reasons[label] = f"{label} step failed: {type(err).__name__}: {err}"
                self.oc.record(f"layer {label}", [self.reasons[label]])
        metrics = {}
        for name, (unit, step) in PER_LAYER.items():
            metrics[name] = self.oc.metrics.get(name) or {
                "value": None, "unit": unit,
                "missing": self.reasons.get(step, "not measured")}
        self.oc.metrics = metrics
        self.tracer.dump(spans_path)
        return self.oc


def run_traced(ctx: workloads.Context, workload: str, gen: inputs.Inputs,
               inputs_dir: Path, spans_path: Path) -> Outcome:
    return LayerRun(ctx, workload, gen, inputs_dir).run(spans_path)
