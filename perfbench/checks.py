"""Correctness checks on the program's outputs, run outside the timed region.

Each check returns a list of failure messages; an empty list means the
operation's output is correct. Expected values come from calling the
library in-process on the same generated inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from pathlib import Path

from liftwing.aero import drag_coefficient, lift_coefficient
from liftwing.cli import point_to_dict
from liftwing.config import TORQUE_SURROGATE_TERMS, load_config
from liftwing.errors import LiftwingError
from liftwing.propulsion import thrust
from liftwing.trim import solve_trim, trim_at_speed, wingless_trim_at_speed

MAX_MESSAGES = 5  # per operation; the first few say enough

# cli-cold's sweep runs the shipped config, whose optimum the paper reports
PAPER_ARGMAX = {"gamma_deg": 35.0, "alpha_deg": 10.0, "airspeed_m_s": 15.30}


def solve_at_angles(cfg, gamma: float, alpha: float):
    b = cfg.bundle()
    return solve_trim(b.airframe, b.environment, b.aero, b.thrust_surrogate,
                      b.torque_surrogate, b.esc, b.battery, gamma, alpha,
                      apply_tilt_loss=b.apply_tilt_loss)


def solve_at_speed(cfg, gamma: float, speed: float):
    b = cfg.bundle()
    return trim_at_speed(b.airframe, b.environment, b.aero, b.thrust_surrogate,
                         b.torque_surrogate, b.esc, b.battery, gamma, speed,
                         apply_tilt_loss=b.apply_tilt_loss)


def solve_wingless(cfg, speed: float):
    b = cfg.bundle()
    return wingless_trim_at_speed(b.airframe, b.environment, b.thrust_surrogate,
                                  b.torque_surrogate, b.esc, b.battery, speed,
                                  parasite_drag_area=cfg.parasite_drag_area,
                                  apply_tilt_loss=b.apply_tilt_loss)


def trim_feasible(cfg, gamma: float, alpha: float | None = None,
                  speed: float | None = None) -> bool:
    try:
        if alpha is not None:
            point = solve_at_angles(cfg, gamma, alpha)
        else:
            point = solve_at_speed(cfg, gamma, speed)
    except (LiftwingError, ValueError):
        return False
    return point.theta != 0.0


def _current_or_none(solve, *args) -> float | None:
    try:
        return solve(*args).total_current
    except (LiftwingError, ValueError):
        return None


def expected_compare(cfg, gamma: float, speeds: list[float]) -> list[tuple]:
    """(speed, wing current or None, wingless current or None) per speed."""
    return [(v, _current_or_none(solve_at_speed, cfg, gamma, v),
             _current_or_none(solve_wingless, cfg, v)) for v in speeds]


def compare_exit_code(expected: list[tuple]) -> int:
    return 0 if any(w is not None and b is not None for _, w, b in expected) else 3


def flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def compare_expectation(cfg, argv: list[str]) -> list[tuple]:
    gamma = flag(argv, "--gamma")
    speeds = [float(s) for s in flag(argv, "--speeds").split(",")]
    return expected_compare(cfg, cfg.mounting_angle if gamma is None else float(gamma), speeds)


def check_exit(rc, stderr: str, expected: int = 0) -> list[str]:
    problems = []
    if rc != expected:
        problems.append(f"exit code {rc}, expected {expected}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    return problems


def check_point_json(stdout: str, point) -> list[str]:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as err:
        return [f"trim output is not JSON: {err}"]
    want = point_to_dict(point)
    wrong = [k for k in want if doc.get(k) != want[k]]
    if wrong or set(doc) != set(want):
        return [f"trim JSON differs from the in-process solution in {wrong or sorted(doc)}"]
    return []


def check_compare_json(stdout: str, expected: list[tuple]) -> tuple[list[str], list[dict]]:
    try:
        rows = json.loads(stdout)
    except json.JSONDecodeError as err:
        return [f"compare output is not JSON: {err}"], []
    if len(rows) != len(expected):
        return [f"{len(rows)} compare rows, expected {len(expected)}"], rows
    problems = []
    for row, (speed, wing, bare) in zip(rows, expected):
        if row.get("speed_m_s") != speed:
            problems.append(f"row speed {row.get('speed_m_s')} != {speed}")
        for key, err_key, want in (("wing_current_A", "wing_error", wing),
                                   ("wingless_current_A", "wingless_error", bare)):
            if want is None and (key in row or err_key not in row):
                problems.append(f"{speed} m/s: {key} should be marked infeasible")
            elif want is not None and row.get(key) != want:
                problems.append(f"{speed} m/s: {key}={row.get(key)} != in-process {want}")
        if "saving_percent" in row:
            iw, ib = row.get("wing_current_A"), row.get("wingless_current_A")
            if iw is None or ib is None or row["saving_percent"] != 100.0 * (ib - iw) / ib:
                problems.append(f"{speed} m/s: saving_percent is not 100*(I_wingless-I_wing)/I_wingless")
        elif wing is not None and bare is not None:
            problems.append(f"{speed} m/s: saving_percent missing")
    return problems[:MAX_MESSAGES], rows


def check_fit_prop(stdout: str) -> list[str]:
    try:
        terms = json.loads(stdout)["torque_surrogate"]["terms"]
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        return [f"fit prop output lacks torque_surrogate.terms: {err!r}"]
    got = {(int(i), int(j)): float(c) for i, j, c in terms}
    want = {(i, j): c for i, j, c in TORQUE_SURROGATE_TERMS}
    if set(got) != set(want):
        return [f"fit prop exponents {sorted(got)} != shipped {sorted(want)}"]
    off = [k for k, c in want.items() if abs(got[k] - c) > 1e-12 * abs(c)]
    return [f"fit prop torque terms {off} differ from the shipped surrogate by > 1e-12 relative"] if off else []


def check_sweep_outputs(out_dir: Path, cfg) -> tuple[list[str], Counter, int]:
    """Invariants of every ok cell, and the argmax, in one sweep's outputs.

    Returns the failure messages, the cell count per status and the size of
    cells.csv in bytes.
    """
    try:
        text = (out_dir / "cells.csv").read_text()
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, json.JSONDecodeError) as err:
        return [f"sweep outputs unreadable: {err}"], Counter(), 0
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    status = [r[col["status"]] for r in body]
    counts = Counter(status)
    problems = []
    grid = cfg.grid
    if len(body) != grid.cell_count():
        problems.append(f"{len(body)} cells in cells.csv, grid has {grid.cell_count()}")
    curves = len(list(out_dir.glob("curve_alpha_*.csv")))
    if curves != len(grid.alphas()):
        problems.append(f"{curves} curve files, grid has {len(grid.alphas())} alphas")

    af, env, aero = cfg.airframe, cfg.environment, cfg.aero
    mg = af.mass * env.gravity
    tol = 1e-6 * mg
    kappa = math.cos(math.radians(af.rotor_tilt)) if cfg.apply_tilt_loss else 1.0
    n = af.rotor_count
    cap = af.stall_alpha - af.safety_margin
    best = None
    for r, st in zip(body, status):
        if st != "ok":
            continue
        gamma, alpha, theta, v, rpm, t, rng = (float(r[col[k]]) for k in (
            "gamma_deg", "alpha_deg", "theta_deg", "airspeed_m_s", "rpm",
            "endurance_s", "range_m"))
        where = f"cell ({gamma}, {alpha})"
        if theta != gamma - alpha:
            problems.append(f"{where}: theta != gamma - alpha")
        if abs(rng - v * t) > 1e-12 * abs(rng):
            problems.append(f"{where}: range != V*t within 1e-12")
        th = math.radians(theta)
        q_s = 0.5 * env.air_density * v * v * af.reference_area
        try:
            total = n * kappa * thrust(cfg.thrust_surrogate, rpm, v * math.sin(th))
            lift = q_s * lift_coefficient(aero, alpha)
            drag = q_s * drag_coefficient(aero, alpha)
        except LiftwingError as err:
            problems.append(f"{where}: recomputing forces failed: {err}")
            continue
        if abs(total * math.cos(th) + lift - mg) > tol or abs(total * math.sin(th) - drag) > tol:
            problems.append(f"{where}: force-balance residual above 1e-6 m g")
        if alpha <= cap and (best is None or rng > best[6]):
            best = (gamma, alpha, theta, v, rpm, t, rng)
    if best is None:
        problems.append("no ok cell under the alpha cap")
    else:
        want = dict(zip(("gamma_deg", "alpha_deg", "theta_deg", "airspeed_m_s", "range_m"),
                        (best[0], best[1], best[2], best[3], best[6])))
        if any(summary.get(k) != v for k, v in want.items()):
            problems.append(f"summary.json argmax {summary} is not the best capped ok cell {want}")
    return problems[:MAX_MESSAGES], counts, len(text.encode())


def check_cold_op(kind: str, argv: list[str], rc, stdout: str, stderr: str,
                  out_dir: Path, cfg) -> list[str]:
    """Checks for one cold CLI invocation of the cli-cold mix."""
    problems = check_exit(rc, stderr)
    if problems:
        return problems
    if kind == "hover":
        return check_point_json(stdout, solve_at_angles(cfg, 0.0, 0.0))
    if kind == "trim":
        gamma = float(flag(argv, "--gamma"))
        if "--alpha" in argv:
            return check_point_json(stdout, solve_at_angles(cfg, gamma, float(flag(argv, "--alpha"))))
        return check_point_json(stdout, solve_at_speed(cfg, gamma, float(flag(argv, "--speed"))))
    if kind == "compare":
        return check_compare_json(stdout, compare_expectation(cfg, argv))[0]
    if kind == "fit":
        return check_fit_prop(stdout)
    problems, _, _ = check_sweep_outputs(out_dir, cfg)
    if problems:
        return problems
    summary = json.loads((out_dir / "summary.json").read_text())
    if (summary["gamma_deg"] != PAPER_ARGMAX["gamma_deg"]
            or summary["alpha_deg"] != PAPER_ARGMAX["alpha_deg"]
            or abs(summary["airspeed_m_s"] - PAPER_ARGMAX["airspeed_m_s"]) > 0.05):
        return [f"sweep argmax {summary} is not gamma=35, alpha=10, V=15.30+-0.05"]
    return []


class ConfigCache:
    """Configs parsed once per path, for the checks."""

    def __init__(self):
        self._loaded: dict[str, object] = {}

    def get(self, path: str):
        if path not in self._loaded:
            self._loaded[path] = load_config(path)
        return self._loaded[path]
