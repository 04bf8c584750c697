"""Exhaustive (gamma, alpha) sweep maximizing range, with feasibility masking.

Every grid cell is trimmed independently; infeasible cells are kept with a
typed reason rather than dropped, so the feasibility boundary stays
inspectable. The argmax respects the stall safety cap
alpha <= stall_alpha - safety_margin backed into the airframe.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .aero import Airframe, Environment, LinearAeroModel
from .errors import (
    AlphaNotOnGrid,
    EmptyFeasibleSet,
    HoverDegenerate,
    Infeasible,
    OutOfAeroDomain,
    OutOfEscDomain,
    OutOfSurrogateDomain,
)
from .propulsion import EscCurrentModel, PolySurrogate
from .trim import Battery, TrimPoint, solve_trim

STATUS_OK = "ok"
STATUS_HOVER = "hover-degenerate"
STATUS_AERO = "aero-infeasible"
STATUS_RPM = "rpm-infeasible"
STATUS_ESC = "esc-domain"
STATUS_SURROGATE = "surrogate-domain"


@dataclass(frozen=True)
class ModelBundle:
    """Everything solve_trim needs, in one picklable value."""

    airframe: Airframe
    environment: Environment
    aero: LinearAeroModel
    thrust_surrogate: PolySurrogate
    torque_surrogate: PolySurrogate
    esc: EscCurrentModel
    battery: Battery
    apply_tilt_loss: bool = False

    def solve(self, gamma: float, alpha: float) -> TrimPoint:
        return solve_trim(
            self.airframe, self.environment, self.aero,
            self.thrust_surrogate, self.torque_surrogate, self.esc, self.battery,
            gamma, alpha, apply_tilt_loss=self.apply_tilt_loss,
        )


def _nodes(lo: float, hi: float, step: float) -> list[float]:
    """Axis nodes lo, lo + step, ... that never pass hi.

    A partial last step adds no node. The 1e-9 slack keeps the last node of a
    span that is a whole number of steps up to rounding, and min() stops that
    node from landing an ulp past hi.
    """
    count = math.floor((hi - lo) / step + 1e-9) + 1
    return [min(lo + k * step, hi) for k in range(count)]


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular (gamma, alpha) grid in degrees."""

    gamma_min: float = 1.0
    gamma_max: float = 50.0
    gamma_step: float = 1.0
    alpha_min: float = 1.0
    alpha_max: float = 18.0
    alpha_step: float = 1.0

    def __post_init__(self):
        if self.gamma_step <= 0.0 or self.alpha_step <= 0.0:
            raise ValueError("grid steps must be positive")
        if self.gamma_min > self.gamma_max or self.alpha_min > self.alpha_max:
            raise ValueError("grid min must not exceed max")

    def gammas(self) -> list[float]:
        return _nodes(self.gamma_min, self.gamma_max, self.gamma_step)

    def alphas(self) -> list[float]:
        return _nodes(self.alpha_min, self.alpha_max, self.alpha_step)

    def cell_count(self) -> int:
        return len(self.gammas()) * len(self.alphas())


@dataclass(frozen=True)
class SweepCell:
    """One evaluated grid cell: a TrimPoint, or the typed reason it has none."""

    gamma: float
    alpha: float
    status: str
    point: TrimPoint | None

    @property
    def feasible(self) -> bool:
        return self.status == STATUS_OK


@dataclass(frozen=True)
class SweepResult:
    """All cells (row-major: gamma outer, alpha inner) plus the capped argmax."""

    grid: SweepGrid
    cells: tuple[SweepCell, ...]
    safety_alpha_cap: float
    argmax: SweepCell

    def cell_at(self, gamma: float, alpha: float) -> SweepCell:
        gs, als = self.grid.gammas(), self.grid.alphas()
        gi = _index_of(gs, gamma)
        ai = _index_of(als, alpha)
        if gi is None or ai is None:
            raise AlphaNotOnGrid(f"({gamma}, {alpha}) deg is not a grid node")
        return self.cells[gi * len(als) + ai]


def _index_of(axis: list[float], value: float) -> int | None:
    for i, v in enumerate(axis):
        if abs(v - value) <= 1e-9:
            return i
    return None


def _evaluate_cell(bundle: ModelBundle, pair: tuple[float, float]) -> SweepCell:
    gamma, alpha = pair
    try:
        point = bundle.solve(gamma, alpha)
    except HoverDegenerate:
        return SweepCell(gamma, alpha, STATUS_HOVER, None)
    except (OutOfAeroDomain, Infeasible) as err:
        if isinstance(err, Infeasible) and err.stage == "rpm":
            return SweepCell(gamma, alpha, STATUS_RPM, None)
        return SweepCell(gamma, alpha, STATUS_AERO, None)
    except OutOfSurrogateDomain:
        return SweepCell(gamma, alpha, STATUS_SURROGATE, None)
    except OutOfEscDomain:
        return SweepCell(gamma, alpha, STATUS_ESC, None)
    if point.theta == 0.0:
        # hover cells carry zero range; keep them typed, not as argmax fodder
        return SweepCell(gamma, alpha, STATUS_HOVER, None)
    return SweepCell(gamma, alpha, STATUS_OK, point)


def _select_argmax(cells: tuple[SweepCell, ...], alpha_cap: float) -> SweepCell:
    best = None
    for cell in cells:  # row-major order makes ties resolve to smallest gamma, then alpha
        if not cell.feasible or cell.alpha > alpha_cap:
            continue
        if best is None or cell.point.range > best.point.range:
            best = cell
    if best is None:
        raise EmptyFeasibleSet(f"no feasible cell with alpha <= {alpha_cap} deg")
    return best


def sweep(bundle: ModelBundle, grid: SweepGrid, jobs: int = 1) -> SweepResult:
    """Evaluate every cell exactly once and locate the capped-range argmax.

    Cell evaluations are independent pure computations; with jobs > 1 they run
    in a process pool of at most min(jobs, CPU count, cell count) workers.
    Results are assembled by index, so the output is bit-identical regardless
    of execution order or worker count.
    """
    pairs = [(g, a) for g in grid.gammas() for a in grid.alphas()]
    worker = partial(_evaluate_cell, bundle)
    workers = min(jobs, os.cpu_count() or 1, len(pairs))
    if workers > 1:
        chunk = max(1, len(pairs) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = tuple(pool.map(worker, pairs, chunksize=chunk))
    else:
        cells = tuple(worker(p) for p in pairs)

    cap = bundle.airframe.stall_alpha - bundle.airframe.safety_margin
    return SweepResult(grid, cells, cap, _select_argmax(cells, cap))


def apply_alpha_cap(result: SweepResult, stall: float, margin: float) -> SweepResult:
    """Re-derive the argmax under a different stall margin; cells unchanged.

    margin = stall (cap 0 on an all-positive-alpha grid) legitimately empties
    the feasible set and raises EmptyFeasibleSet.
    """
    if not 0.0 <= margin <= stall:
        raise ValueError("margin must satisfy 0 <= margin <= stall")
    cap = stall - margin
    return SweepResult(result.grid, result.cells, cap, _select_argmax(result.cells, cap))


def curve_extract(result: SweepResult, alpha: float) -> list[tuple[float, float | None]]:
    """The fixed-alpha range curve: (gamma, range) pairs ordered by gamma.

    Infeasible cells appear with None so the curve keeps its gaps.
    """
    als = result.grid.alphas()
    ai = _index_of(als, alpha)
    if ai is None:
        raise AlphaNotOnGrid(f"alpha={alpha} deg is not on the grid")
    n_a = len(als)
    return [
        (cell.gamma, cell.point.range if cell.feasible else None)
        for cell in result.cells[ai::n_a]
    ]


def _fmt(x: float) -> str:
    return repr(float(x))


CELL_CSV_HEADER = (
    "gamma_deg,alpha_deg,theta_deg,airspeed_m_s,rpm,"
    "torque_Nm,current_A,endurance_s,range_m,status"
)


def cells_to_csv(result: SweepResult) -> str:
    """One row per cell; infeasible cells keep their coordinates and reason."""
    lines = [CELL_CSV_HEADER]
    for cell in result.cells:
        if cell.feasible:
            p = cell.point
            lines.append(",".join([
                _fmt(cell.gamma), _fmt(cell.alpha), _fmt(p.theta), _fmt(p.airspeed),
                _fmt(p.rpm), _fmt(p.torque_per_rotor), _fmt(p.total_current),
                _fmt(p.endurance), _fmt(p.range), cell.status,
            ]))
        else:
            lines.append(",".join([
                _fmt(cell.gamma), _fmt(cell.alpha), "", "", "", "", "", "", "",
                cell.status,
            ]))
    return "\n".join(lines) + "\n"


def curve_to_csv(result: SweepResult, alpha: float) -> str:
    """Fixed-alpha curve as gamma_deg,range_m,status rows."""
    als = result.grid.alphas()
    ai = _index_of(als, alpha)
    if ai is None:
        raise AlphaNotOnGrid(f"alpha={alpha} deg is not on the grid")
    lines = ["gamma_deg,range_m,status"]
    for cell in result.cells[ai:: len(als)]:
        rng = _fmt(cell.point.range) if cell.feasible else ""
        lines.append(f"{_fmt(cell.gamma)},{rng},{cell.status}")
    return "\n".join(lines) + "\n"


def argmax_summary(result: SweepResult) -> dict:
    """The optimum as a plain dict (gamma*, alpha*, theta*, V*, range*)."""
    p = result.argmax.point
    return {
        "gamma_deg": p.gamma,
        "alpha_deg": p.alpha,
        "theta_deg": p.theta,
        "airspeed_m_s": p.airspeed,
        "range_m": p.range,
    }


def summary_to_json(result: SweepResult) -> str:
    return json.dumps(argmax_summary(result), indent=2) + "\n"
