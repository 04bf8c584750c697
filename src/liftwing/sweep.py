"""Exhaustive (gamma, alpha) sweep maximizing range, with feasibility masking.

Every grid cell is trimmed; infeasible cells are kept with a typed reason
rather than dropped, so the feasibility boundary stays inspectable. The
argmax respects the stall safety cap alpha <= stall_alpha - safety_margin
backed into the airframe.

The sweep runs solve_trim's chain on numpy columns over all cells at once,
with rotor speed from required_rpm's closed-form quadratic, and keeps the
outcome as columns. Each step repeats solve_trim's arithmetic operation for
operation, so every value is bit-identical to a per-cell solve_trim:
trigonometry comes from ``math``, squares are x * x on both paths, higher
integer powers come from Python's float ``**`` (numpy's differ from libm in
the last bit), and sums run in the same order. The propulsion half of that
chain also completes compare's force balances (complete_balances), so both
commands share one column chain. Its checks are propulsion.CHECKS, the table
the scalar path raises from, so a failed row's check also words its error.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .aero import Airframe, Environment, LinearAeroModel
from .errors import AlphaNotOnGrid, EmptyFeasibleSet, describe
from .propulsion import (CHECKS, ESC_TORQUE, POSITIVE_THRUST, RISING_ROOT, STATUS_ESC,
                         STATUS_RPM, STATUS_SURROGATE, THRUST_VP, TORQUE_RPM, TORQUE_VP,
                         EscCurrentModel, PolySurrogate, check_error, require_quadratic_in_rpm)
from .trim import Battery, TrimPoint, _thrust_factor, solve_trim

STATUS_OK = "ok"
STATUS_HOVER = "hover-degenerate"
STATUS_AERO = "aero-infeasible"

# SweepColumns.status holds indices into this tuple
STATUSES = (STATUS_OK, STATUS_HOVER, STATUS_AERO, STATUS_RPM, STATUS_SURROGATE, STATUS_ESC)
_OK, _HOVER, _AERO = range(3)
# the status code of a cell failing each propulsion check
_CHECK_STATUS = np.array([STATUSES.index(status) for status, _, _ in CHECKS], dtype=np.int8)

# SweepColumns.values columns: the TrimPoint fields after gamma and alpha
VALUE_FIELDS = tuple(f.name for f in fields(TrimPoint))[2:]
_RANGE, _TOTAL = VALUE_FIELDS.index("range"), VALUE_FIELDS.index("total_current")

# Largest grid a SweepGrid admits; the 0.1 deg default-bounds grid has ~84k cells.
MAX_GRID_CELLS = 250_000


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

    def __post_init__(self):
        require_quadratic_in_rpm(self.thrust_surrogate)

    def solve(self, gamma: float, alpha: float) -> TrimPoint:
        return solve_trim(
            self.airframe, self.environment, self.aero,
            self.thrust_surrogate, self.torque_surrogate, self.esc, self.battery,
            gamma, alpha, apply_tilt_loss=self.apply_tilt_loss,
        )


def _count(lo: float, hi: float, step: float) -> int:
    """Number of axis nodes lo, lo + step, ... that never pass hi.

    A partial last step adds no node. The 1e-9 slack keeps the last node of a
    span that is a whole number of steps up to rounding.
    """
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_GRID_CELLS:  # also NaN and inf, which floor() rejects
        raise ValueError(f"grid axis has more than {MAX_GRID_CELLS} nodes")
    return math.floor(steps) + 1


def _nodes(lo: float, hi: float, step: float) -> list[float]:
    """The axis nodes; min() stops the last one landing an ulp past hi."""
    return [min(lo + k * step, hi) for k in range(_count(lo, hi, step))]


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular (gamma, alpha) grid in degrees, at most MAX_GRID_CELLS cells."""

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
        if self.cell_count() > MAX_GRID_CELLS:
            raise ValueError(
                f"grid has {self.cell_count()} cells, more than {MAX_GRID_CELLS}")

    def gammas(self) -> list[float]:
        return _nodes(self.gamma_min, self.gamma_max, self.gamma_step)

    def alphas(self) -> list[float]:
        return _nodes(self.alpha_min, self.alpha_max, self.alpha_step)

    def cell_count(self) -> int:
        return (_count(self.gamma_min, self.gamma_max, self.gamma_step)
                * _count(self.alpha_min, self.alpha_max, self.alpha_step))


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


@dataclass(frozen=True, eq=False)
class SweepColumns:
    """Per-cell outcomes as read-only columns, row-major (gamma outer, alpha inner).

    ``status`` indexes STATUSES; row k of ``values`` holds the VALUE_FIELDS of
    cell k's TrimPoint, NaN where the cell is not ok.
    """

    gamma: np.ndarray
    alpha: np.ndarray
    status: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for column in (self.gamma, self.alpha, self.status, self.values):
            column.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, SweepColumns):
            return NotImplemented
        return (np.array_equal(self.gamma, other.gamma)
                and np.array_equal(self.alpha, other.alpha)
                and np.array_equal(self.status, other.status)
                and np.array_equal(self.values, other.values, equal_nan=True))

    def cell(self, k: int) -> SweepCell:
        gamma, alpha = float(self.gamma[k]), float(self.alpha[k])
        status = STATUSES[self.status[k]]
        if status != STATUS_OK:
            return SweepCell(gamma, alpha, status, None)
        return SweepCell(gamma, alpha, status,
                         TrimPoint(gamma, alpha, *self.values[k].tolist()))

    @cached_property
    def cells(self) -> tuple[SweepCell, ...]:
        return tuple(self.cell(k) for k in range(len(self.status)))


@dataclass(frozen=True)
class SweepResult:
    """All cells as columns, plus the capped argmax."""

    grid: SweepGrid
    columns: SweepColumns
    safety_alpha_cap: float
    argmax: SweepCell

    @property
    def cells(self) -> tuple[SweepCell, ...]:
        """Every cell as a SweepCell; built on first use, shared by apply_alpha_cap."""
        return self.columns.cells

    def cell_at(self, gamma: float, alpha: float) -> SweepCell:
        gi = _index_of(self.grid.gammas(), gamma)
        ai = _index_of(self.grid.alphas(), alpha)
        if gi is None or ai is None:
            raise AlphaNotOnGrid(f"({gamma}, {alpha}) deg is not a grid node")
        return self.columns.cell(gi * len(self.grid.alphas()) + ai)


def _index_of(axis: list[float], value: float) -> int | None:
    for i, v in enumerate(axis):
        if abs(v - value) <= 1e-9:
            return i
    return None


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """propulsion.power elementwise: x * x for k = 2, Python's float ** for k >= 3."""
    if k < 3:
        return x * x if k == 2 else x**k
    return np.array([v**k for v in x.tolist()], dtype=float)


def _required_rpm(surrogate: PolySurrogate, thrust: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """required_rpm over columns whose thrust and V_p it accepts; NaN where it has no root.

    The same closed form, operation for operation: np.sqrt rounds as
    math.sqrt does, so every root carries the scalar path's bits.
    """
    coeffs = [np.zeros_like(thrust) for _ in range(3)]
    for i, j, k in surrogate.terms:
        coeffs[j] += k * _pow(vp, i)
    c, b, a = coeffs[0] - thrust, coeffs[1], coeffs[2]
    linear = a == 0.0
    with np.errstate(all="ignore"):  # rows without a root divide by zero or take sqrt(< 0)
        disc = b * b - 4.0 * a * c
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        first, second = np.where(linear, -c / b, q / a), c / q
    quadratic = ~linear & (disc >= 0.0) & (q != 0.0)
    rpm = np.full(len(thrust), np.nan)
    lo, hi = surrogate.rpm_domain
    for root, real in ((first, quadratic | (linear & (b != 0.0))), (second, quadratic)):
        ok = real & (lo <= root) & (root <= hi)
        ok[ok] = surrogate.d_drpm(root[ok], vp[ok], _pow) > 0.0
        rpm[ok] = np.fmin(rpm[ok], root[ok])
    return rpm


def _outside(x: np.ndarray, domain: tuple[float, float]) -> np.ndarray:
    return ~((domain[0] <= x) & (x <= domain[1]))


def _trig(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """math.tan, math.cos and math.sin of each theta (deg), once per distinct theta."""
    distinct, inverse = np.unique(theta, return_inverse=True)
    rad = [math.radians(t) for t in distinct.tolist()]
    return tuple(np.array([f(r) for r in rad])[inverse] for f in (math.tan, math.cos, math.sin))


def _propulsion(bundle: ModelBundle, theta: np.ndarray, sin_t: np.ndarray,
                airspeed: np.ndarray, thrust: np.ndarray, live: np.ndarray):
    """trim._complete over columns of force balances: (failed, tested, bounds, value rows).

    ``sin_t`` is math.sin of each theta in radians. Rows ``live`` on entry
    run the checks of CHECKS, in its order; ``live`` is left marking the rows
    that pass them, the only rows whose VALUE_FIELDS rows hold meaning.
    ``failed`` holds the index into CHECKS of the check a row fails (-1 where
    none is) and ``tested`` the value that check tested; ``bounds[k]`` is the
    bound check k tests against.
    """
    thrust_model, torque_model, esc = bundle.thrust_surrogate, bundle.torque_surrogate, bundle.esc
    n = bundle.airframe.rotor_count
    failed = np.full(len(thrust), -1, dtype=np.int8)
    tested = np.full(len(thrust), np.nan)
    bounds = [None] * len(CHECKS)

    def check(k: int, value: np.ndarray, bound: tuple, bad: np.ndarray | None = None) -> None:
        """Live rows that fail check k (by default: ``value`` outside ``bound``) leave."""
        bounds[k] = bound
        hit = live & (_outside(value, bound) if bad is None else bad)
        failed[hit], tested[hit] = k, value[hit]
        live[hit] = False

    # dead rows may divide by zero or carry NaN from here on; they stay dead
    with np.errstate(all="ignore"):
        check(POSITIVE_THRUST, thrust, (), ~((thrust > 0.0) & (thrust < math.inf)))
        vp = airspeed * sin_t
        check(THRUST_VP, vp, thrust_model.vp_domain)

        rpm = np.full(len(thrust), np.nan)
        rpm[live] = _required_rpm(thrust_model, thrust[live], vp[live])
        check(RISING_ROOT, thrust, thrust_model.rpm_domain, np.isnan(rpm))
        check(TORQUE_VP, vp, torque_model.vp_domain)
        check(TORQUE_RPM, rpm, torque_model.rpm_domain)
        torque_nm = np.full(len(thrust), np.nan)
        torque_nm[live] = torque_model.evaluate(rpm[live], vp[live], _pow)
        check(ESC_TORQUE, torque_nm, esc.torque_domain)

        current = esc.quad * torque_nm * torque_nm + esc.lin * torque_nm + esc.const
        total = n * current
        endurance = bundle.battery.capacity / total
        return failed, tested, bounds, np.column_stack([theta, airspeed, thrust, rpm, torque_nm,
                                                        current, total, endurance,
                                                        airspeed * endurance])


def _solve_cells(bundle: ModelBundle, cells: tuple[np.ndarray, np.ndarray]):
    """solve_trim at every pair of the (gamma, alpha) columns: (status codes, value rows).

    A cell takes the status of the stage where solve_trim raises for it,
    checked in solve_trim's order: the force balance here, then the
    propulsion chain. Cells that pass both are ok, or hover-degenerate on the
    theta = 0 branch.
    """
    af, env, aero = bundle.airframe, bundle.environment, bundle.aero
    kappa = _thrust_factor(af, bundle.apply_tilt_loss)
    mg = af.mass * env.gravity
    n = af.rotor_count
    gamma, alpha = cells
    status = np.full(len(gamma), _OK, dtype=np.int8)

    theta = gamma - alpha
    hover = theta == 0.0
    tan_t, cos_t, sin_t = _trig(theta)
    cl = aero.lift_slope * alpha + aero.lift_intercept
    cd = aero.drag_slope * alpha + aero.drag_intercept
    den = cd + cl * tan_t
    with np.errstate(all="ignore"):
        v_sq = mg * tan_t / (0.5 * env.air_density * af.reference_area * den)
        aero_bad = (_outside(alpha, (aero.alpha_min, aero.alpha_max)) | (theta < 0.0)
                    | (den <= 0.0) | ~(v_sq > 0.0))
        if af.reference_area == 0.0:
            aero_bad[:] = True
        status[aero_bad & ~hover] = _AERO

        airspeed = np.sqrt(v_sq)
        q_s = 0.5 * env.air_density * airspeed * airspeed * af.reference_area
        thrust = (mg - q_s * cl) / (n * kappa * cos_t)
    airspeed[hover] = 0.0
    thrust[hover] = mg / (n * kappa)
    live = status == _OK
    failed, _, _, values = _propulsion(bundle, theta, sin_t, airspeed, thrust, live)
    hit = failed >= 0
    status[hit] = _CHECK_STATUS[failed[hit]]
    status[hover & live] = _HOVER  # zero range: typed, never the argmax
    values[status != _OK] = np.nan
    return status, values


def complete_balances(bundle: ModelBundle, balances: list[tuple]) -> list[float | str]:
    """What trim._complete gives each balance: its total current, or its error's text.

    A balance is (gamma, alpha, theta, airspeed, thrust per rotor), and the
    text is errors.describe's. All balances run through the column chain in
    one call.
    """
    _, _, theta, airspeed, thrust = np.array(balances, dtype=float).reshape(-1, 5).T
    sin_t = np.array([math.sin(math.radians(t)) for t in theta.tolist()])
    failed, tested, bounds, values = _propulsion(bundle, theta, sin_t, airspeed, thrust,
                                                 np.ones(len(theta), dtype=bool))
    unit = bundle.thrust_surrogate.output_unit
    return [total if k < 0 else describe(check_error(k, value, bounds[k], unit))
            for k, value, total in zip(failed.tolist(), tested.tolist(),
                                       values[:, _TOTAL].tolist())]


def _select_argmax(columns: SweepColumns, alpha_cap: float) -> SweepCell:
    candidates = np.flatnonzero((columns.status == _OK) & (columns.alpha <= alpha_cap))
    if not len(candidates):
        raise EmptyFeasibleSet(f"no feasible cell with alpha <= {alpha_cap} deg")
    # argmax takes the first maximum: in row-major order, smallest gamma, then alpha
    best = candidates[np.argmax(columns.values[candidates, _RANGE])]
    return columns.cell(int(best))


def sweep(bundle: ModelBundle, grid: SweepGrid, jobs: int = 1) -> SweepResult:
    """Evaluate every cell exactly once and locate the capped-range argmax.

    With jobs > 1 the cells are cut into one contiguous slice per worker of a
    process pool of at most min(jobs, CPU count, cell count) workers, each
    running the same column solve. Every cell's arithmetic is independent of
    its slice, so the output is bit-identical for any worker count.
    """
    gammas, alphas = np.array(grid.gammas()), np.array(grid.alphas())
    gamma, alpha = np.repeat(gammas, len(alphas)), np.tile(alphas, len(gammas))
    workers = min(jobs, os.cpu_count() or 1, len(gamma))
    if workers > 1:
        slices = zip(np.array_split(gamma, workers), np.array_split(alpha, workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(partial(_solve_cells, bundle), slices))
        status = np.concatenate([s for s, _ in parts])
        values = np.concatenate([v for _, v in parts])
    else:
        status, values = _solve_cells(bundle, (gamma, alpha))

    columns = SweepColumns(gamma, alpha, status, values)
    cap = bundle.airframe.stall_alpha - bundle.airframe.safety_margin
    return SweepResult(grid, columns, cap, _select_argmax(columns, cap))


def apply_alpha_cap(result: SweepResult, stall: float, margin: float) -> SweepResult:
    """Re-derive the argmax under a different stall margin; cells unchanged.

    margin = stall (cap 0 on an all-positive-alpha grid) legitimately empties
    the feasible set and raises EmptyFeasibleSet.
    """
    if not 0.0 <= margin <= stall:
        raise ValueError("margin must satisfy 0 <= margin <= stall")
    cap = stall - margin
    return SweepResult(result.grid, result.columns, cap, _select_argmax(result.columns, cap))


def _curve(result: SweepResult, alpha: float) -> slice:
    """The cells of the fixed-alpha line, by gamma, as a slice of the columns."""
    ai = _index_of(result.grid.alphas(), alpha)
    if ai is None:
        raise AlphaNotOnGrid(f"alpha={alpha} deg is not on the grid")
    return slice(ai, None, len(result.grid.alphas()))


def curve_extract(result: SweepResult, alpha: float) -> list[tuple[float, float | None]]:
    """The fixed-alpha range curve: (gamma, range) pairs ordered by gamma.

    Infeasible cells appear with None so the curve keeps its gaps.
    """
    cols, line = result.columns, _curve(result, alpha)
    return [(g, r if s == _OK else None) for g, s, r in zip(
        cols.gamma[line].tolist(), cols.status[line].tolist(), cols.values[line, _RANGE].tolist())]


def _fmt(x: float) -> str:
    return repr(float(x))


CELL_CSV_HEADER = (
    "gamma_deg,alpha_deg,theta_deg,airspeed_m_s,rpm,"
    "torque_Nm,current_A,endurance_s,range_m,status"
)
CURVE_CSV_HEADER = "gamma_deg,range_m,status"
_CSV_VALUES = [VALUE_FIELDS.index(f) for f in (
    "theta", "airspeed", "rpm", "torque_per_rotor", "total_current", "endurance")]


def _range_texts(cols: SweepColumns, cells: slice) -> tuple[list[int], list[str]]:
    """The status of each cell in ``cells``, and its range as text ("" if infeasible)."""
    status = cols.status[cells].tolist()
    return status, [repr(r) if s == _OK else ""
                    for s, r in zip(status, cols.values[cells, _RANGE].tolist())]


def _curve_lines(gammas: list[str], status: list[int], ranges: list[str]) -> list[str]:
    return [f"{g},{r},{STATUSES[s]}\n" for g, s, r in zip(gammas, status, ranges)]


def csv_chunks(result: SweepResult, curves: list[list[str]] | None = None) -> Iterator[str]:
    """cells.csv in chunks: the header, then one chunk per gamma row.

    With ``curves``, one list per grid alpha, each row also appends its line
    of every fixed-alpha curve CSV to that alpha's list, reusing the gamma and
    range text of cells.csv, so each number is formatted once. The lists are
    complete only once the generator is exhausted. Chunks keep the transient
    objects to one row.
    """
    cols = result.columns
    alphas = [_fmt(a) for a in result.grid.alphas()]
    n = len(alphas)
    yield CELL_CSV_HEADER + "\n"
    for k, g in enumerate(map(_fmt, result.grid.gammas())):
        row = slice(k * n, (k + 1) * n)
        status, ranges = _range_texts(cols, row)
        for curve, line in zip(curves or (), _curve_lines([g] * n, status, ranges)):
            curve.append(line)
        yield "".join(
            f"{g},{a},{','.join(map(repr, values))},{r},{STATUS_OK}\n" if s == _OK
            else f"{g},{a},,,,,,,,{STATUSES[s]}\n"
            for a, s, r, values in zip(alphas, status, ranges,
                                       cols.values[row, _CSV_VALUES].tolist()))


def cells_to_csv(result: SweepResult) -> str:
    """One row per cell; infeasible cells keep their coordinates and reason."""
    return "".join(csv_chunks(result))


def curve_to_csv(result: SweepResult, alpha: float) -> str:
    """Fixed-alpha curve as gamma_deg,range_m,status rows."""
    cols, line = result.columns, _curve(result, alpha)
    lines = _curve_lines(list(map(_fmt, cols.gamma[line].tolist())), *_range_texts(cols, line))
    return CURVE_CSV_HEADER + "\n" + "".join(lines)


def summary_to_json(result: SweepResult) -> str:
    """The optimum (gamma*, alpha*, theta*, V*, range*) as a JSON object."""
    p = result.argmax.point
    return json.dumps({
        "gamma_deg": p.gamma,
        "alpha_deg": p.alpha,
        "theta_deg": p.theta,
        "airspeed_m_s": p.airspeed,
        "range_m": p.range,
    }, indent=2) + "\n"
