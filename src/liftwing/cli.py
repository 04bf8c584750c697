"""Command-line front end: trim, sweep, fit, compare, hover.

Exit codes: 0 success, 2 bad config or bad input data, 3 infeasible or empty
result, 4 I/O failure while writing outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

from .config import RunConfig, SURROGATE_BASIS, default_config, load_config
from .errors import (
    BadArgument,
    ConfigError,
    DegenerateDesign,
    DegenerateVariance,
    EmptyFeasibleSet,
    HoverDegenerate,
    Infeasible,
    LiftwingError,
    NoTrimAtSpeed,
    OutOfAeroDomain,
    OutOfEscDomain,
    OutOfSurrogateDomain,
    ParseError,
    RankDeficient,
    UnknownUnit,
    describe,
)
from .fitting import (
    FitReport,
    SampleTable,
    fit_esc_quadratic,
    fit_linear_aero,
    fit_poly_surrogate,
    parse_propeller_table,
)
from .sweep import (CURVE_CSV_HEADER, apply_alpha_cap, cells_to_csv, complete_balances,
                    csv_chunks, curve_to_csv, summary_to_json, sweep)
from .trim import (Battery, TrimPoint, balance_at_speed, solve_trim, trim_at_speed,
                   wingless_balance_at_speed, wingless_trim_at_speed)

MAH_PER_S_PER_A = 1000.0 / 3600.0  # 1 A = 1000/3600 mAh/s

# compare's batched chain stands in for per-side trim_at_speed and
# wingless_trim_at_speed calls, and sweep's one-pass writer for cells_to_csv
# and curve_to_csv. A caller that puts its own function under one of these
# names here (a test double, a tracing wrapper) has it called per item instead.
_PER_ITEM = {name: globals()[name] for name in (
    "trim_at_speed", "wingless_trim_at_speed", "cells_to_csv", "curve_to_csv")}


def _replaced(*names: str) -> bool:
    """Whether a caller has put its own function under any of these names."""
    return any(globals()[name] is not _PER_ITEM[name] for name in names)


_INFEASIBLE_ERRORS = (
    Infeasible, HoverDegenerate, NoTrimAtSpeed, EmptyFeasibleSet,
    OutOfAeroDomain, OutOfSurrogateDomain, OutOfEscDomain,
)
_BAD_INPUT_ERRORS = (
    BadArgument, ConfigError, ParseError, UnknownUnit, DegenerateDesign, RankDeficient,
    DegenerateVariance,
)

TRIM_FIELDS = (
    ("gamma_deg", "gamma"),
    ("alpha_deg", "alpha"),
    ("theta_deg", "theta"),
    ("airspeed_m_s", "airspeed"),
    ("thrust_per_rotor_N", "thrust_per_rotor"),
    ("rpm", "rpm"),
    ("torque_per_rotor_Nm", "torque_per_rotor"),
    ("current_per_esc_A", "current_per_esc"),
    ("total_current_A", "total_current"),
    ("endurance_s", "endurance"),
    ("range_m", "range"),
)


def point_to_dict(point: TrimPoint) -> dict:
    return {name: getattr(point, attr) for name, attr in TRIM_FIELDS}


def _emit_point(point: TrimPoint, fmt: str) -> str:
    doc = point_to_dict(point)
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        header = ",".join(name for name, _ in TRIM_FIELDS)
        row = ",".join(repr(v) for v in doc.values())
        return f"{header}\n{row}\n"
    width = max(len(name) for name, _ in TRIM_FIELDS)
    return "".join(f"{name:<{width}}  {value:.6f}\n" for name, value in doc.items())


@contextmanager
def _flag(name: str):
    """Report the library's range check on a flag's value as bad input (exit 2)."""
    try:
        yield
    except ValueError as err:
        raise BadArgument(f"{name}: {err}") from err


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get("LIFTWING_CONFIG")
    cfg = load_config(path) if path else default_config()
    if getattr(args, "capacity_mah", None) is not None:
        if args.capacity_mah <= 0:
            raise ConfigError("--capacity-mah must be positive")
        cfg = dataclasses.replace(cfg, battery=Battery(capacity=args.capacity_mah * 3.6))
    if getattr(args, "gamma_config", None) is not None:
        with _flag("--gamma"):
            cfg = dataclasses.replace(cfg, mounting_angle=args.gamma_config)
    return cfg


def cmd_trim(cfg: RunConfig, args: argparse.Namespace) -> int:
    b = cfg.bundle()
    if args.alpha is not None:
        point = solve_trim(
            b.airframe, b.environment, b.aero, b.thrust_surrogate,
            b.torque_surrogate, b.esc, b.battery, args.gamma, args.alpha,
            apply_tilt_loss=b.apply_tilt_loss,
        )
    else:
        with _flag("--gamma"):
            point = trim_at_speed(
                b.airframe, b.environment, b.aero, b.thrust_surrogate,
                b.torque_surrogate, b.esc, b.battery, args.gamma, args.speed,
                apply_tilt_loss=b.apply_tilt_loss,
            )
    sys.stdout.write(_emit_point(point, args.format))
    if point.theta == 0.0 and point.airspeed == 0.0:
        sys.stderr.write("hover-degenerate: gamma = alpha leaves no cruise trim\n")
        return 3
    return 0


def cmd_hover(cfg: RunConfig, args: argparse.Namespace) -> int:
    b = cfg.bundle()
    point = solve_trim(
        b.airframe, b.environment, b.aero, b.thrust_surrogate,
        b.torque_surrogate, b.esc, b.battery, 0.0, 0.0,
        apply_tilt_loss=b.apply_tilt_loss,
    )
    sys.stdout.write(_emit_point(point, args.format))
    return 0


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    """Write the text chunks in turn to a temp file beside ``path``, then rename
    it over ``path``.

    A failed write leaves ``path`` as it was, never a partial file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    b = cfg.bundle()
    result = sweep(b, cfg.grid, jobs=args.jobs)
    if args.margin is not None:
        with _flag("--margin"):
            result = apply_alpha_cap(result, cfg.airframe.stall_alpha, args.margin)

    out = Path(args.out if args.out is not None else "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
        alphas = result.grid.alphas()
        if _replaced("cells_to_csv", "curve_to_csv"):
            cells = [cells_to_csv(result)]
            curves = [[curve_to_csv(result, alpha)] for alpha in alphas]
        else:
            curves = [[CURVE_CSV_HEADER + "\n"] for _ in alphas]
            cells = csv_chunks(result, curves)  # fills curves while cells.csv is written
        _write_text(out / "cells.csv", cells)
        for alpha, curve in zip(alphas, curves):
            _write_text(out / f"curve_alpha_{alpha:g}.csv", curve)
        _write_text(out / "summary.json", [summary_to_json(result)])
    except OSError as err:
        sys.stderr.write(f"i/o error: {err}\n")
        return 4

    p = result.argmax.point
    sys.stdout.write(
        f"cells: {result.grid.cell_count()}  alpha cap: {result.safety_alpha_cap:g} deg\n"
        f"argmax: gamma={p.gamma:g} deg  alpha={p.alpha:g} deg  theta={p.theta:g} deg\n"
        f"        V={p.airspeed:.4f} m/s  range={p.range:.1f} m  "
        f"endurance={p.endurance:.1f} s\n"
        f"outputs in {out}\n"
    )
    return 0


def _read_csv_table(path: str, wanted: dict[str, tuple[str, ...]]) -> SampleTable:
    """Small plain-CSV reader: one header row, aliased column names."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty CSV file") from None
        names = [h.strip() for h in header]
        indices = {}
        for field, aliases in wanted.items():
            for alias in aliases:
                if alias in names:
                    indices[field] = names.index(alias)
                    break
            else:
                raise ParseError(1, f"missing column {aliases[0]!r}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append(tuple(float(row[indices[f]]) for f in wanted))
            except (ValueError, IndexError):
                raise ParseError(line_no, f"malformed row {row!r}") from None
    return SampleTable(columns=tuple(wanted), units=tuple("-" for _ in wanted),
                       data=tuple(rows))


def _report_dict(report: FitReport) -> dict:
    return {
        "coefficients": list(report.coefficients),
        "r_squared": report.r_squared,
        "pearson_r": report.pearson_r,
        "max_abs_residual": report.max_abs_residual,
        "sample_count": report.sample_count,
    }


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.target == "aero":
        table = _read_csv_table(args.input, {
            "alpha": ("alpha", "alpha_deg"), "cl": ("cl",), "cd": ("cd",)})
        model, (rep_cl, rep_cd) = fit_linear_aero(table)
        doc = {
            "aero": {
                "lift_slope_per_deg": model.lift_slope,
                "lift_intercept": model.lift_intercept,
                "drag_slope_per_deg": model.drag_slope,
                "drag_intercept": model.drag_intercept,
                "alpha_min_deg": model.alpha_min,
                "alpha_max_deg": model.alpha_max,
            },
            "reports": {"cl": _report_dict(rep_cl), "cd": _report_dict(rep_cd)},
        }
    elif args.target == "esc":
        table = _read_csv_table(args.input, {
            "torque": ("torque", "torque_Nm"), "current": ("current", "current_A")})
        model, report = fit_esc_quadratic(table)
        doc = {
            "esc": {
                "quad_A_per_Nm2": model.quad,
                "lin_A_per_Nm": model.lin,
                "const_A": model.const,
                "torque_domain_Nm": list(model.torque_domain),
            },
            "report": _report_dict(report),
        }
    else:
        with open(args.input) as fh:
            table = parse_propeller_table(fh)
        thrust_model, rep_t = fit_poly_surrogate(
            table, SURROGATE_BASIS, target="thrust", output_unit="N")
        torque_model, rep_m = fit_poly_surrogate(
            table, SURROGATE_BASIS, target="torque", output_unit="N*m")
        doc = {
            "thrust_surrogate": {
                "terms": [list(t) for t in thrust_model.terms],
                "vp_domain_m_s": list(thrust_model.vp_domain),
                "rpm_domain": list(thrust_model.rpm_domain),
                "output_unit": thrust_model.output_unit,
            },
            "torque_surrogate": {
                "terms": [list(t) for t in torque_model.terms],
                "vp_domain_m_s": list(torque_model.vp_domain),
                "rpm_domain": list(torque_model.rpm_domain),
                "output_unit": torque_model.output_unit,
            },
            "reports": {"thrust": _report_dict(rep_t), "torque": _report_dict(rep_m)},
        }

    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_text(out / f"fit_{args.target}.json", [text])
        except OSError as err:
            sys.stderr.write(f"i/o error: {err}\n")
            return 4
        sys.stdout.write(f"wrote {out / f'fit_{args.target}.json'}\n")
    else:
        sys.stdout.write(text)
    return 0


def _attempt(fn, *args):
    """fn(*args), or its typed failure as errors.describe words it."""
    try:
        return fn(*args)
    except (LiftwingError, ValueError) as err:
        return describe(err)


def compare_rows(cfg: RunConfig, speeds: list[float]) -> list[dict]:
    """One comparison row per speed; infeasible sides are marked, not dropped.

    Each side's force balance is solved per speed. Every side that balances
    then runs through the sweep's column propulsion chain in one call, which
    gives its current or its error text. If a caller has replaced
    trim_at_speed or wingless_trim_at_speed in this module, those are called
    for every side instead, with the same rows.
    """
    b = cfg.bundle()
    af, env, tilt = b.airframe, b.environment, b.apply_tilt_loss
    props = (b.thrust_surrogate, b.torque_surrogate, b.esc, b.battery)
    if _replaced("trim_at_speed", "wingless_trim_at_speed"):
        return _rows(speeds, [_current(side) for v in speeds for side in (
            _attempt(trim_at_speed, af, env, b.aero, *props, cfg.mounting_angle, v, tilt),
            _attempt(wingless_trim_at_speed, af, env, *props, v, cfg.parasite_drag_area,
                     tilt))])

    sides = []  # wing, then wingless, per speed: a balance tuple or an error text
    for v in speeds:
        sides.append(_attempt(balance_at_speed, af, env, b.aero, cfg.mounting_angle, v, tilt))
        sides.append(_attempt(wingless_balance_at_speed, af, env, v, cfg.parasite_drag_area,
                              tilt))
    balanced = [k for k, side in enumerate(sides) if not isinstance(side, str)]
    for k, side in zip(balanced, complete_balances(b, [sides[k] for k in balanced])):
        sides[k] = side
    return _rows(speeds, sides)


def _current(side):
    """A side's total current from its TrimPoint; an error text stays as it is."""
    return side if isinstance(side, str) else side.total_current


def _rows(speeds: list[float], sides: list) -> list[dict]:
    """compare's rows from each speed's wing and wingless side: a current or an error text."""
    rows = []
    for v, wing, bare in zip(speeds, sides[::2], sides[1::2]):
        row: dict = {"speed_m_s": v}
        for name, side in (("wing", wing), ("wingless", bare)):
            if isinstance(side, str):
                row[f"{name}_error"] = side
            else:
                row[f"{name}_current_A"] = side
        if "wing_current_A" in row and "wingless_current_A" in row:
            iw, ib = row["wing_current_A"], row["wingless_current_A"]
            row["saving_percent"] = 100.0 * (ib - iw) / ib
        rows.append(row)
    return rows


# compact, with a raw NUL between items: inside a string NUL is always \u0000
_FLAT_ENCODER = json.JSONEncoder(separators=("\x00", ": "))


def _rows_json(rows: list[dict]) -> str:
    """json.dumps(rows, indent=2), byte for byte, for a list of flat dicts with str keys.

    json's C encoder runs only without indent, so every key and value of every
    row is encoded in one compact pass over one flat list and split at each
    raw NUL; the pieces then fill a layout of indent=2's lines.
    """
    if not rows:
        return "[]"
    items = _FLAT_ENCODER.encode(
        [x for row in rows for pair in row.items() for x in pair])[1:-1].split("\x00")
    layout = ",\n".join(["  {{\n" + ("    {}: {},\n" * len(row))[:-2] + "\n  }}" if row
                         else "  {{}}" for row in rows])
    return ("[\n" + layout + "\n]").format(*items)


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows = compare_rows(cfg, args.speeds)

    if args.format == "json":
        sys.stdout.write(_rows_json(rows) + "\n")
    else:
        out = io.StringIO()
        out.write(
            f"# power bookkept as battery current draw; 1 A = {MAH_PER_S_PER_A:.6f} mAh/s\n"
            f"# wing craft trimmed at mounting angle {cfg.mounting_angle:g} deg; "
            f"wingless parasite area {cfg.parasite_drag_area:g} m^2\n"
        )
        out.write("speed_m_s,wing_A,wing_mAh_s,wingless_A,wingless_mAh_s,saving_percent,status\n")
        for row in rows:
            v = row["speed_m_s"]
            if "saving_percent" in row:
                iw, ib = row["wing_current_A"], row["wingless_current_A"]
                out.write(
                    f"{v:g},{iw:.4f},{iw * MAH_PER_S_PER_A:.4f},"
                    f"{ib:.4f},{ib * MAH_PER_S_PER_A:.4f},{row['saving_percent']:.2f},ok\n"
                )
            else:
                reason = row.get("wing_error", row.get("wingless_error", ""))
                out.write(f"{v:g},,,,,,marked: {reason}\n")
        sys.stdout.write(out.getvalue())

    return 0 if any("saving_percent" in r for r in rows) else 3


def _finite(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _speeds(text: str) -> list[float]:
    """argparse type for --speeds: comma-separated finite numbers; blanks skipped."""
    values = [_finite(item) for item in text.split(",") if item.strip()]
    if not values:
        raise argparse.ArgumentTypeError("must list at least one airspeed")
    return values


def _positive_int(text: str) -> int:
    """argparse type for --jobs: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftwing",
        description="Forward-flight trim and mounting-angle range optimization "
                    "for a lifting-wing multirotor.",
    )
    parser.add_argument("--config", help="JSON config path (or $LIFTWING_CONFIG)")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--capacity-mah", type=_finite, default=None,
                        help="override battery capacity (Q[A*s] = mAh * 3.6)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trim = sub.add_parser("trim", help="solve one trim point")
    p_trim.add_argument("--gamma", type=_finite, required=True, help="mounting angle, deg")
    group = p_trim.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=_finite, help="attack angle, deg")
    group.add_argument("--speed", type=_finite, help="airspeed, m/s")
    p_trim.set_defaults(func=cmd_trim)

    p_sweep = sub.add_parser("sweep", help="exhaustive (gamma, alpha) range sweep")
    p_sweep.add_argument("--out", default=argparse.SUPPRESS, help="output directory")
    p_sweep.add_argument("--jobs", type=_positive_int, default=argparse.SUPPRESS,
                         help="parallel workers")
    p_sweep.add_argument("--margin", type=_finite, default=None,
                         help="override the stall safety margin, deg")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit a model from bench data")
    p_fit.add_argument("target", choices=("aero", "prop", "esc"))
    p_fit.add_argument("input", help="input table (CSV for aero/esc, performance table for prop)")
    p_fit.add_argument("--out", default=argparse.SUPPRESS,
                       help="write the fragment here instead of stdout")
    p_fit.set_defaults(func=cmd_fit)

    p_cmp = sub.add_parser("compare", help="wing vs wingless current draw at fixed speeds")
    p_cmp.add_argument("--speeds", type=_speeds, default="5,10,15",
                       help="comma-separated airspeeds, m/s")
    p_cmp.add_argument("--gamma", dest="gamma_config", type=_finite, default=None,
                       help="override the configured mounting angle, deg")
    p_cmp.set_defaults(func=cmd_compare)

    p_hover = sub.add_parser("hover", help="static hover operating point")
    p_hover.set_defaults(func=cmd_hover)

    return parser


# main's parser, built on its first call and reused: each parse_args call starts
# from a fresh namespace, and rebuilding the tree was most of main's fixed cost
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except _BAD_INPUT_ERRORS as err:
        sys.stderr.write(f"config error: {err}\n")
        return 2
    try:
        return args.func(cfg, args)
    except _INFEASIBLE_ERRORS as err:
        sys.stderr.write(f"infeasible: {describe(err)}\n")
        return 3
    except _BAD_INPUT_ERRORS as err:
        sys.stderr.write(f"bad input: {describe(err)}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"i/o error: {err}\n")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
