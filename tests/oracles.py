"""Independent numerical oracles: brute-force scans, closed forms, raw
normal equations. These deliberately avoid the library's own solution paths
so that agreement between the two routes actually means something."""

import json
import math
import random

import numpy as np


def scan_trim_airspeed(mass, gravity, rho, area, cl, cd, theta_deg,
                       v_max=40.0, dv=1e-4):
    """Brute-force residual scan of the two force balances over V in (0, v_max].

    The horizontal balance fixes the total thrust n T = D / sin(theta); the
    scan minimizes the vertical residual |n T cos(theta) + L - m g|.
    """
    th = math.radians(theta_deg)
    v = np.arange(dv, v_max + dv, dv)
    q = 0.5 * rho * v * v * area
    n_t = q * cd / math.sin(th)
    res = np.abs(n_t * math.cos(th) + q * cl - mass * gravity)
    return float(v[int(np.argmin(res))])


def scan_theta_at_speed(mass, gravity, rho, area, aero, gamma, v, dth=1e-4):
    """Residual scan over the admissible pitch bracket at fixed airspeed."""
    lo = max(dth, gamma - aero.alpha_max)
    hi = min(gamma, gamma - aero.alpha_min)
    th = np.arange(lo, hi + dth, dth)
    a = gamma - th
    q = 0.5 * rho * v * v * area
    g = (np.tan(np.radians(th))
         * (mass * gravity - q * (aero.lift_slope * a + aero.lift_intercept))
         - q * (aero.drag_slope * a + aero.drag_intercept))
    return float(th[int(np.argmin(np.abs(g)))])


def bisect_balance_at_speed(airframe, env, aero, gamma, airspeed, apply_tilt_loss=False):
    """liftwing.trim.balance_at_speed by plain bisection on theta.

    Halves the admissible pitch bracket until its ends are adjacent floats
    and returns the end with the smaller |residual|, with the library's
    checks and error texts. One residual evaluation per halving: about 54.
    """
    from liftwing.aero import lift_coefficient
    from liftwing.errors import NoTrimAtSpeed

    if airspeed <= 0.0:
        raise NoTrimAtSpeed("airspeed must be positive")
    if not 0.0 < gamma < 90.0:
        raise ValueError("mounting angle must be in (0, 90) deg")
    kappa = math.cos(math.radians(airframe.rotor_tilt)) if apply_tilt_loss else 1.0
    mg = airframe.mass * env.gravity
    n = airframe.rotor_count
    if airframe.reference_area == 0.0:
        return gamma, gamma, 0.0, airspeed, mg / (n * kappa)

    q_s = 0.5 * env.air_density * airspeed * airspeed * airframe.reference_area

    def residual(theta):
        a = gamma - theta
        lift = q_s * (aero.lift_slope * a + aero.lift_intercept)
        drag = q_s * (aero.drag_slope * a + aero.drag_intercept)
        return math.tan(math.radians(theta)) * (mg - lift) - drag

    lo = max(1e-9, gamma - aero.alpha_max)
    hi = min(gamma, gamma - aero.alpha_min)
    if lo >= hi:
        raise NoTrimAtSpeed("mounting angle leaves no admissible pitch bracket")
    r_lo, r_hi = residual(lo), residual(hi)
    if not (math.isfinite(q_s) and math.isfinite(r_lo) and math.isfinite(r_hi)):
        raise NoTrimAtSpeed(f"the force balance is not finite at {airspeed} m/s")
    if r_lo == 0.0:
        theta = lo
    elif r_hi == 0.0:
        theta = hi
    elif r_lo * r_hi > 0.0:
        raise NoTrimAtSpeed(
            f"no pitch in [{lo:.3f}, {hi:.3f}] deg balances the forces at "
            f"{airspeed} m/s (attack angle would leave the aero fit range)"
        )
    else:
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            r_mid = residual(mid)
            if (r_mid < 0.0) == (r_lo < 0.0):
                lo, r_lo = mid, r_mid
            else:
                hi, r_hi = mid, r_mid
        theta = lo if abs(r_lo) <= abs(r_hi) else hi

    alpha = gamma - theta
    theta = gamma - alpha  # the float for which theta = gamma - alpha holds exactly
    lift = q_s * lift_coefficient(aero, alpha)
    thrust_per = (mg - lift) / (n * kappa * math.cos(math.radians(theta)))
    return gamma, alpha, theta, airspeed, thrust_per


def _poly(terms, rpm, vp):
    return sum(c * vp**i * rpm**j for i, j, c in terms)


def _poly_drpm(terms, rpm, vp):
    return sum(c * vp**i * j * rpm ** (j - 1) for i, j, c in terms if j > 0)


def scan_required_rpm(surrogate, thrust_required, vp, dn=0.1):
    """Brute-force root scan over rpm_domain at dn resolution, bisection-refined.

    Returns the smallest rising-branch root, or None.
    """
    lo, hi = surrogate.rpm_domain
    n = np.arange(lo, hi + dn, dn)
    f = np.zeros_like(n)
    for i, j, c in surrogate.terms:
        f += c * vp**i * n**j
    f -= thrust_required
    crossings = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) <= 0)[0]
    roots = []
    for k in crossings:
        a, b = float(n[k]), float(n[k + 1])
        fa = _poly(surrogate.terms, a, vp) - thrust_required
        if fa == 0.0:
            roots.append(a)
            continue
        fb = _poly(surrogate.terms, b, vp) - thrust_required
        if fa * fb > 0.0:
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = _poly(surrogate.terms, mid, vp) - thrust_required
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    rising = [r for r in roots if _poly_drpm(surrogate.terms, r, vp) > 0.0]
    return min(rising) if rising else None


def closed_form_rpm(surrogate, thrust_required, vp):
    """Quadratic-formula inversion, valid for the default quadratic-in-N basis.

    Takes the larger root of the upward parabola (the rising branch).
    """
    terms = {(i, j): c for i, j, c in surrogate.terms}
    a = terms.get((0, 2), 0.0)
    b = terms.get((0, 1), 0.0) + terms.get((1, 1), 0.0) * vp
    c = (terms.get((0, 0), 0.0) + terms.get((1, 0), 0.0) * vp
         + terms.get((2, 0), 0.0) * vp * vp - thrust_required)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    root = (-b + math.sqrt(disc)) / (2.0 * a)
    lo, hi = surrogate.rpm_domain
    return root if lo <= root <= hi else None


def normal_equations_fit(design, y):
    """Raw normal-equations least squares: solve (A^T A) x = A^T y."""
    a = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(a.T @ a, a.T @ y)


def eval_terms_shuffled(terms, rpm, vp, seed=0):
    """Term-by-term polynomial evaluation in a randomized term order."""
    shuffled = list(terms)
    random.Random(seed).shuffle(shuffled)
    total = 0.0
    for i, j, c in shuffled:
        total += c * vp**i * rpm**j
    return total


def wing_residuals(point, airframe, env, aero):
    """Force-balance residuals (vertical, horizontal) of a wing TrimPoint in N."""
    mg = airframe.mass * env.gravity
    th = math.radians(point.theta)
    n_t = airframe.rotor_count * point.thrust_per_rotor
    if point.airspeed == 0.0:
        lift = drag = 0.0
    else:
        q_s = 0.5 * env.air_density * point.airspeed**2 * airframe.reference_area
        lift = q_s * (aero.lift_slope * point.alpha + aero.lift_intercept)
        drag = q_s * (aero.drag_slope * point.alpha + aero.drag_intercept)
    return (n_t * math.cos(th) + lift - mg, n_t * math.sin(th) - drag)


def reference_sweep(bundle, grid):
    """The sweep as one scalar solve_trim per cell, written out as the CLI does.

    This is the library's scalar path, kept as the reference for the column
    kernel in liftwing.sweep. Returns (cells, files): cells is the row-major
    list of (status, TrimPoint or None); files maps cells.csv, each
    curve_alpha_<a>.csv and summary.json to its text. summary.json is absent
    when no cell under the alpha cap is feasible.
    """
    from liftwing.errors import (HoverDegenerate, Infeasible, OutOfAeroDomain,
                                 OutOfEscDomain, OutOfSurrogateDomain)

    def solve(gamma, alpha):
        try:
            point = bundle.solve(gamma, alpha)
        except HoverDegenerate:
            return "hover-degenerate", None
        except (OutOfAeroDomain, Infeasible) as err:
            rpm = isinstance(err, Infeasible) and err.stage == "rpm"
            return ("rpm-infeasible" if rpm else "aero-infeasible"), None
        except OutOfSurrogateDomain:
            return "surrogate-domain", None
        except OutOfEscDomain:
            return "esc-domain", None
        if point.theta == 0.0:
            return "hover-degenerate", None
        return "ok", point

    gammas, alphas = grid.gammas(), grid.alphas()
    cells = [solve(g, a) for g in gammas for a in alphas]
    coords = [(g, a) for g in gammas for a in alphas]

    rows = ["gamma_deg,alpha_deg,theta_deg,airspeed_m_s,rpm,"
            "torque_Nm,current_A,endurance_s,range_m,status"]
    for (g, a), (status, p) in zip(coords, cells):
        values = ([p.theta, p.airspeed, p.rpm, p.torque_per_rotor, p.total_current,
                   p.endurance, p.range] if p else [])
        text = [repr(v) for v in values] or [""] * 7
        rows.append(",".join([repr(g), repr(a), *text, status]))
    files = {"cells.csv": "\n".join(rows) + "\n"}
    for k, a in enumerate(alphas):
        lines = ["gamma_deg,range_m,status"]
        for g, (status, p) in zip(gammas, cells[k::len(alphas)]):
            lines.append(f"{g!r},{repr(p.range) if p else ''},{status}")
        files[f"curve_alpha_{a:g}.csv"] = "\n".join(lines) + "\n"

    cap = bundle.airframe.stall_alpha - bundle.airframe.safety_margin
    best = None
    for (g, a), (status, p) in zip(coords, cells):
        if p and a <= cap and (best is None or p.range > best.range):
            best = p
    if best is not None:
        files["summary.json"] = json.dumps({
            "gamma_deg": best.gamma, "alpha_deg": best.alpha, "theta_deg": best.theta,
            "airspeed_m_s": best.airspeed, "range_m": best.range,
        }, indent=2) + "\n"
    return cells, files


def reference_compare(cfg, speeds):
    """compare's rows from one scalar trim_at_speed and wingless_trim_at_speed per row.

    This is the library's scalar path, kept as the reference for the column
    chain that liftwing.cli.compare_rows runs. A side that fails carries
    "<error type>: <message>" instead of its current.
    """
    from liftwing.errors import LiftwingError
    from liftwing.trim import trim_at_speed, wingless_trim_at_speed

    b = cfg.bundle()
    rows = []
    for v in speeds:
        row = {"speed_m_s": v}
        try:
            row["wing_current_A"] = trim_at_speed(
                b.airframe, b.environment, b.aero, b.thrust_surrogate, b.torque_surrogate,
                b.esc, b.battery, cfg.mounting_angle, v,
                apply_tilt_loss=b.apply_tilt_loss).total_current
        except (LiftwingError, ValueError) as err:
            row["wing_error"] = f"{type(err).__name__}: {err}"
        try:
            row["wingless_current_A"] = wingless_trim_at_speed(
                b.airframe, b.environment, b.thrust_surrogate, b.torque_surrogate,
                b.esc, b.battery, v, parasite_drag_area=cfg.parasite_drag_area,
                apply_tilt_loss=b.apply_tilt_loss).total_current
        except (LiftwingError, ValueError) as err:
            row["wingless_error"] = f"{type(err).__name__}: {err}"
        if "wing_current_A" in row and "wingless_current_A" in row:
            iw, ib = row["wing_current_A"], row["wingless_current_A"]
            row["saving_percent"] = 100.0 * (ib - iw) / ib
        rows.append(row)
    return rows
