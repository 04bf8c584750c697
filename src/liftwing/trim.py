"""2D steady forward-flight equilibrium and the power/endurance/range chain.

With pitch theta, attack angle alpha = gamma - theta (gamma the wing mounting
angle), and n rotors of equal thrust T, the force balance is

    n T cos(theta) + L(V, alpha) = m g      (vertical)
    n T sin(theta) - D(V, alpha) = 0        (horizontal)

where L = q S C_L(alpha), D = q S C_D(alpha), q = rho V^2 / 2. Eliminating T
gives the closed-form trim speed

    V^2 = m g tan(theta) / ( (rho S / 2) (C_D + C_L tan(theta)) )

which is valid when theta > 0 and the denominator coefficient is positive; a
positive denominator also guarantees the implied wing lift stays below the
weight, since m g - L = m g C_D / (C_D + C_L tan(theta)).

The propulsion chain then runs axial inflow V_p = V sin(theta), rotation speed
from inverting the thrust surrogate, shaft torque, ESC current, and finally
endurance t = Q / (n I) and range R = V t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aero import Airframe, Environment, LinearAeroModel, lift_coefficient, drag_coefficient
from .errors import HoverDegenerate, Infeasible, NoTrimAtSpeed
from .propulsion import EscCurrentModel, PolySurrogate, axial_inflow, esc_current, required_rpm, torque


@dataclass(frozen=True)
class Battery:
    """Charge capacity in ampere-seconds (1 mAh = 3.6 A*s)."""

    capacity: float  # A*s

    def __post_init__(self):
        if self.capacity <= 0.0:
            raise ValueError("capacity must be positive")


@dataclass(frozen=True)
class TrimPoint:
    """A complete equilibrium solution, through to endurance and range.

    Invariants: theta = gamma - alpha exactly; both force-balance residuals
    vanish to within 1e-6 of the weight; endurance = Q / (n I); range = V t.
    """

    gamma: float             # deg
    alpha: float             # deg
    theta: float             # deg
    airspeed: float          # m/s
    thrust_per_rotor: float  # N
    rpm: float
    torque_per_rotor: float  # N*m
    current_per_esc: float   # A
    total_current: float     # A
    endurance: float         # s
    range: float             # m


def pitch_from_mounting(gamma: float, alpha: float) -> float:
    """Pitch angle theta = gamma - alpha (deg)."""
    return gamma - alpha


def trim_airspeed(
    airframe: Airframe,
    env: Environment,
    aero: LinearAeroModel,
    gamma: float,
    alpha: float,
) -> float:
    """Closed-form cruise speed for mounting angle gamma and attack angle alpha.

    Raises HoverDegenerate at theta = 0 (the only equilibrium there is V = 0),
    and Infeasible when no positive-speed equilibrium exists: negative pitch
    (thrust cannot pull backwards), a non-positive denominator coefficient, or
    a pitch past 90 deg that leaves V^2 non-positive.
    """
    theta = pitch_from_mounting(gamma, alpha)
    cl = lift_coefficient(aero, alpha)
    cd = drag_coefficient(aero, alpha)
    if theta == 0.0:
        raise HoverDegenerate("theta = 0: hover, no cruise trim speed (V = 0)")
    if theta < 0.0:
        raise Infeasible("negative pitch: horizontal thrust component cannot oppose drag")
    if airframe.reference_area == 0.0:
        raise Infeasible("zero reference area: no finite speed balances the tilt")
    tan_t = math.tan(math.radians(theta))
    den = cd + cl * tan_t
    if den <= 0.0:
        raise Infeasible(
            f"C_D + C_L tan(theta) = {den:.6g} <= 0 at alpha={alpha}, theta={theta} deg"
        )
    v_sq = (
        airframe.mass * env.gravity * tan_t
        / (0.5 * env.air_density * airframe.reference_area * den)
    )
    if not v_sq > 0.0:
        # theta past 90 deg tilts the thrust backwards: tan(theta) < 0
        raise Infeasible(f"V^2 = {v_sq:.6g} <= 0 at alpha={alpha}, theta={theta} deg")
    return math.sqrt(v_sq)


def _thrust_factor(airframe: Airframe, apply_tilt_loss: bool) -> float:
    # fixed arm tilt projects thrust off the pitch plane; lateral parts cancel
    # pairwise, the in-plane magnitude scales by cos(tilt)
    if apply_tilt_loss:
        return math.cos(math.radians(airframe.rotor_tilt))
    return 1.0


def _complete(
    airframe: Airframe,
    thrust_model: PolySurrogate,
    torque_model: PolySurrogate,
    esc: EscCurrentModel,
    battery: Battery,
    gamma: float,
    alpha: float,
    theta: float,
    airspeed: float,
    thrust_per_rotor: float,
) -> TrimPoint:
    """Run the propulsion/electrical chain and assemble the TrimPoint."""
    vp = axial_inflow(airspeed, theta)
    rpm = required_rpm(thrust_model, thrust_per_rotor, vp)
    torque_nm = torque(torque_model, rpm, vp)
    current = esc_current(esc, torque_nm)
    total = airframe.rotor_count * current
    endurance = battery.capacity / total
    return TrimPoint(
        gamma=gamma,
        alpha=alpha,
        theta=theta,
        airspeed=airspeed,
        thrust_per_rotor=thrust_per_rotor,
        rpm=rpm,
        torque_per_rotor=torque_nm,
        current_per_esc=current,
        total_current=total,
        endurance=endurance,
        range=airspeed * endurance,
    )


def solve_trim(
    airframe: Airframe,
    env: Environment,
    aero: LinearAeroModel,
    thrust_model: PolySurrogate,
    torque_model: PolySurrogate,
    esc: EscCurrentModel,
    battery: Battery,
    gamma: float,
    alpha: float,
    apply_tilt_loss: bool = False,
) -> TrimPoint:
    """Full trim at (gamma, alpha): force balance plus the propulsion chain.

    gamma = alpha is the hover branch: a valid equilibrium with V = 0 and the
    thrust split statically across the rotors (V_p = 0 keeps the chain out of
    the 0/0 horizontal cross-check).
    """
    theta = pitch_from_mounting(gamma, alpha)
    kappa = _thrust_factor(airframe, apply_tilt_loss)
    mg = airframe.mass * env.gravity
    n = airframe.rotor_count

    if theta == 0.0:
        thrust_per = mg / (n * kappa)
        return _complete(
            airframe, thrust_model, torque_model, esc, battery,
            gamma, alpha, 0.0, 0.0, thrust_per,
        )

    airspeed = trim_airspeed(airframe, env, aero, gamma, alpha)
    q_s = 0.5 * env.air_density * airspeed * airspeed * airframe.reference_area
    lift = q_s * lift_coefficient(aero, alpha)
    thrust_per = (mg - lift) / (n * kappa * math.cos(math.radians(theta)))
    return _complete(
        airframe, thrust_model, torque_model, esc, battery,
        gamma, alpha, theta, airspeed, thrust_per,
    )


def balance_at_speed(
    airframe: Airframe,
    env: Environment,
    aero: LinearAeroModel,
    gamma: float,
    airspeed: float,
    apply_tilt_loss: bool = False,
) -> tuple[float, float, float, float, float]:
    """trim_at_speed's force balance: (gamma, alpha, theta, airspeed, thrust per rotor).

    Finds theta in (0, gamma] with alpha = gamma - theta inside the aero fit
    range satisfying r(theta) = tan(theta) (m g - L) - D = 0 by safeguarded
    Newton steps on the closed-form slope (Numerical Recipes 9.4, rtsafe),
    shrinking a sign-change bracket until its ends are adjacent floats. A
    step that leaves the bracket, or a zero or non-finite slope, bisects
    instead; a step that rounds to the current point probes the next float
    toward the far end. The end with the smaller |r| is returned: the float
    plain bisection returns when r changes sign once over the bracket's
    floats. theta is reported as gamma - alpha, so that identity holds
    exactly. Raises NoTrimAtSpeed when r is not finite at the bracket ends or
    has no sign change between them.
    """
    if airspeed <= 0.0:
        raise NoTrimAtSpeed("airspeed must be positive")
    if not 0.0 < gamma < 90.0:
        raise ValueError("mounting angle must be in (0, 90) deg")

    kappa = _thrust_factor(airframe, apply_tilt_loss)
    mg = airframe.mass * env.gravity
    n = airframe.rotor_count

    if airframe.reference_area == 0.0:
        # degenerate wing: nothing to balance, level attitude carries the speed
        return gamma, gamma, 0.0, airspeed, mg / (n * kappa)

    q_s = 0.5 * env.air_density * airspeed * airspeed * airframe.reference_area

    def residual(theta: float) -> tuple[float, float]:
        """r(theta) and dr/dtheta, per degree."""
        a = gamma - theta
        lift = q_s * (aero.lift_slope * a + aero.lift_intercept)
        drag = q_s * (aero.drag_slope * a + aero.drag_intercept)
        tan_t = math.tan(math.radians(theta))
        slope = (math.pi / 180.0 * (1.0 + tan_t * tan_t) * (mg - lift)
                 + q_s * (tan_t * aero.lift_slope + aero.drag_slope))
        return tan_t * (mg - lift) - drag, slope

    lo = max(1e-9, gamma - aero.alpha_max)
    hi = min(gamma, gamma - aero.alpha_min)
    if lo >= hi:
        raise NoTrimAtSpeed("mounting angle leaves no admissible pitch bracket")
    (r_lo, _), (r_hi, _) = residual(lo), residual(hi)
    if not all(map(math.isfinite, (q_s, r_lo, r_hi))):
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
        negative_lo = r_lo < 0.0
        x = 0.5 * (lo + hi)
        while lo < x < hi:
            r, slope = residual(x)
            if (r < 0.0) == negative_lo:
                lo, r_lo = x, r
            else:
                hi, r_hi = x, r
            step = x - r / slope if slope != 0.0 and math.isfinite(slope) else math.nan
            if step == x:
                x = math.nextafter(x, hi if x == lo else lo)
            elif lo < step < hi:
                x = step
            else:
                x = 0.5 * (lo + hi)
        theta = lo if abs(r_lo) <= abs(r_hi) else hi

    alpha = gamma - theta
    theta = gamma - alpha  # the float for which theta = gamma - alpha holds exactly
    lift = q_s * lift_coefficient(aero, alpha)
    thrust_per = (mg - lift) / (n * kappa * math.cos(math.radians(theta)))
    return gamma, alpha, theta, airspeed, thrust_per


def trim_at_speed(
    airframe: Airframe,
    env: Environment,
    aero: LinearAeroModel,
    thrust_model: PolySurrogate,
    torque_model: PolySurrogate,
    esc: EscCurrentModel,
    battery: Battery,
    gamma: float,
    airspeed: float,
    apply_tilt_loss: bool = False,
) -> TrimPoint:
    """Trim at a fixed airspeed: solve for the pitch angle instead of the speed.

    The pitch comes from balance_at_speed, which raises NoTrimAtSpeed when no
    admissible pitch balances the forces.
    """
    return _complete(
        airframe, thrust_model, torque_model, esc, battery,
        *balance_at_speed(airframe, env, aero, gamma, airspeed, apply_tilt_loss),
    )


def wingless_balance_at_speed(
    airframe: Airframe,
    env: Environment,
    airspeed: float,
    parasite_drag_area: float,
    apply_tilt_loss: bool = False,
) -> tuple[float, float, float, float, float]:
    """wingless_trim_at_speed's force balance: (gamma, alpha, theta, airspeed, thrust per rotor).

    The body is modelled by an equivalent flat-plate area f: total thrust
    satisfies T cos(theta) = m g and T sin(theta) = rho V^2 f / 2, so
    theta = atan(q f / m g) in closed form. Reported with alpha = 0 and
    gamma = theta so the TrimPoint angle identity still holds.
    """
    if airspeed < 0.0:
        raise ValueError("airspeed must be non-negative")
    if parasite_drag_area < 0.0:
        raise ValueError("parasite_drag_area must be non-negative")

    kappa = _thrust_factor(airframe, apply_tilt_loss)
    mg = airframe.mass * env.gravity
    n = airframe.rotor_count

    body_drag = 0.5 * env.air_density * airspeed * airspeed * parasite_drag_area
    theta = math.degrees(math.atan(body_drag / mg))
    thrust_per = mg / (n * kappa * math.cos(math.radians(theta)))
    return theta, 0.0, theta, airspeed, thrust_per


def wingless_trim_at_speed(
    airframe: Airframe,
    env: Environment,
    thrust_model: PolySurrogate,
    torque_model: PolySurrogate,
    esc: EscCurrentModel,
    battery: Battery,
    airspeed: float,
    parasite_drag_area: float,
    apply_tilt_loss: bool = False,
) -> TrimPoint:
    """Trim of the wingless comparison craft at a fixed airspeed (see wingless_balance_at_speed)."""
    return _complete(
        airframe, thrust_model, torque_model, esc, battery,
        *wingless_balance_at_speed(airframe, env, airspeed, parasite_drag_area, apply_tilt_loss),
    )
