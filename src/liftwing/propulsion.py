"""Propeller thrust/torque surrogates, their inversion, and the ESC current model.

Rotation speed N is in RPM throughout: the fitted coefficient magnitudes only
produce sensible thrusts for N in the thousands, and the source performance
tables are RPM-indexed. Axial inflow V_p is in m/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aero import Environment
from .errors import Infeasible, LiftwingError, OutOfEscDomain, OutOfSurrogateDomain

STATUS_RPM, STATUS_SURROGATE, STATUS_ESC = "rpm-infeasible", "surrogate-domain", "esc-domain"
_VP_IN_DOMAIN = (STATUS_SURROGATE, OutOfSurrogateDomain, "V_p={0} m/s outside fit range {1}")

# trim._complete's checks in the order it makes them (required_rpm's three,
# the torque surrogate's check_domain, esc_current), each as (sweep status of
# a failed cell, error class, message template). A template is formatted with
# the value checked, its bound as a list and the thrust unit, and uses what it
# names. The sweep's column chain records a failed row's check by its index.
CHECKS = (
    (STATUS_RPM, Infeasible, "thrust_required must be positive and finite"),
    _VP_IN_DOMAIN,
    (STATUS_RPM, Infeasible, "no rising-branch N in {1} RPM gives {0} {2}"),
    _VP_IN_DOMAIN,
    (STATUS_SURROGATE, OutOfSurrogateDomain, "N={0} RPM outside fit range {1}"),
    (STATUS_ESC, OutOfEscDomain, "M={0} N*m outside fit range {1}"),
)
POSITIVE_THRUST, THRUST_VP, RISING_ROOT, TORQUE_VP, TORQUE_RPM, ESC_TORQUE = range(len(CHECKS))


def check_error(check: int, value: float, bound: tuple = (), unit: str = "") -> LiftwingError:
    """The error of failing CHECKS[check] with ``value``; an Infeasible is stage "rpm"."""
    _, error, template = CHECKS[check]
    text = template.format(value, list(bound), unit)
    return error(text, stage="rpm") if error is Infeasible else error(text)


def power(x: float, k: int) -> float:
    """x**k, but x * x for k = 2 as numpy squares columns (Python's x**2 can differ)."""
    return x * x if k == 2 else x**k


@dataclass(frozen=True)
class PolySurrogate:
    """Bivariate polynomial f(V_p, N) = sum c * V_p**i * N**j.

    ``terms`` is a sequence of (vp_exponent, rpm_exponent, coefficient). The
    term list is normalized to ascending exponent order at construction so that
    evaluation always sums in one fixed order, independent of how the terms
    were supplied.
    """

    terms: tuple[tuple[int, int, float], ...]
    vp_domain: tuple[float, float] = (0.0, 20.0)      # m/s
    rpm_domain: tuple[float, float] = (2000.0, 10000.0)
    output_unit: str = "N"

    def __post_init__(self):
        terms = tuple(sorted((int(i), int(j), float(c)) for i, j, c in self.terms))
        if not terms:
            raise ValueError("term list must be non-empty")
        exps = [(i, j) for i, j, _ in terms]
        if len(set(exps)) != len(exps):
            raise ValueError("exponent pairs must be unique")
        if any(i < 0 or j < 0 for i, j in exps):
            raise ValueError("exponents must be non-negative")
        for name, (lo, hi) in (("vp_domain", self.vp_domain), ("rpm_domain", self.rpm_domain)):
            if not lo < hi:
                raise ValueError(f"{name} must be a non-degenerate interval")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "vp_domain", (float(self.vp_domain[0]), float(self.vp_domain[1])))
        object.__setattr__(self, "rpm_domain", (float(self.rpm_domain[0]), float(self.rpm_domain[1])))

    def check_domain(self, rpm: float, vp: float) -> None:
        if not self.vp_domain[0] <= vp <= self.vp_domain[1]:
            raise check_error(TORQUE_VP, vp, self.vp_domain)
        if not self.rpm_domain[0] <= rpm <= self.rpm_domain[1]:
            raise check_error(TORQUE_RPM, rpm, self.rpm_domain)

    # Plain left-to-right float adds: builtin sum() compensates rounding from
    # Python 3.12 on. The sweep's column kernel runs these same loops on
    # numpy columns, passing a ``power`` that rounds as this one does.
    def evaluate(self, rpm: float, vp: float, power=power) -> float:
        """Raw polynomial value, no domain check."""
        total = 0.0
        for i, j, c in self.terms:
            total += c * power(vp, i) * power(rpm, j)
        return total

    def d_drpm(self, rpm: float, vp: float, power=power) -> float:
        """Analytic partial derivative with respect to N."""
        total = 0.0
        for i, j, c in self.terms:
            if j > 0:
                total += c * power(vp, i) * j * power(rpm, j - 1)
        return total


def require_quadratic_in_rpm(surrogate: PolySurrogate) -> None:
    """Raise ValueError unless the surrogate is at most quadratic in N, as required_rpm needs."""
    degree = max(j for _, j, _ in surrogate.terms)
    if degree > 2:
        raise ValueError(f"thrust surrogate must be at most quadratic in N, not degree {degree}")


@dataclass(frozen=True)
class EscCurrentModel:
    """ESC current draw as a quadratic in propeller torque: I = a M^2 + b M + c.

    The fit is only trusted on ``torque_domain``; the region near M = 0, where
    the quadratic goes negative, lies outside the default domain on purpose.
    Monotonicity on the domain is checked at construction (the derivative of a
    quadratic is linear, so positivity at both endpoints suffices).
    """

    quad: float   # A/(N*m)^2
    lin: float    # A/(N*m)
    const: float  # A
    torque_domain: tuple[float, float] = (0.05, 0.6)  # N*m

    def __post_init__(self):
        lo, hi = self.torque_domain
        if not lo < hi:
            raise ValueError("torque_domain must be a non-degenerate interval")
        for m in (lo, hi):
            if 2.0 * self.quad * m + self.lin <= 0.0:
                raise ValueError(f"current model is not increasing at M={m} N*m")
        object.__setattr__(self, "torque_domain", (float(lo), float(hi)))


def axial_inflow(airspeed: float, pitch: float) -> float:
    """Airspeed component through the rotor disk: V_p = V sin(theta)."""
    if airspeed < 0.0:
        raise ValueError("airspeed must be non-negative")
    return airspeed * math.sin(math.radians(pitch))


def thrust(surrogate: PolySurrogate, rpm: float, vp: float) -> float:
    """Per-rotor thrust in N at rotation speed ``rpm`` and axial inflow ``vp``."""
    surrogate.check_domain(rpm, vp)
    return surrogate.evaluate(rpm, vp)


def torque(surrogate: PolySurrogate, rpm: float, vp: float) -> float:
    """Per-rotor shaft torque in N*m at ``rpm`` and axial inflow ``vp``."""
    surrogate.check_domain(rpm, vp)
    return surrogate.evaluate(rpm, vp)


def thrust_from_coefficients(ct: float, env: Environment, rpm: float, diameter: float) -> float:
    """Dimensional thrust from a thrust coefficient: T = C_T rho N^2 D^4 / 16."""
    if diameter <= 0.0:
        raise ValueError("diameter must be positive")
    if rpm < 0.0:
        raise ValueError("rpm must be non-negative")
    return ct * env.air_density * rpm * rpm * diameter**4 / 16.0


def torque_from_coefficients(cm: float, env: Environment, rpm: float, diameter: float) -> float:
    """Dimensional torque from a torque coefficient: M = C_M rho N^2 D^5 / 32."""
    if diameter <= 0.0:
        raise ValueError("diameter must be positive")
    if rpm < 0.0:
        raise ValueError("rpm must be non-negative")
    return cm * env.air_density * rpm * rpm * diameter**5 / 32.0


def esc_current(model: EscCurrentModel, torque_nm: float) -> float:
    """ESC current in A for shaft torque ``torque_nm``; raw fitted value."""
    lo, hi = model.torque_domain
    if not lo <= torque_nm <= hi:
        raise check_error(ESC_TORQUE, torque_nm, model.torque_domain)
    return model.quad * torque_nm * torque_nm + model.lin * torque_nm + model.const


def required_rpm(surrogate: PolySurrogate, thrust_required: float, vp: float) -> float:
    """Invert the thrust surrogate: the N with thrust(N, vp) = thrust_required.

    Only roots on the rising branch (dT/dN > 0) are physical: that is the
    branch a speed controller can hold. At fixed vp the surrogate is a
    quadratic a N^2 + b N + c in N, solved without cancellation (Numerical
    Recipes 5.6): q = -(b + sgn(b) sqrt(b^2 - 4ac)) / 2 gives the roots q/a
    and c/q, and a = 0 the root -c/b. Of the roots in rpm_domain on the
    rising branch the smallest wins. A tangency (zero slope at the root) is
    not a controllable operating point and reports Infeasible. A surrogate
    cubic or higher in N raises ValueError.
    """
    require_quadratic_in_rpm(surrogate)
    if not 0.0 < thrust_required < math.inf:
        raise check_error(POSITIVE_THRUST, thrust_required)
    if not surrogate.vp_domain[0] <= vp <= surrogate.vp_domain[1]:
        raise check_error(THRUST_VP, vp, surrogate.vp_domain)

    coeffs = [0.0, 0.0, 0.0]
    for i, j, k in surrogate.terms:
        coeffs[j] += k * power(vp, i)
    c, b, a = coeffs[0] - thrust_required, coeffs[1], coeffs[2]
    roots = ()
    if a == 0.0:
        if b != 0.0:
            roots = (-c / b,)
    elif (disc := b * b - 4.0 * a * c) >= 0.0:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        if q != 0.0:  # q = 0 only for b = c = 0: a double root N = 0 with zero slope
            roots = (q / a, c / q)

    lo, hi = surrogate.rpm_domain
    rising = [r for r in roots if lo <= r <= hi and surrogate.d_drpm(r, vp) > 0.0]
    if not rising:
        raise check_error(RISING_ROOT, thrust_required, surrogate.rpm_domain,
                          surrogate.output_unit)
    return min(rising)
