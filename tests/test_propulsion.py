import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liftwing import (
    Environment,
    EscCurrentModel,
    Infeasible,
    OutOfEscDomain,
    OutOfSurrogateDomain,
    PolySurrogate,
    axial_inflow,
    esc_current,
    required_rpm,
    thrust,
    thrust_from_coefficients,
    torque,
    torque_from_coefficients,
)
from liftwing.config import (
    THRUST_SURROGATE_TERMS,
    TORQUE_TERMS_AS_TRANSCRIBED,
)

from liftwing.sweep import _required_rpm

from oracles import closed_form_rpm, eval_terms_shuffled, scan_required_rpm

ENV = Environment()

# same coefficients as the default, but with domains opened up so the
# bench-report spot values (N = 0) are reachable in tests
THRUST_WIDE = PolySurrogate(THRUST_SURROGATE_TERMS, vp_domain=(0.0, 25.0),
                            rpm_domain=(0.0, 10000.0))
THRUST_DEFAULT = PolySurrogate(THRUST_SURROGATE_TERMS)


class TestAxialInflow:
    def test_zero_pitch(self):
        assert axial_inflow(15.0, 0.0) == 0.0

    def test_right_angle(self):
        assert axial_inflow(10.0, 90.0) == pytest.approx(10.0, rel=1e-15)

    def test_cruise_point(self):
        # independent evaluation of 15.3 * sin(25 deg)
        assert axial_inflow(15.3, 25.0) == pytest.approx(6.4660594046, abs=1e-9)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            axial_inflow(-0.1, 10.0)


class TestSurrogateEvaluation:
    def test_constant_term_at_origin(self):
        assert thrust(THRUST_WIDE, 0.0, 0.0) == pytest.approx(9.397e-2, abs=1e-15)

    def test_static_thrust_at_7000(self):
        assert thrust(THRUST_WIDE, 7000.0, 0.0) == pytest.approx(7.14192, abs=1e-9)

    def test_constant_surrogate(self):
        const = PolySurrogate(((0, 0, 2.5),), vp_domain=(0.0, 20.0), rpm_domain=(0.0, 1e4))
        for rpm, vp in [(0.0, 0.0), (5000.0, 10.0), (9999.0, 19.9)]:
            assert thrust(const, rpm, vp) == 2.5

    def test_monomial_torque(self):
        mono = PolySurrogate(((1, 0, 0.3),), vp_domain=(0.0, 20.0), rpm_domain=(0.0, 1e4),
                             output_unit="N*m")
        assert torque(mono, 4000.0, 7.0) == pytest.approx(2.1, rel=1e-15)

    def test_transcribed_torque_constant_term(self):
        ref = PolySurrogate(TORQUE_TERMS_AS_TRANSCRIBED, vp_domain=(0.0, 20.0),
                            rpm_domain=(0.0, 1e4), output_unit="N*m")
        assert torque(ref, 0.0, 0.0) == pytest.approx(7.57e-2, abs=1e-15)

    def test_transcribed_torque_against_independent_evaluator(self):
        ref = PolySurrogate(TORQUE_TERMS_AS_TRANSCRIBED, vp_domain=(0.0, 20.0),
                            rpm_domain=(0.0, 1e4), output_unit="N*m")
        value = torque(ref, 3000.0, 5.0)
        expect = eval_terms_shuffled(TORQUE_TERMS_AS_TRANSCRIBED, 3000.0, 5.0, seed=7)
        assert value == pytest.approx(expect, rel=1e-12)

    def test_order_independent_summation(self):
        # construction sorts the term list, so evaluation is one fixed order
        for seed in range(10):
            shuffled = list(THRUST_SURROGATE_TERMS)
            random.Random(seed).shuffle(shuffled)
            other = PolySurrogate(tuple(shuffled))
            assert other.terms == THRUST_DEFAULT.terms
            assert other.evaluate(6543.0, 8.75) == THRUST_DEFAULT.evaluate(6543.0, 8.75)

    def test_domain_violations(self):
        with pytest.raises(OutOfSurrogateDomain):
            thrust(THRUST_DEFAULT, 1000.0, 5.0)
        with pytest.raises(OutOfSurrogateDomain):
            thrust(THRUST_DEFAULT, 5000.0, 25.0)

    def test_construction_invariants(self):
        with pytest.raises(ValueError):
            PolySurrogate(())
        with pytest.raises(ValueError):
            PolySurrogate(((0, 0, 1.0), (0, 0, 2.0)))
        with pytest.raises(ValueError):
            PolySurrogate(((0, 0, 1.0),), rpm_domain=(5000.0, 5000.0))


class TestCoefficientWrappers:
    def test_zero_coefficient(self):
        assert thrust_from_coefficients(0.0, ENV, 5000.0, 0.25) == 0.0

    def test_rpm_squared_scaling(self):
        t1 = thrust_from_coefficients(0.1, ENV, 100.0, 0.2)
        t2 = thrust_from_coefficients(0.1, ENV, 200.0, 0.2)
        assert t2 == pytest.approx(4.0 * t1, rel=1e-15)

    def test_hand_evaluated_thrust(self):
        # 0.1 * 1.225 * 100^2 * 0.2^4 / 16
        assert thrust_from_coefficients(0.1, ENV, 100.0, 0.2) == pytest.approx(0.1225, rel=1e-12)

    def test_hand_evaluated_torque(self):
        # 0.1 * 1.225 * 100^2 * 0.2^5 / 32
        assert torque_from_coefficients(0.1, ENV, 100.0, 0.2) == pytest.approx(0.01225, rel=1e-12)

    def test_torque_zero_and_scaling(self):
        assert torque_from_coefficients(0.0, ENV, 3000.0, 0.3) == 0.0
        m1 = torque_from_coefficients(0.05, ENV, 150.0, 0.2)
        m2 = torque_from_coefficients(0.05, ENV, 300.0, 0.2)
        assert m2 == pytest.approx(4.0 * m1, rel=1e-15)

    def test_linear_in_ct_and_density(self):
        base = thrust_from_coefficients(0.1, ENV, 4000.0, 0.25)
        assert thrust_from_coefficients(0.3, ENV, 4000.0, 0.25) == pytest.approx(3.0 * base, rel=1e-12)
        dense = Environment(air_density=2.45)
        assert thrust_from_coefficients(0.1, dense, 4000.0, 0.25) == pytest.approx(2.0 * base, rel=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            thrust_from_coefficients(0.1, ENV, 100.0, 0.0)
        with pytest.raises(ValueError):
            torque_from_coefficients(0.1, ENV, -5.0, 0.2)


ESC = EscCurrentModel(quad=73.05, lin=12.15, const=-0.511, torque_domain=(0.05, 0.6))


class TestEscCurrent:
    def test_fitted_value_at_zero_requires_domain_override(self):
        wide = EscCurrentModel(73.05, 12.15, -0.511, torque_domain=(0.0, 0.6))
        # nonphysical negative current: why the default domain starts above 0
        assert esc_current(wide, 0.0) == pytest.approx(-0.511, abs=1e-15)
        with pytest.raises(OutOfEscDomain):
            esc_current(ESC, 0.0)

    def test_hand_evaluated_points(self):
        assert esc_current(ESC, 0.3) == pytest.approx(9.7085, abs=1e-12)
        assert esc_current(ESC, 0.1) == pytest.approx(1.4345, abs=1e-12)

    def test_strictly_increasing_on_domain(self):
        lo, hi = ESC.torque_domain
        values = [esc_current(ESC, lo + k * (hi - lo) / 200.0) for k in range(201)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_non_monotone_model_rejected(self):
        # derivative 2*quad*M + lin is negative at the upper endpoint
        with pytest.raises(ValueError):
            EscCurrentModel(quad=-40.0, lin=10.0, const=0.0, torque_domain=(0.05, 0.6))


class TestRequiredRpm:
    def test_round_trip_identity(self):
        t0 = thrust(THRUST_DEFAULT, 7000.0, 3.0)
        assert required_rpm(THRUST_DEFAULT, t0, 3.0) == pytest.approx(7000.0, abs=1e-6)

    def test_above_max_thrust_infeasible(self):
        tmax = thrust(THRUST_DEFAULT, 10000.0, 5.0)
        with pytest.raises(Infeasible):
            required_rpm(THRUST_DEFAULT, tmax * 1.01, 5.0)

    def test_hover_inversion_matches_scan_oracle(self):
        # brute-force scan at 0.1 RPM resolution, frozen: 5808.194878
        n = required_rpm(THRUST_DEFAULT, 4.905, 0.0)
        assert n == pytest.approx(5808.194878, abs=1e-3)
        scan = scan_required_rpm(THRUST_DEFAULT, 4.905, 0.0)
        assert n == pytest.approx(scan, abs=1e-4)

    def test_residual_below_tolerance(self):
        n = required_rpm(THRUST_DEFAULT, 4.905, 0.0)
        assert abs(thrust(THRUST_DEFAULT, n, 0.0) - 4.905) <= 1e-9

    def test_closed_form_agrees_with_bisection(self):
        rng = random.Random(42)
        checked = 0
        for draws in range(1, 50 * 100 + 1):
            vp = rng.uniform(0.0, 15.0)
            n_true = rng.uniform(2200.0, 9800.0)
            t = thrust(THRUST_DEFAULT, n_true, vp)
            if t <= 0.0:
                continue
            n_bisect = required_rpm(THRUST_DEFAULT, t, vp)
            n_closed = closed_form_rpm(THRUST_DEFAULT, t, vp)
            assert n_closed is not None
            assert n_bisect == pytest.approx(n_closed, abs=1e-6)
            checked += 1
            if checked == 100:
                break
        assert checked == 100, f"{draws - checked} of {draws} draws rejected"

    def test_falling_branch_rejected(self):
        # downward parabola in N: any crossing has negative slope past the peak
        falling = PolySurrogate(((0, 0, 0.0), (0, 1, 2e-3), (0, 2, -1e-7)),
                                rpm_domain=(0.0, 10000.0), vp_domain=(0.0, 20.0))
        # peak at N = 10000/... dT/dN = 2e-3 - 2e-7 N -> peak at N = 10000
        # restrict domain to the falling side
        falling2 = PolySurrogate(((0, 0, 20.0), (0, 1, -1e-3)),
                                 rpm_domain=(2000.0, 10000.0), vp_domain=(0.0, 20.0))
        with pytest.raises(Infeasible):
            required_rpm(falling2, 15.0, 0.0)
        # rising branch of `falling` is fine below the peak
        t = falling.evaluate(5000.0, 0.0)
        assert required_rpm(falling, t, 0.0) == pytest.approx(5000.0, abs=1e-6)

    def test_nonpositive_thrust_rejected(self):
        with pytest.raises(Infeasible):
            required_rpm(THRUST_DEFAULT, 0.0, 0.0)

    def test_vp_outside_domain(self):
        with pytest.raises(OutOfSurrogateDomain):
            required_rpm(THRUST_DEFAULT, 4.905, 25.0)

    def test_two_roots_inside_one_coarse_scan_segment(self):
        # T(N, vp) - 4 = 1e-6 (N - 5010)(N - 5060) at vp = 2: both roots fall
        # between 5000 and 5125 RPM, one step of a 64-segment sign scan of
        # [2000, 10000], which sees no sign change there
        close = PolySurrogate(((0, 0, 3.0 + 1e-6 * 5010.0 * 5060.0), (1, 0, 0.5),
                               (0, 1, -1e-6 * 10070.0), (0, 2, 1e-6)))
        n = required_rpm(close, 4.0, 2.0)
        assert n == pytest.approx(5060.0, abs=1e-6)
        assert n == pytest.approx(scan_required_rpm(close, 4.0, 2.0), abs=1e-4)

    @pytest.mark.parametrize("thrust_required, vp", [
        (6.0, 0.0), (6.5, 0.0), (5.0, 0.0), (5.5, 3.0), (3.0, 0.0), (14.0, 0.0)])
    def test_cubic_surrogate_against_scan_oracle(self, thrust_required, vp):
        # T = 1e-10 (N - 3000)(N - 5000)(N - 8000) + 6 + 2e-6 vp N: rising,
        # falling, rising across the domain. Rotor speed is a closed-form
        # quadratic root, so thrust cubic in N is refused at the call,
        # whether or not a rising root exists
        cubic = PolySurrogate(((0, 0, -6.0), (0, 1, 7.9e-3), (1, 1, 2e-6),
                               (0, 2, -1.6e-6), (0, 3, 1e-10)))
        with pytest.raises(ValueError, match="at most quadratic in N, not degree 3"):
            required_rpm(cubic, thrust_required, vp)


def _quadratic(a, r1, r2, thrust_required, vp, b_vp, c_vp):
    """A thrust surrogate with T(N, vp) - thrust_required = a (N - r1)(N - r2) up to rounding.

    a = 0 gives the line (N - r1), times 1e-3. b_vp and c_vp move part of the
    N^1 and N^0 coefficients onto V_p terms.
    """
    if a == 0.0:
        b, c = 1e-3 * (1.0 if r2 > r1 else -1.0), -1e-3 * r1 * (1.0 if r2 > r1 else -1.0)
    else:
        b, c = -a * (r1 + r2), a * r1 * r2
    return PolySurrogate(((0, 0, c + thrust_required - c_vp * vp), (1, 0, c_vp),
                          (0, 1, b - b_vp * vp), (1, 1, b_vp), (0, 2, a)))


def _tangent(sign, e, k, thrust_required):
    """sign 2^-e (N - r)^2 + thrust_required with r = k + 1/32: b^2 - 4ac is exactly 0.

    Every coefficient is a multiple of 2^-e well inside 2^53 of them, so all
    of them, and the discriminant, are exact; r sits 1/32 RPM off the
    oracle's 0.1 RPM scan grid.
    """
    a = sign * 2.0**-e
    r = k + 1.0 / 32.0
    return PolySurrogate(((0, 0, a * r * r + thrust_required), (0, 1, -2.0 * a * r), (0, 2, a)))


def _assert_paths_and_oracle_agree(surrogate, thrust_required, vp):
    column = _required_rpm(surrogate, np.array([thrust_required]), np.array([vp]))[0]
    scan = scan_required_rpm(surrogate, thrust_required, vp)
    try:
        n = required_rpm(surrogate, thrust_required, vp)
    except Infeasible:
        assert np.isnan(column)
        assert scan is None
        return
    assert float(column).hex() == n.hex()
    assert scan is not None and n == pytest.approx(scan, abs=1e-4)


class TestRequiredRpmProperties:
    """Closed-form rotor speed: scalar and column paths bit for bit, and the scan oracle."""

    _roots = st.floats(0.0, 12000.0).filter(
        lambda r: min(abs(r - 2000.0), abs(r - 10000.0)) >= 0.5)

    @settings(max_examples=60, deadline=None)
    @given(a=st.one_of(st.just(0.0), st.floats(-8.0, -5.0).map(lambda e: -10.0**e),
                       st.floats(-8.0, -5.0).map(lambda e: 10.0**e)),
           r1=_roots, r2=_roots, thrust_required=st.floats(0.5, 20.0),
           vp=st.floats(0.0, 20.0), b_vp=st.floats(-1e-5, 1e-5), c_vp=st.floats(-1e-2, 1e-2))
    def test_generated_quadratics(self, a, r1, r2, thrust_required, vp, b_vp, c_vp):
        assume(abs(r1 - r2) >= 1.0)
        surrogate = _quadratic(a, r1, r2, thrust_required, vp, b_vp, c_vp)
        _assert_paths_and_oracle_agree(surrogate, thrust_required, vp)

    @settings(max_examples=20, deadline=None)
    @given(sign=st.sampled_from([1.0, -1.0]), e=st.integers(20, 30),
           k=st.integers(2000, 9999), thrust_required=st.sampled_from([0.5, 4.0, 9.0]))
    def test_tangent_root_is_infeasible(self, sign, e, k, thrust_required):
        surrogate = _tangent(sign, e, k, thrust_required)
        (_, _, c), (_, _, b), (_, _, a) = surrogate.terms
        assert b * b - 4.0 * a * (c - thrust_required) == 0.0
        _assert_paths_and_oracle_agree(surrogate, thrust_required, 0.0)
        with pytest.raises(Infeasible):
            required_rpm(surrogate, thrust_required, 0.0)

    @pytest.mark.parametrize("r1, r2", [(1500.0, 2500.0), (9500.0, 10500.0),
                                        (-3000.0, 2000.5), (9999.5, 14000.0)])
    @pytest.mark.parametrize("a", [1e-6, -1e-6, 0.0])
    def test_roots_straddling_the_domain_edges(self, a, r1, r2):
        _assert_paths_and_oracle_agree(_quadratic(a, r1, r2, 5.0, 3.0, 1e-6, 1e-3), 5.0, 3.0)
