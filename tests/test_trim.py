import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import liftwing.trim
from liftwing import (
    Battery,
    HoverDegenerate,
    Infeasible,
    NoTrimAtSpeed,
    pitch_from_mounting,
    solve_trim,
    trim_airspeed,
    trim_at_speed,
    wingless_trim_at_speed,
)
from liftwing.config import default_config
from liftwing.errors import LiftwingError
from liftwing.trim import balance_at_speed

from oracles import bisect_balance_at_speed, scan_theta_at_speed, scan_trim_airspeed, wing_residuals

CFG = default_config()
B = CFG.bundle()

# the aero module's documented example configuration (S = 0.3)
AF_S03 = dataclasses.replace(CFG.airframe, reference_area=0.3)


def _solve(gamma, alpha, bundle=B):
    return solve_trim(
        bundle.airframe, bundle.environment, bundle.aero, bundle.thrust_surrogate,
        bundle.torque_surrogate, bundle.esc, bundle.battery, gamma, alpha,
    )


def _at_speed(gamma, speed, bundle=B):
    return trim_at_speed(
        bundle.airframe, bundle.environment, bundle.aero, bundle.thrust_surrogate,
        bundle.torque_surrogate, bundle.esc, bundle.battery, gamma, speed,
    )


class TestPitchFromMounting:
    def test_design_point(self):
        assert pitch_from_mounting(35.0, 10.0) == 25.0

    def test_hover_pitch(self):
        assert pitch_from_mounting(12.0, 12.0) == 0.0

    def test_origin(self):
        assert pitch_from_mounting(0.0, 0.0) == 0.0


class TestTrimAirspeed:
    def test_hover_degenerate(self):
        with pytest.raises(HoverDegenerate):
            trim_airspeed(B.airframe, B.environment, B.aero, 10.0, 10.0)

    def test_negative_pitch_infeasible(self):
        with pytest.raises(Infeasible):
            trim_airspeed(B.airframe, B.environment, B.aero, 5.0, 10.0)

    def test_sign_analysis_infeasible(self):
        # C_D(0) = 0.14, C_L(0) = -0.24, tan(50 deg) ~ 1.19: denominator < 0
        with pytest.raises(Infeasible):
            trim_airspeed(B.airframe, B.environment, B.aero, 50.0, 0.0)

    def test_design_cell_against_scan_oracle_s03(self):
        # residual-scan oracle at 1e-4 m/s froze V = 9.4307 for S = 0.3
        v = trim_airspeed(AF_S03, B.environment, B.aero, 35.0, 10.0)
        assert v == pytest.approx(9.4306826364, abs=1e-6)
        assert v == pytest.approx(9.4307, abs=2e-4)

    def test_back_substitution_residuals(self):
        mg = B.airframe.mass * B.environment.gravity
        for gamma, alpha in [(35.0, 10.0), (20.0, 5.0), (44.0, 16.0), (12.0, 11.0)]:
            v = trim_airspeed(B.airframe, B.environment, B.aero, gamma, alpha)
            theta = math.radians(gamma - alpha)
            q_s = 0.5 * B.environment.air_density * v * v * B.airframe.reference_area
            lift = q_s * (0.08 * alpha - 0.24)
            drag = q_s * (0.01587 * alpha + 0.14)
            n_t = drag / math.sin(theta)
            assert abs(n_t * math.cos(theta) + lift - mg) <= 1e-9 * mg

    def test_strictly_increasing_in_gamma(self):
        speeds = [trim_airspeed(B.airframe, B.environment, B.aero, g, 10.0)
                  for g in range(11, 51)]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_random_cases_against_scan_oracle(self):
        rng = random.Random(1)
        checked = 0
        for draws in range(1, 50 * 10 + 1):
            gamma = rng.uniform(5.0, 50.0)
            alpha = rng.uniform(1.0, min(17.9, gamma - 1.0))
            if alpha >= gamma:
                continue
            try:
                v = trim_airspeed(B.airframe, B.environment, B.aero, gamma, alpha)
            except Infeasible:
                continue
            if v >= 39.5:
                continue
            scan = scan_trim_airspeed(
                B.airframe.mass, B.environment.gravity, B.environment.air_density,
                B.airframe.reference_area, 0.08 * alpha - 0.24,
                0.01587 * alpha + 0.14, gamma - alpha)
            assert v == pytest.approx(scan, abs=2e-4)
            checked += 1
            if checked == 10:
                break
        assert checked == 10, f"{draws - checked} of {draws} draws rejected"


class TestSolveTrim:
    def test_hover_branch_static_split(self):
        point = _solve(10.0, 10.0)
        assert point.theta == 0.0 and point.airspeed == 0.0
        assert point.thrust_per_rotor == pytest.approx(2.0 * 9.81 / 4.0, rel=1e-12)
        assert point.range == 0.0

    def test_design_point_chain(self):
        point = _solve(35.0, 10.0)
        assert point.theta == 25.0
        assert point.airspeed == pytest.approx(15.2986, abs=1e-3)
        res_v, res_h = wing_residuals(point, B.airframe, B.environment, B.aero)
        mg = B.airframe.mass * B.environment.gravity
        assert abs(res_v) <= 1e-6 * mg and abs(res_h) <= 1e-6 * mg
        # vertical and horizontal per-rotor thrusts agree
        theta = math.radians(point.theta)
        q_s = 0.5 * B.environment.air_density * point.airspeed**2 * B.airframe.reference_area
        drag = q_s * (0.01587 * point.alpha + 0.14)
        t_h = drag / (B.airframe.rotor_count * math.sin(theta))
        assert point.thrust_per_rotor == pytest.approx(t_h, rel=1e-9)
        # endurance and range identities
        assert point.endurance == pytest.approx(
            B.battery.capacity / point.total_current, rel=1e-12)
        assert point.range == pytest.approx(point.airspeed * point.endurance, rel=1e-12)

    def test_battery_doubling_scales_only_endurance_and_range(self):
        point = _solve(35.0, 10.0)
        double = dataclasses.replace(B, battery=Battery(2.0 * B.battery.capacity))
        point2 = _solve(35.0, 10.0, double)
        assert point2.endurance == 2.0 * point.endurance
        assert point2.range == 2.0 * point.range
        for field in ("gamma", "alpha", "theta", "airspeed", "thrust_per_rotor",
                      "rpm", "torque_per_rotor", "current_per_esc", "total_current"):
            assert getattr(point2, field) == getattr(point, field)

    def test_tilt_loss_raises_required_thrust(self):
        plain = _solve(35.0, 10.0)
        tilted = solve_trim(
            B.airframe, B.environment, B.aero, B.thrust_surrogate,
            B.torque_surrogate, B.esc, B.battery, 35.0, 10.0, apply_tilt_loss=True,
        )
        # airspeed is a force ratio, unaffected; thrust magnitude scales 1/cos(tilt)
        assert tilted.airspeed == plain.airspeed
        factor = 1.0 / math.cos(math.radians(B.airframe.rotor_tilt))
        assert tilted.thrust_per_rotor == pytest.approx(
            plain.thrust_per_rotor * factor, rel=1e-12)

    def test_theta_gamma_alpha_identity(self):
        for gamma, alpha in [(35.0, 10.0), (18.5, 3.25), (40.0, 16.0)]:
            point = _solve(gamma, alpha)
            assert point.theta == gamma - alpha


class TestTrimAtSpeed:
    def test_round_trip_with_trim_airspeed(self):
        opt = _solve(35.0, 10.0)
        point = _at_speed(35.0, opt.airspeed)
        assert point.theta == pytest.approx(25.0, abs=1e-6)
        assert point.alpha == pytest.approx(10.0, abs=1e-6)

    def test_cruise_speed_against_theta_scan_oracle(self):
        # theta-scan oracle at 1e-4 deg froze theta = 24.6651 for gamma 35, 15 m/s
        point = _at_speed(35.0, 15.0)
        assert point.theta == pytest.approx(24.6651, abs=2e-4)
        scan = scan_theta_at_speed(
            B.airframe.mass, B.environment.gravity, B.environment.air_density,
            B.airframe.reference_area, B.aero, 35.0, 15.0)
        assert point.theta == pytest.approx(scan, abs=2e-4)
        res_v, res_h = wing_residuals(point, B.airframe, B.environment, B.aero)
        mg = B.airframe.mass * B.environment.gravity
        assert abs(res_v) <= 1e-6 * mg and abs(res_h) <= 1e-6 * mg

    def test_zero_speed_rejected(self):
        with pytest.raises(NoTrimAtSpeed):
            _at_speed(35.0, 0.0)

    def test_too_slow_for_mounting_is_infeasible(self):
        # at 5 m/s the equilibrium attack angle would sit beyond the stall fit
        with pytest.raises(NoTrimAtSpeed):
            _at_speed(35.0, 5.0)

    def test_zero_area_degenerates_to_level_attitude(self):
        zero_wing = dataclasses.replace(
            B, airframe=dataclasses.replace(B.airframe, reference_area=0.0))
        point = _at_speed(35.0, 12.0, zero_wing)
        assert point.theta == 0.0
        assert point.thrust_per_rotor == pytest.approx(2.0 * 9.81 / 4.0, rel=1e-12)
        assert point.airspeed == 12.0


class TestWinglessTrim:
    def _wingless(self, speed, f):
        return wingless_trim_at_speed(
            B.airframe, B.environment, B.thrust_surrogate, B.torque_surrogate,
            B.esc, B.battery, speed, parasite_drag_area=f)

    def test_zero_speed_is_hover(self):
        point = self._wingless(0.0, 0.02)
        assert point.theta == 0.0
        assert point.thrust_per_rotor == pytest.approx(4.905, rel=1e-12)

    def test_dragless_body_stays_level(self):
        point = self._wingless(15.0, 0.0)
        assert point.theta == 0.0
        assert point.thrust_per_rotor == pytest.approx(4.905, rel=1e-12)

    def test_hand_evaluated_pitch(self):
        # theta = atan(0.5 * 1.225 * 15^2 * 0.02 / (2 * 9.81)) = 7.996675 deg
        point = self._wingless(15.0, 0.02)
        assert point.theta == pytest.approx(7.996675, abs=1e-5)

    def test_force_balance(self):
        point = self._wingless(15.0, 0.08)
        mg = B.airframe.mass * B.environment.gravity
        th = math.radians(point.theta)
        n_t = B.airframe.rotor_count * point.thrust_per_rotor
        drag = 0.5 * B.environment.air_density * 225.0 * 0.08
        assert abs(n_t * math.cos(th) - mg) <= 1e-9 * mg
        assert abs(n_t * math.sin(th) - drag) <= 1e-9 * mg

    def test_angle_identity(self):
        point = self._wingless(10.0, 0.05)
        assert point.alpha == 0.0 and point.gamma == point.theta


def test_residuals_hold_across_random_feasible_points():
    rng = random.Random(7)
    mg = B.airframe.mass * B.environment.gravity
    checked = 0
    for draws in range(1, 50 * 50 + 1):
        gamma = rng.uniform(2.0, 50.0)
        alpha = rng.uniform(1.0, 17.9)
        if alpha >= gamma:
            continue
        try:
            point = _solve(gamma, alpha)
        except Exception:
            continue
        res_v, res_h = wing_residuals(point, B.airframe, B.environment, B.aero)
        assert abs(res_v) <= 1e-6 * mg and abs(res_h) <= 1e-6 * mg
        checked += 1
        if checked == 50:
            break
    assert checked == 50, f"{draws - checked} of {draws} draws rejected"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (LiftwingError, ValueError) as err:
        return type(err), str(err)


class _CountingMath:
    """Stands in for the math module; counts tan calls, one per residual evaluation."""

    def __init__(self):
        self.tan_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def tan(self, x):
        self.tan_calls += 1
        return math.tan(x)


class TestPitchSolve:
    """balance_at_speed's Newton solve against plain bisection to adjacent floats."""

    @settings(max_examples=300, deadline=None)
    @given(mass=st.floats(0.3, 6.0),
           area=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
           gamma=st.floats(0.0, 90.0, exclude_min=True, exclude_max=True),
           speed=st.one_of(st.floats(1.0, 40.0), st.floats(1e-300, 1e200),
                           st.floats(-300.0, 200.0).map(lambda e: 10.0**e)),
           tilt=st.booleans())
    def test_matches_bisection_oracle(self, mass, area, gamma, speed, tilt):
        af = dataclasses.replace(B.airframe, mass=mass, reference_area=area)
        args = (af, B.environment, B.aero, gamma, speed, tilt)
        got, want = _outcome(balance_at_speed, *args), _outcome(bisect_balance_at_speed, *args)
        if isinstance(want[0], float):  # bit for bit: -0.0 and 0.0 differ in hex
            got, want = [float(x).hex() for x in got], [x.hex() for x in want]
        assert got == want

    @pytest.mark.parametrize("gamma", [20.0, 35.0, 45.0])
    def test_at_most_20_residual_evaluations(self, gamma, monkeypatch):
        counting = _CountingMath()
        monkeypatch.setattr(liftwing.trim, "math", counting)
        solved = 0
        for k in range(81):
            counting.tan_calls = 0
            try:
                balance_at_speed(B.airframe, B.environment, B.aero, gamma, 5.0 + 0.25 * k)
                solved += 1
            except NoTrimAtSpeed:
                pass
            assert counting.tan_calls <= 20
        assert solved

    def test_overflowing_dynamic_pressure_raises(self):
        with pytest.raises(NoTrimAtSpeed, match="not finite at 1e[+]200 m/s"):
            balance_at_speed(B.airframe, B.environment, B.aero, 35.0, 1e200)


class TestTrimInvariants:
    """Residuals within 1e-6 m g, theta = gamma - alpha exactly, R = V t, over generated points."""

    @staticmethod
    def _check(point, bundle):
        mg = bundle.airframe.mass * bundle.environment.gravity
        res_v, res_h = wing_residuals(point, bundle.airframe, bundle.environment, bundle.aero)
        assert abs(res_v) <= 1e-6 * mg and abs(res_h) <= 1e-6 * mg
        assert point.theta == point.gamma - point.alpha
        assert point.range == pytest.approx(point.airspeed * point.endurance, rel=1e-12, abs=0.0)

    @staticmethod
    def _bundle(mass, area):
        return dataclasses.replace(
            B, airframe=dataclasses.replace(B.airframe, mass=mass, reference_area=area))

    @settings(max_examples=150, deadline=None)
    @given(mass=st.floats(1.0, 3.0), area=st.floats(0.02, 0.3),
           gamma=st.floats(0.5, 60.0), alpha=st.floats(-8.0, 18.0))
    def test_at_angles(self, mass, area, gamma, alpha):
        bundle = self._bundle(mass, area)
        try:
            point = _solve(gamma, alpha, bundle)
        except LiftwingError:
            assume(False)
        self._check(point, bundle)

    @settings(max_examples=150, deadline=None)
    @given(mass=st.floats(1.0, 3.0), area=st.floats(0.02, 0.3),
           gamma=st.floats(0.5, 89.5), speed=st.floats(1.0, 30.0))
    def test_at_speed(self, mass, area, gamma, speed):
        bundle = self._bundle(mass, area)
        try:
            point = _at_speed(gamma, speed, bundle)
        except LiftwingError:
            assume(False)
        self._check(point, bundle)
