"""The propulsion chain's check table: each entry, failed once by a compare side and a sweep cell.

Every case fails exactly one entry of liftwing.propulsion.CHECKS. The
compare side's text must be the scalar chain's "<error type>: <message>",
the sweep cell's status the entry's status, and both must name the entry's
error class and message, written out here independently of the table.
"""

import dataclasses
import re

import numpy as np
import pytest

from liftwing import cli, propulsion
from liftwing.errors import LiftwingError
from liftwing.propulsion import CHECKS, EscCurrentModel, PolySurrogate
from liftwing.sweep import STATUSES, _solve_cells
from liftwing.trim import trim_at_speed, wingless_trim_at_speed

SPEED = 15.0  # the wing side balances at theta = 24.7 deg, V_p = 6.26 m/s, N = 4712 RPM
CELL = (35.0, 10.0)  # V = 15.3 m/s, theta = 25 deg, V_p = 6.47 m/s, N = 4743 RPM


def _heavy(c):  # m g overflows to inf: the hover thrust is inf, the cruise thrust NaN
    return dataclasses.replace(c, airframe=dataclasses.replace(c.airframe, mass=1e308))


def _surrogate(c, name, **domains):
    model = getattr(c, name)
    kept = {"vp_domain": model.vp_domain, "rpm_domain": model.rpm_domain}
    return dataclasses.replace(c, **{name: PolySurrogate(
        model.terms, output_unit=model.output_unit, **{**kept, **domains})})


def _narrow_esc(c):
    e = c.esc
    return dataclasses.replace(c, esc=EscCurrentModel(e.quad, e.lin, e.const, (0.05, 0.2)))


NUMBER = r"[-+0-9.e]+"
CASES = [  # (entry, config variant, failing compare side, status, text)
    ("POSITIVE_THRUST", _heavy, "wingless", "rpm-infeasible",
     r"Infeasible: thrust_required must be positive and finite"),
    ("THRUST_VP", lambda c: _surrogate(c, "thrust_surrogate", vp_domain=(0.0, 5.0)), "wing",
     "surrogate-domain",
     rf"OutOfSurrogateDomain: V_p={NUMBER} m/s outside fit range \[0\.0, 5\.0\]"),
    ("RISING_ROOT", lambda c: _surrogate(c, "thrust_surrogate", rpm_domain=(2000.0, 4500.0)),
     "wing", "rpm-infeasible",
     rf"Infeasible: no rising-branch N in \[2000\.0, 4500\.0\] RPM gives {NUMBER} N"),
    ("TORQUE_VP", lambda c: _surrogate(c, "torque_surrogate", vp_domain=(0.0, 6.0)), "wing",
     "surrogate-domain",
     rf"OutOfSurrogateDomain: V_p={NUMBER} m/s outside fit range \[0\.0, 6\.0\]"),
    ("TORQUE_RPM", lambda c: _surrogate(c, "torque_surrogate", rpm_domain=(2000.0, 4600.0)),
     "wing", "surrogate-domain",
     rf"OutOfSurrogateDomain: N={NUMBER} RPM outside fit range \[2000\.0, 4600\.0\]"),
    ("ESC_TORQUE", _narrow_esc, "wing", "esc-domain",
     rf"OutOfEscDomain: M={NUMBER} N\*m outside fit range \[0\.05, 0\.2\]"),
]
IDS = [case[0] for case in CASES]


def _scalar_text(solve, *args) -> str:
    with pytest.raises(LiftwingError) as info:
        solve(*args)
    return f"{type(info.value).__name__}: {info.value}"


def test_cases_cover_the_table_once_each():
    assert sorted(getattr(propulsion, name) for name in IDS) == list(range(len(CHECKS)))


@pytest.mark.parametrize("entry, variant, side, status, text", CASES, ids=IDS)
def test_compare_side_fails_at_the_entry(cfg, entry, variant, side, status, text):
    c = variant(cfg)
    b = c.bundle()
    if side == "wing":
        scalar = _scalar_text(trim_at_speed, b.airframe, b.environment, b.aero,
                              b.thrust_surrogate, b.torque_surrogate, b.esc, b.battery,
                              c.mounting_angle, SPEED)
    else:
        scalar = _scalar_text(wingless_trim_at_speed, b.airframe, b.environment,
                              b.thrust_surrogate, b.torque_surrogate, b.esc, b.battery,
                              SPEED, c.parasite_drag_area)
    [row] = cli.compare_rows(c, [SPEED])
    assert row[f"{side}_error"] == scalar
    assert re.fullmatch(text, scalar)
    _, error, _ = CHECKS[getattr(propulsion, entry)]
    assert scalar.startswith(error.__name__ + ": ")


@pytest.mark.parametrize("entry, variant, side, status, text", CASES, ids=IDS)
def test_sweep_cell_fails_at_the_entry(cfg, entry, variant, side, status, text):
    b = variant(cfg).bundle()
    codes, values = _solve_cells(b, (np.array([CELL[0]]), np.array([CELL[1]])))
    assert STATUSES[codes[0]] == status == CHECKS[getattr(propulsion, entry)][0]
    assert np.isnan(values).all()
    assert re.fullmatch(text, _scalar_text(b.solve, *CELL))
