"""compare's batched column chain against one scalar trim per side."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_compare

from liftwing import cli, config_to_dict, trim
from liftwing.errors import LiftwingError
from liftwing.propulsion import EscCurrentModel, PolySurrogate
from liftwing.trim import (
    balance_at_speed,
    trim_at_speed,
    wingless_balance_at_speed,
    wingless_trim_at_speed,
)

DENSE = [round(4.0 + 0.75 * k, 2) for k in range(30)]


def _zero_area(c):
    return dataclasses.replace(c, airframe=dataclasses.replace(c.airframe, reference_area=0.0))


def _tight_esc(c):
    return dataclasses.replace(c, esc=EscCurrentModel(73.05, 12.15, -0.511,
                                                      torque_domain=(0.05, 0.21)))


def _narrow_rpm(c):
    return dataclasses.replace(c, thrust_surrogate=PolySurrogate(
        c.thrust_surrogate.terms, vp_domain=(0.0, 20.0), rpm_domain=(2000.0, 4500.0)))


CASES = [
    (lambda c: c, [5.0, 10.0, 15.0]),
    (lambda c: c, DENSE),
    (lambda c: c, [-5.0, 0.0, 60.0, 15.0]),
    (lambda c: c, [-5.0]),  # no side balances: the chain gets no column
    (_zero_area, DENSE + [0.0, 60.0]),
    (_tight_esc, DENSE),
    (_narrow_rpm, DENSE),
    (lambda c: dataclasses.replace(c, mounting_angle=20.0, apply_tilt_loss=True), DENSE),
]
CASE_IDS = ["default", "default-dense", "negative-zero-60", "none-balanced", "zero-area",
            "tight-esc", "narrow-rpm", "gamma-20-tilt-loss"]


def _items(rows):
    """Rows as (key, value) lists, so key order counts in comparisons."""
    return [list(row.items()) for row in rows]


def _cli_output(cfg, speeds, tmp_path, capsys, fmt):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    rc = cli.main(["--config", str(path), "--format", fmt, "compare",
                   "--speeds=" + ",".join(map(repr, speeds))])
    return rc, capsys.readouterr()


def _error_kinds(rows):
    return {row[key].split(":")[0] for row in rows
            for key in ("wing_error", "wingless_error") if key in row}


class TestCompareMatchesScalarReference:
    @pytest.mark.parametrize("variant, speeds", CASES, ids=CASE_IDS)
    def test_rows_equal(self, cfg, variant, speeds):
        c = variant(cfg)
        assert _items(cli.compare_rows(c, speeds)) == _items(reference_compare(c, speeds))

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("variant, speeds", CASES, ids=CASE_IDS)
    def test_cli_output_byte_identical(self, cfg, variant, speeds, fmt, tmp_path, capsys,
                                       monkeypatch):
        c = variant(cfg)
        batched = _cli_output(c, speeds, tmp_path, capsys, fmt)
        monkeypatch.setattr(cli, "compare_rows", reference_compare)
        assert batched == _cli_output(c, speeds, tmp_path, capsys, fmt)

    @pytest.mark.parametrize("variant, speeds", CASES, ids=CASE_IDS)
    def test_json_output_equals_json_dumps(self, cfg, variant, speeds, tmp_path, capsys):
        c = variant(cfg)
        _, captured = _cli_output(c, speeds, tmp_path, capsys, "json")
        assert captured.out == json.dumps(reference_compare(c, speeds), indent=2) + "\n"

    def test_every_error_kind_is_exercised(self, cfg):
        kinds = set()
        for variant, speeds in CASES:
            kinds |= _error_kinds(reference_compare(variant(cfg), speeds))
        assert kinds == {"NoTrimAtSpeed", "OutOfSurrogateDomain", "OutOfEscDomain",
                         "Infeasible", "ValueError"}

    @settings(max_examples=30, deadline=None)
    @given(mass=st.floats(1.0, 3.0),
           area=st.one_of(st.just(0.0), st.floats(0.02, 0.3)),
           gamma=st.floats(1.0, 89.0),
           speeds=st.lists(st.one_of(st.sampled_from([-5.0, 0.0, 60.0]), st.floats(0.0, 40.0)),
                           min_size=1, max_size=12))
    def test_generated_configs(self, cfg, mass, area, gamma, speeds):
        c = dataclasses.replace(
            cfg, airframe=dataclasses.replace(cfg.airframe, mass=mass, reference_area=area),
            mounting_angle=gamma)
        rows = cli.compare_rows(c, speeds)
        expected = reference_compare(c, speeds)
        assert _items(rows) == _items(expected)
        assert json.dumps(rows) == json.dumps(expected)


class TestScalarRerun:
    @pytest.mark.parametrize("variant", [_tight_esc, _narrow_rpm, lambda c: c],
                             ids=["tight-esc", "narrow-rpm", "default"])
    def test_no_side_runs_the_scalar_chain(self, cfg, variant, monkeypatch):
        """Sides that balance but fail in the chain get their text from it, not from _complete."""
        c = variant(cfg)
        b = c.bundle()
        speeds = DENSE + [60.0]

        def fails_after_balance(balance, trim):
            try:
                balance()
            except (LiftwingError, ValueError):
                return False
            try:
                trim()
            except (LiftwingError, ValueError):
                return True
            return False

        af, env, chain = b.airframe, b.environment, (
            b.thrust_surrogate, b.torque_surrogate, b.esc, b.battery)
        expected = 0
        for v in speeds:
            expected += fails_after_balance(
                lambda: balance_at_speed(af, env, b.aero, c.mounting_angle, v),
                lambda: trim_at_speed(af, env, b.aero, *chain, c.mounting_angle, v))
            expected += fails_after_balance(
                lambda: wingless_balance_at_speed(af, env, v, c.parasite_drag_area),
                lambda: wingless_trim_at_speed(af, env, *chain, v, c.parasite_drag_area))
        assert expected > 0
        reference = reference_compare(c, speeds)
        calls = []
        scalar = trim._complete

        def counting(*args):
            calls.append(args)
            return scalar(*args)

        for module in (trim, cli):  # also in cli, should compare_rows get its own _complete
            monkeypatch.setattr(module, "_complete", counting, raising=False)
        rows = cli.compare_rows(c, speeds)
        assert calls == []
        assert _items(rows) == _items(reference)


class TestReplacedSideSolver:
    """A function put under cli.trim_at_speed or cli.wingless_trim_at_speed sees every side."""

    @pytest.mark.parametrize("name", ["trim_at_speed", "wingless_trim_at_speed"])
    @pytest.mark.parametrize("variant, speeds", CASES[:3] + CASES[5:6],
                             ids=CASE_IDS[:3] + CASE_IDS[5:6])
    def test_called_per_speed_with_the_same_rows(self, cfg, variant, speeds, name, monkeypatch):
        c = variant(cfg)
        calls = []
        original = getattr(cli, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        rows = cli.compare_rows(c, speeds)
        assert len(calls) == len(speeds)
        assert json.dumps(rows) == json.dumps(reference_compare(c, speeds))


_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\ud800\U0001f681'),
                          st.characters()))
_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308]))


class TestRowsJson:
    """cmd_compare's one-pass emitter against json.dumps(rows, indent=2)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.dictionaries(_TEXT, st.one_of(_FLOATS, _TEXT), max_size=6), max_size=6))
    def test_equals_json_dumps(self, rows):
        assert cli._rows_json(rows) == json.dumps(rows, indent=2)

    @pytest.mark.parametrize("rows", [[], [{}], [{}, {}], [{}, {"a": 1.0}, {}],
                                      [{"\x00": "\x00", "{}": "%s{0}", "é": float("nan")}]])
    def test_edge_rows(self, rows):
        assert cli._rows_json(rows) == json.dumps(rows, indent=2)
