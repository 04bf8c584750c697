import dataclasses
import importlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_sweep

from liftwing import (
    AlphaNotOnGrid,
    Battery,
    EmptyFeasibleSet,
    SweepGrid,
    apply_alpha_cap,
    curve_extract,
    sweep,
)
from liftwing.propulsion import EscCurrentModel, PolySurrogate
from liftwing.sweep import (
    STATUS_AERO,
    STATUS_ESC,
    STATUS_HOVER,
    STATUS_OK,
    STATUS_RPM,
    STATUS_SURROGATE,
    cells_to_csv,
    curve_to_csv,
    summary_to_json,
)


class TestGrid:
    def test_default_grid_cell_count(self, cfg):
        assert cfg.grid.cell_count() == 900
        assert len(cfg.grid.gammas()) == 50
        assert len(cfg.grid.alphas()) == 18

    def test_inclusive_convention_cell_count(self):
        grid = SweepGrid(0.0, 50.0, 1.0, 0.0, 18.0, 1.0)
        assert grid.cell_count() == 51 * 19

    @pytest.mark.parametrize("grid, counts", [
        (SweepGrid(1.0, 1.6, 0.4, 1.0, 2.0, 1.0), (2, 2)),
        (SweepGrid(0.0, 0.3, 0.1, -1.0, 1.0, 0.7), (4, 3)),
        (SweepGrid(1.0, 50.0, 1.0, 1.0, 18.0, 1.0), (50, 18)),
        (SweepGrid(0.0, 50.0, 1.0, 0.0, 18.0, 1.0), (51, 19)),
        (SweepGrid(1.0, 50.0, 0.25, 1.0, 18.0, 0.25), (197, 69)),
    ])
    def test_nodes_stay_within_bounds(self, grid, counts):
        gammas, alphas = grid.gammas(), grid.alphas()
        assert (len(gammas), len(alphas)) == counts
        assert grid.cell_count() == counts[0] * counts[1]
        assert all(grid.gamma_min <= g <= grid.gamma_max for g in gammas)
        assert all(grid.alpha_min <= a <= grid.alpha_max for a in alphas)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(1.0, 50.0, 0.0, 1.0, 18.0, 1.0)
        with pytest.raises(ValueError):
            SweepGrid(50.0, 1.0, 1.0, 1.0, 18.0, 1.0)

    BAD_ALPHA_AXES = [{"alpha_step": 0.0}, {"alpha_step": -1.0},
                      {"alpha_min": 18.0, "alpha_max": 1.0}]
    BAD_ALPHA_IDS = ["zero-step", "negative-step", "min-above-max"]

    @pytest.mark.parametrize("axis", BAD_ALPHA_AXES, ids=BAD_ALPHA_IDS)
    def test_bad_alpha_axis_rejected(self, axis):
        with pytest.raises(ValueError):
            SweepGrid(**axis)

    @pytest.mark.parametrize("axis", BAD_ALPHA_AXES, ids=BAD_ALPHA_IDS)
    def test_config_with_bad_alpha_axis_exits_2(self, cfg, axis, tmp_path, capsys):
        from liftwing import config_to_dict
        from liftwing.cli import main
        doc = config_to_dict(cfg)
        doc["grid"].update({f"{key}_deg": value for key, value in axis.items()})
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "sweep", "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.out == ""
        assert not (tmp_path / "out").exists()


class TestPoolBound:
    @pytest.mark.parametrize("jobs, cpus, grid, workers", [
        (1000, 4, SweepGrid(1.0, 5.0, 1.0, 1.0, 4.0, 1.0), [4]),
        (8, 64, SweepGrid(20.0, 21.0, 1.0, 5.0, 5.0, 1.0), [2]),
        (3, 64, SweepGrid(20.0, 25.0, 1.0, 5.0, 8.0, 1.0), [3]),
        (8, None, SweepGrid(20.0, 25.0, 1.0, 5.0, 8.0, 1.0), []),
        (8, 4, SweepGrid(30.0, 30.0, 1.0, 5.0, 5.0, 1.0), []),
    ])
    def test_workers_bounded_by_cpus_and_cells(self, bundle, monkeypatch, jobs, cpus, grid, workers):
        # the package re-exports the function under the module's name
        sweep_mod = importlib.import_module("liftwing.sweep")
        started = []

        class RecordingPool:
            """Records max_workers and maps serially: no process starts."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: cpus)
        result = sweep(bundle, grid, jobs=jobs)
        assert started == workers
        assert result == sweep(bundle, grid)


class TestDefaultSweep:
    def test_every_cell_evaluated_once(self, default_sweep):
        assert len(default_sweep.cells) == 900
        coords = {(c.gamma, c.alpha) for c in default_sweep.cells}
        assert len(coords) == 900

    def test_argmax_is_the_design_point(self, default_sweep):
        p = default_sweep.argmax.point
        assert (p.gamma, p.alpha) == (35.0, 10.0)
        assert p.airspeed == pytest.approx(15.2986, abs=1e-3)

    def test_argmax_respects_safety_cap(self, default_sweep):
        assert default_sweep.safety_alpha_cap == 10.0
        assert default_sweep.argmax.alpha <= 10.0
        capped = [c for c in default_sweep.cells if c.feasible and c.alpha <= 10.0]
        best = max(c.point.range for c in capped)
        assert default_sweep.argmax.point.range == best

    def test_hover_diagonal_typed(self, default_sweep):
        for g in (1.0, 10.0, 18.0):
            assert default_sweep.cell_at(g, g).status == STATUS_HOVER

    def test_negative_pitch_typed(self, default_sweep):
        assert default_sweep.cell_at(1.0, 2.0).status == STATUS_AERO

    def test_denominator_sign_typed(self, default_sweep):
        # alpha = 1: C_L < 0 and tan(theta) large flips the denominator
        assert default_sweep.cell_at(46.0, 1.0).status == STATUS_AERO

    def test_inflow_domain_typed(self, default_sweep):
        # fast shallow-lift cells outrun the surrogate fit region
        assert default_sweep.cell_at(50.0, 2.0).status == STATUS_SURROGATE

    def test_statuses_are_typed_strings(self, default_sweep):
        allowed = {STATUS_OK, STATUS_HOVER, STATUS_AERO, STATUS_RPM,
                   STATUS_ESC, STATUS_SURROGATE}
        assert {c.status for c in default_sweep.cells} <= allowed


class TestCapacityInvariance:
    def test_battery_scaling_moves_nothing(self, bundle, cfg, default_sweep):
        double = dataclasses.replace(bundle, battery=Battery(2.0 * bundle.battery.capacity))
        result = sweep(double, cfg.grid)
        assert (result.argmax.gamma, result.argmax.alpha) == (
            default_sweep.argmax.gamma, default_sweep.argmax.alpha)
        for c1, c2 in zip(default_sweep.cells, result.cells):
            assert c1.status == c2.status
            if c1.feasible:
                assert c2.point.range == 2.0 * c1.point.range
                assert c2.point.airspeed == c1.point.airspeed


class TestAlphaCap:
    def test_zero_margin_is_full_grid_argmax(self, default_sweep):
        uncapped = apply_alpha_cap(default_sweep, 18.0, 0.0)
        assert uncapped.safety_alpha_cap == 18.0
        best = max(c.point.range for c in default_sweep.cells if c.feasible)
        assert uncapped.argmax.point.range == best
        # the unconstrained optimum sits past the safety cap
        assert uncapped.argmax.alpha > 10.0

    def test_stall_margin_cap(self, default_sweep):
        capped = apply_alpha_cap(default_sweep, 18.0, 8.0)
        assert capped.safety_alpha_cap == 10.0
        assert capped.argmax.alpha <= 10.0
        assert capped.cells is default_sweep.cells

    def test_margin_equal_to_stall_empties_the_set(self, default_sweep):
        with pytest.raises(EmptyFeasibleSet):
            apply_alpha_cap(default_sweep, 18.0, 18.0)

    def test_margin_out_of_bounds(self, default_sweep):
        with pytest.raises(ValueError):
            apply_alpha_cap(default_sweep, 18.0, -1.0)
        with pytest.raises(ValueError):
            apply_alpha_cap(default_sweep, 18.0, 19.0)


class TestCurveExtract:
    def test_projection_identity(self, default_sweep):
        curve = curve_extract(default_sweep, 10.0)
        assert len(curve) == 50
        for gamma, rng in curve:
            cell = default_sweep.cell_at(gamma, 10.0)
            if cell.feasible:
                assert rng == cell.point.range
            else:
                assert rng is None

    def test_interior_maximum_on_design_curve(self, default_sweep):
        curve = curve_extract(default_sweep, 10.0)
        feasible = [(g, r) for g, r in curve if r is not None]
        best_gamma = max(feasible, key=lambda t: t[1])[0]
        assert feasible[0][0] < best_gamma < feasible[-1][0]

    def test_off_grid_alpha_rejected(self, default_sweep):
        with pytest.raises(AlphaNotOnGrid):
            curve_extract(default_sweep, 10.5)


class TestTypedInfeasibilityRoutes:
    def test_rpm_infeasible(self, bundle, cfg):
        narrow = dataclasses.replace(
            bundle,
            airframe=dataclasses.replace(bundle.airframe, safety_margin=0.0),
            thrust_surrogate=PolySurrogate(
                bundle.thrust_surrogate.terms, vp_domain=(0.0, 20.0),
                rpm_domain=(2000.0, 4500.0)),
        )
        # (35, 10) needs ~4743 RPM, beyond the narrowed domain; higher-alpha
        # cells need less thrust and keep the sweep non-empty
        grid = SweepGrid(35.0, 36.0, 1.0, 10.0, 16.0, 1.0)
        result = sweep(narrow, grid)
        assert result.cell_at(35.0, 10.0).status == STATUS_RPM
        # with every cell capped out, the sweep itself reports the empty set
        capped = dataclasses.replace(bundle, thrust_surrogate=narrow.thrust_surrogate)
        with pytest.raises(EmptyFeasibleSet):
            sweep(capped, SweepGrid(35.0, 35.0, 1.0, 10.0, 10.0, 1.0))

    def test_esc_domain_infeasible(self, bundle):
        tight = dataclasses.replace(
            bundle,
            airframe=dataclasses.replace(bundle.airframe, safety_margin=0.0),
            esc=EscCurrentModel(73.05, 12.15, -0.511, torque_domain=(0.05, 0.21)),
        )
        grid = SweepGrid(30.0, 40.0, 1.0, 10.0, 18.0, 1.0)
        result = sweep(tight, grid)
        assert result.cell_at(35.0, 10.0).status == STATUS_ESC

    def test_all_cells_above_cap_is_empty(self, bundle):
        grid = SweepGrid(20.0, 40.0, 1.0, 11.0, 18.0, 1.0)
        with pytest.raises(EmptyFeasibleSet):
            sweep(bundle, grid)


class TestDeterminism:
    def test_repeat_runs_bit_identical(self, bundle, cfg, default_sweep):
        again = sweep(bundle, cfg.grid)
        assert cells_to_csv(again) == cells_to_csv(default_sweep)
        assert summary_to_json(again) == summary_to_json(default_sweep)

    def test_parallel_matches_serial(self, bundle, cfg, default_sweep):
        parallel = sweep(bundle, cfg.grid, jobs=2)
        assert cells_to_csv(parallel) == cells_to_csv(default_sweep)
        assert curve_to_csv(parallel, 10.0) == curve_to_csv(default_sweep, 10.0)


class TestCsvSchema:
    def test_header_and_row_count(self, default_sweep):
        text = cells_to_csv(default_sweep)
        lines = text.strip().split("\n")
        assert lines[0] == ("gamma_deg,alpha_deg,theta_deg,airspeed_m_s,rpm,"
                            "torque_Nm,current_A,endurance_s,range_m,status")
        assert len(lines) == 901

    def test_infeasible_rows_keep_coordinates(self, default_sweep):
        text = cells_to_csv(default_sweep)
        row = [l for l in text.split("\n") if l.startswith("1.0,1.0,")][0]
        assert row.endswith(STATUS_HOVER)

    def test_curve_csv(self, default_sweep):
        text = curve_to_csv(default_sweep, 10.0)
        lines = text.strip().split("\n")
        assert lines[0] == "gamma_deg,range_m,status"
        assert len(lines) == 51


def _cli_files(result):
    """The sweep's output files as cmd_sweep writes them, name -> text."""
    files = {"cells.csv": cells_to_csv(result)}
    for alpha in result.grid.alphas():
        files[f"curve_alpha_{alpha:g}.csv"] = curve_to_csv(result, alpha)
    files["summary.json"] = summary_to_json(result)
    return files


def _assert_matches_reference(bundle, grid):
    ref_cells, ref_files = reference_sweep(bundle, grid)
    if "summary.json" not in ref_files:
        with pytest.raises(EmptyFeasibleSet):
            sweep(bundle, grid)
        return
    result = sweep(bundle, grid)
    assert [c.status for c in result.cells] == [s for s, _ in ref_cells]
    assert [c.point for c in result.cells] == [p for _, p in ref_cells]
    assert _cli_files(result) == ref_files


def _narrow_rpm(b):
    return dataclasses.replace(
        b, airframe=dataclasses.replace(b.airframe, safety_margin=0.0),
        thrust_surrogate=PolySurrogate(b.thrust_surrogate.terms, vp_domain=(0.0, 20.0),
                                       rpm_domain=(2000.0, 4500.0)))


def _tight_esc(b):
    return dataclasses.replace(
        b, airframe=dataclasses.replace(b.airframe, safety_margin=0.0),
        esc=EscCurrentModel(73.05, 12.15, -0.511, torque_domain=(0.05, 0.21)))


def _cubic_torque(b):
    # N^3 and V_p^3 terms: only torque takes powers past 2, through Python's
    # float ** on both paths
    return dataclasses.replace(b, torque_surrogate=PolySurrogate(
        b.torque_surrogate.terms + ((1, 3, 1e-16), (3, 0, -1e-6)), vp_domain=(0.0, 20.0),
        rpm_domain=(2000.0, 10000.0)))


def _perturbed(b):
    return dataclasses.replace(
        b, airframe=dataclasses.replace(b.airframe, mass=2.13, reference_area=0.1207))


DEFAULT_GRID = SweepGrid(1.0, 50.0, 1.0, 1.0, 18.0, 1.0)
# gamma - alpha reaches 119 deg: past 90 deg, tan(theta) < 0 and some cells
# have C_D + C_L tan(theta) > 0, which leaves V^2 negative
PAST_90_GRID = SweepGrid(1.0, 120.0, 1.0, 1.0, 18.0, 1.0)


class TestKernelMatchesScalarReference:
    """The column kernel against one solve_trim per cell: the same bytes."""

    @pytest.mark.parametrize("variant, grid", [
        (lambda b: b, DEFAULT_GRID),
        (_narrow_rpm, DEFAULT_GRID),
        (_narrow_rpm, SweepGrid(35.0, 36.0, 1.0, 10.0, 16.0, 1.0)),
        (_tight_esc, DEFAULT_GRID),
        (_tight_esc, SweepGrid(30.0, 40.0, 1.0, 10.0, 18.0, 1.0)),
        (lambda b: dataclasses.replace(b, apply_tilt_loss=True), DEFAULT_GRID),
        (_cubic_torque, DEFAULT_GRID),
        (_perturbed, SweepGrid(1.0, 50.0, 0.25, 1.0, 18.0, 0.25)),
        (lambda b: b, PAST_90_GRID),
    ], ids=["default", "rpm-infeasible", "rpm-infeasible-small", "esc-domain",
            "esc-domain-small", "tilt-loss", "cubic-torque", "perturbed-0.25deg", "past-90deg"])
    def test_outputs_byte_identical(self, bundle, variant, grid):
        _assert_matches_reference(variant(bundle), grid)

    def test_every_status_is_exercised(self, bundle):
        seen = set()
        for variant in (lambda b: b, _narrow_rpm, _tight_esc):
            seen |= {s for s, _ in reference_sweep(variant(bundle), DEFAULT_GRID)[0]}
        assert seen == {STATUS_OK, STATUS_HOVER, STATUS_AERO, STATUS_RPM,
                        STATUS_ESC, STATUS_SURROGATE}

    def test_cubic_thrust_rejected(self, bundle):
        # rotor speed comes from a closed-form quadratic: thrust cubic in N
        # is refused when the bundle is built, before any cell is solved
        cubic = PolySurrogate(bundle.thrust_surrogate.terms + ((1, 3, -1e-13),))
        with pytest.raises(ValueError, match="at most quadratic in N, not degree 3"):
            dataclasses.replace(bundle, thrust_surrogate=cubic)

    @settings(max_examples=25, deadline=None)
    @given(mass=st.floats(1.0, 3.0),
           area=st.one_of(st.just(0.0), st.floats(0.02, 0.3)),
           capacity=st.floats(1000.0, 40000.0))
    def test_generated_airframes(self, bundle, mass, area, capacity):
        b = dataclasses.replace(
            bundle, airframe=dataclasses.replace(bundle.airframe, mass=mass,
                                                 reference_area=area),
            battery=Battery(capacity))
        _assert_matches_reference(b, SweepGrid(1.0, 50.0, 1.5, 1.0, 18.0, 1.0))


    def test_past_90_grid_reaches_negative_speed_squared(self, bundle):
        aero = bundle.aero
        negative = [
            (g, a) for g in PAST_90_GRID.gammas() for a in PAST_90_GRID.alphas()
            if g - a > 90.0 and aero.drag_slope * a + aero.drag_intercept
            + (aero.lift_slope * a + aero.lift_intercept) * math.tan(math.radians(g - a)) > 0.0]
        assert negative
        result = sweep(bundle, PAST_90_GRID)
        assert {result.cell_at(g, a).status for g, a in negative} == {STATUS_AERO}


class TestCliSweepFiles:
    """The files cmd_sweep writes against reference_sweep's, byte for byte."""

    @pytest.mark.parametrize("variant, grid", [
        (lambda c: c, DEFAULT_GRID),
        (_tight_esc, DEFAULT_GRID),
        (_perturbed, SweepGrid(1.0, 50.0, 0.25, 1.0, 18.0, 0.25)),
        (lambda c: c, PAST_90_GRID),
    ], ids=["default", "esc-domain", "perturbed-0.25deg", "past-90deg"])
    def test_written_files_equal_reference(self, cfg, variant, grid, tmp_path, capsys):
        from liftwing import config_to_dict
        from liftwing.cli import main
        run = dataclasses.replace(variant(cfg), grid=grid)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(run)))
        out = tmp_path / "out"
        assert main(["--config", str(path), "sweep", "--out", str(out)]) == 0
        written = {p.name: p.read_text() for p in out.iterdir()}
        assert written == reference_sweep(run.bundle(), grid)[1]

    def test_replaced_serializers_are_called_per_file(self, cfg, tmp_path, monkeypatch):
        """A function put under cli.cells_to_csv or cli.curve_to_csv writes its file."""
        from liftwing import cli
        calls = []
        for name in ("cells_to_csv", "curve_to_csv"):
            def counting(*args, _name=name, _original=getattr(cli, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(cli, name, counting)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--out", str(out)]) == 0
        assert calls.count("cells_to_csv") == 1
        assert calls.count("curve_to_csv") == len(cfg.grid.alphas())
        written = {p.name: p.read_text() for p in out.iterdir()}
        assert written == reference_sweep(cfg.bundle(), cfg.grid)[1]


class TestLazyCells:
    def test_cli_sweep_never_builds_cells(self, tmp_path, monkeypatch):
        from liftwing.cli import main
        sweep_mod = importlib.import_module("liftwing.sweep")

        def refuse(self):
            raise AssertionError("the CLI built the cell objects")

        monkeypatch.setattr(sweep_mod.SweepColumns, "cells", property(refuse))
        assert main(["sweep", "--out", str(tmp_path / "out")]) == 0

    def test_cells_built_once_and_shared(self, bundle, cfg):
        result = sweep(bundle, cfg.grid)
        assert "cells" not in vars(result.columns)
        first = result.cells
        assert result.cells is first
        assert apply_alpha_cap(result, 18.0, 3.0).cells is first


class TestGridCap:
    def test_tiny_step_rejected_before_nodes_exist(self, monkeypatch):
        sweep_mod = importlib.import_module("liftwing.sweep")

        def refuse(*args):
            raise AssertionError("nodes were built")

        monkeypatch.setattr(sweep_mod, "_nodes", refuse)
        with pytest.raises(ValueError, match="more than"):
            SweepGrid(1.0, 50.0, 1e-9, 1.0, 18.0, 1.0)

    @pytest.mark.parametrize("grid", [
        (1.0, 50.0, 0.01, 1.0, 18.0, 0.1),   # 4901 x 171 cells
        (0.0, 1e308, 1e-300, 1.0, 18.0, 1.0),  # span / step overflows to inf
    ])
    def test_grid_over_cap_rejected(self, grid):
        with pytest.raises(ValueError):
            SweepGrid(*grid)

    def test_tenth_degree_grid_fits(self):
        assert SweepGrid(1.0, 50.0, 0.1, 1.0, 18.0, 0.1).cell_count() == 491 * 171

    def test_config_over_cap_exits_2(self, cfg, tmp_path, capsys, monkeypatch):
        from liftwing import config_to_dict
        from liftwing.cli import main
        # without the cap this grid would need 4.9e10 nodes: fail fast instead
        monkeypatch.setattr(importlib.import_module("liftwing.sweep"), "_nodes", None)
        doc = config_to_dict(cfg)
        doc["grid"]["gamma_step_deg"] = 1e-9
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "sweep", "--out", str(tmp_path / "out")]) == 2
        assert "more than" in capsys.readouterr().err
