import dataclasses
import importlib

import pytest

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
