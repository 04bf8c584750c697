import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftwing
from liftwing import ConfigError, config_from_dict, config_to_dict, default_config, load_config, save_config
from liftwing.cli import compare_rows, main


class TestConfigRoundTrip:
    def test_default_round_trips_exactly(self, cfg):
        doc = config_to_dict(cfg)
        text = json.dumps(doc)
        again = config_from_dict(json.loads(text))
        assert again == cfg  # field-for-field dataclass equality

    def test_file_round_trip(self, cfg, tmp_path):
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_top_level_key_rejected(self, cfg):
        doc = config_to_dict(cfg)
        doc["propwash"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unknown_nested_key_rejected(self, cfg):
        doc = config_to_dict(cfg)
        doc["airframe"]["wingspan_m"] = 1.2
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_missing_key_rejected(self, cfg):
        doc = config_to_dict(cfg)
        del doc["airframe"]["mass_kg"]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_invariant_violation_becomes_config_error(self, cfg):
        doc = config_to_dict(cfg)
        doc["airframe"]["safety_margin_deg"] = 18.0
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("airframe", "mass_kg", float("nan")),
        ("battery", "capacity_As", float("inf")),
        ("environment", "gravity_m_s2", float("-inf")),
        ("airframe", "mass_kg", 10**400),
        ("airframe", "rotor_count", 2.5),
    ])
    def test_non_finite_and_non_integral_values_rejected(self, cfg, section, key, value):
        doc = config_to_dict(cfg)
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
            config_from_dict(doc)

    def test_non_integral_surrogate_exponent_rejected(self, cfg):
        doc = config_to_dict(cfg)
        doc["thrust_surrogate"]["terms"][1][1] = 1.5
        with pytest.raises(ConfigError, match=r"thrust_surrogate.terms\[1\] must be an integer"):
            config_from_dict(doc)

    def test_cubic_thrust_surrogate_rejected(self, cfg, tmp_path, capsys):
        # rotor speed is a closed-form quadratic root: thrust must stay at most
        # quadratic in N, while torque, only evaluated, takes any exponent
        with pytest.raises(ValueError, match="at most quadratic in N"):
            dataclasses.replace(cfg, thrust_surrogate=dataclasses.replace(
                cfg.thrust_surrogate, terms=cfg.thrust_surrogate.terms + ((0, 3, 1e-12),)))
        doc = config_to_dict(cfg)
        doc["thrust_surrogate"]["terms"].append([0, 3, 1e-12])
        with pytest.raises(ConfigError, match="thrust surrogate must be at most quadratic"):
            config_from_dict(doc)
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "hover"]) == 2
        assert "config error: thrust surrogate must be at most quadratic" in capsys.readouterr().err
        doc = config_to_dict(cfg)
        doc["torque_surrogate"]["terms"].append([0, 3, 1e-16])
        assert (0, 3, 1e-16) in config_from_dict(doc).torque_surrogate.terms

    def test_integral_float_counts_accepted(self, cfg):
        doc = config_to_dict(cfg)
        doc["airframe"]["rotor_count"] = 4.0
        doc["thrust_surrogate"]["terms"][0][:2] = [0.0, 0.0]
        assert config_from_dict(doc) == cfg

    def test_grid_conventions(self):
        assert default_config("exclude-zero").grid.cell_count() == 900
        assert default_config("include-zero").grid.cell_count() == 969


class TestCliTrim:
    def test_design_point(self, capsys):
        assert main(["trim", "--gamma", "35", "--alpha", "10"]) == 0
        out = capsys.readouterr().out
        assert "theta_deg" in out and "25.000000" in out

    def test_hover_degenerate_exit_code(self, capsys):
        assert main(["trim", "--gamma", "10", "--alpha", "10"]) == 3
        err = capsys.readouterr().err
        assert "hover" in err

    def test_fixed_speed_matches_library(self, capsys):
        assert main(["--format", "json", "trim", "--gamma", "35", "--speed", "15"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta_deg"] == pytest.approx(24.6651, abs=2e-4)

    def test_infeasible_exit_code(self, capsys):
        assert main(["trim", "--gamma", "50", "--alpha", "0"]) == 3

    def test_pitch_past_90_exits_3_without_traceback(self, capsys):
        # theta = 99 deg: tan(theta) < 0 while C_D + C_L tan(theta) > 0, so V^2 < 0
        assert main(["trim", "--gamma", "100", "--alpha", "1"]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith("infeasible: Infeasible: V^2 = ")
        assert "Traceback" not in stderr

    def test_requires_exactly_one_of_alpha_speed(self):
        with pytest.raises(SystemExit) as err:
            main(["trim", "--gamma", "35", "--alpha", "10", "--speed", "15"])
        assert err.value.code == 2

    def test_capacity_override_scales_endurance(self, capsys):
        assert main(["--format", "json", "trim", "--gamma", "35", "--alpha", "10"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["--format", "json", "--capacity-mah", "10000",
                     "trim", "--gamma", "35", "--alpha", "10"]) == 0
        boosted = json.loads(capsys.readouterr().out)
        assert boosted["endurance_s"] == pytest.approx(
            base["endurance_s"] * 36000.0 / 18000.0, rel=1e-12)
        assert boosted["rpm"] == base["rpm"]


class TestCliNumbers:
    @pytest.mark.parametrize("argv", [
        ["trim", "--gamma", "35", "--speed", "inf"],
        ["compare", "--speeds", "abc"],
        ["compare", "--speeds", "11,nan"],
        ["compare", "--speeds", ","],
        ["--capacity-mah", "nan", "hover"],
        ["trim", "--gamma", "nan", "--alpha", "10"],
        ["trim", "--gamma", "35", "--alpha=-inf"],
        ["compare", "--gamma", "inf"],
        ["sweep", "--margin", "nan"],
        ["sweep", "--jobs", "0"],
        ["--jobs", "-1", "sweep"],
    ])
    def test_bad_number_exits_2_without_traceback(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "error: argument" in stderr
        assert "Traceback" not in stderr


class TestCliConfigHandling:
    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "hover"]) == 2

    def test_unknown_key_exits_2(self, cfg, tmp_path):
        doc = config_to_dict(cfg)
        doc["mystery"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "hover"]) == 2

    @pytest.mark.parametrize("const", [-10.0, None], ids=["negative", "zero"])
    @pytest.mark.parametrize("argv", [["hover"], ["sweep"], ["compare", "--speeds", "15"]])
    def test_non_positive_esc_current_exits_2(self, cfg, tmp_path, capsys, monkeypatch, argv,
                                              const):
        monkeypatch.chdir(tmp_path)  # sweep writes nothing, but keep it out of the repo
        m = cfg.esc.torque_domain[0]
        if const is None:  # exactly 0 A at the low end of the domain
            const = -(cfg.esc.quad * m * m + cfg.esc.lin * m)
        doc = config_to_dict(cfg)
        doc["esc"]["const_A"] = const
        path = tmp_path / "esc.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), *argv]) == 2
        captured = capsys.readouterr()
        lowest = cfg.esc.quad * m * m + cfg.esc.lin * m + const
        assert captured.out == ""
        assert captured.err == (f"config error: esc: current at M={m} N*m, the low end of "
                                f"torque_domain_Nm, is {lowest} A; it must be positive\n")
        assert not (tmp_path / "out").exists()

    def test_env_var_fallback(self, cfg, tmp_path, monkeypatch, capsys):
        custom = dataclasses.replace(cfg, mounting_angle=30.0)
        path = tmp_path / "env.json"
        save_config(custom, path)
        monkeypatch.setenv("LIFTWING_CONFIG", str(path))
        assert main(["--format", "json", "trim", "--gamma", "30", "--alpha", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta_deg"] == 20.0


class TestCliSweep:
    def test_outputs_written(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out)]) == 0
        assert (out / "cells.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "curve_alpha_10.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["gamma_deg"], summary["alpha_deg"]) == (35.0, 10.0)

    def test_capacity_doubling_same_argmax_double_range(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--out", str(out1)]) == 0
        assert main(["--capacity-mah", "10000", "sweep", "--out", str(out2)]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert (s1["gamma_deg"], s1["alpha_deg"]) == (s2["gamma_deg"], s2["alpha_deg"])
        assert s2["range_m"] == pytest.approx(s1["range_m"] * 2.0, rel=1e-12)

    def test_margin_equal_to_stall_exits_3(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "x"), "--margin", "18"]) == 3

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["sweep", "--out", str(blocker / "sub")]) == 4


class TestCliCompare:
    def test_default_speeds_row_marking(self, capsys):
        # 15 m/s trims; 5 and 10 m/s sit outside the stall-capped fit envelope
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[2].startswith("speed_m_s")
        assert "marked" in [l for l in lines if l.startswith("5,")][0]
        assert "marked" in [l for l in lines if l.startswith("10,")][0]
        assert [l for l in lines if l.startswith("15,")][0].endswith("ok")

    def test_in_envelope_trend_is_increasing(self, capsys):
        assert main(["--format", "json", "compare", "--speeds", "11,13,15"]) == 0
        rows = json.loads(capsys.readouterr().out)
        savings = [r["saving_percent"] for r in rows]
        assert len(savings) == 3
        assert savings[0] < savings[1] < savings[2]
        assert savings[0] > 0.0

    def test_degenerate_wing_equals_dragless_body(self, cfg):
        stripped = dataclasses.replace(
            cfg,
            airframe=dataclasses.replace(cfg.airframe, reference_area=0.0),
            parasite_drag_area=0.0,
        )
        rows = compare_rows(stripped, [6.0, 12.0])
        for row in rows:
            assert row["saving_percent"] == pytest.approx(0.0, abs=1e-12)
            assert row["wing_current_A"] == pytest.approx(row["wingless_current_A"], rel=1e-12)

    def test_both_sides_infeasible_marks_row(self, capsys):
        # 60 m/s: wing leaves the fit envelope, bare craft needs rpm beyond domain
        assert main(["compare", "--speeds", "60"]) == 3
        out = capsys.readouterr().out
        assert "marked" in out

    def test_overflowing_dynamic_pressure_is_no_trim(self, capsys):
        # rho V^2 / 2 overflows at 1e200 m/s: the wing side reports the
        # force balance, not a NaN thrust further down the chain
        assert main(["compare", "--speeds", "1e200"]) == 3
        wing = "NoTrimAtSpeed: the force balance is not finite at 1e+200 m/s"
        assert f"marked: {wing}" in capsys.readouterr().out
        assert main(["trim", "--gamma", "35", "--speed", "1e200"]) == 3
        assert capsys.readouterr().err == f"infeasible: {wing}\n"

    def test_gamma_override(self, capsys):
        assert main(["--format", "json", "compare", "--speeds", "15",
                     "--gamma", "30"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert "saving_percent" in rows[0]


class TestCliFit:
    def test_fit_aero_fragment(self, data_dir, capsys):
        assert main(["fit", "aero", str(data_dir / "bench_aero.csv")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aero"]["lift_slope_per_deg"] == pytest.approx(0.08, abs=1e-12)
        assert doc["reports"]["cl"]["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_fit_esc_fragment(self, data_dir, capsys):
        assert main(["fit", "esc", str(data_dir / "bench_esc.csv")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["esc"]["quad_A_per_Nm2"] == pytest.approx(73.05, abs=1e-9)

    def test_fit_prop_reproduces_default_torque(self, capsys):
        import importlib.resources as res
        from liftwing.config import TORQUE_SURROGATE_TERMS
        path = res.files("liftwing") / "data" / "prop_bench_table.dat"
        assert main(["fit", "prop", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        frozen = {(i, j): c for i, j, c in TORQUE_SURROGATE_TERMS}
        for i, j, c in doc["torque_surrogate"]["terms"]:
            assert c == pytest.approx(frozen[(i, j)], rel=1e-9)
        assert doc["reports"]["thrust"]["r_squared"] >= 0.999

    def test_fit_write_to_dir(self, data_dir, tmp_path, capsys):
        argv = ["fit", "esc", str(data_dir / "bench_esc.csv")]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "frag"
        assert main([*argv, "--out", str(out)]) == 0
        assert (out / "fit_esc.json").read_bytes() == printed.encode()

    def test_malformed_table_exits_2(self, data_dir):
        assert main(["fit", "prop", str(data_dir / "malformed_prop.dat")]) == 2


class TestCliHover:
    def test_static_split(self, capsys):
        assert main(["--format", "json", "hover"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["thrust_per_rotor_N"] == pytest.approx(4.905, rel=1e-12)
        assert doc["range_m"] == 0.0

    def test_capacity_linearity(self, capsys):
        assert main(["--format", "json", "hover"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["--format", "json", "--capacity-mah", "2500", "hover"]) == 0
        half = json.loads(capsys.readouterr().out)
        assert half["endurance_s"] == pytest.approx(base["endurance_s"] / 2.0, rel=1e-12)

    def test_current_chain_against_bisection_oracle(self, bundle, capsys):
        from oracles import scan_required_rpm
        assert main(["--format", "json", "hover"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rpm = scan_required_rpm(bundle.thrust_surrogate, 4.905, 0.0)
        assert doc["rpm"] == pytest.approx(rpm, abs=1e-4)
        m = bundle.torque_surrogate.evaluate(doc["rpm"], 0.0)
        i = bundle.esc.quad * m * m + bundle.esc.lin * m + bundle.esc.const
        assert doc["current_per_esc_A"] == pytest.approx(i, rel=1e-12)


def test_csv_output_format(capsys):
    assert main(["--format", "csv", "trim", "--gamma", "35", "--alpha", "10"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("gamma_deg,alpha_deg,theta_deg")
    assert len(lines) == 2
    assert "." in lines[1] and "," in lines[1]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # a fresh interpreter, so modules the test session loaded do not count
    package_root = str(Path(liftwing.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import sys, liftwing.cli; print(liftwing.__file__); print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    where, loaded = proc.stdout.split()
    assert Path(where).resolve() == Path(liftwing.__file__).resolve()
    assert loaded == "False"


class TestWrongJsonTypes:
    @pytest.mark.parametrize("section", [
        "airframe", "environment", "aero", "thrust_surrogate", "torque_surrogate",
        "esc", "battery", "grid", "flags",
    ])
    @pytest.mark.parametrize("value", [3, None, 2.5, True])
    def test_section_not_an_object(self, cfg, section, value):
        doc = config_to_dict(cfg)
        doc[section] = value
        with pytest.raises(ConfigError, match="must be a JSON object"):
            config_from_dict(doc)

    @pytest.mark.parametrize("value", [5, None, 1.5])
    def test_terms_not_a_list(self, cfg, value):
        doc = config_to_dict(cfg)
        doc["thrust_surrogate"]["terms"] = value
        with pytest.raises(ConfigError, match="terms must be a list"):
            config_from_dict(doc)

    @pytest.mark.parametrize("section, key", [("airframe", None), ("torque_surrogate", "terms")])
    def test_cli_exits_2_without_traceback(self, cfg, tmp_path, capsys, section, key):
        doc = config_to_dict(cfg)
        if key is None:
            doc[section] = 3
        else:
            doc[section][key] = 5
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "hover"]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("config error:")
        assert "Traceback" not in stderr


class TestCliOutOfRange:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--margin", "-1"],
        ["trim", "--gamma", "95", "--speed", "15"],
        ["compare", "--gamma", "95"],
    ])
    def test_exits_2_without_traceback(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # sweep writes nothing, but keep it out of the repo
        assert main(argv) == 2
        stderr = capsys.readouterr().err
        assert "BadArgument" in stderr or stderr.startswith("config error:")
        assert "Traceback" not in stderr


class TestAtomicWrite:
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        from liftwing import cli
        target = tmp_path / "cells.csv"
        target.write_text("earlier\n")

        class HalfWriter:
            """A text file that writes half of what it is given, then fails."""

            def __init__(self, path, mode, newline=None):
                self.fh = open(path, mode, newline=newline)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        monkeypatch.setattr(cli, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="disk full"):
            cli._write_text(target, "new contents\n" * 100)
        assert target.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cells.csv"]

    def test_write_replaces_the_file(self, tmp_path):
        from liftwing import cli
        target = tmp_path / "summary.json"
        target.write_text("old")
        cli._write_text(target, "new\n")
        assert target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]


class TestRepeatedMainCalls:
    """main() reuses its parser and the last config's parse within one process;
    every call must still behave as a call in a fresh process."""

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh(self, argv, capsys):
        from liftwing import cli, config
        cli._parser.cache_clear()
        config._parse_config.cache_clear()
        return self.run(argv, capsys)

    def test_parser_built_once(self, monkeypatch, capsys):
        import argparse

        from liftwing import cli
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        counts = []
        for argv in (["hover"], ["compare", "--speeds", "15"],
                     ["trim", "--gamma", "35", "--alpha", "10"]):
            assert main(argv) == 0
            counts.append(len(built))
        assert counts == [6, 6, 6]  # the top parser and its five subcommands, once

    def test_failed_parse_leaves_nothing_behind(self, capsys):
        bad = ["trim", "--gamma", "35", "--alpha", "10", "--speed", "15"]
        good = ["--format", "json", "trim", "--gamma", "35", "--speed", "15"]
        expected_bad, expected_good = self.fresh(bad, capsys), self.fresh(good, capsys)
        assert expected_bad[0] == 2 and expected_good[0] == 0
        assert [self.run(bad, capsys), self.run(good, capsys)] == [expected_bad, expected_good]

    def test_options_do_not_carry_over(self, capsys):
        expected = self.fresh(["compare"], capsys)
        assert self.run(["--format", "json", "compare", "--speeds", "12"], capsys)[0] == 0
        again = self.run(["compare"], capsys)
        assert again == expected
        rows = [line.split(",")[0] for line in again[1].splitlines()[3:]]
        assert rows == ["5", "10", "15"]

    def test_capacity_does_not_leak(self, capsys):
        expected = self.fresh(["--format", "json", "hover"], capsys)
        boosted = self.run(["--format", "json", "--capacity-mah", "9000", "hover"], capsys)
        assert boosted != expected
        assert self.run(["--format", "json", "hover"], capsys) == expected

    def test_config_file_rewrites_are_seen(self, cfg, tmp_path, capsys):
        path = tmp_path / "run.json"
        argv = ["--config", str(path), "--format", "json", "compare", "--speeds", "12,15"]
        save_config(cfg, path)
        original = self.fresh(argv, capsys)
        assert original[0] == 0

        save_config(dataclasses.replace(cfg, mounting_angle=30.0), path)
        changed = self.run(argv, capsys)
        assert changed[0] == 0 and changed[1] != original[1]
        assert changed == self.fresh(argv, capsys)

        path.write_text("{not json")
        message = (f"config error: config {path} is not valid JSON: Expecting property name "
                   "enclosed in double quotes: line 1 column 2 (char 1)\n")
        assert self.run(argv, capsys) == (2, "", message)
        assert self.run(argv, capsys) == (2, "", message)  # the error is not cached

        save_config(cfg, path)
        assert self.run(argv, capsys) == original
