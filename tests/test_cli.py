"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from lrpulse.cli import (EXIT_IO, EXIT_NONCONVERGENCE, EXIT_OK,
                         EXIT_VALIDATION, main)


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    return [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]


class TestTables:
    def test_table_ii_values(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert main(["tables", "--which", "II", "--out", str(out)]) == EXIT_OK
        rows = dict(read_rows(out))
        expected = {0.4: 17.33, 0.5: 11.34, 0.6: 8.09, 0.7: 6.13}
        for b, u in expected.items():
            assert rows[b] == pytest.approx(u, abs=0.01)

    def test_unwritable_path(self, tmp_path):
        out = tmp_path / "nope" / "t2.csv"
        assert main(["tables", "--which", "II", "--out", str(out)]) == EXIT_IO


class TestSynth:
    def test_zero_schedule(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["synth", "--strategy", "c", "--Omega0-over-omega", "0",
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert all(all(v == 0.0 for v in r[1:]) for r in rows)

    def test_summary_and_determinism(self, tmp_path):
        out = tmp_path / "a.csv"
        summ = tmp_path / "a.json"
        args = ["synth", "--strategy", "a", "--A", "0.7",
                "--omega-T-over-pi", "15.8274", "--out", str(out),
                "--summary", str(summ)]
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        info = json.loads(summ.read_text())
        assert info["schema_version"] == 1
        env = info["envelope"]
        assert env["max_abs_omega_p"] > 0.0
        assert max(env["endpoint_abs_omega_p"]) < 1e-8
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first

    def test_b_both_variants(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["synth", "--strategy", "b", "--B", "0.5",
                     "--omega-T-over-pi", "11.336888", "--neglect-imag",
                     "--out", str(out)]) == EXIT_OK
        alt = tmp_path / "b.withimag.csv"
        assert alt.exists()
        # flagged file has no imaginary part; companion keeps it
        def max_imag(p):
            return max(abs(r[2]) for r in read_rows(p))
        assert max_imag(out) == 0.0
        assert max_imag(alt) > 0.1

    def test_missing_parameter(self, tmp_path):
        assert main(["synth", "--strategy", "a",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION

    def test_zero_amplitude_rejected(self, tmp_path):
        assert main(["synth", "--strategy", "a", "--A", "0",
                     "--omega-T-over-pi", "10",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION


class TestSimulate:
    def test_strategy_b_fidelity(self, tmp_path):
        summ = tmp_path / "s.json"
        assert main(["simulate", "--strategy", "b", "--B", "0.5",
                     "--delta-t-over-T", "0.005", "--neglect-imag",
                     "--summary", str(summ)]) == EXIT_OK
        info = json.loads(summ.read_text())
        assert info["final_populations"][2] == pytest.approx(0.9680, abs=0.02)
        assert info["norm_drift"] < 1e-9

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--strategy", "c", "--Omega0-over-omega",
                     "0.3", "--n-periods", "2", "--out", str(out),
                     "--steps-per-period", "500"]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == "t,p1,p2,p3,norm"
        # time column in units of pi/(2 omega): starts at 1
        assert float(lines[2].split(",")[0]) == pytest.approx(1.0)


class TestVerify:
    def test_pass_and_report(self, tmp_path):
        rep = tmp_path / "v.json"
        assert main(["verify", "--strategy", "c", "--Omega0-over-omega",
                     "0.3", "--n-periods", "2", "--out", str(rep),
                     "--steps-per-period", "500"]) == EXIT_OK
        info = json.loads(rep.read_text())
        assert info["passed"] is True
        assert set(info["checks"]) == {"spectrum", "invariance",
                                       "lr_phase_consistency",
                                       "analytic_agreement"}

    def test_corrupted_schedule_fails(self, tmp_path):
        sched = tmp_path / "s.csv"
        assert main(["synth", "--strategy", "a", "--A", "0.5",
                     "--out", str(sched)]) == EXIT_OK
        lines = sched.read_text().splitlines()
        fixed = lines[:2]
        for ln in lines[2:]:
            f = ln.split(",")
            f[1] = repr(float(f[1]) * 1.1)
            fixed.append(",".join(f))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(fixed) + "\n")
        assert main(["verify", "--strategy", "a", "--A", "0.5",
                     "--schedule", str(bad)]) == EXIT_VALIDATION
        assert main(["verify", "--strategy", "a", "--A", "0.5",
                     "--schedule", str(sched)]) == EXIT_OK

    def test_unparseable_cell_fails(self, tmp_path, capsys):
        sched = tmp_path / "s.csv"
        assert main(["synth", "--strategy", "a", "--A", "0.5",
                     "--out", str(sched)]) == EXIT_OK
        lines = sched.read_text().splitlines()
        f = lines[12].split(",")
        f[1] = "abc"
        lines[12] = ",".join(f)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--strategy", "a", "--A", "0.5",
                     "--schedule", str(bad)]) == EXIT_VALIDATION
        assert "data row 11, column 're_omega_p'" in capsys.readouterr().err

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_short_schedule_file_fails(self, tmp_path, capsys, n_rows):
        # a file needs two data rows to span the schedule domain
        sched = tmp_path / "s.csv"
        assert main(["synth", "--strategy", "a", "--A", "0.5",
                     "--out", str(sched)]) == EXIT_OK
        short = tmp_path / "short.csv"
        short.write_text("\n".join(sched.read_text().splitlines()[:2 + n_rows])
                         + "\n")
        assert main(["verify", "--strategy", "a", "--A", "0.5",
                     "--schedule", str(short)]) == EXIT_VALIDATION
        assert f"error: {short}: {n_rows} data rows" in capsys.readouterr().err

    def test_b_neglect_imag_fails_invariance_only(self, tmp_path):
        # dropping the imaginary envelope part breaks the invariant at every
        # time, not only in the patch windows (residual ~6e-2 omega)
        rep = tmp_path / "v.json"
        assert main(["verify", "--strategy", "b", "--B", "0.5",
                     "--neglect-imag", "--out", str(rep)]) == EXIT_VALIDATION
        checks = json.loads(rep.read_text())["checks"]
        assert [n for n, c in checks.items() if not c["passed"]] == ["invariance"]

    @pytest.mark.parametrize("strategy", [["a", "--A", "0.5"],
                                          ["b", "--B", "0.5"], ["c"]],
                             ids=["a", "b", "c"])
    def test_synth_round_trip_at_defaults(self, tmp_path, strategy):
        sched = tmp_path / "s.csv"
        rep = tmp_path / "v.json"
        assert main(["synth", "--strategy", *strategy,
                     "--out", str(sched)]) == EXIT_OK
        assert main(["verify", "--strategy", *strategy, "--schedule",
                     str(sched), "--out", str(rep)]) == EXIT_OK
        assert json.loads(rep.read_text())["checks"]["file_invariance"]["passed"]


class TestStrategyOptions:
    A = ["--strategy", "a", "--A", "0.5", "--omega-T-over-pi", "29.73"]
    B = ["--strategy", "b", "--B", "0.5", "--omega-T-over-pi", "11.34"]
    C = ["--strategy", "c", "--Omega0-over-omega", "0.3", "--n-periods", "1"]

    CASES = [
        ("synth", C + ["--A", "0.5"], {}, "--A"),
        ("synth", C + ["--T", "2"], {}, "--T"),
        ("synth", C, {"delta_t_over_T": 0.01}, "--delta-t-over-T"),
        ("synth", A + ["--B", "0.5"], {}, "--B"),
        ("synth", A + ["--neglect-imag"], {}, "--neglect-imag"),
        ("synth", A, {"neglect_imag": True}, "--neglect-imag"),
        ("synth", A + ["--Omega0-over-omega", "0.3"], {}, "--Omega0-over-omega"),
        ("synth", B, {"target_delta_epsilon": 0.5}, "--target-delta-epsilon"),
        ("simulate", B + ["--n-periods", "2"], {}, "--n-periods"),
        ("simulate", A, {"omega": 2.0}, "--omega"),
        ("verify", C + ["--omega-T-over-pi", "10"], {}, "--omega-T-over-pi"),
    ]

    @pytest.mark.parametrize(
        "command,args,config,option", CASES,
        ids=[f"{c}-{o[2:]}{'-config' if cfg else ''}" for c, _, cfg, o in CASES])
    def test_inapplicable_option_rejected(self, tmp_path, capsys, command,
                                          args, config, option):
        out = tmp_path / "o.csv"
        argv = [command, *args, "--out", str(out)]
        if config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_VALIDATION
        assert f"option {option} does not apply" in capsys.readouterr().err
        assert not out.exists()

    def test_false_neglect_imag_is_not_given(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"neglect_imag": False}))
        assert main(["synth", *self.A, "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK


class TestCalibrateC:
    def test_default_target(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["calibrate-c", "--out", str(out)]) == EXIT_OK
        info = json.loads(out.read_text())
        assert info["Omega0_over_omega"] == pytest.approx(0.3396, abs=5e-4)

    def test_unreachable_target(self):
        assert main(["calibrate-c", "--target-delta-epsilon", "3.0"]) \
            == EXIT_NONCONVERGENCE


class TestConfigFile:
    def test_config_merge_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "c", "Omega0_over_omega": 0.3,
                                   "n_periods": 4}))
        out = tmp_path / "o.csv"
        summ = tmp_path / "o.json"
        assert main(["synth", "--config", str(cfg), "--n-periods", "2",
                     "--out", str(out), "--summary", str(summ)]) == EXIT_OK
        info = json.loads(summ.read_text())
        assert info["schedule"]["params"]["n_periods"] == 2
        assert info["schedule"]["params"]["Omega0_over_omega"] == pytest.approx(0.3)

    def test_zero_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "c", "Omega0_over_omega": 0.3,
                                   "n_periods": 1}))
        summ = tmp_path / "o.json"
        assert main(["synth", "--config", str(cfg), "--Omega0-over-omega", "0",
                     "--out", str(tmp_path / "o.csv"),
                     "--summary", str(summ)]) == EXIT_OK
        params = json.loads(summ.read_text())["schedule"]["params"]
        assert params["Omega0_over_omega"] == 0.0

    def test_config_sets_flags_with_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        base = {"strategy": "c", "Omega0_over_omega": 0.3, "n_periods": 1}
        summ = tmp_path / "s.json"
        cfg.write_text(json.dumps({**base, "steps_per_period": 100}))
        assert main(["simulate", "--config", str(cfg),
                     "--summary", str(summ)]) == EXIT_OK
        assert json.loads(summ.read_text())["steps_per_carrier_period"] == 100
        out = tmp_path / "o.csv"
        cfg.write_text(json.dumps({**base, "samples_per_period": 10}))
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)) == 11
        cfg.write_text(json.dumps({**base, "tol": -1.0}))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_VALIDATION

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "c", "bogus": 1}))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(cfg.parent / "o.csv")]) == EXIT_VALIDATION

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(cfg.parent / "o.csv")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("command,config,key", [
        ("synth", {"strategy": "c", "Omega0_over_omega": 0.3, "n_periods": 2.5},
         "n_periods"),
        ("simulate", {"strategy": "c", "Omega0_over_omega": 0.3, "n_periods": 1,
                      "steps_per_period": 150.9}, "steps_per_period"),
        ("synth", {"strategy": "b", "B": 0.5, "neglect_imag": "no"},
         "neglect_imag"),
        ("synth", {"strategy": "a", "A": True}, "A"),
    ], ids=["fractional_int", "fractional_steps", "string_switch", "bool_float"])
    def test_value_gets_its_flag_type_check(self, tmp_path, capsys, command,
                                            config, key):
        # --n-periods 2.5 is rejected, so the config value 2.5 is too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_VALIDATION
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_untyped_value_is_read_as_a_string(self, tmp_path, monkeypatch):
        # like the flag --summary 5, the config value 5 names the file "5"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"strategy": "c", "Omega0_over_omega": 0.3, "n_periods": 1,
             "summary": 5}))
        assert main(["simulate", "--config", "cfg.json"]) == EXIT_OK
        assert json.loads((tmp_path / "5").read_text())["steps"] > 0
