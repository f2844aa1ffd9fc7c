"""End-to-end tests of the command-line interface."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from lrpulse.cli import (EXIT_IO, EXIT_NONCONVERGENCE, EXIT_OK,
                         EXIT_VALIDATION, main, make_parser)


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


@pytest.fixture(scope="module")
def a_file(tmp_path_factory):
    """The lines of the default `synth --strategy a --A 0.5` file."""
    sched = tmp_path_factory.mktemp("a") / "s.csv"
    assert main(["synth", "--strategy", "a", "--A", "0.5",
                 "--out", str(sched)]) == EXIT_OK
    return sched.read_text().splitlines()


def verify_a(path):
    return main(["verify", "--strategy", "a", "--A", "0.5",
                 "--schedule", str(path)])


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["synth", "--strategy", "a"]) == EXIT_VALIDATION
        assert "required: --out" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["--bogus"]) == EXIT_VALIDATION
        out = tmp_path / "x.csv"
        assert main(["synth", "--strategy", "a", "--A", "0.5",
                     "--out", str(out), "--bogus"]) == EXIT_VALIDATION
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0
        assert "--samples-per-period" in capsys.readouterr().out

    def test_no_tol_flag(self, tmp_path, capsys):
        # the calibrations bisect to fixed widths; --tol is not an option
        out = tmp_path / "t.csv"
        assert main(["tables", "--which", "II", "--out", str(out),
                     "--tol", "1e-6"]) == EXIT_VALIDATION
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert not out.exists()


def readme_commands():
    """The `lrpulse ...` lines of README's sh blocks, continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("lrpulse "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    # every documented command names only options the parser has
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        make_parser().parse_args(argv)


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

    @pytest.mark.parametrize("drop", ["column", "name", "row"])
    def test_column_count_mismatch_fails(self, tmp_path, capsys, a_file, drop):
        # the delta column dropped from every data row, from its name, or
        # from data row 11 alone (line 12)
        first, last = {"column": (2, len(a_file)), "name": (1, 2),
                       "row": (12, 13)}[drop]
        lines = [",".join(ln.split(",")[:5]) if first <= i < last else ln
                 for i, ln in enumerate(a_file)]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert verify_a(bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        counts = "6 columns under 5" if drop == "name" else "5 columns under 6"
        assert f"{counts} column names" in err
        if drop == "row":
            assert f"{bad}: data row 11: " in err

    @pytest.mark.parametrize("edit", ["renamed", "missing", "duplicated"])
    def test_column_names_checked(self, tmp_path, capsys, a_file, edit):
        # the delta column renamed detuning, dropped from the names and every
        # row, or im_omega_s named im_omega_p a second time
        lines = list(a_file)
        if edit == "renamed":
            lines[1] = lines[1].replace("delta", "detuning")
        elif edit == "missing":
            lines[1:] = [ln.rsplit(",", 1)[0] for ln in lines[1:]]
        else:
            lines[1] = lines[1].replace("im_omega_s", "im_omega_p")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert verify_a(bad) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert f"error: {bad}: column names " in err
        assert "pass" not in out

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

    def test_every_corrupted_row_fails(self, tmp_path, a_file):
        # one row's re_omega_p scaled by 1.1: data rows 699 and 700 (linear
        # interpolation sampled at 50 times misses the first) and every 37th
        # row whose coupling is at least 1% of the column maximum
        re_p = np.array([float(ln.split(",")[1]) for ln in a_file[2:]])
        rows = [698, 699] + [i for i in range(0, len(re_p), 37)
                             if abs(re_p[i]) >= 0.01 * np.max(np.abs(re_p))]
        assert len(rows) > 70
        bad = tmp_path / "bad.csv"
        for i in rows:
            lines = list(a_file)
            f = lines[2 + i].split(",")
            f[1] = repr(float(f[1]) * 1.1)
            lines[2 + i] = ",".join(f)
            bad.write_text("\n".join(lines) + "\n")
            assert verify_a(bad) == EXIT_VALIDATION, f"data row {i + 1}"

    @pytest.mark.parametrize("line", [2, -1], ids=["first", "last"])
    def test_corrupted_end_row_fails(self, tmp_path, a_file, line):
        # re_omega_p = 5.0 reads 7.6e-2 omega in the first data row and
        # 5.0e-2 omega in the last; the file as written reads 0 and 3e-14
        lines = list(a_file)
        f = lines[line].split(",")
        f[1] = "5.0"
        lines[line] = ",".join(f)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert verify_a(bad) == EXIT_VALIDATION

    def test_file_checked_only_at_its_rows(self, tmp_path, capsys, a_file):
        # the first data row, one more and the last: the middle row is
        # checked as written, and no interpolation between rows is
        sparse = tmp_path / "sparse.csv"
        sparse.write_text("\n".join(a_file[:4] + a_file[-1:]) + "\n")
        assert verify_a(sparse) == EXIT_OK
        sparse.write_text("\n".join(a_file[:3] + a_file[-1:]) + "\n")
        assert verify_a(sparse) == EXIT_VALIDATION
        assert "error: schedule file has no interior row to check" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["swap", "duplicate"])
    def test_rows_out_of_order_fail(self, tmp_path, capsys, a_file, edit):
        lines = list(a_file)   # lines[k] holds data row k - 1
        if edit == "swap":
            lines[41], lines[42] = lines[42], lines[41]
        else:
            lines[42] = lines[41]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert verify_a(bad) == EXIT_VALIDATION
        assert f"error: {bad}: data row 41: t does not exceed" \
            in capsys.readouterr().err

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
        check = json.loads(rep.read_text())["checks"]["file_invariance"]
        assert check["passed"] and check["max_residual_over_omega"] < 1e-7
        if strategy == ["c"]:   # 6 periods at 200 samples per period
            assert len(read_rows(sched)) == 6 * 200 + 1


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


class TestNonFiniteInputs:
    B = ["synth", "--strategy", "b", "--B", "0.5"]

    CASES = [
        pytest.param(B + ["--delta-t-over-T", "nan"], {}, "--delta-t-over-T",
                     id="delta_t"),
        pytest.param(B + ["--omega-T-over-pi", "nan"], {}, "--omega-T-over-pi",
                     id="omega_T"),
        pytest.param(B + ["--T", "inf"], {}, "--T", id="T"),
        pytest.param(["synth", "--strategy", "a", "--A", "nan"], {}, "--A",
                     id="A"),
        pytest.param(["calibrate-c", "--target-delta-epsilon", "nan"], {},
                     "--target-delta-epsilon", id="target"),
        pytest.param(B, {"delta_t_over_T": float("nan")}, "'delta_t_over_T'",
                     id="delta_t-config"),
        pytest.param(["calibrate-c"], {"target_delta_epsilon": float("inf")},
                     "'target_delta_epsilon'", id="target-config"),
    ]

    @pytest.mark.parametrize("argv,config,option", CASES)
    def test_rejected(self, tmp_path, capsys, argv, config, option):
        out = tmp_path / "o.csv"
        argv = [*argv, "--out", str(out)]
        if config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))   # NaN and Infinity tokens
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option in err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_non_positive_sample_count(self, tmp_path, capsys, count):
        out = tmp_path / "o.csv"
        assert main(["synth", "--strategy", "c", "--Omega0-over-omega", "0.3",
                     "--n-periods", "1", "--samples-per-period", count,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "error: samples_per_period must be at least 1" \
            in capsys.readouterr().err
        assert not out.exists()


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

    def test_config_sets_flags_with_defaults(self, tmp_path, capsys):
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
        cfg.write_text(json.dumps({"strategy": "a", "A": 0.5, "T": -1.0}))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "error: T must be positive" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # only the subcommand's own options are config keys: not the parser's
        # command and func, not config itself, not the removed tol
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        for key in ("bogus", "command", "func", "config", "tol"):
            cfg.write_text(json.dumps({"strategy": "c", "Omega0_over_omega": 0.3,
                                       "n_periods": 1, key: "x"}))
            assert main(["synth", "--config", str(cfg),
                         "--out", str(out)]) == EXIT_VALIDATION, key
            assert f"unknown config key {key!r}" in capsys.readouterr().err
            assert not out.exists()

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
