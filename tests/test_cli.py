"""End-to-end tests of the command-line interface."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lrpulse import cli, solve_omega_T_for_A
from lrpulse.cli import (EXIT_IO, EXIT_NONCONVERGENCE, EXIT_OK,
                         EXIT_VALIDATION, TABLE_I_PARAMS, main, make_parser)
from lrpulse.errors import (ConvergenceError, DomainError, PropagationError,
                            SingularityError, SynthesisError)


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    return [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]


class TestTables:
    def test_table_i_values(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["tables", "--which", "I", "--out", str(out)]) == EXIT_OK
        header, *lines = out.read_text().splitlines()
        assert header == "a,omegaT_over_pi"
        paper = (179.04, 80.28, 45.72, 29.73, 21.05, 15.83)
        assert len(lines) == len(TABLE_I_PARAMS) == len(paper)
        for line, A, u in zip(lines, TABLE_I_PARAMS, paper):
            a_text, u_text = line.split(",")
            assert float(a_text) == A
            assert float(u_text) == pytest.approx(u, abs=0.01)
            assert u_text == f"{solve_omega_T_for_A(A).value / np.pi:.12g}"

    def test_table_ii_values(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert main(["tables", "--which", "II", "--out", str(out)]) == EXIT_OK
        rows = dict(read_rows(out))
        expected = {0.4: 17.33, 0.5: 11.34, 0.6: 8.09, 0.7: 6.13}
        for b, u in expected.items():
            assert rows[b] == pytest.approx(u, abs=0.01)

    def test_unwritable_path(self, tmp_path, capsys):
        out = tmp_path / "nope" / "t2.csv"
        assert main(["tables", "--which", "II", "--out", str(out)]) == EXIT_IO
        # the error names the path given, not the temporary file
        assert capsys.readouterr().err \
            == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_out_is_a_directory(self, tmp_path, capsys):
        # the rename onto a directory fails after the temporary file is
        # written: each run removes it and prints the same error
        out = tmp_path / "t2.csv"
        out.mkdir()
        errs = []
        for _ in range(2):
            assert main(["tables", "--which", "II", "--out", str(out)]) == EXIT_IO
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert list(tmp_path.glob("*.tmp")) == []


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


class TestOutputMode:
    # outputs are written to a temporary file and renamed onto the path; each
    # gets the mode open(path, "w") would give it, not the temporary's 0600
    @pytest.fixture
    def umask(self):
        previous = os.umask(0o022)
        yield 0o022
        os.umask(previous)

    def test_new_files_follow_the_umask(self, tmp_path, umask):
        table, sched, summ = (tmp_path / n for n in ("t2.csv", "z.csv", "z.json"))
        assert main(["tables", "--which", "II", "--out", str(table)]) == EXIT_OK
        assert main(["synth", "--strategy", "c", "--Omega0-over-omega", "0",
                     "--out", str(sched), "--summary", str(summ)]) == EXIT_OK
        for path in (table, sched, summ):
            assert os.stat(path).st_mode & 0o7777 == 0o666 & ~umask

    def test_overwritten_file_keeps_its_mode(self, tmp_path, umask):
        out = tmp_path / "t2.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        assert main(["tables", "--which", "II", "--out", str(out)]) == EXIT_OK
        assert os.stat(out).st_mode & 0o7777 == 0o640
        assert out.read_text().startswith("b,omegaT_over_pi\n")


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

    @pytest.mark.parametrize("argv", [["tables", "--out", "x.csv"],
                                      ["synth", "--strategy", "a", "--A", "0.5"]])
    def test_required_flag_hint_printed_once(self, tmp_path, capsys,
                                             monkeypatch, argv):
        # argparse hands a subparser's message to each enclosing parser's error
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: the following arguments are required: --")
        assert err.count("a config key cannot stand in for a required flag") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_missing_strategy_named(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            "error: missing required option --strategy\n"
        assert not out.exists()

    def test_no_tol_flag(self, tmp_path, capsys):
        # the calibrations solve to fixed tolerances; --tol is not an option
        out = tmp_path / "t.csv"
        assert main(["tables", "--which", "II", "--out", str(out),
                     "--tol", "1e-6"]) == EXIT_VALIDATION
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert not out.exists()


def readme_blocks(language):
    """The code blocks of README fenced as the given language, in order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return re.findall(rf"```{language}\n(.*?)```", readme, re.S)


def readme_commands():
    """The `lrpulse ...` lines of README's sh blocks, continuations joined."""
    commands = []
    for block in readme_blocks("sh"):
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


def test_readme_python_blocks_run():
    # the Library snippets run in order in one namespace, as a reader would
    blocks = readme_blocks("python")
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


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

    @pytest.mark.parametrize("omega", ["0", "-1"])
    def test_non_positive_omega_rejected(self, tmp_path, capsys, omega):
        out = tmp_path / "x.csv"
        assert main(["synth", "--strategy", "c", f"--omega={omega}",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "omega must be positive" in capsys.readouterr().err
        assert not out.exists()


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
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_steps_per_period_checked_for_patched_schedule(self, capsys,
                                                           command):
        # verify skips RK4 on a strategy-b schedule, but builds the same
        # PropagationConfig as simulate, so it rejects the same step counts
        assert main([command, "--strategy", "b", "--B", "0.5",
                     "--omega-T-over-pi", "11.3369",
                     "--steps-per-period", "50"]) == EXIT_VALIDATION
        assert capsys.readouterr().err \
            == "error: steps_per_carrier_period must be at least 100\n"

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

    def test_run_ending_past_t_end_verifies(self):
        # propagate's last record lands an ulp past t_end = 29742
        assert main(["verify", "--strategy", "a", "--A", "0.5",
                     "--T", "29742"]) == EXIT_OK

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

    def test_schedule_file_not_utf8(self, tmp_path, capsys, a_file):
        lines = [ln.encode() for ln in a_file]
        lines[4] = b"\xff" + lines[4]   # the third data row
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        assert verify_a(bad) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

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

    @pytest.mark.parametrize("header,message", [
        ("# {bad", "malformed JSON header line"),
        ("# [1, 2]", "JSON header line is not an object")],
        ids=["malformed", "not_object"])
    def test_bad_header_names_file(self, tmp_path, capsys, a_file, header,
                                   message):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header] + a_file[1:]) + "\n")
        assert verify_a(bad) == EXIT_VALIDATION
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    def test_patches_cover_every_sample(self, capsys):
        # from delta_t/T = 0.043 up to its limit, every phase-check sample
        # lies inside a patch window
        assert main(["verify", "--strategy", "b", "--B", "0.5",
                     "--delta-t-over-T", "0.043"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: no sample time lies outside the patch "
                              "windows")
        assert "delta_t" in err and "zero-size" not in err

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


class TestErrorExitCodes:
    @pytest.mark.parametrize("error,code", [
        (ConvergenceError, EXIT_NONCONVERGENCE), (SynthesisError, EXIT_NONCONVERGENCE),
        (SingularityError, EXIT_NONCONVERGENCE), (PropagationError, EXIT_NONCONVERGENCE),
        (DomainError, EXIT_VALIDATION)])
    def test_error_from_build_schedule(self, tmp_path, capsys, monkeypatch,
                                       error, code):
        def build_schedule(args):
            raise error("no schedule")
        monkeypatch.setattr(cli, "build_schedule", build_schedule)
        out = tmp_path / "o.csv"
        assert main(["synth", "--strategy", "c", "--out", str(out)]) == code
        assert capsys.readouterr().err == "error: no schedule\n"
        assert not out.exists()


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

    def test_carrier_overflowing_to_inf(self, tmp_path, capsys):
        # omega = omega*T / T overflows; the error line, not a traceback
        out = tmp_path / "o.csv"
        assert main(["synth", "--strategy", "a", "--A", "0.5",
                     "--omega-T-over-pi", "30", "--T", "1e-320",
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert not out.exists()

    def test_n_periods_beyond_the_float_range(self, tmp_path):
        # the window end n_periods * 2*pi/omega has no float: the one error
        # line of the installed command, not an OverflowError traceback
        out = tmp_path / "o.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "lrpulse.cli", "synth", "--strategy", "c",
             "--Omega0-over-omega", "0.1", "--n-periods", "1" + "0" * 400,
             "--out", str(out)], env=env, capture_output=True, text=True)
        assert run.returncode == EXIT_VALIDATION and run.stdout == ""
        assert run.stderr.splitlines() == [
            "error: n_periods is too large for omega: the window end is not "
            "a finite float"]
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

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1, 2]))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_VALIDATION
        assert capsys.readouterr().err \
            == f"error: {cfg}: config must be a JSON object\n"

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(cfg.parent / "o.csv")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {cfg}: Expecting ")
        # a file that is not UTF-8 is named too
        cfg.write_bytes(b'\xff{"A": 1}')
        assert main(["synth", "--config", str(cfg),
                     "--out", str(cfg.parent / "o.csv")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: 'utf-8' codec can't decode byte 0xff")

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

    @pytest.mark.parametrize("command,key,value,flag_given", [
        ("synth", "out", "from_config.csv", True), ("tables", "which", "I", True),
        ("tables", "out", "from_config.csv", True),
        ("synth", "out", "from_config.csv", False)],
        ids=["synth-out-from_config.csv", "tables-which-I",
             "tables-out-from_config.csv", "flag_omitted"])
    def test_required_flag_is_not_a_config_key(self, tmp_path, capsys,
                                               monkeypatch, command, key,
                                               value, flag_given):
        # the flag is required on the command line, so a config value could
        # never take effect; without the flag, the usage error says so
        monkeypatch.chdir(tmp_path)
        base = ({"strategy": "c", "Omega0_over_omega": 0.3, "n_periods": 1}
                if command == "synth" else {})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, key: value}))
        out = tmp_path / "o.csv"
        argv = [command, "--config", str(cfg)]
        if flag_given:
            argv += ["--out", str(out)]
        if command == "tables":
            argv += ["--which", "II"]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        if flag_given:
            assert f"config key {key!r} is a required flag" in err
            assert "command line" in err
        else:
            assert "required: --out" in err
            assert "a config key cannot stand in for a required flag" in err
        assert not out.exists() and not (tmp_path / value).exists()

    def test_unknown_strategy_names_the_file(self, tmp_path, capsys):
        # like --strategy d, which argparse rejects, but naming the config file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "d"}))
        out = tmp_path / "x.csv"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key 'strategy': invalid choice 'd' "
            "(choose from a, b, c)\n")
        assert not out.exists()

    def test_untyped_value_is_read_as_a_string(self, tmp_path, monkeypatch):
        # like the flag --summary 5, the config value 5 names the file "5"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"strategy": "c", "Omega0_over_omega": 0.3, "n_periods": 1,
             "summary": 5}))
        assert main(["simulate", "--config", "cfg.json"]) == EXIT_OK
        assert json.loads((tmp_path / "5").read_text())["steps"] > 0
