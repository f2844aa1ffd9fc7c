"""Print one `name sha256` line for each output of a fixed set of schedules.

A refactor that must keep every output byte-identical runs this against the
lrpulse it changes and against the one it started from, and diffs the two:

    PYTHONPATH=src python3 tests/output_hashes.py > after.txt
    PYTHONPATH=../parent/src python3 tests/output_hashes.py > before.txt
    diff before.txt after.txt

A change that moves outputs by design sizes what it moved: --npz PATH also
saves the arrays behind the array-valued lines, and --compare prints
`name max|delta| max|before|` for each such line that differs:

    PYTHONPATH=../parent/src python3 tests/output_hashes.py --npz before.npz
    PYTHONPATH=src python3 tests/output_hashes.py --npz after.npz
    PYTHONPATH=src python3 tests/output_hashes.py --compare before.npz after.npz

It hashes, for strategies a, b and c, the lambda schedule of
test_synthesis.lambda_trajectory and synthesize_general of a's and c's
trajectories: the PulseSchedule.sample tuple, each field called alone and the
Hamiltonian entries on 20,001 times (plus, for the general schedules, the
carrier zeros and times just beside them), the Hamiltonian entries at two
scalar times and on a (3, 8233) grid of more than three 8192-time sampling
groups, the propagate states, times and norms, and the run_verification
JSON; for b and b_neglect_imag, the Hamiltonian entries at each carrier zero
and patch end, and for b the run_verification JSON with its own schedule
file; analytic_evolution for a, c and lambda; the propagate states, times and norms of runs long enough that
propagate samples H in many groups of rows (strategy a at A = 0.2 and
omega*T = 179.04 pi, c at 20,000 and lambda at 100,000 steps per period, and
a schedule whose pump and Stokes differ at one late time only); and every file, stdout, stderr and exit code of the README command
block, run in-process in a temporary directory, and of each SESSIONS run,
run in-process in a temporary directory of its own with its config file, if
any, as cfg.json: config keys and flags together, defaults and the errors of
option resolution. It needs only the standard library, numpy and lrpulse,
and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

import lrpulse
from lrpulse import cli
from lrpulse.core import analytic_evolution, hamiltonian_entries, ket
from lrpulse.propagate import PropagationConfig, propagate
from lrpulse.synthesis import (carrier_singular_times, general_trajectory,
                               load_schedule_csv, strategy_a, strategy_b,
                               strategy_c, synthesize_general)
from lrpulse.verify import run_verification

README = Path(__file__).resolve().parent.parent / "README.md"


def lambda_trajectory():
    """The trajectory of test_synthesis.lambda_trajectory: nonconstant
    lambda on [0.3, 0.7]."""
    t0, t1 = 0.3, 0.7
    beta = lambda t: 0.9 + 0.2 * np.sin(np.pi * (np.asarray(t) - t0) / (t1 - t0))
    beta_dot = lambda t: 0.2 * np.pi / (t1 - t0) \
        * np.cos(np.pi * (np.asarray(t) - t0) / (t1 - t0))
    eps = lambda t: 0.5 * (np.asarray(t) - t0)
    eps_dot = lambda t: 0.5 + 0.0 * np.asarray(t)
    lam = lambda t: 0.15 * np.sin(2 * np.pi * (np.asarray(t) - t0))
    lam_dot = lambda t: 0.3 * np.pi * np.cos(2 * np.pi * (np.asarray(t) - t0))
    return general_trajectory(np.pi / 3, beta, beta_dot, eps, eps_dot,
                              lam, lam_dot, t0, t1)


def digest(*parts) -> str:
    """SHA-256 of each part: bytes and str as they are, anything else as the
    dtype, shape and bytes of its array."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        if not isinstance(part, bytes):
            a = np.ascontiguousarray(part)
            part = f"{a.dtype}{a.shape}".encode() + a.tobytes()
        h.update(part)
    return h.hexdigest()


def schedules():
    a = strategy_a(0.5, 30.0, 1.0)
    c = strategy_c(0.3, 1.0, 2)
    yield "a", a
    yield "b", strategy_b(0.5, 35.0, 1.0, 0.005)
    yield "b_neglect_imag", strategy_b(0.5, 35.0, 1.0, 0.005, neglect_imag=True)
    yield "c", c
    yield "lambda", synthesize_general(lambda_trajectory(), 2 * np.pi)
    yield "general_a", synthesize_general(a.trajectory, a.omega)
    yield "general_c", synthesize_general(c.trajectory, c.omega)


def sample_times(sch):
    t = np.linspace(sch.t_start, sch.t_end, 20001)
    if sch.strategy != "general":
        return t
    # the envelope takes its limit within 1e-8 of cos(omega*t) = 0
    zeros = carrier_singular_times(sch.omega, sch.t_start, sch.t_end)
    beside = np.concatenate([zeros + d / sch.omega for d in (1e-12, -3e-9, 1e-7)])
    return np.concatenate([t, zeros, beside])


def schedule_lines(name, sch):
    t = sample_times(sch)
    yield f"{name}.sample", sch.sample(t)
    for field in ("Omega_p", "Omega_s", "Delta_p", "Delta_s"):
        yield f"{name}.{field}", (getattr(sch, field)(t),)
        yield f"{name}.{field}.scalar", (getattr(sch, field)(float(t[7])),)
    yield f"{name}.hamiltonian_entries", hamiltonian_entries(sch, t)
    yield f"{name}.hamiltonian_entries.scalar", (
        *hamiltonian_entries(sch, float(t[7])), *hamiltonian_entries(sch, float(t[-1])))
    grid = np.linspace(sch.t_start, sch.t_end, 3 * 8192 + 123).reshape(3, -1)
    yield f"{name}.hamiltonian_entries.grid", hamiltonian_entries(sch, grid)
    report = propagate(sch, ket(1), PropagationConfig(record_states=True))
    yield f"{name}.propagate", (report.times, report.states, report.norms,
                                report.populations, str(report.steps))
    result = run_verification(sch)
    yield f"{name}.run_verification", (json.dumps(result, sort_keys=True),)


def patch_lines(name, sch):
    """A strategy-B schedule's Hamiltonian entries at each carrier zero tn of
    its window and at both patch ends tn -+ delta_t; for b, also
    run_verification with the schedule file that write_csv gives."""
    zeros = np.asarray(sch.params["singular_times"])
    delta_t = sch.params["delta_t_over_T"] * (sch.t_end - sch.t_start)
    t = np.concatenate([zeros, zeros - delta_t, zeros + delta_t])
    yield f"{name}.hamiltonian_entries.patches", hamiltonian_entries(sch, t)
    if name == "b":
        with tempfile.TemporaryDirectory() as tmp:
            sch.write_csv(Path(tmp, "b.csv"))
            csv = load_schedule_csv(Path(tmp, "b.csv"))[1]
        result = run_verification(sch, csv)
        yield f"{name}.run_verification.csv", (json.dumps(result, sort_keys=True),)


def late_disagreement_schedule():
    """The schedule of test_propagate.late_disagreement_schedule: strategy C
    over 6 periods, Stokes 1.5 times the pump at one late half-step of a run
    at 2000 steps per period, equal to it elsewhere."""
    sch = strategy_c(0.3396, 1.0, 6)
    dt = (sch.t_end - sch.t_start) / 12000
    t_apart = sch.t_start + 0.5 * dt * (20 * 700 + 17)

    def omega_s(t):
        omega_p = sch.Omega_p(t)
        return np.where(np.abs(t - t_apart) < 0.25 * dt, 1.5 * omega_p, omega_p)

    return dataclasses.replace(sch, Omega_s=omega_s)


def long_runs():
    """(name, schedule, steps per carrier period) of each long run."""
    yield "a_0.2", strategy_a(0.2, 179.04 * np.pi, 1.0), 2000
    yield "c", strategy_c(0.3, 1.0, 2), 20000
    yield "lambda", synthesize_general(lambda_trajectory(), 2 * np.pi), 100000
    yield "late_disagreement", late_disagreement_schedule(), 2000


def long_run_lines():
    for name, sch, spp in long_runs():
        report = propagate(sch, ket(1), PropagationConfig(
            steps_per_carrier_period=spp, record_states=True))
        yield f"long.{name}.propagate", (report.times, report.states,
                                         report.norms, str(report.steps))


def analytic_lines(name, sch):
    traj = sch.trajectory
    t = np.linspace(traj.t_start, traj.t_end, 3001)
    t0 = 0.5 * (traj.t_start + traj.t_end)
    for label, psi0 in (("1", ket(1)), ("mix", np.array([0.6, 0.8j, 0.0]))):
        yield (f"{name}.analytic_evolution.{label}",
               (analytic_evolution(traj, psi0, t),
                analytic_evolution(traj, psi0, t, t0),
                analytic_evolution(traj, psi0, float(t[11]))))


def readme_commands():
    """The README's command block, one argument list per command."""
    block = next(b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
                 if "lrpulse tables" in b)
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("lrpulse "):
            yield shlex.split(line)[1:]


# name: (config file content or None, argv), run with relative paths
SESSIONS = {
    "synth_config_flag_override": (
        {"strategy": "c", "Omega0_over_omega": 0.3, "n_periods": 4},
        ["synth", "--config", "cfg.json", "--n-periods", "2",
         "--out", "s.csv", "--summary", "s.json"]),
    "simulate_config_steps": (
        {"strategy": "c", "Omega0_over_omega": 0.3, "n_periods": 1,
         "steps_per_period": 300},
        ["simulate", "--config", "cfg.json", "--out", "p.csv",
         "--summary", "p.json"]),
    "verify_steps_flag": (
        None, ["verify", "--strategy", "c", "--n-periods", "1",
               "--steps-per-period", "300", "--out", "v.json"]),
    "calibrate_c_config": (
        {"target_delta_epsilon": 0.5, "out": "c.json"},
        ["calibrate-c", "--config", "cfg.json"]),
    "inapplicable_flag": (
        {"strategy": "c"}, ["synth", "--config", "cfg.json", "--A", "0.5",
                            "--out", "s.csv"]),
    "missing_strategy": (None, ["synth", "--out", "s.csv"]),
    "config_not_object": ([1, 2], ["synth", "--config", "cfg.json",
                                   "--out", "s.csv"]),
    "required_flag_as_key": (
        {"strategy": "c", "out": "x.csv"},
        ["synth", "--config", "cfg.json", "--out", "s.csv"]),
}


def cli_lines(label, argv, tmp):
    """Exit code, stdout and stderr of cli.main(argv), run in tmp, and every
    file in tmp afterwards."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    yield f"{label}.exit", (str(code),)
    yield f"{label}.stdout", (out.getvalue(),)
    yield f"{label}.stderr", (err.getvalue(),)
    for path in sorted(Path(tmp).iterdir()):
        yield f"{label}.file.{path.name}", (path.read_bytes(),)


@contextlib.contextmanager
def scratch_dir():
    """A new temporary directory, the working directory while in use."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield tmp
        finally:
            os.chdir(cwd)


def readme_lines():
    with scratch_dir() as tmp:
        for n, argv in enumerate(readme_commands()):
            yield from cli_lines(f"readme.{n}", argv, tmp)


def session_lines():
    for name, (config, argv) in SESSIONS.items():
        with scratch_dir() as tmp:
            if config is not None:
                Path(tmp, "cfg.json").write_text(json.dumps(config))
            yield from cli_lines(f"session.{name}", argv, tmp)


def output_lines():
    """(label, parts) of every output, in the order the lines are printed."""
    for name, sch in schedules():
        yield from schedule_lines(name, sch)
        if name in ("a", "c", "lambda"):
            yield from analytic_lines(name, sch)
        if sch.strategy == "b":
            yield from patch_lines(name, sch)
    yield from long_run_lines()
    yield from readme_lines()
    yield from session_lines()


def compare(before: str, after: str) -> None:
    """Print `name max|delta| max|before|` for each array-valued line whose
    arrays differ between two --npz files, over all of the line's arrays
    (max|delta| is inf where shapes differ); a line in one file only is
    listed as such."""
    moved = {}
    with np.load(before) as b, np.load(after) as a:
        for key in sorted(set(b.files) | set(a.files)):
            name = key.rsplit("/", 1)[0]
            if key not in a.files or key not in b.files:
                moved[name] = None
            elif moved.get(name, ()) is not None and not np.array_equal(
                    b[key], a[key], equal_nan=True):
                x, y = b[key], a[key]
                diff = np.max(np.abs(y - x), initial=0.0) if x.shape == y.shape \
                    else np.inf
                d0, s0 = moved.get(name, (0.0, 0.0))
                moved[name] = (max(d0, diff), max(s0, np.max(np.abs(x), initial=0.0)))
    for name, value in moved.items():
        print(name, "in one file only" if value is None
              else f"{value[0]:.3g} {value[1]:.3g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--npz", metavar="PATH",
                    help="also save the arrays behind the array-valued lines")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two --npz files instead of hashing")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    print(f"lrpulse from {Path(lrpulse.__file__).parent}", file=sys.stderr)
    arrays = {}
    for label, parts in output_lines():
        print(label, digest(*parts))
        if args.npz:
            arrays.update((f"{label}/{i}", np.asarray(part))
                          for i, part in enumerate(parts)
                          if not isinstance(part, (str, bytes)))
    if args.npz:
        np.savez(args.npz, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
