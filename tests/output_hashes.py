"""Print one `name sha256` line for each output of a fixed set of schedules.

A refactor that must keep every output byte-identical runs this against the
lrpulse it changes and against the one it started from, and diffs the two:

    PYTHONPATH=src python3 tests/output_hashes.py > after.txt
    PYTHONPATH=../parent/src python3 tests/output_hashes.py > before.txt
    diff before.txt after.txt

It hashes, for strategies a, b and c, the lambda schedule of
test_synthesis.lambda_trajectory and synthesize_general of a's and c's
trajectories: the PulseSchedule.sample tuple, each field called alone and the
Hamiltonian entries on 20,001 times (plus, for the general schedules, the
carrier zeros and times just beside them), the propagate states, times and
norms, and the run_verification JSON; analytic_evolution for a, c and
lambda; and every file, stdout, stderr and exit code of the README command
block, run in-process in a temporary directory, and of each SESSIONS run,
run in-process in a temporary directory of its own with its config file, if
any, as cfg.json: config keys and flags together, defaults and the errors of
option resolution. It needs only the standard library, numpy and lrpulse,
and pytest does not collect it.
"""

from __future__ import annotations

import contextlib
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
                               strategy_a, strategy_b, strategy_c,
                               synthesize_general)
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
    yield f"{name}.sample", digest(*sch.sample(t))
    for field in ("Omega_p", "Omega_s", "Delta_p", "Delta_s"):
        yield f"{name}.{field}", digest(getattr(sch, field)(t))
        yield f"{name}.{field}.scalar", digest(getattr(sch, field)(float(t[7])))
    yield f"{name}.hamiltonian_entries", digest(*hamiltonian_entries(sch, t))
    report = propagate(sch, ket(1), PropagationConfig(record_states=True))
    yield f"{name}.propagate", digest(report.times, report.states, report.norms,
                                      report.populations, str(report.steps))
    result = run_verification(sch)
    yield f"{name}.run_verification", digest(json.dumps(result, sort_keys=True))


def analytic_lines(name, sch):
    traj = sch.trajectory
    t = np.linspace(traj.t_start, traj.t_end, 3001)
    t0 = 0.5 * (traj.t_start + traj.t_end)
    for label, psi0 in (("1", ket(1)), ("mix", np.array([0.6, 0.8j, 0.0]))):
        yield (f"{name}.analytic_evolution.{label}",
               digest(analytic_evolution(traj, psi0, t),
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
    yield f"{label}.exit", digest(str(code))
    yield f"{label}.stdout", digest(out.getvalue())
    yield f"{label}.stderr", digest(err.getvalue())
    for path in sorted(Path(tmp).iterdir()):
        yield f"{label}.file.{path.name}", digest(path.read_bytes())


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


def main() -> int:
    print(f"lrpulse from {Path(lrpulse.__file__).parent}", file=sys.stderr)
    for name, sch in schedules():
        lines = list(schedule_lines(name, sch))
        if name in ("a", "c", "lambda"):
            lines += analytic_lines(name, sch)
        for label, value in lines:
            print(label, value)
    for label, value in [*readme_lines(), *session_lines()]:
        print(label, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
