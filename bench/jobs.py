"""Workload definitions: the jobs each workload runs and the gate each job's
output must pass.

Seed 0 uses the paper's exact points. Any other seed moves each input by up
to 1% and shuffles the job order of every pass, so job sizes stay about the
same. Gates use the tolerances of the package's tier-1 tests. The paper-value
gates (Table I/II within 0.01 pi, kappa = 0.3396 +- 0.0005, strategy-B P3
within 0.02 of the paper, strategy-A P3 >= 0.999) apply only at seed 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("transfer", "tables", "cli_verify")

# tier-1 tolerances
ANALYTIC_TOL = 1e-4        # closed form vs RK4, componentwise after alignment
NORM_DRIFT_TOL = 1e-9
RESIDUAL_TOL = 1e-6        # |eps(root) - target|: the solvers' default tol
TABLE_TOL = 0.01           # omega*T/pi against Tables I and II
KAPPA_PAPER, KAPPA_TOL = 0.3396, 0.0005
B_P3_TOL = 0.02
A_P3_MIN = 0.999
ENDPOINT_TOL = 1e-8        # strategy-A envelope at both ends

TABLE_I = {0.2: 179.04, 0.3: 80.28, 0.4: 45.72, 0.5: 29.73, 0.6: 21.05, 0.7: 15.83}
TABLE_II = {0.4: 17.33, 0.5: 11.34, 0.6: 8.09, 0.7: 6.13}
# omega*T/pi of the strategy-A transfer figures; Table I where none is quoted
A_OMEGA_T = {0.2: 179.04, 0.3: 80.28, 0.4: 45.7220, 0.5: 29.7323}
B_P3 = {(0.005, False): 0.9618, (0.005, True): 0.9680,
        (0.01, False): 0.8516, (0.01, True): 0.8675}
C_TARGETS = {"pi/6": np.pi / 6, "pi/8": np.pi / 8, "pi/12": np.pi / 12}
C_PERIODS = 6
STEPS_PER_PERIOD = 2000
CLI_JOB_TIMEOUT_S = 120.0


def load_package():
    """Import lrpulse from this checkout's ``src``; exit 2 if it is absent."""
    if not (SRC / "lrpulse" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'lrpulse'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lrpulse
    if Path(lrpulse.__file__).resolve().parent != SRC / "lrpulse":
        print(f"error: lrpulse imported from {lrpulse.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    import lrpulse.cli  # noqa: F401  (every module the workloads touch)
    return lrpulse


def _modules(*names):
    """Package modules by name. Calls go through module attributes so that a
    tracer rebinding them sees the benchmark's calls too. (The package's
    ``lrpulse.propagate`` attribute is the function, not the module.)"""
    return tuple(importlib.import_module(f"lrpulse.{n}") for n in names)


def child_env() -> dict:
    """Environment for child interpreters: package from ``src``, and no
    bytecode written into the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@dataclass
class Gate:
    ok: bool
    why: str = ""
    values: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    run: Callable[[], object]              # the timed call
    check: Callable[[object], Gate]        # untimed: the job's gate
    outputs: tuple = ()                    # files removed before each run


class Jitter:
    """Input factors for one seed: exactly 1 at seed 0, else 1 +- 1%."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def __call__(self, x: float) -> float:
        if self.seed == 0:
            return x
        return x * (1.0 + 0.01 * self.rng.uniform(-1.0, 1.0))


def _gate(checks: list[tuple[bool, str]], values: dict) -> Gate:
    failed = [msg for ok, msg in checks if not ok]
    return Gate(not failed, "; ".join(failed), values)


def _aligned_error(ref: np.ndarray, state: np.ndarray) -> float:
    """Max componentwise |ref - state| after removing the global phase."""
    i = int(np.argmax(np.abs(state)))
    ref = ref * np.exp(1j * (np.angle(state[i]) - np.angle(ref[i])))
    return float(np.max(np.abs(ref - state)))


def closed_form_error(schedule, psi0, state) -> float:
    """Deviation of an RK4 state at the schedule's end from the closed form."""
    (core,) = _modules("core")
    ana = core.analytic_evolution(schedule.trajectory, psi0, schedule.t_end)
    return _aligned_error(ana, np.asarray(state))


def _simpson(f, a: float, b: float, n: int) -> float:
    xs = np.linspace(a, b, n + 1)
    ys = f(xs)
    return (b - a) / (3 * n) * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum()
                                + 2 * ys[2:-1:2].sum())


def eps_total(shape, u: float) -> float:
    """Independent epsilon(T) = u * int_0^1 sin^2(beta(s)) ds on 2^13 panels.

    The integrand and its low derivatives vanish at both ends, so Simpson's
    rule is already at round-off (1e-15) from 2^11 panels for every table
    entry, the fastest oscillating (A = 0.2) included."""
    return u * _simpson(lambda s: np.sin(shape(s, u)) ** 2, 0.0, 1.0, 2 ** 13)


def window_a(A):
    return lambda s, u: 0.5 * A * (1 - np.cos(2 * np.pi * s)) * np.cos(u * s) ** 2


def window_b(B):
    return lambda s, u: 0.5 * B * (1 - np.cos(2 * np.pi * s))


def delta_eps_c(kappa: float) -> float:
    """Independent per-period epsilon increment of strategy C."""
    f = lambda x: np.sin(-0.5 * np.arcsin(2 * np.sqrt(2) * kappa
                                          * np.cos(x) ** 4)) ** 2
    return _simpson(f, 0.5 * np.pi, 2.5 * np.pi, 2 ** 12)  # round-off from 2^9


# ---------------------------------------------------------------------------
# transfer: synthesis plus RK4 propagation with omega*T or kappa supplied
# ---------------------------------------------------------------------------

def transfer_jobs(seed: int) -> list[list[Job]]:
    core, P, S = _modules("core", "propagate", "synthesis")
    jit = Jitter(seed)
    paper = seed == 0
    psi0 = core.ket(1)
    cfg = P.PropagationConfig(steps_per_carrier_period=STEPS_PER_PERIOD,
                              record_states=True)

    def check(kind, expect_p3=None):
        def gate(out) -> Gate:
            sch, rep = out
            vals = {"p3": rep.final_p3, "norm_drift": rep.norm_drift,
                    "steps": rep.steps}
            checks = [(rep.norm_drift <= NORM_DRIFT_TOL,
                       f"norm drift {rep.norm_drift:.2e} > {NORM_DRIFT_TOL}")]
            if kind != "b":
                err = closed_form_error(sch, psi0, rep.states[-1])
                vals["final_err"] = err
                checks.append((err <= ANALYTIC_TOL,
                               f"closed-form deviation {err:.2e} > {ANALYTIC_TOL}"))
            if paper and kind == "a":
                checks.append((rep.final_p3 >= A_P3_MIN,
                               f"P3 {rep.final_p3:.6f} < {A_P3_MIN}"))
            if paper and expect_p3 is not None:
                checks.append((abs(rep.final_p3 - expect_p3) <= B_P3_TOL,
                               f"P3 {rep.final_p3:.4f} vs paper {expect_p3}"))
            return _gate(checks, vals)
        return gate

    units = []
    for A, wt in A_OMEGA_T.items():
        a, omega = jit(A), jit(wt) * np.pi
        units.append([Job(f"a A={A}",
                          lambda a=a, omega=omega: _propagated(
                              S.strategy_a(a, omega, 1.0), psi0, cfg),
                          check("a"))])
    wt_b = jit(TABLE_II[0.5]) * np.pi
    b = jit(0.5)
    for (dt, no_imag), p3 in B_P3.items():
        d = jit(dt)
        tag = "real" if no_imag else "complex"
        units.append([Job(f"b B=0.5 dt={dt}T {tag}",
                          lambda d=d, no_imag=no_imag: _propagated(
                              S.strategy_b(b, wt_b, 1.0, d, neglect_imag=no_imag),
                              psi0, cfg),
                          check("b", p3))])
    kappa = jit(KAPPA_PAPER)
    units.append([Job(f"c kappa={KAPPA_PAPER} {C_PERIODS} periods",
                      lambda: _propagated(S.strategy_c(kappa, 1.0, C_PERIODS),
                                          psi0, cfg),
                      check("c"))])
    return units


def _propagated(schedule, psi0, cfg):
    (P,) = _modules("propagate")
    return schedule, P.propagate(schedule, psi0, cfg)


# ---------------------------------------------------------------------------
# tables: one calibration root solve per job
# ---------------------------------------------------------------------------

def tables_jobs(seed: int) -> list[list[Job]]:
    (S,) = _modules("synthesis")
    jit = Jitter(seed)
    paper = seed == 0

    def check_omega_T(param, window, expected):
        def gate(cal) -> Gate:
            u = cal.value
            resid = abs(eps_total(window(param), u) - np.pi)
            vals = {"omega_T_over_pi": u / np.pi, "residual": resid,
                    "iterations": cal.iterations}
            checks = [(resid <= RESIDUAL_TOL,
                       f"|eps(T) - pi| = {resid:.2e} > {RESIDUAL_TOL}")]
            if paper:
                checks.append((abs(u / np.pi - expected) <= TABLE_TOL,
                               f"omega*T = {u / np.pi:.4f} pi vs paper "
                               f"{expected} pi"))
            return _gate(checks, vals)
        return gate

    def check_kappa(target, expected):
        def gate(cal) -> Gate:
            k = cal.value
            resid = abs(delta_eps_c(k) - target)
            vals = {"kappa": k, "residual": resid, "iterations": cal.iterations}
            checks = [(resid <= RESIDUAL_TOL,
                       f"|d_eps - target| = {resid:.2e} > {RESIDUAL_TOL}")]
            if paper and expected is not None:
                checks.append((abs(k - expected) <= KAPPA_TOL,
                               f"kappa {k:.5f} vs paper {expected}"))
            return _gate(checks, vals)
        return gate

    units = []
    for A, expected in TABLE_I.items():
        a = jit(A)
        units.append([Job(f"table I A={A}",
                          lambda a=a: S.solve_omega_T_for_A(a),
                          check_omega_T(a, window_a, expected))])
    for B, expected in TABLE_II.items():
        b = jit(B)
        units.append([Job(f"table II B={B}",
                          lambda b=b: S.solve_omega_T_for_B(b),
                          check_omega_T(b, window_b, expected))])
    for label, target in C_TARGETS.items():
        t = jit(target)
        units.append([Job(f"kappa target={label}",
                          lambda t=t: S.calibrate_strategy_c(t),
                          check_kappa(t, KAPPA_PAPER if label == "pi/6" else None))])
    return units


# ---------------------------------------------------------------------------
# cli_verify: one `python -m lrpulse.cli` process per job
# ---------------------------------------------------------------------------

def _run_cli(argv: list[str]) -> int:
    """Run `python -m lrpulse.cli <argv>` to its end and return its exit code.

    The wait is a blocking waitpid. subprocess.run(timeout=...) would poll the
    child with sleeps of up to 50 ms and so round each wall time up to that
    grid; here a watchdog thread kills a child that outlives the timeout."""
    proc = subprocess.Popen([sys.executable, "-m", "lrpulse.cli", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=child_env(),
                            cwd=str(OUT))
    watchdog = threading.Timer(CLI_JOB_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        return proc.wait()
    finally:
        watchdog.cancel()


def _run_in_process(argv: list[str]) -> int:
    (cli,) = _modules("cli")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> tuple[dict, np.ndarray]:
    """JSON header line plus the numeric rows of a CSV the CLI wrote."""
    with open(path) as fh:
        first = fh.readline()
        header = json.loads(first[2:]) if first.startswith("# ") else {}
        rows = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def cli_jobs(seed: int, workdir: Path, in_process: bool) -> list[list[Job]]:
    """The fixed shell session; `synth a` and the `verify a` that reads its
    CSV form one unit, so shuffling keeps them in order."""
    jit = Jitter(seed)
    paper = seed == 0
    A, wt_a = jit(0.5), jit(A_OMEGA_T[0.5])
    B, wt_b, dt_b = jit(0.5), jit(TABLE_II[0.5]), jit(0.01)
    kappa, target = jit(KAPPA_PAPER), jit(np.pi / 6)
    f = {name: workdir / name for name in (
        "a.csv", "a.json", "va.json", "vb.json", "vc.json", "trace.csv",
        "sc.json", "cal.json")}
    runner = _run_in_process if in_process else _run_cli
    digests: dict[str, str] = {}

    def same_bytes(name: str) -> tuple[bool, str]:
        digest = hashlib.sha256(f[name].read_bytes()).hexdigest()
        first = digests.setdefault(name, digest)
        return first == digest, f"{name} differs from the first session's"

    def gated(body):
        def gate(code: int) -> Gate:
            if code != 0:
                return Gate(False, f"exit code {code}")
            try:
                checks, vals = body()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return Gate(False, f"unreadable output: {exc!r}")
            return _gate(checks, vals)
        return gate

    def check_synth():
        header, rows = _read_csv(f["a.csv"])
        env = _read_json(f["a.json"])["envelope"]
        end = max(env["endpoint_abs_omega_p"])
        return [(header.get("params", {}).get("A") == A, "CSV header lost A"),
                (rows.shape[0] > 2 and rows.shape[1] == 6, "CSV rows missing"),
                (env["max_abs_omega_p"] > 0.0, "zero envelope"),
                (end < ENDPOINT_TOL, f"endpoint envelope {end:.2e}"),
                same_bytes("a.csv")], {"rows": rows.shape[0]}

    def check_verify(name, analytic, with_file=False):
        def body():
            rep = _read_json(f[name])
            checks = [(rep["passed"] is True, f"verify failed: {rep['checks']}")]
            vals = {}
            if analytic:
                dev = rep["checks"]["analytic_agreement"]["max_deviation"]
                vals["analytic_deviation"] = dev
                checks.append((dev <= ANALYTIC_TOL, f"analytic deviation {dev:.2e}"))
            if with_file:
                checks.append(("file_invariance" in rep["checks"],
                               "schedule file was not checked"))
            return checks, vals
        return body

    def check_simulate():
        summ = _read_json(f["sc.json"])
        _, rows = _read_csv(f["trace.csv"])
        drift, dev = summ["norm_drift"], summ["analytic_deviation"]
        return [(drift <= NORM_DRIFT_TOL, f"norm drift {drift:.2e}"),
                (dev is not None and dev <= ANALYTIC_TOL,
                 f"analytic deviation {dev}"),
                (rows.shape[0] > 2, "trace CSV rows missing"),
                same_bytes("trace.csv")], \
            {"norm_drift": drift, "analytic_deviation": dev,
             "p3": summ["final_populations"][2]}

    def check_calibrate():
        out = _read_json(f["cal.json"])
        k = out["Omega0_over_omega"]
        resid = abs(delta_eps_c(k) - target)
        checks = [(resid <= RESIDUAL_TOL, f"|d_eps - target| = {resid:.2e}")]
        if paper:
            checks.append((abs(k - KAPPA_PAPER) <= KAPPA_TOL,
                           f"kappa {k:.5f} vs paper {KAPPA_PAPER}"))
        return checks, {"kappa": k, "residual": resid}

    def job(name, argv, body, outputs):
        argv = [str(x) for x in argv]
        return Job(name, lambda: runner(argv), gated(body),
                   tuple(f[o] for o in outputs))

    a_args = ["--strategy", "a", "--A", repr(A), "--omega-T-over-pi", repr(wt_a)]
    c_args = ["--strategy", "c", "--Omega0-over-omega", repr(kappa),
              "--n-periods", C_PERIODS]
    return [
        [job("synth a", ["synth", *a_args, "--out", f["a.csv"],
                         "--summary", f["a.json"]],
             check_synth, ("a.csv", "a.json")),
         job("verify a --schedule", ["verify", *a_args, "--schedule", f["a.csv"],
                                     "--out", f["va.json"]],
             check_verify("va.json", analytic=True, with_file=True), ("va.json",))],
        [job("verify b", ["verify", "--strategy", "b", "--B", repr(B),
                          "--omega-T-over-pi", repr(wt_b),
                          "--delta-t-over-T", repr(dt_b), "--out", f["vb.json"]],
             check_verify("vb.json", analytic=False), ("vb.json",))],
        [job("verify c", ["verify", *c_args, "--out", f["vc.json"]],
             check_verify("vc.json", analytic=True), ("vc.json",))],
        [job("simulate c", ["simulate", *c_args, "--out", f["trace.csv"],
                            "--summary", f["sc.json"]],
             check_simulate, ("trace.csv", "sc.json"))],
        [job("calibrate-c", ["calibrate-c", "--target-delta-epsilon", repr(target),
                             "--out", f["cal.json"]],
             check_calibrate, ("cal.json",))],
    ]


def build(workload: str, seed: int, workdir: Path | None = None,
          in_process: bool = False) -> list[list[Job]]:
    if workload == "transfer":
        return transfer_jobs(seed)
    if workload == "tables":
        return tables_jobs(seed)
    if workload == "cli_verify":
        return cli_jobs(seed, workdir, in_process)
    raise ValueError(f"unknown workload {workload!r}")


# The job run once, untimed, before timing starts (lazy imports, caches).
WARMUP = {"transfer": "c kappa=0.3396 6 periods", "tables": "kappa target=pi/12"}


def prepare(workload: str, seed: int) -> list[list[Job]]:
    """Everything an in-process workload does before its first timed job:
    import the package, build the jobs and run the warm-up job once."""
    load_package()
    units = build(workload, seed)
    warm = next(j for unit in units for j in unit if j.name == WARMUP[workload])
    gate = warm.check(warm.run())
    if not gate.ok:
        raise RuntimeError(f"warm-up job {warm.name} failed: {gate.why}")
    return units


def cli_help_seconds() -> float:
    """Wall time of a bare `python -m lrpulse.cli --help`."""
    start = time.perf_counter()
    code = _run_cli(["--help"])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"lrpulse.cli --help exited {code}")
    return elapsed
