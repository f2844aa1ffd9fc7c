"""Fast self-test of the benchmark harness (about 20 s on 2 vCPUs).

    python3 bench/selftest.py

For each workload it checks that
  * two traced passes with the same seed give identical work counts
    (integrator steps, envelope points, quadrature calls, root iterations,
    core calls) and pass every gate;
  * a wrong output fed in from the package makes jobs fail their gates.
Exits 0 when every check holds, 1 otherwise.
"""

import dataclasses
import importlib
import shutil
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode in the checkout

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 3
COUNTS = ["propagate.steps", "synthesis.envelope_points",
          "numerics.integrate_calls", "numerics.find_root_iters",
          "core.hamiltonian_calls", "core.invariant_calls",
          "core.analytic_calls"]


def one_pass(units, tracer=None) -> run.Record:
    rec = run.Record()
    rng = np.random.default_rng(SEED)
    if tracer is None:
        run.run_passes(units, 0.0, rng, rec)
    else:
        with tracer.installed():
            run.run_passes(units, 0.0, rng, rec, tracer)
    return rec


def wrong_output(workload: str) -> dict:
    """A package function replaced by one whose output is wrong."""
    S = importlib.import_module("lrpulse.synthesis")
    P = importlib.import_module("lrpulse.propagate")
    if workload == "transfer":
        fn = P.propagate

        def swapped(*args, **kwargs):
            rep = fn(*args, **kwargs)
            return dataclasses.replace(rep, states=rep.states[:, ::-1])
        return {fn: swapped}
    fn = S.solve_omega_T_for_A if workload == "tables" else S.calibrate_strategy_c

    def shifted(*args, **kwargs):
        cal = fn(*args, **kwargs)
        return dataclasses.replace(cal, value=cal.value * 1.001)
    return {fn: shifted}


def main() -> int:
    jobs.load_package()
    jobs.OUT.mkdir(exist_ok=True)
    problems = []
    for workload in jobs.WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=jobs.OUT))
        try:
            units = jobs.build(workload, SEED, workdir, in_process=True)
            counts = []
            for _ in range(2):
                tracer = tracing.Tracer()
                rec = one_pass(units, tracer)
                if rec.failed:
                    problems.append(f"{workload}: {rec.failed} gate(s) missed "
                                    "on correct outputs")
                layer = tracer.layer_metrics(1)
                counts.append({k: layer[k] for k in COUNTS})
            if counts[0] != counts[1]:
                problems.append(f"{workload}: counts differ between traced "
                                f"runs: {counts[0]} vs {counts[1]}")
            with tracing.rebound(wrong_output(workload)):
                rec = one_pass(units)
            fail_frac = rec.failed / rec.attempted
            if fail_frac <= 0.0:
                problems.append(f"{workload}: wrong output passed every gate")
            print(f"{workload}: counts {counts[0]}; fail_frac with a wrong "
                  f"output {fail_frac:.3f}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
