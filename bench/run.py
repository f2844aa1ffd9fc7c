"""lrpulse benchmark: run one workload, check every job, print its metrics.

    python3 bench/run.py --workload transfer --seed 0 --seconds 20 --trace 0

Load is closed loop with one caller: the next job starts when the previous
one has finished. A run repeats whole passes over the workload's job list
until the timed part (the sum of job wall times) reaches --seconds.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes for --seconds and prints the per-layer metrics (per pass of the
job list) plus the tracing overhead.
The last line of standard output is one JSON object. The exit code is 1 when
any job misses its gate, 2 when the package source is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode in the checkout

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 15
TAIL_BEYOND = 10

END_TO_END = [
    ("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
    ("setup_s", "s"), ("pass_frac", "fraction"), ("peak_rss_mb", "MiB"),
]


@dataclass
class JobStats:
    runs: int = 0
    failures: int = 0
    first_failure: str = ""
    worst: dict = field(default_factory=dict)


@dataclass
class Record:
    times: list = field(default_factory=list)
    names: list = field(default_factory=list)
    pass_times: list = field(default_factory=list)
    per_job: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(s.failures for s in self.per_job.values())

    def add(self, name: str, seconds: float, gate: jobs.Gate) -> None:
        self.times.append(seconds)
        self.names.append(name)
        st = self.per_job.setdefault(name, JobStats())
        st.runs += 1
        if not gate.ok:
            st.failures += 1
            st.first_failure = st.first_failure or gate.why
        for key, val in gate.values.items():
            worse = min if key == "p3" else max
            st.worst[key] = worse(st.worst.get(key, val), val)


def run_passes(units, seconds: float, rng, rec: Record,
               tracer: tracing.Tracer | None = None, min_passes: int = 1) -> None:
    """Whole passes over the job list until the timed part reaches seconds
    and at least min_passes passes are done; each pass is shuffled by rng
    unless rng is None."""
    timed = 0.0
    for done in itertools.count(1):
        order = list(range(len(units)))
        if rng is not None:
            order = list(rng.permutation(len(units)))
        pass_time = 0.0
        for job in (j for i in order for j in units[i]):
            for path in job.outputs:
                Path(path).unlink(missing_ok=True)
            job_id = rec.attempted
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = job.run()
                else:
                    with tracer.job_span(job_id, job.name):
                        out = job.run()
                error = None
            except Exception as exc:  # a raising job is a failed job
                out, error = None, f"raised {exc!r}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                with tracer.paused():
                    gate = jobs.Gate(False, error) if error else job.check(out)
                tracer.drain_accuracy(jobs.closed_form_error)
            else:
                gate = jobs.Gate(False, error) if error else job.check(out)
            rec.add(job.name, elapsed, gate)
            pass_time += elapsed
        rec.pass_times.append(pass_time)
        timed += pass_time
        if timed >= seconds and done >= min_passes:
            return


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile of job time that has at least TAIL_BEYOND
    samples beyond it, i.e. the (TAIL_BEYOND + 1)-th largest time:
    (value, percentile). Too few samples fall back to the median."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return statistics.median(times), 50.0
    return sorted(times)[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time, measured SETUP_REPEATS times in fresh processes: process
    start until the first timed job could begin (imports plus warm-up), or
    for cli_verify the wall time of a bare `python -m lrpulse.cli --help`."""
    if workload == "cli_verify":
        return [jobs.cli_help_seconds() for _ in range(SETUP_REPEATS)]
    probe = Path(__file__).resolve().parent / "probe.py"
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        res = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                             capture_output=True, text=True, check=True,
                             env=jobs.child_env(), timeout=120)
        out.append(float(res.stdout.split()[-1]) - start)
    return out


def context(args) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (jobs.ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(jobs.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": commit, "host": platform.node(),
    }


def end_to_end(workload: str, rec: Record, setup: list[float]) -> tuple[dict, dict]:
    value, pct = tail(rec.times)
    # cli_verify's jobs run in children; the largest of them is its peak
    who = resource.RUSAGE_CHILDREN if workload == "cli_verify" else resource.RUSAGE_SELF
    rss_kib = resource.getrusage(who).ru_maxrss
    metrics = {
        "jobs_per_s": rec.attempted / sum(rec.times),
        "job_p50_s": statistics.median(rec.times),
        "job_tail_s": value,
        "setup_s": statistics.median(setup),
        "pass_frac": 1.0 - rec.failed / rec.attempted,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    extra = {"job_tail_percentile": pct, "job_tail_samples": rec.attempted,
             "job_tail_beyond": sum(t > value for t in rec.times),
             "fail_frac": rec.failed / rec.attempted,
             "setup_samples_s": setup, "passes": len(rec.pass_times)}
    # The job list mixes job sizes, so the overall median can sit in the gap
    # between two job classes; the median of each class reads steadier.
    for name in sorted(set(rec.names)):
        extra[f"job_p50_s[{name}]"] = statistics.median(
            t for n, t in zip(rec.names, rec.times) if n == name)
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    jobs.load_package()
    jobs.OUT.mkdir(exist_ok=True)
    ctx = context(args)
    print("context " + json.dumps(ctx))

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=jobs.OUT))
    try:
        rec = Record()
        tracer = None
        rng = np.random.default_rng(args.seed) if args.seed else None
        if args.workload == "cli_verify":
            # a traced run calls lrpulse.cli.main in-process with the same argv
            units = jobs.build(args.workload, args.seed, workdir,
                               in_process=bool(args.trace))
        else:
            units = jobs.prepare(args.workload, args.seed)
        if not args.trace:
            setup = setup_seconds(args.workload, args.seed)
            # TAIL_BEYOND + 1 passes put job_tail_s in the largest job class
            # even on a slow host, where fewer passes fit into --seconds
            run_passes(units, args.seconds, rng, rec, min_passes=TAIL_BEYOND + 1)
            metrics, extra = end_to_end(args.workload, rec, setup)
            units_of = {name: unit for name, unit in END_TO_END}
        else:
            # Untraced and traced passes alternate, so that both see the same
            # host speed; the overhead is the median ratio of adjacent passes.
            tracer = tracing.Tracer()
            untraced, traced = [], []
            while sum(untraced) + sum(traced) < args.seconds:
                run_passes(units, 0.0, rng, rec)
                untraced.append(rec.pass_times[-1])
                with tracer.installed():
                    run_passes(units, 0.0, rng, rec, tracer)
                traced.append(rec.pass_times[-1])
            metrics = tracer.layer_metrics(len(traced))
            metrics["trace.overhead_pct"] = 100.0 * (statistics.median(
                t / u for t, u in zip(traced, untraced)) - 1.0)
            extra = {"untraced_pass_s": untraced, "traced_pass_s": traced,
                     "spans": len(tracer.spans), "fail_frac": rec.failed / rec.attempted}
            units_of = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, st in rec.per_job.items():
        status = "ok" if not st.failures else f"FAIL ({st.first_failure})"
        worst = " ".join(f"{k}={v:.6g}" for k, v in st.worst.items())
        print(f"gate {name}: {st.runs - st.failures}/{st.runs} passed {status} {worst}")
    for name, val in metrics.items():
        print(f"metric {name} = {val:.6g} {units_of[name]}")
    for key, val in extra.items():
        if not isinstance(val, list):
            print(f"info {key} = {val}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"context": ctx, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {k: {"value": v, "unit": units_of[k]}
                          for k, v in metrics.items()},
              "extra": extra,
              "gates": {k: vars(v) for k, v in rec.per_job.items()},
              "job_times_s": list(zip(rec.names, rec.times)),
              "pass_times_s": rec.pass_times}
    (jobs.OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        (jobs.OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.export()))

    correct = rec.failed == 0
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed,
                      "metrics": {k: {"value": v, "unit": units_of[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
