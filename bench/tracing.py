"""In-memory span tracing of the lrpulse package, installed from outside.

The tracer wraps public functions of each package module under every name
that any ``lrpulse`` module binds them to, so calls between modules are
traced as well as calls from the benchmark. Each wrapped call records a span
``[name, start, end, parent, job]``; spans stay in memory until the run ends.
Per-layer metrics are computed from the spans afterwards: ``*_s`` metrics are
self times (span duration minus the time covered by child spans), except the
``verify.*_s`` metrics, which are the inclusive wall time of each check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import os
import sys
import time
from collections import Counter
from typing import Callable

import numpy as np

_clock = time.perf_counter

# span name -> per-layer metric that receives the span's self time
SELF_TIME = {
    "numerics.integrate": "numerics.integrate_s",
    "numerics.RunningIntegral.__init__": "numerics.running_integral_s",
    "numerics.RunningIntegral.__call__": "numerics.running_integral_s",
    "synthesis.solve_omega_T_for_A": "synthesis.calibrate_s",
    "synthesis.solve_omega_T_for_B": "synthesis.calibrate_s",
    "synthesis.calibrate_strategy_c": "synthesis.calibrate_s",
    "synthesis.delta_epsilon_per_period": "synthesis.calibrate_s",
    "synthesis.strategy_a": "synthesis.build_s",
    "synthesis.strategy_b": "synthesis.build_s",
    "synthesis.strategy_c": "synthesis.build_s",
    "synthesis.envelope": "synthesis.envelope_s",
    "synthesis.load_schedule_csv": "cli.io_s",
    "propagate.propagate": "propagate.loop_s",
    "propagate.compare_with_analytic": "propagate.compare_s",
    "core.hamiltonian_at": "core.s",
    "core.invariant_at": "core.s",
    "core.invariant_eigenvectors": "core.s",
    "core.analytic_evolution": "core.s",
    "core.invariance_residual": "core.s",
    "cli.main": "cli.self_s",
    "cli.build_schedule": "cli.self_s",
    "cli.cmd_tables": "cli.self_s",
    "cli.cmd_synth": "cli.self_s",
    "cli.cmd_simulate": "cli.self_s",
    "cli.cmd_verify": "cli.self_s",
    "cli.cmd_calibrate_c": "cli.self_s",
    "cli._atomic_write": "cli.io_s",
}

# span name -> per-layer metric that receives the span's inclusive time
INCLUSIVE_TIME = {
    "verify.check_spectrum": "verify.spectrum_s",
    "verify.check_invariance": "verify.invariance_s",
    "verify.check_phase_consistency": "verify.phase_s",
    "verify.check_analytic_agreement": "verify.analytic_s",
    "verify.check_file_invariance": "verify.file_s",
}

# span name -> per-layer metric counting its calls
CALLS = {
    "numerics.integrate": "numerics.integrate_calls",
    "core.hamiltonian_at": "core.hamiltonian_calls",
    "core.invariant_at": "core.invariant_calls",
    "core.invariant_eigenvectors": "core.invariant_calls",
    "core.analytic_evolution": "core.analytic_calls",
}

# Every per-layer metric with its unit and direction, in output order.
LAYER_METRICS = [
    ("numerics.integrate_calls", "count", "lower"),
    ("numerics.integrate_s", "s", "lower"),
    ("numerics.find_root_iters", "count", "lower"),
    ("numerics.running_integral_s", "s", "lower"),
    ("synthesis.calibrate_s", "s", "lower"),
    ("synthesis.build_s", "s", "lower"),
    ("synthesis.envelope_points", "count", "lower"),
    ("synthesis.envelope_s", "s", "lower"),
    ("propagate.steps", "count", "lower"),
    ("propagate.loop_s", "s", "lower"),
    ("propagate.us_per_step", "us", "lower"),
    ("propagate.compare_s", "s", "lower"),
    ("propagate.final_err", "1", "lower"),
    ("propagate.norm_drift", "1", "lower"),
    ("propagate.p3_min", "1", "higher"),
    ("core.hamiltonian_calls", "count", "lower"),
    ("core.invariant_calls", "count", "lower"),
    ("core.analytic_calls", "count", "lower"),
    ("core.s", "s", "lower"),
    ("verify.spectrum_s", "s", "lower"),
    ("verify.invariance_s", "s", "lower"),
    ("verify.phase_s", "s", "lower"),
    ("verify.analytic_s", "s", "lower"),
    ("verify.file_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.io_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

_FUNCTIONS = {
    "numerics": ["integrate", "find_root"],
    "synthesis": ["solve_omega_T_for_A", "solve_omega_T_for_B",
                  "calibrate_strategy_c", "delta_epsilon_per_period",
                  "strategy_a", "strategy_b", "strategy_c",
                  "load_schedule_csv"],
    "propagate": ["propagate", "compare_with_analytic"],
    "core": ["hamiltonian_at", "invariant_at", "invariant_eigenvectors",
             "analytic_evolution", "invariance_residual"],
    "verify": ["check_spectrum", "check_invariance", "check_phase_consistency",
               "check_analytic_agreement", "check_file_invariance"],
    "cli": ["main", "build_schedule", "cmd_tables", "cmd_synth",
            "cmd_simulate", "cmd_verify", "cmd_calibrate_c", "_atomic_write"],
}


@contextlib.contextmanager
def rebound(replacements: dict):
    """Rebind each original function to its replacement under every name any
    ``lrpulse`` module binds it to; restore the originals on exit."""
    by_id = {id(fn): new for fn, new in replacements.items()}
    undo = []
    try:
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if modname != "lrpulse" and not modname.startswith("lrpulse."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, by_id[id(value)])
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


@dataclasses.dataclass
class _Propagation:
    schedule: object
    psi0: np.ndarray
    report: object


class Tracer:
    """Records spans and counts for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self.job_names: dict[int, str] = {}
        self.accuracy = {"final_err": [], "norm_drift": [], "p3": []}
        self._stack: list[int] = []
        self._paused = False
        self._propagations: list[_Propagation] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = _clock()
            self._stack.pop()

    @contextlib.contextmanager
    def job_span(self, job_id: int, name: str):
        self.job = job_id
        self.job_names[job_id] = name
        idx = len(self.spans)
        span = ["bench.job", _clock(), 0.0, -1, job_id]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = _clock()
            self._stack.pop()
            self.job = None

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks without recording spans or counts."""
        prev, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = prev

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None and not self._paused:
                out = after(out, args, kwargs)
            return out
        return wrapper

    def _count_root_iters(self, out, args, kwargs):
        self.counts["numerics.find_root_iters"] += int(out[1])
        return out

    def _wrap_schedule(self, schedule, args, kwargs):
        wrapped = {}

        def envelope(fn):
            if id(fn) not in wrapped:
                def sampled(t):
                    if not self._paused:
                        self.counts["synthesis.envelope_points"] += int(np.size(t))
                    return self.call("synthesis.envelope", fn, t)
                wrapped[id(fn)] = sampled
            return wrapped[id(fn)]

        return dataclasses.replace(
            schedule,
            Omega_p=envelope(schedule.Omega_p), Omega_s=envelope(schedule.Omega_s),
            Delta_p=envelope(schedule.Delta_p), Delta_s=envelope(schedule.Delta_s))

    def _record_propagation(self, report, args, kwargs):
        self.counts["propagate.steps"] += int(report.steps)
        psi0 = args[1] if len(args) > 1 else kwargs["psi0"]
        self._propagations.append(_Propagation(args[0], np.asarray(psi0), report))
        return report

    def _count_bytes(self, out, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.counts["cli.bytes_written"] += os.path.getsize(path)
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's public functions while the block runs."""
        numerics = importlib.import_module("lrpulse.numerics")
        after = {
            "synthesis.strategy_a": self._wrap_schedule,
            "synthesis.strategy_b": self._wrap_schedule,
            "synthesis.strategy_c": self._wrap_schedule,
            "propagate.propagate": self._record_propagation,
            "cli._atomic_write": self._count_bytes,
        }
        replacements = {}
        for modname, names in _FUNCTIONS.items():
            mod = importlib.import_module(f"lrpulse.{modname}")
            for fname in names:
                key = f"{modname}.{fname}"
                fn = getattr(mod, fname)
                if key == "numerics.find_root":
                    # counted, not timed: its self time belongs to the caller
                    replacements[fn] = self._counter_wrapper(fn)
                else:
                    replacements[fn] = self._span_wrapper(key, fn, after.get(key))
        ri = numerics.RunningIntegral
        methods = {m: vars(ri)[m] for m in ("__init__", "__call__")}
        try:
            for m, fn in methods.items():
                setattr(ri, m, self._span_wrapper(f"numerics.RunningIntegral.{m}", fn))
            with rebound(replacements):
                yield self
        finally:
            for m, fn in methods.items():
                setattr(ri, m, fn)

    def _counter_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not self._paused:
                self._count_root_iters(out, args, kwargs)
            return out
        return wrapper

    # -- accuracy record ---------------------------------------------------

    def drain_accuracy(self, align_error: Callable) -> None:
        """Fold the propagations since the last call into the accuracy record.

        ``align_error(schedule, psi0, state)`` returns the deviation of the
        final RK4 state from the closed form; it is only applied where the
        state was recorded and the schedule has an exact expansion.
        """
        with self.paused():
            for p in self._propagations:
                rep = p.report
                self.accuracy["norm_drift"].append(float(rep.norm_drift))
                self.accuracy["p3"].append(float(rep.final_p3))
                if rep.states is not None and p.schedule.strategy != "b":
                    self.accuracy["final_err"].append(
                        align_error(p.schedule, p.psi0, rep.states[-1]))
        self._propagations.clear()

    # -- summaries ---------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass of the job list (counts and times are
        summed over the traced passes and divided by their number)."""
        n = len(self.spans)
        child = [0.0] * n
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        sums: Counter = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            dur = t1 - t0
            if name in SELF_TIME:
                sums[SELF_TIME[name]] += dur - child[i]
            if name in INCLUSIVE_TIME:
                sums[INCLUSIVE_TIME[name]] += dur
            if name in CALLS:
                sums[CALLS[name]] += 1
        sums.update(self.counts)
        out = {}
        for metric, _, _ in LAYER_METRICS:
            out[metric] = float(sums.get(metric, 0.0)) / passes
        steps = sums.get("propagate.steps", 0)
        out["propagate.us_per_step"] = (1e6 * sums["propagate.loop_s"] / steps
                                        if steps else 0.0)
        acc = self.accuracy
        out["propagate.final_err"] = max(acc["final_err"], default=0.0)
        out["propagate.norm_drift"] = max(acc["norm_drift"], default=0.0)
        out["propagate.p3_min"] = min(acc["p3"], default=0.0)
        return out

    def export(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "job"],
                "spans": self.spans,
                "jobs": {str(k): v for k, v in self.job_names.items()}}
