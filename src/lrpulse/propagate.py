"""Fixed-step RK4 integration of the Schrodinger equation for a schedule.

The stiffest timescale is the known carrier frequency, so the step is a
fixed fraction of the carrier period. No renormalization is applied during
integration; norm drift is reported as an integrator-health diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import analytic_evolution, hamiltonian_entries, is_normalized
from .errors import PropagationError
from .synthesis import TWO_PI, PulseSchedule


@dataclass(frozen=True)
class PropagationConfig:
    """Resolution and recording settings for a single propagation."""

    steps_per_carrier_period: int = 2000
    record_stride: int | None = None   # steps between samples; default 10/period
    t_start: float | None = None
    t_end: float | None = None
    record_states: bool = False

    def __post_init__(self):
        if self.steps_per_carrier_period < 100:
            raise ValueError("steps_per_carrier_period must be at least 100")
        if self.record_stride is not None and self.record_stride < 1:
            raise ValueError("record_stride must be positive")


@dataclass(frozen=True)
class TransferReport:
    """Recorded populations and diagnostics of one propagation."""

    times: np.ndarray
    populations: np.ndarray        # shape (n_samples, 3)
    norms: np.ndarray
    final_populations: np.ndarray
    norm_drift: float
    max_p2: float
    steps: int
    config: PropagationConfig
    schedule_header: dict
    states: np.ndarray | None = None
    analytic_deviation: float | None = None

    @property
    def final_p3(self) -> float:
        return float(self.final_populations[2])

    def summary(self) -> dict:
        out = {
            "schema_version": 1,
            "final_populations": [float(x) for x in self.final_populations],
            "max_p2": self.max_p2,
            "norm_drift": self.norm_drift,
            "steps": self.steps,
            "steps_per_carrier_period": self.config.steps_per_carrier_period,
            "schedule": self.schedule_header,
        }
        if self.analytic_deviation is not None:
            out["analytic_deviation"] = self.analytic_deviation
        return out

    def write_csv(self, path, time_scale: float = 1.0) -> None:
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(self.summary()) + "\n")
            fh.write("t,p1,p2,p3,norm\n")
            for i, t in enumerate(self.times):
                p = self.populations[i]
                fh.write(f"{t / time_scale:.12g},{p[0]:.12g},{p[1]:.12g},"
                         f"{p[2]:.12g},{self.norms[i]:.12g}\n")


def propagate(schedule: PulseSchedule, psi0: np.ndarray,
              cfg: PropagationConfig | None = None) -> TransferReport:
    """Integrate i d/dt psi = H(t) psi with classical fixed-step RK4."""
    cfg = cfg or PropagationConfig()
    psi0 = np.asarray(psi0, dtype=complex)
    if not is_normalized(psi0, tol=1e-8):
        raise ValueError("psi0 must be normalized")
    t0 = schedule.t_start if cfg.t_start is None else cfg.t_start
    t1 = schedule.t_end if cfg.t_end is None else cfg.t_end
    if not (schedule.t_start - 1e-12 <= t0 <= t1 <= schedule.t_end + 1e-12):
        raise ValueError("propagation window outside schedule domain")
    period = TWO_PI / schedule.omega_p
    n_steps = max(1, int(np.ceil((t1 - t0) / period
                                 * cfg.steps_per_carrier_period)))
    dt = (t1 - t0) / n_steps
    stride = cfg.record_stride or max(1, cfg.steps_per_carrier_period // 10)

    # H at every half step; entries as plain python complex for the tight loop
    grid = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
    entries = hamiltonian_entries(schedule, grid)
    for arr in entries:
        bad = ~np.isfinite(arr)
        if np.any(bad):
            t_bad = grid[np.argmax(bad)]
            raise PropagationError(f"non-finite Hamiltonian sample at t={t_bad!r}")
    a, p, s, d = (arr.tolist() for arr in entries)

    c1, c2, c3 = complex(psi0[0]), complex(psi0[1]), complex(psi0[2])
    rec_t, rec_p, rec_n, rec_s = [], [], [], []

    def record(t, x1, x2, x3):
        n1, n2, n3 = abs(x1) ** 2, abs(x2) ** 2, abs(x3) ** 2
        rec_t.append(t)
        rec_p.append((n1, n2, n3))
        rec_n.append((n1 + n2 + n3) ** 0.5)
        if cfg.record_states:
            rec_s.append((x1, x2, x3))

    record(t0, c1, c2, c3)
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n_steps):
        i0 = 2 * k
        i1 = i0 + 1
        i2 = i0 + 2
        a0, p0, s0, d0 = a[i0], p[i0], s[i0], d[i0]
        a1, p1, s1, d1 = a[i1], p[i1], s[i1], d[i1]
        a2, p2, s2, d2 = a[i2], p[i2], s[i2], d[i2]
        # k1 = -i H(t) psi
        k1a = -1j * (a0 * c1 + p0 * c2)
        k1b = -1j * (p0.conjugate() * c1 + s0.conjugate() * c3)
        k1c = -1j * (s0 * c2 + d0 * c3)
        x1, x2, x3 = c1 + half * k1a, c2 + half * k1b, c3 + half * k1c
        k2a = -1j * (a1 * x1 + p1 * x2)
        k2b = -1j * (p1.conjugate() * x1 + s1.conjugate() * x3)
        k2c = -1j * (s1 * x2 + d1 * x3)
        x1, x2, x3 = c1 + half * k2a, c2 + half * k2b, c3 + half * k2c
        k3a = -1j * (a1 * x1 + p1 * x2)
        k3b = -1j * (p1.conjugate() * x1 + s1.conjugate() * x3)
        k3c = -1j * (s1 * x2 + d1 * x3)
        x1, x2, x3 = c1 + dt * k3a, c2 + dt * k3b, c3 + dt * k3c
        k4a = -1j * (a2 * x1 + p2 * x2)
        k4b = -1j * (p2.conjugate() * x1 + s2.conjugate() * x3)
        k4c = -1j * (s2 * x2 + d2 * x3)
        c1 += sixth * (k1a + 2 * k2a + 2 * k3a + k4a)
        c2 += sixth * (k1b + 2 * k2b + 2 * k3b + k4b)
        c3 += sixth * (k1c + 2 * k2c + 2 * k3c + k4c)
        if (k + 1) % stride == 0 or k == n_steps - 1:
            record(t0 + (k + 1) * dt, c1, c2, c3)

    times = np.array(rec_t)
    pops = np.array(rec_p)
    norms = np.array(rec_n)
    return TransferReport(
        times=times, populations=pops, norms=norms,
        final_populations=pops[-1],
        norm_drift=float(np.max(np.abs(norms - 1.0))),
        max_p2=float(np.max(pops[:, 1])),
        steps=n_steps, config=cfg,
        schedule_header=schedule.header(),
        states=np.array(rec_s) if cfg.record_states else None)


def _align_phase(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """v times the global phase that matches it to ref at ref's largest
    component; both are stacks of states along the last axis."""
    i = np.argmax(np.abs(ref), axis=-1)[..., None]
    shift = (np.angle(np.take_along_axis(ref, i, axis=-1))
             - np.angle(np.take_along_axis(v, i, axis=-1)))
    return v * np.exp(1j * shift)


def compare_with_analytic(schedule: PulseSchedule, aux_traj, psi0: np.ndarray,
                          cfg: PropagationConfig | None = None) -> float:
    """Max componentwise deviation between the RK4 state and the invariant-
    eigenbasis expansion, after global-phase alignment, over all samples."""
    cfg = cfg or PropagationConfig()
    t0 = schedule.t_start if cfg.t_start is None else cfg.t_start
    t1 = schedule.t_end if cfg.t_end is None else cfg.t_end
    if not (aux_traj.t_start - 1e-12 <= t0 and t1 <= aux_traj.t_end + 1e-12):
        raise ValueError("trajectory domain does not cover the comparison window")
    cfg = PropagationConfig(
        steps_per_carrier_period=cfg.steps_per_carrier_period,
        record_stride=cfg.record_stride, t_start=t0, t_end=t1,
        record_states=True)
    report = propagate(schedule, psi0, cfg)
    ana = analytic_evolution(aux_traj, psi0, report.times)
    return float(np.max(np.abs(_align_phase(ana, report.states) - report.states)))


def convergence_study(schedule: PulseSchedule, psi0: np.ndarray,
                      steps_list: Sequence[int]) -> list[tuple[int, float]]:
    """Final third-level population at each resolution (steps per period)."""
    if list(steps_list) != sorted(steps_list):
        raise ValueError("steps_list must be ascending")
    out = []
    for spp in steps_list:
        cfg = PropagationConfig(steps_per_carrier_period=int(spp))
        out.append((int(spp), propagate(schedule, psi0, cfg).final_p3))
    return out
