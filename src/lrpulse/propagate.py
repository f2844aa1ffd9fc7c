"""Fixed-step RK4 integration of the Schrodinger equation for a schedule.

The stiffest timescale is the known carrier frequency, so the step is a
fixed fraction of the carrier period. No renormalization is applied during
integration; norm drift is reported as an integrator-health diagnostic.
RK4 runs on the propagators of all step blocks at once, so record_stride
moves the states only at round-off (<= 1e-13); identical configurations
still give bit-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import isqrt
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

    @property
    def final_p3(self) -> float:
        return float(self.final_populations[2])

    def summary(self) -> dict:
        return {
            "schema_version": 1,
            "final_populations": [float(x) for x in self.final_populations],
            "max_p2": self.max_p2,
            "norm_drift": self.norm_drift,
            "steps": self.steps,
            "steps_per_carrier_period": self.config.steps_per_carrier_period,
            "schedule": self.schedule_header,
        }

    def write_csv(self, path, time_scale: float = 1.0) -> None:
        np.savetxt(path, np.column_stack([self.times / time_scale,
                                          self.populations, self.norms]),
                   fmt="%.12g", delimiter=",", comments="",
                   header="# " + json.dumps(self.summary()) + "\nt,p1,p2,p3,norm")


def propagate(schedule: PulseSchedule, psi0: np.ndarray,
              cfg: PropagationConfig | None = None) -> TransferReport:
    """Integrate i d/dt psi = H(t) psi with classical fixed-step RK4."""
    cfg = cfg or PropagationConfig()
    psi0 = np.asarray(psi0, dtype=complex)
    if not is_normalized(psi0):
        raise ValueError("psi0 must be normalized")
    t0 = schedule.t_start if cfg.t_start is None else cfg.t_start
    t1 = schedule.t_end if cfg.t_end is None else cfg.t_end
    if not (schedule.t_start - 1e-12 <= t0 <= t1 <= schedule.t_end + 1e-12):
        raise ValueError("propagation window outside schedule domain")
    n_steps = max(1, int(np.ceil((t1 - t0) / (TWO_PI / schedule.omega)
                                 * cfg.steps_per_carrier_period)))
    dt = (t1 - t0) / n_steps
    stride = cfg.record_stride or max(1, cfg.steps_per_carrier_period // 10)
    # blocks of L steps, L the largest divisor of stride up to sqrt(n_steps)/8:
    # that balances the L passes of array RK4 against the n_steps/L chain steps
    L = max(k for k in range(1, min(stride, isqrt(n_steps // 64) or 1) + 1)
            if stride % k == 0)

    # H at the start, middle and end of step b*L + j at [:, j, b]; steps past
    # n_steps have H = 0, so that their RK4 step is exactly the identity; an
    # array returned for two entries (a shared closure) is laid out once
    grid = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
    n_blocks = -(-n_steps // L)
    full, rest = divmod(n_steps, L)
    entries = hamiltonian_entries(schedule, grid)
    blocked = {}
    for arr in entries:
        if id(arr) in blocked:
            continue
        if not np.all(np.isfinite(arr)):
            t_bad = grid[np.argmin(np.isfinite(arr))]
            raise PropagationError(f"non-finite Hamiltonian sample at t={t_bad!r}")
        out = np.zeros((3, L, n_blocks), dtype=arr.dtype)
        for m in range(3):
            samples = arr[m:m + 2 * n_steps:2]
            out[m, :, :full] = samples[:full * L].reshape(full, L).T
            out[m, :rest, -1] = samples[full * L:]
        blocked[id(arr)] = out
    a, p, s, d = (blocked[id(arr)] for arr in entries)

    # classical RK4 on all block propagators; c1, c2, c3 are rows, (3, n_blocks)
    c1, c2, c3 = np.repeat(np.eye(3, dtype=complex)[:, :, None], n_blocks, 2)
    half, sixth = 0.5 * dt, dt / 6.0
    for j in range(L):
        (a0, a1, a2), (p0, p1, p2) = a[:, j], p[:, j]
        (s0, s1, s2), (d0, d1, d2) = s[:, j], d[:, j]
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

    # chain the block ends; records fall on every (stride/L)-th and the last
    states = [psi0]
    for u in np.stack([c1, c2, c3]).transpose(2, 0, 1):
        states.append(u @ states[-1])
    keep = np.r_[0:n_blocks:stride // L, n_blocks]
    states = np.array(states)[keep]
    times = t0 + np.minimum(keep * L, n_steps) * dt
    pops = np.abs(states) ** 2
    norms = np.sqrt(pops.sum(axis=1))
    return TransferReport(
        times=times, populations=pops, norms=norms,
        final_populations=pops[-1],
        norm_drift=float(np.max(np.abs(norms - 1.0))),
        max_p2=float(np.max(pops[:, 1])),
        steps=n_steps, config=cfg,
        schedule_header=schedule.header(),
        states=states if cfg.record_states else None)


def deviation_from_analytic(report: TransferReport, aux_traj,
                            psi0: np.ndarray) -> float:
    """Max componentwise deviation of report's recorded RK4 states from the
    eigenbasis expansion, global phase aligned at each state's largest entry."""
    cfg, head = report.config, report.schedule_header
    t0 = head["t_start"] if cfg.t_start is None else cfg.t_start
    t1 = head["t_end"] if cfg.t_end is None else cfg.t_end
    if not (aux_traj.t_start - 1e-12 <= t0 and t1 <= aux_traj.t_end + 1e-12):
        raise ValueError("trajectory domain does not cover the comparison window")
    ana = analytic_evolution(aux_traj, psi0, report.times)
    i = np.argmax(np.abs(report.states), axis=-1)[:, None]
    shift = (np.angle(np.take_along_axis(report.states, i, axis=-1))
             - np.angle(np.take_along_axis(ana, i, axis=-1)))
    return float(np.max(np.abs(ana * np.exp(1j * shift) - report.states)))


def compare_with_analytic(schedule: PulseSchedule, aux_traj, psi0: np.ndarray,
                          cfg: PropagationConfig | None = None) -> float:
    """deviation_from_analytic over all samples of a propagation with cfg."""
    cfg = replace(cfg or PropagationConfig(), record_states=True)
    return deviation_from_analytic(propagate(schedule, psi0, cfg), aux_traj,
                                   psi0)


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
