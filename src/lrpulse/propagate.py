"""Fixed-step RK4 integration of the Schrodinger equation for a schedule.

The stiffest timescale is the known carrier frequency, so the step is a
fixed fraction of the carrier period. No renormalization is applied during
integration; norm drift is reported as an integrator-health diagnostic.
RK4 runs on the propagators of all step blocks at once, so record_stride
moves the states only at round-off (<= 1e-13); identical configurations
still give bit-identical outputs. H is sampled once, in the layout the blocks
read, and one stage function gives -i H x to all four RK4 stages; the
analytic comparisons start at the run's first state and time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import isqrt
from numbers import Integral

import numpy as np

from .core import analytic_evolution, hamiltonian_entries, is_normalized
from .errors import PropagationError
from .synthesis import TWO_PI, PulseSchedule


@dataclass(frozen=True)
class PropagationConfig:
    """Resolution and recording settings for a single propagation."""

    steps_per_carrier_period: int = 2000
    record_stride: int | None = None   # steps between samples; default 10/period
    record_states: bool = False

    def __post_init__(self):
        spp, stride = self.steps_per_carrier_period, self.record_stride
        for name, value in (("steps_per_carrier_period", spp),
                            ("record_stride", 1 if stride is None else stride)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if spp < 100:
            raise ValueError("steps_per_carrier_period must be at least 100")
        if stride is not None and stride < 1:
            raise ValueError("record_stride must be positive")


@dataclass(frozen=True)
class TransferReport:
    """Recorded populations and diagnostics of one propagation."""

    times: np.ndarray
    populations: np.ndarray        # shape (n_samples, 3)
    norms: np.ndarray
    steps: int
    config: PropagationConfig
    schedule_header: dict
    states: np.ndarray | None = None

    @property
    def final_populations(self) -> np.ndarray:
        return self.populations[-1]

    @property
    def final_p3(self) -> float:
        return float(self.final_populations[2])

    @property
    def max_p2(self) -> float:
        return float(np.max(self.populations[:, 1]))

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))

    def summary(self) -> dict:
        return {
            "schema_version": 1,
            "final_populations": [float(x) for x in self.final_populations],
            "max_p2": self.max_p2,
            "norm_drift": self.norm_drift,
            "steps": self.steps,
            "steps_per_carrier_period": int(self.config.steps_per_carrier_period),
            "schedule": self.schedule_header,
        }

    def write_csv(self, path, time_scale: float = 1.0) -> None:
        np.savetxt(path, np.column_stack([self.times / time_scale,
                                          self.populations, self.norms]),
                   fmt="%.12g", delimiter=",", comments="",
                   header="# " + json.dumps(self.summary()) + "\nt,p1,p2,p3,norm")


def propagate(schedule: PulseSchedule, psi0: np.ndarray,
              cfg: PropagationConfig | None = None) -> TransferReport:
    """Integrate i d/dt psi = H(t) psi with classical fixed-step RK4 over the
    schedule's domain [t_start, t_end]; to integrate part of it, narrow the
    schedule with dataclasses.replace."""
    cfg = cfg or PropagationConfig()
    psi0 = np.asarray(psi0, dtype=complex)
    if not is_normalized(psi0):
        raise ValueError("psi0 must be normalized")
    t0, t1 = schedule.t_start, schedule.t_end
    n_steps = max(1, int(np.ceil((t1 - t0) / (TWO_PI / schedule.omega)
                                 * cfg.steps_per_carrier_period)))
    dt = (t1 - t0) / n_steps
    stride = cfg.record_stride or max(1, cfg.steps_per_carrier_period // 10)
    # blocks of L steps, L the largest divisor of stride up to sqrt(n_steps)/8:
    # that balances the L passes of array RK4 against the n_steps/L chain steps
    L = max(k for k in range(1, min(stride, isqrt(n_steps // 64) or 1) + 1)
            if stride % k == 0)

    # H sampled once, on a (2L, n_blocks + 1) grid whose row r of column c is
    # half-step 2cL + r, clipped at t1; the half-step 2(bL+j)+m (start, middle
    # or end of step bL+j) is row (2j+m) mod 2L of column b + (2j+m) div 2L,
    # so the end of a block and the start of the next share one sample
    n_blocks = -(-n_steps // L)
    grid = t0 + 0.5 * dt * np.minimum(
        2 * L * np.arange(n_blocks + 1) + np.arange(2 * L)[:, None], 2 * n_steps)
    a, p, s, d = hamiltonian_entries(schedule, grid)
    t_bad = grid[~(np.isfinite(a) & np.isfinite(p) & np.isfinite(s) & np.isfinite(d))]
    if t_bad.size:
        raise PropagationError(f"non-finite Hamiltonian sample at t={float(t_bad.min())}")

    # classical RK4 on all block propagators at once: rows is (3, 3, n_blocks),
    # and stage gives -i H x at sample m (start, middle, end) of step j
    def stage(m, j, x1, x2, x3):
        c, r = divmod(2 * j + m, 2 * L)
        h11, h12, h32, h33 = (x[r, c:c + n_blocks] for x in (a, p, s, d))
        return (-1j * (h11 * x1 + h12 * x2),
                -1j * (h12.conjugate() * x1 + h32.conjugate() * x3),
                -1j * (h32 * x2 + h33 * x3))

    rows = np.repeat(np.eye(3, dtype=complex)[:, :, None], n_blocks, 2)
    half, sixth = 0.5 * dt, dt / 6.0
    for j in range(L):
        k1 = stage(0, j, *rows)
        k2 = stage(1, j, *(c + half * k for c, k in zip(rows, k1)))
        k3 = stage(1, j, *(c + half * k for c, k in zip(rows, k2)))
        k4 = stage(2, j, *(c + dt * k for c, k in zip(rows, k3)))
        live = -(-(n_steps - j) // L)   # the blocks b with a step bL + j
        for c, y1, y2, y3, y4 in zip(rows[..., :live], k1, k2, k3, k4):
            c += (sixth * (y1 + 2 * y2 + 2 * y3 + y4))[:, :live]

    # chain the block ends; records fall on every (stride/L)-th and the last
    states = [psi0]
    for u in rows.transpose(2, 0, 1):
        states.append(u @ states[-1])
    keep = np.r_[0:n_blocks:stride // L, n_blocks]
    states = np.array(states)[keep]
    times = t0 + np.minimum(keep * L, n_steps) * dt
    pops = np.abs(states) ** 2
    norms = np.sqrt(pops.sum(axis=1))
    return TransferReport(
        times=times, populations=pops, norms=norms, steps=n_steps, config=cfg,
        schedule_header=schedule.header(),
        states=states if cfg.record_states else None)


def deviation_from_analytic(report: TransferReport,
                            schedule: PulseSchedule) -> float:
    """Max componentwise deviation of report's recorded RK4 states from the
    eigenbasis expansion of schedule's trajectory from the report's first
    state and time, global phase aligned at each state's largest entry."""
    if report.states is None:
        raise ValueError("report has no states; propagate with record_states=True")
    ana = analytic_evolution(schedule.trajectory, report.states[0],
                             report.times, report.times[0])
    i = np.argmax(np.abs(report.states), axis=-1)[:, None]
    shift = (np.angle(np.take_along_axis(report.states, i, axis=-1))
             - np.angle(np.take_along_axis(ana, i, axis=-1)))
    return float(np.max(np.abs(ana * np.exp(1j * shift) - report.states)))


def compare_with_analytic(schedule: PulseSchedule, psi0: np.ndarray,
                          cfg: PropagationConfig | None = None) -> float:
    """deviation_from_analytic over all samples of a propagation with cfg."""
    cfg = replace(cfg or PropagationConfig(), record_states=True)
    return deviation_from_analytic(propagate(schedule, psi0, cfg), schedule)
