"""Fixed-step RK4 integration of the Schrodinger equation for a schedule.

The stiffest timescale is the known carrier frequency, so the step is a
fixed fraction of the carrier period. No renormalization is applied during
integration; norm drift is reported as an integrator-health diagnostic.
A run records its state ten times per carrier period and after its last
step, so identical schedules, psi0 and steps per period give bit-identical
states. RK4 runs on the propagators of all step blocks at once; H is sampled
once, in the layout the blocks read, and one stage function gives H x to all
four RK4 stages. Where pump and Stokes agree in value, RK4 runs on the dark
state (|1> - |3>)/sqrt2 and the bright block apart (Morris-Shore); the blocks
between records are folded, and only records chained. The analytic
comparisons start at the run's first state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt
from numbers import Integral

import numpy as np

from .core import SQRT2, analytic_evolution, hamiltonian_entries, is_normalized
from .errors import PropagationError
from .synthesis import TWO_PI, PulseSchedule, write_table


@dataclass(frozen=True)
class PropagationConfig:
    """Resolution and recording settings for a single propagation."""

    steps_per_carrier_period: int = 2000
    record_states: bool = False

    def __post_init__(self):
        spp = self.steps_per_carrier_period
        if isinstance(spp, bool) or not isinstance(spp, Integral):
            raise ValueError(f"steps_per_carrier_period must be an integer, not {spp!r}")
        if spp < 100:
            raise ValueError("steps_per_carrier_period must be at least 100")


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
        columns = [self.times / time_scale, self.populations, self.norms]
        write_table(path, ("t", "p1", "p2", "p3", "norm"), columns, self.summary())


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
    stride = cfg.steps_per_carrier_period // 10   # steps between records
    # blocks of L steps, L the largest divisor of stride up to sqrt(n_steps)/8:
    # that balances the L passes of array RK4 against folding n_steps/L blocks
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
    t_bad = grid[~np.logical_and.reduce(   # one finiteness test per distinct array
        [np.isfinite(x) for x in {id(x): x for x in (a, p, s, d)}.values()])]
    if t_bad.size:
        raise PropagationError(f"non-finite Hamiltonian sample at t={float(t_bad.min())}")

    # H in a constant real basis V as diagonal blocks of entries (i, j, samples).
    # If pump and Stokes agree, V is |+>, |2>, |-> with |+-> = (|1> +- |3>)/sqrt2:
    # |-> is an eigenvector and |+>, |2> couple by sqrt2*h12 (Morris-Shore)
    if (p is s or np.array_equal(p, s)) and (a is d or np.array_equal(a, d)):
        V = np.array([[1, 0, 1], [0, SQRT2, 0], [1, 0, -1]]) / SQRT2
        p = s = SQRT2 * p   # s too: the unscaled samples are freed
        layout = [(slice(0, 2), [(0, 0, a), (0, 1, p), (1, 0, p.conj())]),
                  (slice(2, 3), [(0, 0, a)])]
    else:
        V = np.eye(3)
        layout = [(slice(0, 3), [(0, 0, a), (0, 1, p), (1, 0, p.conj()),
                                 (1, 2, s.conj()), (2, 1, s), (2, 2, d)])]

    # classical RK4 on all propagators of a block at once, rows (n, n, n_blocks);
    # stage gives H x at sample m (start, middle, end) of step j, -i is in the steps
    def stage(entries, m, j, rows):
        c, r = divmod(2 * j + m, 2 * L)
        out = [None] * len(rows)
        for i, k, h in entries:
            y = h[r, c:c + n_blocks] * rows[k]
            out[i] = y if out[i] is None else out[i] + y
        return out

    U = np.repeat(np.eye(3, dtype=complex)[:, :, None], n_blocks, 2)
    half, full, sixth = -0.5j * dt, -1j * dt, -1j * dt / 6.0
    for block, entries in layout:
        rows = U[block, block]
        for j in range(L):
            k1 = stage(entries, 0, j, rows)
            k2 = stage(entries, 1, j, [c + half * k for c, k in zip(rows, k1)])
            k3 = stage(entries, 1, j, [c + half * k for c, k in zip(rows, k2)])
            k4 = stage(entries, 2, j, [c + full * k for c, k in zip(rows, k3)])
            live = -(-(n_steps - j) // L)   # the blocks b with a step bL + j
            for c, y1, y2, y3, y4 in zip(rows[..., :live], k1, k2, k3, k4):
                c += (sixth * (y1 + 2 * y2 + 2 * y3 + y4))[:, :live]

    # fold the m = stride/L blocks between records in place, the short last
    # run too, and chain the runs in the basis V; records fall on run ends
    m, U = stride // L, U.transpose(2, 0, 1)
    runs = U[::m]
    for u in (U[k::m] for k in range(1, min(m, n_blocks))):
        runs[:len(u)] = u @ runs[:len(u)]
    states = [V.T @ psi0]
    for u in runs:
        states.append(u @ states[-1])
    states = np.array(states) @ V.T
    keep = np.r_[0:n_blocks:m, n_blocks]
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
