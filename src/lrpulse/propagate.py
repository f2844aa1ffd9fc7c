"""Fixed-step RK4 integration of the Schrodinger equation for a schedule.

The stiffest timescale is the known carrier frequency, so the step is a
fixed fraction of the carrier period. No renormalization is applied during
integration; norm drift is reported as an integrator-health diagnostic.
A run records its state ten times per carrier period and after its last
step, so identical schedules, psi0 and steps per period give bit-identical
states. RK4 runs on the propagators of all step blocks at once, and one stage
function gives H x to all four RK4 stages. H is sampled in groups of the rows
the blocks read, one hamiltonian_entries call of at most _CHUNK times each,
just before its steps, so a run holds a few rows of samples and the
propagators: memory grows with the number of blocks, not of steps. A
non-finite sample stops the run with an error naming the earliest bad time,
whichever group holds it. Where pump and Stokes agree in value, RK4 runs on
the dark state (|1> - |3>)/sqrt2 and the bright block apart (Morris-Shore);
a group in which they differ restarts the run on the one 3x3 block. The
blocks between records are folded, and only records chained. The analytic
comparisons start at the run's first state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt
from numbers import Integral

import numpy as np

from .core import SQRT2, _as_state, analytic_evolution, hamiltonian_entries
from .errors import PropagationError
from .synthesis import TWO_PI, PulseSchedule, write_table

_CHUNK = 8192   # most times a group samples: its temporaries stay in cache


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


class _Disagree(Exception):
    """Pump and Stokes differ in a group of H samples: no bright/dark split."""


def propagate(schedule: PulseSchedule, psi0: np.ndarray,
              cfg: PropagationConfig | None = None) -> TransferReport:
    """Integrate i d/dt psi = H(t) psi with classical fixed-step RK4 over the
    schedule's domain [t_start, t_end]; to integrate part of it, narrow the
    schedule with dataclasses.replace."""
    cfg = cfg or PropagationConfig()
    psi0 = _as_state(psi0)
    t0, t1 = schedule.t_start, schedule.t_end
    n_steps = max(1, int(np.ceil((t1 - t0) / (TWO_PI / schedule.omega)
                                 * cfg.steps_per_carrier_period)))
    dt = (t1 - t0) / n_steps
    stride = cfg.steps_per_carrier_period // 10   # steps between records
    # blocks of L steps, L the largest divisor of stride up to sqrt(n_steps)/8:
    # that balances the L passes of array RK4 against folding n_steps/L blocks
    L = max(k for k in range(1, min(stride, isqrt(n_steps // 64) or 1) + 1)
            if stride % k == 0)

    # H is sampled on a (2L, n_blocks + 1) grid whose row r of column c is
    # half-step 2cL + r, clipped at t1; the half-step 2(bL+j)+m (start, middle
    # or end of step bL+j) is row (2j+m) mod 2L of column b + (2j+m) div 2L,
    # so the end of a block and the start of the next share one sample. The
    # rows are sampled in groups of up to _CHUNK times just before the steps
    # that read them, and dropped after; row 0 is kept to the end, since row 0
    # of the next column ends each block
    n_blocks = -(-n_steps // L)
    columns = np.arange(0.0, 2 * L * (n_blocks + 1), 2 * L)
    size = max(1, _CHUNK // columns.size)
    groups = [(r, min(r + size, 2 * L)) for r in range(0, 2 * L, size)]

    def sampled():
        """(times, a, p, s, d) of each group of grid rows in turn."""
        for r0, r1 in groups:
            t = np.add(columns, np.arange(float(r0), r1)[:, None])
            np.minimum(t, 2 * n_steps, out=t)
            t *= 0.5 * dt
            t += t0
            yield (t,) + hamiltonian_entries(schedule, t)

    def rows(split):
        """The entries of H at each grid row in turn, as the block layout reads
        them: (a, sqrt2 p, its conj) on the bright/dark split, else (a, p, p*,
        s*, s, d). Raises _Disagree if split and pump and Stokes differ."""
        for t, a, p, s, d in sampled():
            # one finiteness test per distinct array; finite sums prove every
            # entry finite, and only otherwise is the whole grid searched, so
            # the error names the earliest bad time whichever group holds it
            entries = {id(x): x for x in (a, p, s, d)}.values()
            if not all(np.isfinite(x.sum()) for x in entries):
                t_bad = np.concatenate([
                    tg[~np.logical_and.reduce([np.isfinite(x) for x in hg])]
                    for tg, *hg in sampled()])
                if t_bad.size:
                    raise PropagationError(
                        f"non-finite Hamiltonian sample at t={float(t_bad.min())}")
            if not split:
                terms = (a, p, p.conj(), s.conj(), s, d)
            elif (p is s or np.array_equal(p, s)) and (a is d or np.array_equal(a, d)):
                p = np.multiply(p, SQRT2, out=p)   # in place: p is this group's own
                terms = (a, p, p.conj())
            else:
                raise _Disagree
            yield from zip(*terms)

    # H in a constant real basis V as diagonal blocks of terms (i, j, e): entry
    # e of a row couples amplitude j into i. If pump and Stokes agree, V is
    # |+>, |2>, |-> with |+-> = (|1> +- |3>)/sqrt2: |-> is an eigenvector and
    # |+>, |2> couple by sqrt2*h12 (Morris-Shore)
    def stage(terms, h, x, out, y):
        """H x into out at the row entries h; -i is in the steps."""
        filled = set()
        for i, k, e in terms:
            if i in filled:
                np.multiply(h[e], x[k], out=y)
                np.add(out[i], y, out=out[i])
            else:
                np.multiply(h[e], x[k], out=out[i])
                filled.add(i)

    def propagators(split):
        """Classical RK4 on all propagators of a block at once, rows (n, n,
        n_blocks), in buffers allocated once per block; the blocks advance
        together, one step j at a time, as the rows of H arrive."""
        U = np.repeat(np.eye(3, dtype=complex)[:, :, None], n_blocks, 2)
        layout = ([(slice(0, 2), [(0, 0, 0), (0, 1, 1), (1, 0, 2)]),
                   (slice(2, 3), [(0, 0, 0)])] if split else
                  [(slice(0, 3), [(0, 0, 0), (0, 1, 1), (1, 0, 2),
                                  (1, 2, 3), (2, 1, 4), (2, 2, 5)])])
        blocks = []
        for block, terms in layout:
            u = U[block, block]
            blocks.append((terms, u, np.empty((4,) + u.shape, dtype=complex),
                           np.empty_like(u), np.empty_like(u[0])))
        half, full, sixth = -0.5j * dt, -1j * dt, -1j * dt / 6.0
        h = rows(split)
        first = [e.copy() for e in next(h)]   # without the rest of its group
        start = [e[:n_blocks] for e in first]
        for j in range(L):
            mid = [e[:n_blocks] for e in next(h)]
            end = ([e[:n_blocks] for e in next(h)] if j < L - 1
                   else [e[1:] for e in first])
            live = -(-(n_steps - j) // L)   # the blocks b with a step bL + j
            for terms, u, k, x, y in blocks:   # k1 to k4, stage input, product
                stage(terms, start, u, k[0], y)
                for i, (hm, step) in enumerate(((mid, half), (mid, half),
                                                (end, full))):
                    np.multiply(step, k[i], out=x)
                    np.add(u, x, out=x)
                    stage(terms, hm, x, k[i + 1], y)
                # sixth * (k1 + 2 k2 + 2 k3 + k4), operation by operation in
                # the order of that expression, so the sum keeps its rounding
                k1, k2, k3, k4 = k[..., :live]
                np.multiply(k2, 2, out=k2)
                np.add(k1, k2, out=k1)
                np.multiply(k3, 2, out=k3)
                np.add(k1, k3, out=k1)
                np.add(k1, k4, out=k1)
                np.multiply(sixth, k1, out=k1)
                np.add(u[..., :live], k1, out=u[..., :live])
            start = end
        return U

    try:
        U = propagators(True)
        V = np.array([[1, 0, 1], [0, SQRT2, 0], [1, 0, -1]]) / SQRT2
    except _Disagree:   # restart on the one 3x3 block
        U, V = propagators(False), np.eye(3)

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
