"""Self-checks for synthesized schedules: spectrum, invariance, phases, and
agreement between the closed-form expansion and direct integration."""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import (hamiltonian_at, invariance_residual, invariant_at,
                   invariant_eigenvectors, ket)
from .numerics import central_diff
from .propagate import PropagationConfig, compare_with_analytic
from .synthesis import TWO_PI, PulseSchedule

EIGENVALUE_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-12
RESIDUAL_TOL_OVER_OMEGA = 1e-6
PHASE_TOL_OVER_OMEGA = 1e-6
ANALYTIC_TOL = 1e-4
SLOPE_TOL = 0.1
_SPECTRUM_SAMPLES = 25                # trajectory times per check
_RESIDUAL_SAMPLES = 50
_PHASE_SAMPLES = 20


def _interior_times(schedule: PulseSchedule, ts: np.ndarray,
                    margin: float) -> np.ndarray:
    """The times ts outside any patch window (half-width from the schedule's
    own T) widened by margin; raises ValueError if there are none."""
    patched = np.asarray(schedule.params.get("singular_times", []))
    delta_t = (schedule.params.get("delta_t_over_T", 0.0)
               * schedule.params.get("omega_T", 0.0) / schedule.omega)
    kept = ts[np.all(np.abs(ts[:, None] - patched) > delta_t + margin, axis=-1)]
    if not kept.size:
        raise ValueError("no sample time lies outside the patch windows of "
                         f"half-width delta_t = {delta_t:.6g}")
    return kept


def check_spectrum(schedule: PulseSchedule) -> dict:
    """Invariant hermiticity, eigenvalues {-1, 0, 1}, and eigenvector
    orthonormality along the trajectory."""
    aux = schedule.trajectory.at(
        np.linspace(schedule.t_start, schedule.t_end, _SPECTRUM_SAMPLES))
    I = invariant_at(aux)
    V = np.stack(invariant_eigenvectors(aux), axis=-1)   # columns +1, -1, 0
    herm = float(np.max(np.abs(I - np.conj(np.swapaxes(I, -1, -2)))))
    eig = float(np.max(np.abs(np.linalg.eigvalsh(I) - [-1.0, 0.0, 1.0])))
    gram = float(np.max(np.abs(np.conj(np.swapaxes(V, -1, -2)) @ V
                               - np.eye(3))))
    resid = float(np.max(np.linalg.norm(I @ V - V * [1.0, -1.0, 0.0],
                                        axis=-2)))
    return {
        "hermiticity": herm,
        "eigenvalue_deviation": eig,
        "gram_deviation": gram,
        "eigenvector_residual": resid,
        "passed": bool(eig < EIGENVALUE_TOL
                       and gram < ORTHONORMALITY_TOL
                       and resid < ORTHONORMALITY_TOL
                       and herm < ORTHONORMALITY_TOL),
    }


def check_invariance(schedule: PulseSchedule) -> dict:
    """Invariance residual at small h, plus its quadratic decay in h; h is
    scaled to the carrier period, so the O(h^2) error does not grow with
    the number of periods."""
    omega = schedule.omega
    h_small = TWO_PI / omega * 1e-6
    h_slope = TWO_PI / omega * 1e-2
    grid = np.linspace(schedule.t_start, schedule.t_end, _RESIDUAL_SAMPLES + 2)
    ts = _interior_times(schedule, grid[1:-1], margin=2 * h_slope)
    worst = float(np.max(invariance_residual(schedule, ts, h_small)))
    t_mid = ts[len(ts) // 2]
    resid = [invariance_residual(schedule, t_mid, h_slope / 2 ** i)
             for i in range(3)]
    if resid[0] < 1e-12 * omega:
        # residual already at round-off for the coarsest h; no decay to measure
        slope = 2.0
    else:
        slopes = [np.log2(resid[i] / resid[i + 1]) for i in range(2)]
        slope = float(np.mean(slopes))
    return {
        "max_residual_over_omega": worst / omega,
        "h": h_small,
        "slope": slope,
        "passed": bool(worst / omega < RESIDUAL_TOL_OVER_OMEGA
                       and abs(slope - 2.0) < SLOPE_TOL),
    }


def lr_phase_rates_numeric(schedule: PulseSchedule, t,
                           h: float | None = None) -> tuple:
    """Accumulated-phase rates (plus, minus, zero) of the three invariant
    eigenvectors at scalar or array times t, from finite-differenced
    eigenvectors and the schedule Hamiltonian.

    The rates are relative to the energy reference <2|H|2> = 0 of
    core.hamiltonian_entries: adding c(t) times the identity to H shifts
    every rate by -c(t). Only their differences are observable.
    """
    traj = schedule.trajectory
    h = h or (TWO_PI / schedule.omega) * 1e-6

    def phi(u):
        return np.stack(invariant_eigenvectors(traj.at(u)), axis=-1)

    P = phi(t)
    R = 1j * central_diff(phi, t, h) - hamiltonian_at(schedule, t) @ P
    rates = np.sum(np.conj(P) * R, axis=-2).real
    return tuple(np.moveaxis(rates, -1, 0))


def check_phase_consistency(schedule: PulseSchedule) -> dict:
    """The trajectory's phases must integrate the rates measured by
    lr_phase_rates_numeric, theta_pm those of both the +1 and -1 branches."""
    omega = schedule.omega
    h = TWO_PI / omega * 1e-4
    grid = np.linspace(schedule.t_start, schedule.t_end, _PHASE_SAMPLES + 2)
    ts = _interior_times(schedule, grid[1:-1], margin=2 * h)
    measured = np.stack(lr_phase_rates_numeric(schedule, ts))
    declared = central_diff(schedule.trajectory.phases, ts, h)[[0, 0, 1]]
    worst = float(np.max(np.abs(measured - declared)))
    return {
        "max_rate_mismatch_over_omega": worst / omega,
        "passed": bool(worst / omega < PHASE_TOL_OVER_OMEGA),
    }


def check_analytic_agreement(schedule: PulseSchedule,
                             cfg: PropagationConfig | None = None) -> dict:
    """RK4 with cfg from |1> versus the eigenbasis expansion with the
    trajectory's three branch phases, componentwise after phase alignment.
    Skipped for patched schedules, whose invariance is broken inside the
    modification intervals by construction."""
    if schedule.strategy == "b":
        return {"skipped": "patched schedule has no exact expansion",
                "passed": True}
    dev = compare_with_analytic(schedule, ket(1), cfg)
    return {"max_deviation": dev, "passed": bool(dev < ANALYTIC_TOL)}


def check_file_invariance(schedule: PulseSchedule, data: np.ndarray) -> dict:
    """Invariance residual of the Hamiltonian read from file rows, at every
    row time outside the patched intervals, the first and last included.

    H is rebuilt by linear interpolation between rows, but the residual
    samples H only at the times it is given, and np.interp returns each
    row's own value at its node. So every row is checked as written, no
    interpolation error enters, and the closed-form tolerance applies; the
    trajectory is evaluated at t +- h, just outside the domain at the end
    rows. A file needs a row between its ends. data comes from
    load_schedule_csv, whose times increase strictly.
    """
    ts_file = data["t"] * ((schedule.t_end - schedule.t_start)
                           / (data["t"][-1] - data["t"][0]))

    def envelope(field):
        return lambda t: (np.interp(t, ts_file, data["re_omega_" + field])
                          + 1j * np.interp(t, ts_file, data["im_omega_" + field]))

    delta = lambda t: np.interp(t, ts_file, data["delta"])
    from_file = dataclasses.replace(schedule, Delta_p=delta, Delta_s=delta,
                                    Omega_p=envelope("p"), Omega_s=envelope("s"))
    h = TWO_PI / schedule.omega * 1e-6
    ts = _interior_times(schedule, ts_file, margin=2 * h)
    if not np.any((ts > ts_file[0]) & (ts < ts_file[-1])):
        raise ValueError("schedule file has no interior row to check")
    worst = float(np.max(invariance_residual(from_file, ts, h))) / schedule.omega
    return {"max_residual_over_omega": worst,
            "passed": bool(worst < RESIDUAL_TOL_OVER_OMEGA)}


def run_verification(schedule: PulseSchedule, csv: np.ndarray | None = None,
                     cfg: PropagationConfig | None = None) -> dict:
    """All checks for one schedule, RK4 with cfg; csv is an optional record
    array of rows from load_schedule_csv, to validate a serialized copy."""
    checks = {
        "spectrum": check_spectrum(schedule),
        "invariance": check_invariance(schedule),
        "lr_phase_consistency": check_phase_consistency(schedule),
        "analytic_agreement": check_analytic_agreement(schedule, cfg),
    }
    if csv is not None:
        checks["file_invariance"] = check_file_invariance(schedule, csv)
    return {
        "schema_version": 1,
        "schedule": schedule.header(),
        "checks": checks,
        "passed": all(c["passed"] for c in checks.values()),
    }
