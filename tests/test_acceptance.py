"""Acceptance suite: one test per criterion.

Each test gathers its sub-checks into a list of failure messages and asserts
that the list is empty, so a single pytest line reports pass/fail per
criterion and the failure detail names every sub-check that missed.
"""

import dataclasses
import functools
import time

import numpy as np
import pytest

from lrpulse import (PropagationConfig, calibrate_strategy_c,
                     compare_with_analytic, delta_epsilon_per_period,
                     invariant_at, invariant_eigenvectors, ket, propagate,
                     solve_omega_T_for_A, solve_omega_T_for_B, strategy_a,
                     strategy_b, strategy_c)
from lrpulse.core import AuxParams
from lrpulse.synthesis import KAPPA_SUP
from lrpulse.verify import check_invariance, lr_phase_rates_numeric

TABLE_I = {0.2: 179.04, 0.3: 80.28, 0.4: 45.72,
           0.5: 29.73, 0.6: 21.05, 0.7: 15.83}
TABLE_II = {0.4: 17.33, 0.5: 11.34, 0.6: 8.09, 0.7: 6.13}

# omega*T/pi values quoted alongside the strategy-A population-transfer plots
FIGURE_OMEGA_T = {0.4: 45.7220, 0.5: 29.7323, 0.6: 21.0533, 0.7: 15.8274}


@functools.lru_cache(maxsize=None)
def table_a_results():
    start = time.perf_counter()
    values = {A: solve_omega_T_for_A(A).value / np.pi for A in TABLE_I}
    return values, time.perf_counter() - start


@functools.lru_cache(maxsize=None)
def strategy_a_reports():
    out = {}
    for A, u in FIGURE_OMEGA_T.items():
        sch = strategy_a(A, u * np.pi, 1.0)
        start = time.perf_counter()
        rep = propagate(sch, ket(1))
        out[A] = (sch, rep, time.perf_counter() - start)
    return out


@functools.lru_cache(maxsize=None)
def calibrated_c():
    cal = calibrate_strategy_c(np.pi / 6)
    sch = strategy_c(cal.value, 1.0, 6)
    return cal, sch


def test_criterion_1_table_i_reproduction():
    failures = []
    values, elapsed = table_a_results()
    for A, expected in TABLE_I.items():
        if abs(values[A] - expected) > 0.01:
            failures.append(f"A={A}: {values[A]:.4f}pi vs {expected}pi")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    assert not failures, "; ".join(failures)


def test_criterion_2_table_ii_reproduction():
    failures = []
    for B, expected in TABLE_II.items():
        got = solve_omega_T_for_B(B).value / np.pi
        if abs(got - expected) > 0.01:
            failures.append(f"B={B}: {got:.4f}pi vs {expected}pi")
    assert not failures, "; ".join(failures)


def test_criterion_3_strategy_a_fidelity():
    failures = []
    max_p2 = []
    for A, (sch, rep, elapsed) in strategy_a_reports().items():
        if rep.final_p3 <= 0.999:
            failures.append(f"A={A}: final p3={rep.final_p3:.6f} <= 0.999")
        if elapsed >= 60.0:
            failures.append(f"A={A}: runtime {elapsed:.1f}s >= 60s")
        max_p2.append((A, rep.max_p2))
    for (a1, p1), (a2, p2) in zip(max_p2, max_p2[1:]):
        if not p2 > p1:
            failures.append(
                f"max p2 not increasing: A={a1}:{p1:.4f} -> A={a2}:{p2:.4f}")
    assert not failures, "; ".join(failures)


def test_criterion_4_strategy_b_fidelities():
    failures = []
    omega = solve_omega_T_for_B(0.5).value
    cases = [(0.01, False, 0.8516), (0.005, False, 0.9618),
             (0.01, True, 0.8675), (0.005, True, 0.9680)]
    for dt, no_imag, expected in cases:
        sch = strategy_b(0.5, omega, 1.0, dt, neglect_imag=no_imag)
        p3 = propagate(sch, ket(1)).final_p3
        if abs(p3 - expected) > 0.02:
            failures.append(f"dt={dt}T neglect_imag={no_imag}: "
                            f"p3={p3:.4f} vs {expected}")
    assert not failures, "; ".join(failures)


def test_criterion_5_strategy_c_calibration_and_timing():
    failures = []
    cal, sch = calibrated_c()
    if abs(cal.value - 0.3396) > 0.0005:
        failures.append(f"calibrated ratio {cal.value:.5f} vs 0.3396")

    # exactly six periods accumulate the full half-turn of epsilon
    per = delta_epsilon_per_period(cal.value)
    if round(np.pi / per) != 6:
        failures.append(f"pi / per-period increment = {np.pi / per:.3f}, not 6")
    full = propagate(sch, ket(1))
    if full.final_p3 < 0.9999:
        failures.append(f"six-period transfer incomplete: p3={full.final_p3:.6f}")

    # population at 24 quarter-periods (time unit pi/(2 omega), omega = 1)
    unit = 0.5 * np.pi
    at24 = propagate(dataclasses.replace(sch, t_end=24.0 * unit), ket(1))
    if abs(at24.final_p3 - 0.806) > 0.01:
        failures.append(f"p3(24) = {at24.final_p3:.4f} vs 0.806")

    # plateau: p3 >= 0.9999 from the onset t* to 25 quarter-periods. Once
    # |1> is emptied, 1 - p3 is the designed |2> population
    # P2 = sin(beta)^2 / 2, so t* is where P2 falls through 1e-4 for good,
    # taken from the closed-form beta at the criterion's kappa; it must lie
    # near the quoted 24.71.
    def p2_designed(kappa, t):   # t in units of 1/omega, omega = 1
        beta = -0.5 * np.arcsin(2.0 * np.sqrt(2.0) * kappa * np.cos(t) ** 4)
        return 0.5 * np.sin(beta) ** 2

    onset = _oracle_bisect(lambda u: p2_designed(0.3396, u * unit) - 1e-4,
                           24.5, 25.0, tol=1e-10)
    if abs(onset - 24.71) > 0.02:
        failures.append(f"plateau onset t* = {onset:.4f} vs 24.71 +/- 0.02")
    units = full.times / unit
    end = units <= 25.0 + 1e-9
    window = (units >= onset) & end
    plateau_min = float(np.min(full.populations[window, 2]))
    if plateau_min < 0.9999:
        failures.append(f"min p3 on [t* = {onset:.4f}, 25] = "
                        f"{plateau_min:.6f} < 0.9999")
    # on [24.71, 25] the deficit 1 - p3 is the designed |2> population,
    # not a leak out of the invariant's transfer branch
    window = (units >= 24.71) & end
    leak = float(np.max(np.abs(1.0 - full.populations[window, 2]
                               - p2_designed(cal.value, full.times[window]))))
    if leak > 1e-6:
        failures.append(f"1 - p3 - sin(beta)^2/2 on [24.71, 25] = "
                        f"{leak:.2e} > 1e-6")

    # imaginary-part amplitude bound at the calibrated ratio
    ts = sch.sample_times(2000)
    max_imag = float(np.max(np.abs(np.imag(sch.Omega_p(ts)))))
    if max_imag >= 0.64:
        failures.append(f"max |imag envelope| = {max_imag:.4f} >= 0.64 omega")
    assert not failures, "; ".join(failures)


def test_criterion_6_property_suite():
    failures = []
    omega_a = FIGURE_OMEGA_T[0.5] * np.pi
    sch_a = strategy_a(0.5, omega_a, 1.0)
    sch_b = strategy_b(0.5, solve_omega_T_for_B(0.5).value, 1.0, 0.01)
    sch_c = calibrated_c()[1]

    # quadratic decay of the invariance residual on every strategy
    for sch in (sch_a, sch_b, sch_c):
        res = check_invariance(sch)
        if abs(res["slope"] - 2.0) > 0.1:
            failures.append(f"strategy {sch.strategy}: residual decay slope "
                            f"{res['slope']:.3f} not 2 +/- 0.1")

    # invariant spectrum and eigenvector orthonormality over random draws
    rng = np.random.default_rng(42)
    worst_eig = worst_gram = 0.0
    for _ in range(1000):
        aux = AuxParams(alpha=rng.uniform(-np.pi, np.pi),
                        beta=rng.uniform(-np.pi, np.pi),
                        epsilon=rng.uniform(-np.pi, np.pi),
                        lam=rng.uniform(-np.pi, np.pi))
        rng.uniform(-np.pi, np.pi)   # unused fifth draw keeps the sequence
        eigs = np.sort(np.linalg.eigvalsh(invariant_at(aux)))
        worst_eig = max(worst_eig,
                        float(np.max(np.abs(eigs - [-1.0, 0.0, 1.0]))))
        V = np.column_stack(invariant_eigenvectors(aux))
        worst_gram = max(worst_gram,
                         float(np.max(np.abs(V.conj().T @ V - np.eye(3)))))
    if worst_eig > 1e-10:
        failures.append(f"eigenvalue deviation {worst_eig:.2e} > 1e-10")
    if worst_gram > 1e-12:
        failures.append(f"orthonormality deviation {worst_gram:.2e} > 1e-12")

    # phases of the +/-1 eigenvector branches along a synthesized trajectory.
    # A branch phase is relative to the energy reference <2|H|2> = 0 (adding
    # c(t)*1 to H shifts every rate by -c(t)); what drives the transfer is
    # that both branches gain the same phase, at rate omega - eps_dot with
    # eps_dot = omega * sin(beta)^2 and strategy A's closed-form beta.
    ts = np.linspace(0.2, 0.8, 7)
    # A = 0.5, T = 1: beta = A/2 (1 - cos(2 pi t / T)) cos(omega t)^2
    beta = 0.25 * (1.0 - np.cos(2.0 * np.pi * ts)) * np.cos(omega_a * ts) ** 2
    expected = omega_a - omega_a * np.sin(beta) ** 2
    rp, rm, _ = lr_phase_rates_numeric(sch_a, ts)
    split = float(np.max(np.abs(rp - rm)))
    if split >= 1e-6 * omega_a:
        failures.append(f"+/- branch phase rates differ by {split:.3e} "
                        f">= 1e-6 omega = {1e-6 * omega_a:.3e}")
    worst_rate = float(np.max(np.abs(np.stack([rp, rm]) - expected)))
    if worst_rate >= 1e-6 * omega_a:
        failures.append(f"+/- branch phase rate off omega - eps_dot by "
                        f"{worst_rate:.3e} >= 1e-6 omega")

    # closed-form evolution against RK4 on strategies a and c
    for sch in (sch_a, sch_c):
        dev = compare_with_analytic(sch, ket(1))
        if dev > 1e-4:
            failures.append(f"strategy {sch.strategy}: analytic-vs-RK4 "
                            f"deviation {dev:.2e} > 1e-4")

    # norm drift
    drift = propagate(sch_a, ket(1)).norm_drift
    if drift > 1e-9:
        failures.append(f"norm drift {drift:.2e} > 1e-9")

    # empirical integrator order from global error against a fine reference
    probe = strategy_c(0.33, 1.0, 1)
    ref = propagate(probe, ket(1), PropagationConfig(
        steps_per_carrier_period=6400, record_states=True)).states[-1]

    def err(spp):
        out = propagate(probe, ket(1), PropagationConfig(
            steps_per_carrier_period=spp, record_states=True)).states[-1]
        return float(np.linalg.norm(out - ref))

    e1, e2, e3 = err(100), err(200), err(400)
    order = 0.5 * (np.log2(e1 / e2) + np.log2(e2 / e3))
    if abs(order - 4.0) > 0.5:
        failures.append(f"integrator order {order:.2f} not 4 +/- 0.5")
    assert not failures, "; ".join(failures)


# --------------------------------------------------------------------------
# criterion 7: independent dense-grid oracles
# --------------------------------------------------------------------------

def _oracle_bisect(g, lo, hi, tol=1e-8):
    glo = g(lo)
    assert glo * g(hi) <= 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if glo * g(mid) <= 0:
            hi = mid
        else:
            lo, glo = mid, g(mid)
    return 0.5 * (lo + hi)


def _oracle_omega_T(param, with_carrier, n_grid):
    s = np.linspace(0.0, 1.0, n_grid)
    f = 0.5 * param * (1.0 - np.cos(2.0 * np.pi * s))

    def eps_total(u):
        beta = f * np.cos(u * s) ** 2 if with_carrier else f
        return u * np.trapezoid(np.sin(beta) ** 2, s)

    g = lambda u: eps_total(u) - np.pi
    u = 0.3
    while g(u) < 0:
        u += 0.3
    return _oracle_bisect(g, u - 0.3, u, tol=1e-7)


def test_criterion_7_oracle_equivalence():
    failures = []

    got = solve_omega_T_for_A(0.45).value / np.pi
    ora = _oracle_omega_T(0.45, True, 400001) / np.pi
    if abs(got - ora) > 1e-4:
        failures.append(f"A=0.45: {got:.6f}pi vs oracle {ora:.6f}pi")

    got = solve_omega_T_for_B(0.45).value / np.pi
    ora = _oracle_omega_T(0.45, False, 100001) / np.pi
    if abs(got - ora) > 1e-4:
        failures.append(f"B=0.45: {got:.6f}pi vs oracle {ora:.6f}pi")

    u = np.linspace(0.5 * np.pi, 2.5 * np.pi, 100001)

    def per_period(kappa):
        beta = -0.5 * np.arcsin(2.0 * np.sqrt(2.0) * kappa * np.cos(u) ** 4)
        return np.trapezoid(np.sin(beta) ** 2, u)

    target = np.pi / 8.0
    ora = _oracle_bisect(lambda k: per_period(k) - target,
                         0.0, KAPPA_SUP * (1.0 - 1e-9))
    got = calibrate_strategy_c(target).value
    if abs(got - ora) > 1e-4:
        failures.append(f"per-period target pi/8: {got:.6f} vs oracle {ora:.6f}")
    assert not failures, "; ".join(failures)
