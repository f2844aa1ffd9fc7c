"""verify's checks on schedules built by hand, and the sample times they
keep outside strategy B's patch windows."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpulse.core import AuxParams
from lrpulse.numerics import RunningIntegral
from lrpulse.synthesis import (TWO_PI, AuxiliaryTrajectory,
                               solve_omega_T_for_B, strategy_b,
                               synthesize_general)
from lrpulse.verify import (PHASE_TOL_OVER_OMEGA, _interior_times,
                            check_phase_consistency, run_verification)


def resonant_a_schedule(A=0.7, T=1.0, omega=6.97 * np.pi):
    """Strategy A's beta = f cos(omega t)^2 driven at zero detuning: with
    alpha = pi/4 and lambda = 0, eps_dot = omega sin(beta)^2 / cos(2 beta)
    and theta_dot = -omega / cos(2 beta) give Delta = 0, and the branch
    phases are (omega t + eps, -eps)."""
    f = lambda t: 0.5 * A * (1.0 - np.cos(TWO_PI * t / T))
    fdot = lambda t: np.pi * A / T * np.sin(TWO_PI * t / T)
    beta = lambda t: f(t) * np.cos(omega * t) ** 2
    beta_dot = lambda t: (fdot(t) * np.cos(omega * t) ** 2
                          - f(t) * omega * np.sin(2.0 * omega * t))
    eps_dot = lambda t: omega * np.sin(beta(t)) ** 2 / np.cos(2.0 * beta(t))
    eps = RunningIntegral(eps_dot, 0.0, T, 4096)

    def at(t):
        return AuxParams(alpha=np.pi / 4, beta=beta(t), epsilon=eps(t), lam=0.0,
                         beta_dot=beta_dot(t), epsilon_dot=eps_dot(t))

    def phases(t):
        e = eps(t)
        return np.stack([omega * np.asarray(t, dtype=float) + e, -e])

    traj = AuxiliaryTrajectory(at=at, theta_dot=lambda p: -omega / np.cos(2.0 * p.beta),
                               phases=phases, t_start=0.0, t_end=T)
    return synthesize_general(traj, omega)


class TestPhaseConsistency:
    def test_steep_rates_of_a_correct_schedule_pass(self):
        # the rates of the resonant A = 0.7 schedule are steep enough that one
        # central difference at h = 1e-4 carrier periods misreads them by
        # 1.5e-6 omega, above the tolerance; the Richardson combination
        # reads 4.7e-10 omega
        sch = resonant_a_schedule()
        _, _, delta_p, delta_s, _ = sch.sample(np.linspace(0.0, 1.0, 2001))
        assert max(np.max(np.abs(delta_p)), np.max(np.abs(delta_s))) \
            <= 1e-14 * sch.omega
        check = check_phase_consistency(sch)
        assert check["passed"]
        assert check["max_rate_mismatch_over_omega"] <= 1e-3 * PHASE_TOL_OVER_OMEGA


def dense_interior_times(schedule, ts, margin):
    """The times ts farther than delta_t + margin from every listed carrier
    zero, from one (times x zeros) array of distances."""
    zeros = np.asarray(schedule.params.get("singular_times", []))
    delta_t = (schedule.params.get("delta_t_over_T", 0.0)
               * schedule.params.get("omega_T", 0.0) / schedule.omega)
    return ts[np.all(np.abs(ts[:, None] - zeros) > delta_t + margin, axis=-1)]


# the margins of the file, phase and invariance checks, in carrier periods
MARGINS = (2e-6, 2e-4, 2e-2)


class TestInteriorTimes:
    def test_memory_grows_with_times_not_zeros(self):
        # B = 0.07: 54,488 times and 545 carrier zeros, whose dense
        # (times x zeros) distances peaked at 453 MiB under tracemalloc
        omega = solve_omega_T_for_B(0.07).value
        sch = strategy_b(0.07, omega, 1.0, 0.25 * np.pi / omega)
        ts = sch.sample_times(200)
        assert (ts.size, len(sch.params["singular_times"])) == (54488, 545)
        tracemalloc.start()
        try:
            kept = _interior_times(sch, ts, MARGINS[-1] * TWO_PI / omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < kept.size < ts.size
        assert peak <= 4 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(B=st.floats(0.05, 0.8), omega_T_over_pi=st.floats(0.2, 40.0),
           width=st.floats(1e-3, 1.0 - 1e-9), margin=st.sampled_from(MARGINS),
           window=st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0)))
    def test_matches_the_dense_rule(self, B, omega_T_over_pi, width, margin,
                                    window):
        # patch half-widths up to just below pi/(2 omega), windows narrowed at
        # either end (the listed zeros stay those of the whole window), and
        # times on the edges tn -+ (delta_t + margin) and at each zero; with
        # omega*T < pi/2 no zero is listed and every time is kept
        omega = omega_T_over_pi * np.pi
        delta_t, margin = width * 0.5 * np.pi / omega, margin * TWO_PI / omega
        sch = strategy_b(B, omega, 1.0, delta_t)
        sch = dataclasses.replace(sch, t_start=window[0], t_end=window[1])
        zeros = np.asarray(sch.params["singular_times"])
        edge = delta_t + margin
        ts = np.concatenate([sch.sample_times(50), zeros, zeros - edge,
                             zeros + edge])
        expected = dense_interior_times(sch, ts, margin)
        if not expected.size:
            with pytest.raises(ValueError, match="no sample time lies outside"):
                _interior_times(sch, ts, margin)
        else:
            assert np.array_equal(_interior_times(sch, ts, margin), expected)

    def test_no_listed_zero_keeps_every_time(self):
        # omega*T = 1 < pi/2: no carrier zero, no patch, and all four checks
        # run on every sample time
        sch = strategy_b(0.5, 1.0, 1.0, 0.1)
        assert sch.params["singular_times"] == []
        ts = sch.sample_times(200)
        assert np.array_equal(_interior_times(sch, ts, 0.01), ts)
        result = run_verification(sch)
        assert result["passed"]
        assert all(check["passed"] for check in result["checks"].values())
