"""verify's checks on schedules built by hand."""

import numpy as np

from lrpulse.core import AuxParams
from lrpulse.numerics import RunningIntegral
from lrpulse.synthesis import (TWO_PI, AuxiliaryTrajectory,
                               synthesize_general)
from lrpulse.verify import PHASE_TOL_OVER_OMEGA, check_phase_consistency


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
