"""Tests for trajectories, inverse engineering, strategies, and calibration."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpulse import (calibrate_strategy_c, carrier_singular_times,
                     delta_epsilon_per_period, general_trajectory,
                     invariance_residual, load_schedule_csv, reduced_trajectory,
                     solve_omega_T_for_A, solve_omega_T_for_B, strategy_a,
                     strategy_b, strategy_c, synthesize_general)
from lrpulse import compare_with_analytic, ket, run_verification, synthesis
from lrpulse.core import SQRT2, hamiltonian_entries, lr_phase_rate
from lrpulse.errors import CalibrationError, SynthesisError
from lrpulse.numerics import Bracket, find_root, integrate
from lrpulse.propagate import _CHUNK
from lrpulse.synthesis import (KAPPA_SUP, _bessel_j0, _carrier_mean_sin2,
                               _deviation_constant)
from lrpulse.verify import (ANALYTIC_TOL, RESIDUAL_TOL_OVER_OMEGA, SLOPE_TOL,
                            check_invariance, check_phase_consistency)


def simpson(f, a, b, n):
    """Composite Simpson rule on n (even) fixed panels: an oracle that shares
    no code with the package's Gauss-Legendre quadrature."""
    xs = np.linspace(a, b, n + 1)
    ys = f(xs)
    return (b - a) / (3.0 * n) * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                                  + 2.0 * ys[2:-1:2].sum())


def wallis_delta_epsilon(kappa, terms=400):
    """-pi * sum_{n>=1} binom(1/2, n) (-8 kappa^2)^n binom(8n, 4n) / 2^(8n):
    sin(beta)^2 = (1 - sqrt(1 - 8 kappa^2 cos(u)^8)) / 2 expanded in powers
    of cos(u)^8 and integrated over one period with Wallis' integral."""
    total, coeff, wallis = 0.0, 1.0, 1.0
    for n in range(1, terms + 1):
        coeff *= (1.5 - n) / n * (-8.0 * kappa ** 2)   # binom(1/2, n) (-8k^2)^n
        for j in range(8 * n - 7, 8 * n + 1):           # binom(8n, 4n) / 2^(8n)
            wallis *= j / 2.0
        for j in range(4 * n - 3, 4 * n + 1):
            wallis /= j * j
        total += coeff * wallis
    return -np.pi * total


def trapezoid_j0(z, n=64):
    """(1/pi) int_0^pi cos(z cos(theta)) dtheta by the trapezoid rule, which
    is spectrally accurate for this even periodic integrand."""
    theta = np.linspace(0.0, np.pi, n + 1)
    ys = np.cos(np.multiply.outer(z, np.cos(theta)))
    return (ys.sum(axis=-1) - 0.5 * (ys[..., 0] + ys[..., -1])) / n


def full_march_omega_T(beta_of):
    """(value, residual) of the omega*T calibration with g evaluated at every
    march point u = pi/2, pi, ... up to the first sign change, then solved
    to tol 1e-6 with the package's integrate and find_root."""
    two_pi = 2.0 * np.pi

    def g(u):
        beta = beta_of(u)
        return u * integrate(lambda s: np.sin(beta(s)) ** 2, 0.0, 1.0,
                             8 * (1 + int(u / two_pi))) - np.pi

    step = 0.5 * np.pi
    lo = hi = step
    while True:
        hi = hi + step
        if g(hi) >= 0:
            break
        lo = hi
    root, _ = find_root(g, Bracket(lo, hi), tol=1e-6)
    return root, abs(g(root))


def unit_window(amp):
    """The calibrations' window on s = t/T, in the package's operation order."""
    return lambda s: 0.5 * amp * (1.0 - np.cos(2.0 * np.pi * s / 1.0))


def carrier_mean_integral(A):
    """I, the Simpson integral in s of the carrier mean of
    sin(f cos(theta)^2)^2, taken by the trapezoid rule over theta, which
    keeps its relative precision at small f."""
    f = unit_window(A)
    theta = np.linspace(0.0, np.pi, 65)
    return simpson(lambda s: np.mean(np.sin(np.multiply.outer(
        f(s), np.cos(theta[:-1]) ** 2)) ** 2, axis=-1), 0.0, 1.0, 2 ** 10)


def simpson_deviations(A):
    """(u, eps(u) - u*I) in chunks over u in [0.05, 20 pi) by 0.05 and
    [20 pi, 200 pi) by 1, by Simpson in s (I from carrier_mean_integral)."""
    f = unit_window(A)
    rate = carrier_mean_integral(A)
    for us, n in ((np.arange(0.05, 20 * np.pi, 0.05), 2 ** 11),
                  (np.arange(20 * np.pi, 200 * np.pi, 1.0), 2 ** 13)):
        s = np.linspace(0.0, 1.0, n + 1)
        weights = np.tile([2.0, 4.0], n // 2 + 1)[:n + 1] / (3.0 * n)
        weights[0] = weights[-1] = 1.0 / (3.0 * n)
        for chunk in np.array_split(us, len(us) // 64 + 1):
            eps = chunk * (np.sin(f(s) * np.cos(np.outer(chunk, s)) ** 2)
                           ** 2 @ weights)
            yield chunk, eps - chunk * rate


def simpson_omega_T_for_A(A):
    """The root of g(u) = u * int_0^1 sin(f(s) cos(u s)^2)^2 ds - pi, the
    integral by Simpson on 2^15 panels, by the secant method from pi/I."""
    f = unit_window(A)

    def g(u):
        return u * simpson(lambda s: np.sin(f(s) * np.cos(u * s) ** 2) ** 2,
                           0.0, 1.0, 2 ** 15) - np.pi

    u0 = np.pi / carrier_mean_integral(A)
    u1 = u0 + 1e-2
    g0, g1 = g(u0), g(u1)
    for _ in range(50):
        u0, g0, u1 = u1, g1, u1 - g1 * (u1 - u0) / (g1 - g0)
        g1 = g(u1)
        if abs(u1 - u0) <= 1e-12 * u1:
            return u1
    raise AssertionError(f"secant did not converge at A = {A}")


def assert_near_simpson_root(A):
    # within find_root's tol/2 of an independent root
    assert abs(solve_omega_T_for_A(A).value - simpson_omega_T_for_A(A)) <= 5e-7


@pytest.fixture
def beta_a_calls(monkeypatch):
    """The omega*T of every synthesis._beta_a call, in call order."""
    seen = []
    beta_a = synthesis._beta_a

    def recording(f, fdot, u):
        seen.append(u)
        return beta_a(f, fdot, u)

    monkeypatch.setattr(synthesis, "_beta_a", recording)
    return seen


def window_beta(A, T, omega):
    beta = lambda t: 0.5 * A * (1 - np.cos(2 * np.pi * np.asarray(t) / T)) \
        * np.cos(omega * np.asarray(t)) ** 2
    beta_dot = lambda t: (0.5 * A * (2 * np.pi / T)
                          * np.sin(2 * np.pi * np.asarray(t) / T)
                          * np.cos(omega * np.asarray(t)) ** 2
                          - 0.5 * A * (1 - np.cos(2 * np.pi * np.asarray(t) / T))
                          * omega * np.sin(2 * omega * np.asarray(t)))
    return beta, beta_dot


class TestReducedTrajectory:
    def test_epsilon_matches_quadrature(self):
        omega = 20.0
        beta, beta_dot = window_beta(0.5, 1.0, omega)
        traj = reduced_trajectory(beta, beta_dot, omega, 0.0, 1.0)
        for t in (0.21, 0.5, 0.83, 1.0):
            ref = omega * simpson(lambda u: np.sin(beta(u)) ** 2, 0.0, t,
                                  2 ** 14)
            assert abs(traj.at(t).epsilon - ref) < 1e-9

    def test_constraint_holds(self):
        omega = 20.0
        beta, beta_dot = window_beta(0.4, 1.0, omega)
        traj = reduced_trajectory(beta, beta_dot, omega, 0.0, 1.0)
        for t in np.linspace(0.05, 0.95, 7):
            assert traj.at(t).constraint_residual() < 1e-14

    def test_branch_phases(self):
        omega = 20.0
        beta, beta_dot = window_beta(0.5, 1.0, omega)
        traj = reduced_trajectory(beta, beta_dot, omega, 0.0, 1.0)
        t = 0.63
        eps = traj.at(t).epsilon
        assert traj.phases(t)[0] == pytest.approx(omega * t - eps)
        assert traj.phases(t)[1] == pytest.approx(-eps)


def lambda_trajectory(beta_calls=None):
    """A trajectory with nonconstant lambda on [0.3, 0.7], a window free of
    the zeros of cos(2*pi*t); beta appends its times to beta_calls, if given."""
    t0, t1 = 0.3, 0.7

    def beta(t):
        if beta_calls is not None:
            beta_calls.append(t)
        return 0.9 + 0.2 * np.sin(np.pi * (np.asarray(t) - t0) / (t1 - t0))

    beta_dot = lambda t: 0.2 * np.pi / (t1 - t0) \
        * np.cos(np.pi * (np.asarray(t) - t0) / (t1 - t0))
    eps = lambda t: 0.5 * (np.asarray(t) - t0)
    eps_dot = lambda t: 0.5 + 0.0 * np.asarray(t)
    lam = lambda t: 0.15 * np.sin(2 * np.pi * (np.asarray(t) - t0))
    lam_dot = lambda t: 0.3 * np.pi * np.cos(2 * np.pi * (np.asarray(t) - t0))
    return general_trajectory(np.pi / 3, beta, beta_dot, eps, eps_dot,
                              lam, lam_dot, t0, t1)


def assert_carrier_zero_limit(sch):
    """synthesize_general of sch's trajectory takes the quotient's limit at
    and just beside each carrier zero: finite, and within 1e-7 of sch's own
    envelope."""
    omega = sch.omega
    zeros = carrier_singular_times(omega, sch.t_start, sch.t_end)
    ts = np.concatenate([zeros, zeros + 1e-12 / omega, zeros - 3e-9 / omega])
    assert np.all(np.abs(np.cos(omega * ts)) < synthesis._CARRIER_ZERO_TOL)
    general = synthesize_general(sch.trajectory, omega)
    for field in ("Omega_p", "Omega_s"):
        envelope = getattr(general, field)(ts)
        assert np.all(np.isfinite(envelope))
        assert np.max(np.abs(envelope - sch.Omega_p(ts))) < 1e-7


class TestSynthesizeGeneral:
    def test_matches_strategy_a(self):
        # the factored strategy-a envelope and the generic quotient must
        # agree, also where the quotient takes its limit at a carrier zero
        omega, T, A = 30.0, 1.0, 0.5
        sch_a = strategy_a(A, omega, T)
        sch_g = synthesize_general(sch_a.trajectory, omega)
        ts = np.linspace(0.013, T - 0.013, 401)
        assert np.max(np.abs(sch_a.Omega_p(ts) - sch_g.Omega_p(ts))) < 1e-7
        assert np.max(np.abs(sch_a.Delta_p(ts) - sch_g.Delta_p(ts))) < 1e-9
        assert_carrier_zero_limit(sch_a)

    def test_carrier_zero_limit_matches_strategy_c(self):
        assert_carrier_zero_limit(strategy_c(0.3, 1.0, 2))

    @pytest.mark.parametrize("t_start, t_end", [(0.25, 0.6), (-0.1, 0.25)])
    def test_singular_window_end_rejected(self, t_start, t_end):
        # cos(2 pi t) vanishes at t = 0.25, an end of the window, where the
        # pump numerator does not: the ends are checked like the inside
        const = lambda v: lambda t: v + 0.0 * np.asarray(t)
        traj = general_trajectory(np.pi / 4, const(0.5), const(0.0),
                                  lambda t: 0.3 * (np.asarray(t) - 0.25), const(0.3),
                                  const(0.0), const(0.0), t_start, t_end)
        with pytest.raises(SynthesisError, match="pump envelope is singular at t=0.25:"):
            synthesize_general(traj, 2 * np.pi)
        # strategy B lists the carrier zeros strictly inside its window
        sch = strategy_b(0.5, 2 * np.pi, 1.25, 0.01)
        assert sch.params["singular_times"] == [0.25, 0.75]

    @pytest.mark.parametrize("omega", [np.nan, np.inf, 0.0])
    def test_carrier_checked_first(self, omega):
        with pytest.raises(ValueError, match="^carrier frequency must be"):
            synthesize_general(lambda_trajectory(), omega)

    def test_one_trajectory_sample_per_call(self):
        # the four fields are views of one sampler, which reads the
        # trajectory's angles and phase rate once a call
        traj, calls = lambda_trajectory(), {"at": 0, "theta_dot": 0}

        def counted(name):
            fn = getattr(traj, name)

            def wrapper(t):
                calls[name] += 1
                return fn(t)
            return wrapper

        sch = synthesize_general(dataclasses.replace(
            traj, at=counted("at"), theta_dot=counted("theta_dot")), 2 * np.pi)
        calls.update(at=0, theta_dot=0)
        sch.sample(np.linspace(sch.t_start, sch.t_end, 11))
        assert calls == {"at": 1, "theta_dot": 1}

    def test_one_beta_read_per_sample(self):
        # theta_dot reads the AuxParams that at returned, so one sample calls
        # the trajectory's own beta (in at and in alpha's running integral)
        # as often as one at(t) does, not twice as often
        calls = []
        sch = synthesize_general(lambda_trajectory(calls), 2 * np.pi)
        ts = np.linspace(sch.t_start, sch.t_end, 11)
        calls.clear()
        sch.trajectory.at(ts)
        per_read = len(calls)
        calls.clear()
        sch.sample(ts)
        assert per_read >= 1 and len(calls) == per_read

    def test_rejects_unremovable_singularity(self):
        # a mixing angle without the squared-carrier factor leaves the
        # envelope quotient unbounded at the carrier zeros
        omega, T = 30.0, 1.0
        beta = lambda t: 0.25 * (1 - np.cos(2 * np.pi * np.asarray(t) / T))
        beta_dot = lambda t: 0.25 * (2 * np.pi / T) \
            * np.sin(2 * np.pi * np.asarray(t) / T)
        traj = reduced_trajectory(beta, beta_dot, omega, 0.0, T)
        with pytest.raises(SynthesisError):
            synthesize_general(traj, omega)

    def test_general_lambda_trajectory(self):
        t0, t1, w = 0.3, 0.7, 2 * np.pi
        traj = lambda_trajectory()
        sch = synthesize_general(traj, w)
        for t in np.linspace(t0 + 0.02, t1 - 0.02, 9):
            assert invariance_residual(sch, t, 1e-7) < 1e-7
            assert traj.at(t).constraint_residual() < 1e-9

    def test_phase_zero_matches_quadrature(self):
        # the 0 branch phase's integrand calls alpha, itself a running
        # integral, on the outer rule's 2-D array of nodes
        traj = lambda_trajectory()
        rate = lambda u: traj.theta_dot(traj.at(u)) * np.sin(traj.at(u).beta) ** 2
        ref = simpson(rate, 0.3, 0.7, 2 ** 12)
        assert abs(traj.phases(0.7)[1] - ref) < 1e-10

    def test_phase_rate_sampled_once(self, monkeypatch):
        # the branch phases share one running integral of theta_dot
        calls = []

        def counted(aux):
            calls.append(aux)
            return lr_phase_rate(aux)

        monkeypatch.setattr(synthesis, "lr_phase_rate", counted)
        traj = lambda_trajectory()
        assert len(calls) == 1

    def test_verification_runs_every_check(self):
        # the branch phases of a lambda trajectory expand and verify like
        # those of strategies a, b and c
        result = run_verification(synthesize_general(lambda_trajectory(),
                                                     2 * np.pi))
        checks = result["checks"]
        assert result["passed"]
        assert all("skipped" not in check for check in checks.values())
        assert checks["invariance"]["max_residual_over_omega"] < 1e-9
        assert checks["lr_phase_consistency"]["max_rate_mismatch_over_omega"] \
            <= 1e-7
        assert checks["analytic_agreement"]["max_deviation"] <= 1e-10

    @pytest.mark.parametrize("row", [0, 1], ids=["theta_pm", "theta_0"])
    @pytest.mark.parametrize("general", [False, True], ids=["c", "lambda"])
    def test_each_phase_is_checked(self, general, row):
        # a drift c*(t - t_start), c = 1e-3 omega, on one of the two phases.
        # From |1> on strategies a, b and c only the +-1 branches are
        # populated, so their shared phase is a global phase there and the
        # analytic comparison cannot see it: only the phase check can.
        sch = (synthesize_general(lambda_trajectory(), 2 * np.pi) if general
               else strategy_c(0.3, 1.0, 2))
        traj, c = sch.trajectory, 1e-3 * sch.omega
        drift = lambda t: np.multiply.outer(
            np.eye(2)[row], c * (np.asarray(t, dtype=float) - traj.t_start))
        bad = dataclasses.replace(sch, trajectory=dataclasses.replace(
            traj, phases=lambda t: traj.phases(t) + drift(t)))
        check = check_phase_consistency(bad)
        assert not check["passed"]
        assert check["max_rate_mismatch_over_omega"] == pytest.approx(1e-3, rel=1e-3)
        deviation = compare_with_analytic(bad, ket(1))
        assert deviation > ANALYTIC_TOL if general else deviation < ANALYTIC_TOL

    @settings(max_examples=20, deadline=None)
    @given(alpha0=st.floats(0.8, 1.2), beta0=st.floats(0.6, 1.2),
           beta_amp=st.floats(0.0, 0.2), eps_rate=st.floats(0.2, 1.0),
           lam_amp=st.floats(0.02, 0.2))
    def test_random_lambda_trajectories(self, alpha0, beta0, beta_amp,
                                        eps_rate, lam_amp):
        # one pump/Stokes formula must realize every trajectory exactly
        t0, t1, w = 0.3, 0.7, 2 * np.pi
        x = lambda t: np.pi * (np.asarray(t) - t0) / (t1 - t0)
        y = lambda t: 2 * np.pi * (np.asarray(t) - t0)
        traj = general_trajectory(
            alpha0, lambda t: beta0 + beta_amp * np.sin(x(t)),
            lambda t: beta_amp * np.pi / (t1 - t0) * np.cos(x(t)),
            lambda t: eps_rate * (np.asarray(t) - t0),
            lambda t: np.full(np.shape(t), eps_rate),
            lambda t: lam_amp * np.sin(y(t)),
            lambda t: 2 * np.pi * lam_amp * np.cos(y(t)), t0, t1)
        sch = synthesize_general(traj, w)
        ts = np.linspace(t0 + 0.02, t1 - 0.02, 9)
        assert np.max(invariance_residual(sch, ts, 1e-7)) < 1e-7
        # the residual decays as O(h^2), h a fraction of the carrier period
        h = 1e-2 * 2 * np.pi / w
        r = [invariance_residual(sch, ts, h / 2 ** i) for i in range(3)]
        slopes = np.log2([r[0] / r[1], r[1] / r[2]])
        assert np.max(np.abs(slopes - 2.0)) < SLOPE_TOL
        # and the branch phases carry every state along it
        for psi0 in (ket(1), ket(3), np.array([0.6, 0.8j, 0.0])):
            assert compare_with_analytic(sch, psi0) <= 1e-10


class TestStrategyA:
    def test_envelope_finite_at_carrier_zeros(self):
        omega, T = 45.72 * np.pi, 1.0
        sch = strategy_a(0.5, omega, T)
        for tz in carrier_singular_times(omega, 0.0, T)[:5]:
            assert np.isfinite(complex(sch.Omega_p(tz)))

    def test_envelope_vanishes_at_ends(self):
        sch = strategy_a(0.5, 30.0, 1.0)
        assert abs(complex(sch.Omega_p(0.0))) < 1e-12
        assert abs(complex(sch.Omega_p(1.0))) < 1e-10

    def test_pump_equals_stokes(self):
        sch = strategy_a(0.4, 30.0, 1.0)
        ts = np.linspace(0, 1, 50)
        assert np.max(np.abs(sch.Omega_p(ts) - sch.Omega_s(ts))) == 0.0

    def test_detuning_relation(self):
        sch = strategy_a(0.4, 30.0, 1.0)
        ts = np.linspace(0, 1, 50)
        ref = -2.0 * 30.0 * np.sin(sch.trajectory.at(ts).beta) ** 2
        assert np.max(np.abs(sch.Delta_p(ts) - ref)) < 1e-12

    def test_invariance_at_smallest_calibrated_A(self):
        # omega*T = 1976.6 pi: a step h of 1e-6 of the span instead of the
        # carrier period reads 1.9e-6 omega, all O(h^2) truncation error
        A = 0.06
        sch = strategy_a(A, solve_omega_T_for_A(A).value, 1.0)
        res = check_invariance(sch)
        assert res["passed"]
        assert res["max_residual_over_omega"] < 1e-2 * RESIDUAL_TOL_OVER_OMEGA

    def test_validation(self):
        with pytest.raises(ValueError):
            strategy_a(1.5, 30.0, 1.0)
        with pytest.raises(ValueError):
            strategy_a(0.4, -1.0, 1.0)


class TestStrategyB:
    def test_patch_is_linear_and_continuous(self):
        omega = 11.3369 * np.pi
        sch = strategy_b(0.5, omega, 1.0, 0.01)
        tn = sch.params["singular_times"][2]
        lo, hi = tn - 0.01, tn + 0.01
        vlo, vhi = complex(sch.Omega_p(lo)), complex(sch.Omega_p(hi))
        mid = complex(sch.Omega_p(tn))
        assert abs(mid - 0.5 * (vlo + vhi)) < 1e-9
        # continuity at the patch edges
        assert abs(complex(sch.Omega_p(lo - 1e-12)) - vlo) < 1e-6
        assert np.isfinite(mid)

    def test_neglect_imag(self):
        sch = strategy_b(0.5, 11.3369 * np.pi, 1.0, 0.01, neglect_imag=True)
        ts = np.linspace(0.1, 0.9, 200)
        assert np.max(np.abs(np.imag(sch.Omega_p(ts)))) == 0.0

    def test_detuning_unpatched(self):
        omega = 11.3369 * np.pi
        sch = strategy_b(0.5, omega, 1.0, 0.01)
        tn = sch.params["singular_times"][1]
        assert complex(sch.Delta_p(tn)) == pytest.approx(
            -2.0 * omega * np.sin(sch.trajectory.at(tn).beta) ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            strategy_b(0.5, 30.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            strategy_b(0.5, 30.0, 1.0, 0.2)   # overlaps adjacent zeros
        with pytest.raises(ValueError, match="delta_t must lie in"):
            strategy_b(0.5, 30.0, 1.0, np.nan)

    @pytest.mark.parametrize("omega,T", [(0.0, 1.0), (-30.0, 1.0),
                                         (30.0, 0.0), (30.0, -1.0)])
    def test_non_positive_omega_or_T(self, omega, T):
        with pytest.raises(ValueError, match="omega and T must be positive"):
            strategy_b(0.5, omega, T, 0.01)


class TestAmplitudeBounds:
    ENTRY_POINTS = {
        "strategy_a": ("A", lambda amp: strategy_a(amp, 30.0, 1.0)),
        "solve_omega_T_for_A": ("A", solve_omega_T_for_A),
        "strategy_b": ("B", lambda amp: strategy_b(amp, 30.0, 1.0, 0.01)),
        "solve_omega_T_for_B": ("B", solve_omega_T_for_B),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bounds_like_the_solver(self, entry):
        # an amplitude of 0 transfers nothing, so no omega*T completes it
        name, call = self.ENTRY_POINTS[entry]
        for amp in (0.0, -0.1, 0.8 + 1e-9):
            with pytest.raises(ValueError,
                               match=rf"^{name} must lie in \(0, 0\.8\]$"):
                call(amp)
        call(0.8)


class TestStrategyC:
    def test_real_part_is_cubed_carrier(self):
        omega, kappa = 1.0, 0.3
        sch = strategy_c(kappa, omega, 3)
        ts = sch.sample_times(50)
        ref = kappa * np.cos(ts) ** 3
        assert np.max(np.abs(np.real(sch.Omega_p(ts)) - ref)) < 1e-12

    def test_beta_relation(self):
        sch = strategy_c(0.3, 1.0, 2)
        ts = sch.sample_times(40)
        lhs = np.sin(-2.0 * sch.trajectory.at(ts).beta)
        rhs = 2.0 * np.sqrt(2.0) * 0.3 * np.cos(ts) ** 4
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_domain(self):
        sch = strategy_c(0.2, 4.0, 5)
        assert sch.t_start == pytest.approx(np.pi / 8.0)
        assert sch.t_end == pytest.approx(np.pi / 8.0 + 5 * np.pi / 2.0)

    def test_zero_amplitude(self):
        sch = strategy_c(0.0, 1.0, 1)
        ts = sch.sample_times(20)
        assert np.max(np.abs(sch.Omega_p(ts))) == 0.0
        assert np.max(np.abs(sch.Delta_p(ts))) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            strategy_c(0.5, 1.0, 2)   # at/above the amplitude supremum
        with pytest.raises(ValueError):
            strategy_c(0.2, 1.0, 0)

    def test_invariance_at_round_off(self):
        # kappa = 0: the residual is 0 at every h, so no decay is measured
        res = check_invariance(strategy_c(0.0, 1.0, 2))
        assert res["max_residual_over_omega"] == 0.0
        assert res["slope"] == 2.0
        assert res["passed"] is True

    def test_n_periods_must_be_an_integer(self):
        assert strategy_c(0.3, 1.0, np.int64(2)).params["n_periods"] == 2
        for bad in (2.5, True, "2"):
            with pytest.raises(ValueError,
                               match=f"n_periods must be an integer, not {bad!r}"):
                strategy_c(0.3, 1.0, bad)

    @pytest.mark.parametrize("n_periods", [10 ** 400, 10 ** 308],
                             ids=["beyond-float", "end-overflows"])
    def test_window_end_must_be_finite(self, n_periods):
        # 10**400 has no float, and 10**308 periods end beyond the largest
        with pytest.raises(ValueError, match="n_periods is too large"):
            strategy_c(0.1, 1.0, n_periods)


class TestCalibration:
    def test_omega_T_spot_values(self):
        assert solve_omega_T_for_A(0.5).value / np.pi == pytest.approx(
            29.73, abs=0.01)
        assert solve_omega_T_for_B(0.6).value / np.pi == pytest.approx(
            8.09, abs=0.01)

    def test_epsilon_reaches_pi(self):
        cal = solve_omega_T_for_A(0.45)
        omega = cal.value
        sch = strategy_a(0.45, omega, 1.0)
        assert sch.trajectory.at(1.0).epsilon == pytest.approx(np.pi, abs=1e-4)

    @pytest.mark.parametrize("A", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    def test_omega_T_for_A_near_simpson_root(self, A):
        assert_near_simpson_root(A)

    @settings(max_examples=6, deadline=None)
    @given(A=st.floats(0.15, 0.8))
    def test_omega_T_for_random_A_near_simpson_root(self, A):
        assert_near_simpson_root(A)

    def test_omega_T_evaluates_each_point_once(self, beta_a_calls):
        # the residual re-evaluates the root find_root returns: an uncached g
        # makes 5 quadratures at 4 distinct u
        solve_omega_T_for_A(0.2)
        assert beta_a_calls and len(beta_a_calls) == len(set(beta_a_calls))

    def test_omega_T_bracket_holds_every_root(self):
        # solve_omega_T_for_A's lower bracket end is the larger root of
        # I u^2 - (pi - margin) u + C1(A) = 0; below its inner root,
        # eps(u) <= u < pi. I from this file's own quadrature
        b = np.pi - synthesis._BOUND_MARGIN
        for A in np.r_[np.geomspace(1e-6, 1e-3, 6, endpoint=False),
                       np.linspace(1e-3, 0.8, 400)]:
            rate, c1 = carrier_mean_integral(A), _deviation_constant(A)
            disc = b * b - 4.0 * rate * c1
            assert disc > 0.0, A
            assert 2.0 * c1 / (b + np.sqrt(disc)) < np.pi, A

    @pytest.mark.parametrize("B", [0.4, 0.6, 0.8])
    def test_omega_T_for_B_near_full_march(self, B):
        # the closed form lies within find_root's tol/2 of the full
        # march's root and reaches pi to round-off
        value, _ = full_march_omega_T(lambda u: unit_window(B))
        cal = solve_omega_T_for_B(B)
        assert abs(cal.value - value) <= 5e-7
        eps = cal.value * simpson(lambda s: np.sin(unit_window(B)(s)) ** 2,
                                  0.0, 1.0, 2 ** 13)
        assert abs(eps - np.pi) <= 1e-12
        assert cal.residual <= 1e-12

    def test_omega_T_for_B_search_range(self):
        # the closed-form root 2002.3 pi lies past the search range's end
        # at 2000 pi
        with pytest.raises(CalibrationError, match="search range"):
            solve_omega_T_for_B(0.0365)
        assert solve_omega_T_for_B(0.037).value \
            == np.pi / _carrier_mean_sin2(0.037)

    def test_omega_T_for_A_search_range(self):
        # the bracket's upper end for A = 0.05 lies past 2000 pi
        with pytest.raises(CalibrationError, match="search range"):
            solve_omega_T_for_A(0.05)

    @pytest.mark.parametrize("kappa", [-0.1, KAPPA_SUP])
    def test_delta_epsilon_domain(self, kappa):
        with pytest.raises(ValueError, match="must lie in"):
            delta_epsilon_per_period(kappa)

    def test_omega_T_iterations_count_quadratures(self, beta_a_calls,
                                                   monkeypatch):
        # iterations counts the distinct u at which g is integrated, the
        # bracket ends included: 4 or 5 over Table I and A = 0.8; B's
        # closed form evaluates eps once, for its residual
        for A in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            beta_a_calls.clear()
            cal = solve_omega_T_for_A(A)
            assert cal.iterations == len(set(beta_a_calls)) <= 6, A
        assert solve_omega_T_for_B(0.4).iterations == 1
        # and the distinct kappa at which delta epsilon is integrated, the
        # hi end included; the kappa = 0 end needs no quadrature
        kappas = []
        beta_c = synthesis._beta_c

        def recording(kappa, omega):
            kappas.append(kappa)
            return beta_c(kappa, omega)

        monkeypatch.setattr(synthesis, "_beta_c", recording)
        for target, count in ((np.pi / 6, 8), (np.pi / 8, 8), (np.pi / 12, 8),
                              (0.01, 12)):
            kappas.clear()
            cal = calibrate_strategy_c(target)
            assert cal.iterations == len(set(kappas)) == count, target
        assert calibrate_strategy_c(0.0).iterations == 0

    @pytest.mark.parametrize("B", [0.4, 0.5, 0.6, 0.7, 0.8])
    def test_table_ii_closed_form(self, B):
        # eps(u) = u * int_0^1 sin(f(s))^2 ds = u (1 - cos(B) J0(B)) / 2
        closed = 2.0 * np.pi / (1.0 - np.cos(B) * trapezoid_j0(B))
        assert abs(solve_omega_T_for_B(B).value - closed) <= 1e-12 * np.pi

    @pytest.mark.parametrize("A", [0.2, 0.5, 0.8])
    def test_carrier_mean_bounds_epsilon(self, A):
        # |eps(u) - u I| <= (3 pi/2) A^2 for every u, I the carrier mean;
        # the largest deviation is 0.015 at A = 0.2 and 0.21 at A = 0.8,
        # both near u = 3.25
        for _, dev in simpson_deviations(A):
            assert np.max(np.abs(dev)) <= 1.5 * np.pi * A * A

    @settings(max_examples=8, deadline=None)
    @given(A=st.floats(1e-100, 0.8))
    def test_deviation_decays_as_one_over_u(self, A):
        # u |eps(u) - u I| <= C1(A), the constant that brackets the omega*T
        # roots; measured u |eps(u) - u I| stays below 1.3 A^2 (below
        # A = 1e-100 the oracle's squares near s = 0 underflow)
        bound = _deviation_constant(A)
        assert 4.6 * A * A <= bound <= 8.1 * A * A
        for us, dev in simpson_deviations(A):
            assert np.max(us * np.abs(dev)) <= bound

    def test_bessel_j0_series(self):
        z = np.linspace(-0.8, 0.8, 321)
        assert np.max(np.abs(_bessel_j0(z) - trapezoid_j0(z))) <= 1e-15
        assert _carrier_mean_sin2(0.0) == 0.0

    def test_delta_epsilon_monotone(self):
        ks = np.linspace(0.0, KAPPA_SUP * 0.999, 12)
        vals = [delta_epsilon_per_period(k) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gap", [1.0, 0.7, 0.1, 1e-2, 1e-3, 1e-5, 1e-6,
                                     1e-8, 1e-10, 1e-12])
    def test_delta_epsilon_against_fixed_simpson(self, gap):
        # kappa = (1 - gap) * KAPPA_SUP; near the supremum the integrand's
        # peaks at cos(u)^4 = 1 sharpen into kinks, which a fixed cell count
        # misses (1.7e-6 at gap 1e-5)
        kappa = (1.0 - gap) * KAPPA_SUP
        ref = simpson(lambda u: np.sin(-0.5 * np.arcsin(
            2.0 * np.sqrt(2.0) * kappa * np.cos(u) ** 4)) ** 2,
            0.5 * np.pi, 2.5 * np.pi, 2 ** 18)
        bound = 1e-12 if gap >= 1e-8 else 1e-9
        assert abs(delta_epsilon_per_period(kappa) - ref) <= bound

    @pytest.mark.parametrize("kappa", [0.01, 0.1, 0.2, 0.3, 0.3396])
    def test_delta_epsilon_against_wallis_series(self, kappa):
        # the series converges too slowly above 0.34, near KAPPA_SUP
        assert abs(delta_epsilon_per_period(kappa)
                   - wallis_delta_epsilon(kappa)) <= 1e-13

    def test_calibrate_c_round_trip(self):
        cal = calibrate_strategy_c(np.pi / 6)
        assert delta_epsilon_per_period(cal.value) == pytest.approx(
            np.pi / 6, abs=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(target=st.floats(1e-3, delta_epsilon_per_period(0.3396)))
    def test_calibrate_c_hits_random_targets(self, target):
        # against this file's Wallis series, which shares no quadrature
        kappa = calibrate_strategy_c(target).value
        assert abs(wallis_delta_epsilon(kappa) - target) <= 1e-8

    def test_calibrate_c_out_of_range(self):
        with pytest.raises(CalibrationError):
            calibrate_strategy_c(2.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_omega_T_for_A(0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs(self, bad):
        with pytest.raises(ValueError, match="target delta epsilon"):
            calibrate_strategy_c(bad)


def strategy_schedules(rng):
    """Strategy a, b (complex and neglect_imag) and c schedules at random
    parameters, c also within 1e-3 of KAPPA_SUP, with the times outside b's
    patches."""
    for _ in range(3):
        T = rng.uniform(0.5, 2.0)
        omega = rng.uniform(10.0, 120.0) * np.pi / T
        t = np.linspace(0.0, T, 20001)
        yield strategy_a(rng.uniform(0.05, 0.8), omega, T), t
        delta_t = rng.uniform(0.05, 0.95) * 0.5 * np.pi / omega
        tn = synthesis._nearest_carrier_zero(omega, t)
        unpatched = t[(np.abs(t - tn) >= delta_t) | (tn <= 0.0) | (tn >= T)]
        for neglect_imag in (False, True):
            yield strategy_b(rng.uniform(0.05, 0.8), omega, T, delta_t,
                             neglect_imag), unpatched
        for kappa in (rng.uniform(0.0, KAPPA_SUP),
                      KAPPA_SUP - rng.uniform(0.5e-3, 1e-3)):
            omega = rng.uniform(0.5, 4.0)
            sch = strategy_c(kappa * omega, omega, 3)
            yield sch, np.linspace(sch.t_start, sch.t_end, 20001)
    # a and b at the amplitude cap, where beta reaches 0.8 and A's cos(beta)
    # (taken from sin(beta)) is smallest
    omega, t = 15.83 * np.pi, np.linspace(0.0, 1.0, 20001)
    yield strategy_a(0.8, omega, 1.0), t
    delta_t = 0.25 * np.pi / omega
    tn = synthesis._nearest_carrier_zero(omega, t)
    unpatched = t[(np.abs(t - tn) >= delta_t) | (tn <= 0.0) | (tn >= 1.0)]
    for neglect_imag in (False, True):
        yield strategy_b(0.8, omega, 1.0, delta_t, neglect_imag), unpatched


class TestSamplers:
    def test_entries_match_the_trajectory(self):
        # each strategy's shared-trig sampler against the closed forms of
        # its trajectory: h12 = -(2i beta_dot + omega sin(2 beta))/(2 sqrt2),
        # real part only under neglect_imag, and h11 = -omega + 2 eps_dot
        for sch, t in strategy_schedules(np.random.default_rng(21)):
            traj, omega = sch.trajectory, sch.omega
            h11, h12, h32, h33 = hamiltonian_entries(sch, t)
            aux = traj.at(t)
            ref = -(2j * aux.beta_dot + omega * np.sin(2.0 * aux.beta)) / (2.0 * SQRT2)
            if sch.params.get("neglect_imag"):
                ref = ref.real
            assert np.max(np.abs(h12 - ref)) <= 1e-14 * omega
            assert np.max(np.abs(h11 - (-omega + 2.0 * aux.epsilon_dot))) \
                <= 1e-14 * omega
            assert h32 is h12 and h33 is h11

    @pytest.mark.parametrize("neglect_imag", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("delta", [0.005, 0.01])
    def test_b_patches_are_chords(self, delta, neglect_imag):
        # inside each patch h12 is the chord of the singular quotient
        # q(u) = -(2i fdot + omega sin 2f)/(2 sqrt2 cos(omega u)) between
        # tn -+ delta_t, times the carrier; the times span more than three of
        # propagate's sampling groups, and two calls split inside a patch give
        # the bits of one
        B, omega, T = 0.5, 11.34 * np.pi, 1.0
        delta_t = delta * T
        sch = strategy_b(B, omega, T, delta_t, neglect_imag)
        t = np.linspace(0.0, T, 3 * _CHUNK + 123)
        whole = hamiltonian_entries(sch, t)
        h12 = whole[1]
        f = lambda u: 0.5 * B * (1.0 - np.cos(2.0 * np.pi * u / T))
        fdot = lambda u: np.pi * B / T * np.sin(2.0 * np.pi * u / T)
        q = lambda u: -(2j * fdot(u) + omega * np.sin(2.0 * f(u))) \
            / (2.0 * SQRT2 * np.cos(omega * u))
        tn = (np.round(omega * t / np.pi - 0.5) + 0.5) * np.pi / omega
        inside = (np.abs(t - tn) < delta_t) & (tn > 0.0) & (tn < T)
        within = np.flatnonzero(inside[:-1] & inside[1:] & (np.diff(tn) == 0.0))
        k = within[len(within) // 2] + 1   # t[k - 1] and t[k] share a patch
        for x, head, rest in zip(whole, hamiltonian_entries(sch, t[:k]),
                                 hamiltonian_entries(sch, t[k:]), strict=True):
            assert np.array_equal(x, np.concatenate([head, rest]))
        t, tn = t[inside], tn[inside]
        lo, hi = q(tn - delta_t), q(tn + delta_t)
        chord = lo + (hi - lo) * (t - (tn - delta_t)) / (2.0 * delta_t)
        if neglect_imag:
            chord = chord.real
        scale = max(np.max(np.abs(lo)), np.max(np.abs(hi)))
        assert np.max(np.abs(h12[inside] - chord * np.cos(omega * t))) \
            <= 1e-12 * scale


class TestSampleTimes:
    def test_small_counts_keep_three_points(self):
        sch = strategy_c(0.3, 1.0, 1)
        ts = sch.sample_times(1)
        assert len(ts) == 3
        assert (ts[0], ts[-1]) == (sch.t_start, sch.t_end)

    @pytest.mark.parametrize("count", [0, -5])
    def test_non_positive_count_rejected(self, count):
        with pytest.raises(ValueError, match="samples_per_period"):
            strategy_c(0.3, 1.0, 1).sample_times(count)


class TestCsvRoundTrip:
    def test_header_and_columns(self, tmp_path):
        sch = strategy_c(0.3, 1.0, 2)
        path = tmp_path / "sched.csv"
        sch.write_csv(path, samples_per_period=64)
        meta, data = load_schedule_csv(path)
        assert meta["schema_version"] == 1
        assert meta["strategy"] == "c"
        assert meta["params"]["Omega0_over_omega"] == pytest.approx(0.3)
        names = data.dtype.names
        assert names == ("t", "re_omega_p", "im_omega_p",
                         "re_omega_s", "im_omega_s", "delta")
        ts = data["t"]
        vals = np.asarray(sch.Omega_p(ts), dtype=complex)
        assert np.max(np.abs(data["re_omega_p"] - vals.real)) < 1e-10

    def test_distinct_detunings_rejected(self, tmp_path):
        # the file's one delta column cannot hold a Stokes detuning that
        # differs from the pump's (by up to 0.23 here)
        sch = synthesize_general(lambda_trajectory(), 2 * np.pi)
        with pytest.raises(ValueError, match="Stokes detuning"):
            sch.write_csv(tmp_path / "general.csv")
        # lambda = 0: the two detuning formulas agree up to round-off
        omega = 30.0
        sch = synthesize_general(strategy_a(0.5, omega, 1.0).trajectory, omega)
        sch.write_csv(tmp_path / "reduced.csv")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,re_omega_p\n0,0\n")
        with pytest.raises(ValueError):
            load_schedule_csv(path)

    def test_non_utf8_row_names_the_file(self, tmp_path):
        path = tmp_path / "sched.csv"
        strategy_c(0.3, 1.0, 1).write_csv(path, samples_per_period=16)
        lines = path.read_bytes().split(b"\n")
        lines[4] = b"\xff" + lines[4]   # the third data row
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as exc:
            load_schedule_csv(path)
        assert str(exc.value).startswith(f"{path}: 'utf-8' codec can't decode")


class TestCarrierSingularTimes:
    def test_zeros_of_cosine(self):
        ts = carrier_singular_times(10.0, 0.0, 2.0)
        assert np.max(np.abs(np.cos(10.0 * ts))) < 1e-12
        assert np.all((ts > 0.0) & (ts < 2.0))
        # count: cos(10 t) has zeros at (n+1/2) pi/10 < 2 -> n = 0..5
        assert len(ts) == 6
