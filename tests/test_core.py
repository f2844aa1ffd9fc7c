"""Tests for the Hamiltonian, invariant, eigenstructure, and phase helpers."""

import dataclasses

import numpy as np
import pytest

from lrpulse import (AuxParams, PulseSchedule, analytic_evolution,
                     final_state_prediction, hamiltonian_at,
                     invariance_residual, invariant_at, invariant_eigenvectors,
                     ket, lr_phase_rate, strategy_c)
from lrpulse.core import hamiltonian_entries
from lrpulse.errors import DomainError, SingularityError
from lrpulse.verify import lr_phase_rates_numeric


def random_aux(rng, n: int) -> AuxParams:
    """n random angle sets, drawn five to a row; the fifth draw of each row
    is unused, so every seed keeps the angles it has always produced."""
    alpha, beta, epsilon, lam, _ = rng.uniform(-np.pi, np.pi, size=(n, 5)).T
    return AuxParams(alpha=alpha, beta=beta, epsilon=epsilon, lam=lam)


def simple_schedule(omega=10.0) -> PulseSchedule:
    return PulseSchedule(
        omega=omega,
        Omega_p=lambda t: 0.3 + 0.1j,
        Omega_s=lambda t: 0.2 - 0.05j,
        Delta_p=lambda t: -0.4,
        Delta_s=lambda t: -0.4,
        t_start=0.0, t_end=1.0, strategy="test")


class TestKet:
    def test_basis(self):
        for j in (1, 2, 3):
            v = ket(j)
            assert v[j - 1] == 1.0 and np.linalg.norm(v) == 1.0

    def test_bad_index(self):
        with pytest.raises(ValueError):
            ket(0)


class TestHamiltonian:
    def test_hermitian(self):
        H = hamiltonian_at(simple_schedule(), 0.37)
        assert np.max(np.abs(H - H.conj().T)) == 0.0

    def test_no_direct_1_3_coupling(self):
        H = hamiltonian_at(simple_schedule(), 0.5)
        assert H[0, 2] == 0.0 and H[2, 0] == 0.0

    def test_carrier_factor(self):
        H = hamiltonian_at(simple_schedule(), 0.25)
        assert H[0, 1] == pytest.approx((0.3 + 0.1j) * np.cos(10.0 * 0.25))

    def test_diagonal(self):
        H = hamiltonian_at(simple_schedule(), 0.0)
        assert H[0, 0] == pytest.approx(-10.0 + 0.4)
        assert H[1, 1] == 0.0

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            hamiltonian_at(simple_schedule(), 2.0)

    def test_bad_carrier(self):
        with pytest.raises(ValueError):
            simple_schedule(omega=-1.0)

    def test_shared_closures_sampled_once(self):
        # strategies a, b and c pass one closure for pump and Stokes
        sch = strategy_c(0.3, 1.0, 2)
        calls = []

        def counted(fn):
            def wrapped(t):
                calls.append(fn)
                return fn(t)
            return wrapped

        env, det = counted(sch.Omega_p), counted(sch.Delta_p)
        shared = dataclasses.replace(sch, Omega_p=env, Omega_s=env,
                                     Delta_p=det, Delta_s=det)
        apart = dataclasses.replace(sch, Omega_s=lambda t: sch.Omega_s(t),
                                    Delta_s=lambda t: sch.Delta_s(t))
        ts = np.linspace(sch.t_start, sch.t_end, 101)
        got = hamiltonian_entries(shared, ts)
        assert calls == [sch.Omega_p, sch.Delta_p]
        assert got[2] is got[1] and got[3] is got[0]
        for x, y in zip(got, hamiltonian_entries(apart, ts)):
            assert np.array_equal(x, y)


class TestInvariant:
    def test_spectrum_random(self):
        I = invariant_at(random_aux(np.random.default_rng(3), 300))
        assert np.max(np.abs(I - np.conj(np.swapaxes(I, -1, -2)))) < 1e-14
        eigs = np.linalg.eigvalsh(I)
        assert np.max(np.abs(eigs - [-1.0, 0.0, 1.0])) < 1e-12

    def test_eigenvectors_random(self):
        aux = random_aux(np.random.default_rng(4), 300)
        I = invariant_at(aux)
        V = np.stack(invariant_eigenvectors(aux), axis=-1)
        gram = np.conj(np.swapaxes(V, -1, -2)) @ V
        assert np.max(np.abs(gram - np.eye(3))) < 1e-13
        resid = I @ V - V * [1.0, -1.0, 0.0]   # columns: eigenvalues +1, -1, 0
        assert np.max(np.linalg.norm(resid, axis=-2)) < 1e-13

    def test_non_finite_angle(self):
        with pytest.raises(ValueError):
            invariant_at(AuxParams(alpha=np.nan, beta=0.0, epsilon=0.0,
                                   lam=0.0))


class TestWindow:
    # one rule for the schedule window and the trajectory domain: times within
    # a relative 1e-9 of either end lie inside, later or earlier ones do not
    @pytest.mark.parametrize("evaluate", [
        lambda sch, t: hamiltonian_at(sch, t),
        lambda sch, t: analytic_evolution(sch.trajectory, ket(1), t),
        lambda sch, t: analytic_evolution(sch.trajectory, ket(1), sch.t_end, t),
    ], ids=["hamiltonian_at", "analytic_evolution", "analytic_evolution_t0"])
    def test_relative_slack(self, evaluate):
        sch = strategy_c(0.3, 1.0, 2)
        slack = 1e-9 * sch.t_end
        for t in (sch.t_start - 0.5 * slack, sch.t_end + 0.5 * slack):
            evaluate(sch, t)
        for t in (sch.t_start - 2 * slack, sch.t_end + 2 * slack):
            with pytest.raises(DomainError, match="does not cover"):
                evaluate(sch, t)

    def test_message_prints_plain_floats(self):
        sch = strategy_c(0.3, 1.0, 2)
        with pytest.raises(DomainError) as info:
            hamiltonian_at(sch, np.array([sch.t_start, sch.t_end + 1.0]))
        assert "np.float64" not in str(info.value)
        assert f"t in [{sch.t_start}, {sch.t_end + 1.0}]" in str(info.value)


class TestBatched:
    def test_batched_matches_pointwise(self):
        # numpy's array and scalar loops for cos/arcsin may differ in the last
        # bit; h is large enough that the finite differences do not magnify
        # that past the 1e-14 bound
        h = 0.05
        sch = strategy_c(0.3, 1.0, 2)
        traj = sch.trajectory
        funcs = {
            "invariant_at": lambda t: invariant_at(traj.at(t)),
            "invariant_eigenvectors": lambda t: np.stack(
                invariant_eigenvectors(traj.at(t)), axis=-1),
            "analytic_evolution": lambda t: analytic_evolution(traj, ket(1), t),
            "invariance_residual": lambda t: invariance_residual(sch, t, h),
            "lr_phase_rates_numeric": lambda t: np.stack(
                lr_phase_rates_numeric(sch, t, h), axis=-1),
        }
        ts = np.linspace(sch.t_start + 0.1, sch.t_end - 0.1, 17)
        for name, f in funcs.items():
            got = f(ts)
            ref = np.array([f(t) for t in ts])
            assert got.shape == ref.shape, name
            assert np.max(np.abs(got - ref)) < 1e-14, name
            # a 2-D array of times gives the same values in its shape
            grid = f(ts[1:].reshape(4, 4))
            assert grid.shape == (4, 4) + got.shape[1:], name
            assert np.max(np.abs(grid.reshape(got[1:].shape) - got[1:])) < 1e-14, name


class TestAnalyticEvolution:
    def test_restart_at_t0(self):
        # the state the expansion reaches at t0, given back at t0, continues
        # as the expansion from the trajectory start
        traj = strategy_c(0.3, 1.0, 2).trajectory
        psi0 = np.array([0.6, 0.8j, 0.0])
        t0 = traj.t_start + 0.37 * (traj.t_end - traj.t_start)
        ts = np.linspace(t0, traj.t_end, 9)
        restarted = analytic_evolution(
            traj, analytic_evolution(traj, psi0, t0), ts, t0)
        assert np.max(np.abs(restarted - analytic_evolution(traj, psi0, ts))) < 1e-12


class TestConstraint:
    def test_residual(self):
        aux = AuxParams(alpha=0.3, beta=0.2, epsilon=0.1, lam=0.0,
                        alpha_dot=np.cos(0.2) * np.cos(0.1) * 0.7, lam_dot=0.7)
        assert aux.constraint_residual() < 1e-15
        off = AuxParams(alpha=0.3, beta=0.2, epsilon=0.1, lam=0.0,
                        alpha_dot=1.0, lam_dot=0.0)
        assert off.constraint_residual() == pytest.approx(1.0)


class TestPhaseRate:
    def test_quotient_value(self):
        aux = AuxParams(alpha=0.4, beta=0.9, epsilon=0.2, lam=0.1,
                        epsilon_dot=0.5, lam_dot=0.3)
        expected = -(0.5 + 2.0 * 0.3 * np.sin(0.2) * np.cos(0.9)
                     / np.tan(0.8)) / np.sin(0.9) ** 2
        assert lr_phase_rate(aux) == pytest.approx(expected)

    def test_regular_zero(self):
        aux = AuxParams(alpha=0.4, beta=0.0, epsilon=0.0, lam=0.0)
        assert lr_phase_rate(aux) == 0.0

    def test_pole_at_sin_beta_zero(self):
        aux = AuxParams(alpha=0.4, beta=0.0, epsilon=0.0, lam=0.0,
                        epsilon_dot=1.0)
        with pytest.raises(SingularityError):
            lr_phase_rate(aux)

    def test_cot_pole(self):
        aux = AuxParams(alpha=0.0, beta=0.5, epsilon=0.3, lam=0.0,
                        lam_dot=1.0)
        with pytest.raises(SingularityError):
            lr_phase_rate(aux)


class TestFinalStatePrediction:
    def test_complete_transfer(self):
        psi = final_state_prediction(np.pi / 4, np.pi)
        assert abs(psi[2]) == pytest.approx(1.0)
        assert abs(psi[0]) < 1e-15 and abs(psi[1]) == 0.0

    def test_no_transfer(self):
        psi = final_state_prediction(np.pi / 4, 0.0)
        assert abs(psi[0]) == pytest.approx(1.0)

    def test_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            psi = final_state_prediction(rng.uniform(0, np.pi),
                                         rng.uniform(-np.pi, np.pi))
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
