"""Tests for the Hamiltonian, invariant, eigenstructure, and phase helpers."""

import dataclasses
import functools

import numpy as np
import pytest

from lrpulse import (AuxParams, PropagationConfig, PulseSchedule,
                     analytic_evolution, carrier_singular_times,
                     final_state_prediction, hamiltonian_at,
                     invariance_residual, invariant_at, invariant_eigenvectors,
                     ket, load_schedule_csv, lr_phase_rate, propagate,
                     reduced_trajectory, strategy_a, strategy_b, strategy_c,
                     synthesize_general)
from lrpulse.cli import _envelope_summary
from lrpulse.core import hamiltonian_entries
from lrpulse.errors import DomainError, SingularityError
from lrpulse.propagate import _CHUNK
from lrpulse.synthesis import _View
from lrpulse.verify import lr_phase_rates_numeric
from test_synthesis import lambda_trajectory


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


class TestSamplingRule:
    # strategies hand pump and Stokes views of one sampler; hamiltonian_entries
    # makes one schedule.sample call on t as given, which calls that sampler
    # once, and calls every closure that is not a view
    SCHEDULES = {"a": lambda: strategy_a(0.5, 30.0 * np.pi, 1.0),
                 "b": lambda: strategy_b(0.5, 11.34 * np.pi, 1.0, 0.01),
                 "c": lambda: strategy_c(0.3, 1.0, 2)}
    FIELDS = ("Omega_p", "Omega_s", "Delta_p", "Delta_s")

    @classmethod
    def views(cls, sch, sampler):
        """sch with one new _View of sampler per field, on the same outputs."""
        return dataclasses.replace(sch, **{
            f: _View(sampler, getattr(sch, f).index, sch.omega) for f in cls.FIELDS})

    @pytest.mark.parametrize("strategy", SCHEDULES)
    def test_chunks_equal_one_evaluation(self, strategy):
        # a 2-D grid of more than three of propagate's sampling groups is
        # one sampler call on the grid itself
        sch = self.SCHEDULES[strategy]()
        n = 3 * _CHUNK + 123
        t = np.linspace(sch.t_start, sch.t_end, n).reshape(3, n // 3)
        calls = []

        def counted(u, c):
            calls.append(u.shape)
            return sch.Omega_p.sampler(u, c)

        carrier = np.cos(sch.omega * t.ravel())
        envelope, detuning = sch.Omega_p.sampler(t.ravel(), carrier)
        h11, h12, h32, h33 = hamiltonian_entries(self.views(sch, counted), t)
        assert calls == [t.shape]
        assert h12.shape == h11.shape == t.shape
        assert np.max(np.abs(h12.ravel() - envelope * carrier)) <= 1e-15 * sch.omega
        assert np.max(np.abs(h11.ravel() + sch.omega + detuning)) \
            <= 1e-15 * sch.omega
        assert h32 is h12 and h33 is h11

    @pytest.mark.parametrize("strategy", SCHEDULES)
    def test_distinct_views_of_one_output_give_one_entry(self, strategy):
        # PulseSchedule.sample, not the fields' identity, decides the sharing
        sch = self.SCHEDULES[strategy]()
        apart = self.views(sch, sch.Omega_p.sampler)
        assert apart.Omega_s is not apart.Omega_p and apart.Delta_s is not apart.Delta_p
        t = sch.sample_times(50)
        got = hamiltonian_entries(apart, t)
        assert got[2] is got[1] and got[3] is got[0]
        for x, y in zip(got, hamiltonian_entries(sch, t), strict=True):
            assert np.array_equal(x, y)

    def test_replaced_closure_is_sampled(self):
        sch = strategy_a(0.5, 30.0 * np.pi, 1.0)
        t = np.linspace(0.0, 1.0, 2001)
        g = lambda u: (0.5 - 0.25j) * sch.Omega_p(u)
        h11, h12, h32, h33 = hamiltonian_entries(
            dataclasses.replace(sch, Omega_p=g), t)
        r11, r12, _, _ = hamiltonian_entries(sch, t)
        assert np.max(np.abs(h12 - g(t) * np.cos(sch.omega * t))) <= 1e-15 * sch.omega
        assert h32 is not h12 and np.array_equal(h32, r12)
        assert h33 is h11 and np.array_equal(h11, r11)

    def test_replaced_carrier_is_not_taken_from_the_sampler(self):
        sch = strategy_c(0.3, 1.0, 2)
        moved = dataclasses.replace(sch, omega=1.5)
        t = sch.sample_times(50)
        h11, h12, _, _ = hamiltonian_entries(moved, t)
        assert np.array_equal(h12, sch.Omega_p(t) * np.cos(1.5 * t))
        assert np.array_equal(h11, -1.5 - sch.Delta_p(t))

    def test_wrapper_of_a_view_is_called(self):
        # functools.wraps copies the view's attributes onto the wrapper, so
        # only the view's type tells the two apart
        sch = strategy_c(0.3, 1.0, 2)
        view, calls = sch.Omega_p, []

        @functools.wraps(view)
        def doubled(t):
            calls.append(np.size(t))
            return 2.0 * view(t)

        assert doubled.sampler is view.sampler
        t = sch.sample_times(50)
        h11, h12, h32, _ = hamiltonian_entries(
            dataclasses.replace(sch, Omega_p=doubled, Omega_s=doubled), t)
        assert calls == [t.size] and h32 is h12
        ref = hamiltonian_entries(sch, t)[1]
        assert np.max(np.abs(h12 - 2.0 * ref)) <= 1e-15 * sch.omega


class TestSamplingRoutes:
    # a traced run wraps a schedule's fields in plain closures, one per
    # distinct field, as bench/tracing.py's _wrap_schedule does: each field is
    # then sampled on its own, where the schedule itself hands cos(omega*t) to
    # one sampler. Both routes must give the same bits, down to the files.
    SCHEDULES = {
        "a": lambda: strategy_a(0.5, 30.0, 1.0),
        "b": lambda: strategy_b(0.5, 35.0, 1.0, 0.005),
        "b_neglect_imag": lambda: strategy_b(0.5, 35.0, 1.0, 0.005, neglect_imag=True),
        "c": lambda: strategy_c(0.3, 1.0, 2),
        "lambda": lambda: synthesize_general(lambda_trajectory(), 2 * np.pi)}
    FIELDS = ("Omega_p", "Omega_s", "Delta_p", "Delta_s")

    @classmethod
    def closures(cls, sch):
        wrapped = {}
        for name in cls.FIELDS:
            fn = getattr(sch, name)
            wrapped.setdefault(id(fn), lambda t, fn=fn: fn(t))
        return dataclasses.replace(
            sch, **{name: wrapped[id(getattr(sch, name))] for name in cls.FIELDS})

    @staticmethod
    def outputs(sch, t, path):
        """hamiltonian_entries on t, propagate's record and write_csv's bytes."""
        report = propagate(sch, ket(1), PropagationConfig(record_states=True))
        report.write_csv(path)
        out = [*hamiltonian_entries(sch, t), report.times, report.states,
               report.norms, report.populations, path.read_bytes()]
        if sch.strategy != "general":   # lambda's two detunings have no file
            sch.write_csv(path)
            out.append(path.read_bytes())
        return out

    @pytest.mark.parametrize("name", SCHEDULES)
    def test_closures_give_the_schedule_bits(self, name, tmp_path):
        sch = self.SCHEDULES[name]()
        wrapped = self.closures(sch)
        assert not any(getattr(wrapped, f) is getattr(sch, f) for f in self.FIELDS)
        zeros = carrier_singular_times(sch.omega, sch.t_start, sch.t_end)
        t = np.concatenate([np.linspace(sch.t_start, sch.t_end, 4001), zeros])
        for x, y in zip(self.outputs(sch, t, tmp_path / "view.csv"),
                        self.outputs(wrapped, t, tmp_path / "closure.csv"),
                        strict=True):
            assert x == y if isinstance(x, bytes) else np.array_equal(x, y)


class TestScheduleSample:
    # PulseSchedule.sample is the one rule hamiltonian_entries, write_csv and
    # the CLI's envelope summary read a schedule by
    def test_constant_closures_broadcast(self):
        sch = simple_schedule()
        t = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        op, os_, dp, ds, carrier = sch.sample(t)
        assert all(x.shape == t.shape for x in (op, os_, dp, ds, carrier))
        assert np.all(op == 0.3 + 0.1j) and np.all(os_ == 0.2 - 0.05j)
        assert np.all(dp == -0.4) and np.all(ds == -0.4)
        assert np.array_equal(carrier, np.cos(10.0 * t))

    def test_shared_constant_closure_is_one_array(self):
        # one field twice is one call, broadcast once: one sample, one entry
        delta = lambda t: -0.4
        sch = dataclasses.replace(simple_schedule(), Delta_p=delta, Delta_s=delta)
        t = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        _, _, dp, ds, _ = sch.sample(t)
        h11, _, _, h33 = hamiltonian_entries(sch, t)
        assert dp is ds and h33 is h11 and np.all(h11 == -10.0 - (-0.4))

    def test_samples_of_t_shape_pass_through(self):
        sch = strategy_c(0.3, 1.0, 2)
        t = sch.sample_times(50)
        op, os_, dp, ds, carrier = sch.sample(t)
        c = np.cos(sch.omega * t)
        envelope, detuning = sch.Omega_p.sampler(t, c)
        assert op is os_ and dp is ds
        assert np.array_equal(op, envelope) and np.array_equal(dp, detuning)
        assert np.array_equal(carrier, c)

    def test_write_csv_of_constant_closures(self, tmp_path):
        sch = simple_schedule()
        sch.write_csv(tmp_path / "s.csv", samples_per_period=20)
        meta, data = load_schedule_csv(tmp_path / "s.csv")
        assert meta["strategy"] == "test" and len(data) == sch.sample_times(20).size
        assert np.all(data["re_omega_p"] == 0.3) and np.all(data["im_omega_p"] == 0.1)
        assert np.all(data["re_omega_s"] == 0.2) and np.all(data["im_omega_s"] == -0.05)
        assert np.all(data["delta"] == -0.4)

    def test_envelope_summary_of_constant_closures(self):
        summary = _envelope_summary(simple_schedule())
        assert summary["max_abs_omega_p"] == abs(0.3 + 0.1j)
        assert summary["endpoint_abs_omega_p"] == [abs(0.3 + 0.1j)] * 2
        assert summary["max_im_omega_p"] == summary["min_im_omega_p"] == 0.1
        assert summary["max_abs_delta"] == 0.4

    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_non_finite_carrier_rejected(self, omega):
        with pytest.raises(ValueError, match="finite"):
            simple_schedule(omega=omega)
        # the strategies too, before their trajectory takes its cell count
        with pytest.raises(ValueError):
            strategy_a(0.5, omega, 1.0)
        with pytest.raises(ValueError):
            strategy_c(0.1, omega, 1)

    @pytest.mark.parametrize("build", [
        lambda: strategy_a(0.5, 1.0, np.inf),
        lambda: strategy_a(0.5, 1.0, np.nan),
        lambda: reduced_trajectory(np.sin, np.cos, np.inf, 0.0, 1.0),
        lambda: strategy_b(0.5, np.inf, 1.0, 0.01),
        lambda: strategy_b(0.5, 1.0, np.inf, 0.01),
        lambda: strategy_c(0.3, np.nan, 2),
    ], ids=["a-T-inf", "a-T-nan", "reduced-omega-inf", "b-omega-inf",
            "b-T-inf", "c-omega-nan"])
    def test_non_finite_T_or_omega_named(self, build):
        # a ValueError that names finiteness: not an OverflowError from the
        # trajectory's cell count, nor a range check blaming delta_t or Omega0
        with pytest.raises(ValueError, match="finite"):
            build()


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
