"""Tests for the RK4 propagator and its reports."""

import dataclasses

import numpy as np
import pytest

from lrpulse import (PropagationConfig, compare_with_analytic,
                     convergence_study, ket, propagate, strategy_a,
                     strategy_c)
from lrpulse.errors import PropagationError
from lrpulse.synthesis import PulseSchedule, reduced_trajectory
from lrpulse.verify import check_analytic_agreement, check_invariance


def zero_schedule(omega=1.0, n_periods=2):
    return strategy_c(0.0, omega, n_periods)


class TestConfig:
    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            PropagationConfig(steps_per_carrier_period=10)

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            PropagationConfig(record_stride=0)


class TestPropagate:
    def test_free_evolution_preserves_populations(self):
        # zero envelopes: H is diagonal, populations must stay put
        sch = zero_schedule()
        psi0 = np.array([0.6, 0.0, 0.8], dtype=complex)
        report = propagate(sch, psi0, PropagationConfig(
            steps_per_carrier_period=500))
        assert np.max(np.abs(report.final_populations
                             - [0.36, 0.0, 0.64])) < 1e-9
        assert report.norm_drift < 1e-9

    def test_norm_drift_small(self):
        sch = strategy_c(0.3, 1.0, 3)
        report = propagate(sch, ket(1))
        assert report.norm_drift < 1e-10

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            propagate(zero_schedule(), np.array([1.0, 1.0, 0.0]))

    def test_window_outside_domain(self):
        sch = zero_schedule()
        with pytest.raises(ValueError):
            propagate(sch, ket(1), PropagationConfig(t_end=sch.t_end + 1.0))

    def test_non_finite_envelope_rejected(self):
        base = zero_schedule()
        bad = PulseSchedule(
            omega_p=base.omega_p, omega_s=base.omega_s,
            Omega_p=lambda t: np.full_like(np.asarray(t, dtype=float),
                                           np.nan, dtype=complex),
            Omega_s=base.Omega_s, Delta_p=base.Delta_p, Delta_s=base.Delta_s,
            t_start=base.t_start, t_end=base.t_end, strategy="c",
            trajectory=base.trajectory)
        with pytest.raises(PropagationError):
            propagate(bad, ket(1), PropagationConfig(
                steps_per_carrier_period=100))

    def test_recording(self):
        sch = zero_schedule()
        report = propagate(sch, ket(2), PropagationConfig(
            steps_per_carrier_period=200, record_stride=50,
            record_states=True))
        assert report.times[0] == sch.t_start
        assert report.times[-1] == pytest.approx(sch.t_end)
        assert report.states is not None
        assert report.populations.shape == (len(report.times), 3)
        assert report.max_p2 == pytest.approx(1.0)


class TestReport:
    def test_summary_and_csv(self, tmp_path):
        sch = strategy_c(0.2, 1.0, 2)
        report = propagate(sch, ket(1), PropagationConfig(
            steps_per_carrier_period=300))
        summary = report.summary()
        assert summary["schema_version"] == 1
        assert summary["final_populations"][2] == report.final_p3
        path = tmp_path / "trace.csv"
        report.write_csv(path, time_scale=np.pi / 2.0)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "t,p1,p2,p3,norm"
        first = [float(x) for x in lines[2].split(",")]
        assert first[0] == pytest.approx(sch.t_start / (np.pi / 2.0))


class TestAnalyticComparison:
    def test_strategy_c_agreement(self):
        sch = strategy_c(0.3, 1.0, 2)
        dev = compare_with_analytic(sch, sch.trajectory, ket(1),
                                    PropagationConfig(
                                        steps_per_carrier_period=1000))
        assert dev < 1e-6

    def test_domain_mismatch(self):
        sch = strategy_c(0.3, 1.0, 2)
        traj = reduced_trajectory(sch.trajectory.beta, sch.trajectory.beta_dot,
                                  1.0, sch.t_start, sch.t_start + 1.0)
        with pytest.raises(ValueError):
            compare_with_analytic(sch, traj, ket(1))


def _nan_near(fn, t_bad, width):
    def wrapped(t):
        return np.where(np.abs(t - t_bad) < width, np.nan, fn(t))
    return wrapped


def _nan_phase_at_one_record(sch):
    # 500 steps/period records every span/20; NaN at the 7th record only
    span = sch.t_end - sch.t_start
    traj = sch.trajectory
    bad = dataclasses.replace(traj, phase_zero=_nan_near(
        traj.phase_zero, sch.t_start + 7 * span / 20, span / 80))
    return check_analytic_agreement(dataclasses.replace(sch, trajectory=bad),
                                    steps_per_period=500), "max_deviation"


def _nan_detuning_at_one_sample(sch):
    t_sample = np.linspace(sch.t_start, sch.t_end, 52)[11]
    bad = dataclasses.replace(sch, Delta_p=_nan_near(sch.Delta_p, t_sample,
                                                     1e-9))
    return check_invariance(bad), "max_residual_over_omega"


@pytest.mark.parametrize("corrupt", [_nan_phase_at_one_record,
                                     _nan_detuning_at_one_sample],
                         ids=["analytic_phase", "invariance_detuning"])
def test_nan_diagnostic_fails(corrupt):
    result, key = corrupt(strategy_c(0.3, 1.0, 2))
    assert np.isnan(result[key])
    assert result["passed"] is False


class TestConvergence:
    def test_study_monotone_input(self):
        sch = zero_schedule()
        with pytest.raises(ValueError):
            convergence_study(sch, ket(1), [400, 200])

    def test_fourth_order(self):
        # global error against a fine reference shrinks ~16x per halving
        sch = strategy_c(0.33, 1.0, 1)
        ref = propagate(sch, ket(1), PropagationConfig(
            steps_per_carrier_period=6400, record_states=True)).states[-1]

        def err(spp):
            out = propagate(sch, ket(1), PropagationConfig(
                steps_per_carrier_period=spp, record_states=True)).states[-1]
            return np.linalg.norm(out - ref)

        e1, e2, e3 = err(100), err(200), err(400)
        p1 = np.log2(e1 / e2)
        p2 = np.log2(e2 / e3)
        assert abs(p1 - 4.0) < 0.5
        assert abs(p2 - 4.0) < 0.5
