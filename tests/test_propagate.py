"""Tests for the RK4 propagator and its reports."""

import dataclasses
import functools
import json
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpulse import (PropagationConfig, analytic_evolution,
                     compare_with_analytic, deviation_from_analytic, ket,
                     propagate, run_verification, solve_omega_T_for_A,
                     strategy_a, strategy_b, strategy_c)
from lrpulse.core import hamiltonian_entries
from lrpulse.errors import PropagationError
from lrpulse.synthesis import TWO_PI, PulseSchedule, reduced_trajectory
from lrpulse.verify import check_analytic_agreement, check_invariance


def zero_schedule(omega=1.0, n_periods=2):
    return strategy_c(0.0, omega, n_periods)


class TestConfig:
    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            PropagationConfig(steps_per_carrier_period=10)

    @pytest.mark.parametrize("field,value", [
        ("steps_per_carrier_period", 150.5),
        ("steps_per_carrier_period", True), ("steps_per_carrier_period", "200")])
    def test_non_integer_rejected(self, field, value):
        # rejected at construction, not deep inside propagate
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PropagationConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = PropagationConfig(steps_per_carrier_period=np.int64(100))
        report = propagate(zero_schedule(n_periods=1), ket(1), cfg)
        assert report.steps == 100 and len(report.times) == 11
        assert json.loads(json.dumps(report.summary()))[
            "steps_per_carrier_period"] == 100


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

    def test_one_normalization_tolerance(self):
        sch = strategy_c(0.3, 1.0, 1)
        cfg = PropagationConfig(steps_per_carrier_period=100)
        for run in (lambda psi: propagate(sch, psi, cfg),
                    lambda psi: analytic_evolution(sch.trajectory, psi,
                                                   sch.t_end)):
            with pytest.raises(ValueError, match="normalized"):
                run(ket(1) * (1 + 5e-9))
            run(ket(1) * (1 + 5e-10))

    @pytest.mark.parametrize("psi0", [[1.0, 0.0], [[1.0, 0.0, 0.0]],
                                      [1.0, 0.0, 0.0, 0.0]],
                             ids=["(2,)", "(1, 3)", "(4,)"])
    def test_psi0_must_be_a_3_vector(self, psi0):
        # normalized, but no state of the three levels: both functions name
        # its shape before H or the trajectory is sampled (a sample fails)
        def unsampled(t):
            pytest.fail("sampled before psi0 was checked")

        sch = strategy_c(0.3, 1.0, 1)
        sch = dataclasses.replace(sch, Omega_p=unsampled, Omega_s=unsampled,
                                  Delta_p=unsampled, Delta_s=unsampled,
                                  trajectory=dataclasses.replace(
                                      sch.trajectory, at=unsampled,
                                      phases=unsampled))
        shape = re.escape(str(np.shape(psi0)))
        with pytest.raises(ValueError, match=f"3-vector, not of shape {shape}"):
            propagate(sch, psi0)
        with pytest.raises(ValueError, match=f"3-vector, not of shape {shape}"):
            analytic_evolution(sch.trajectory, psi0, sch.t_end)

    def test_non_finite_envelope_rejected(self):
        base = zero_schedule()
        bad = PulseSchedule(
            omega=base.omega,
            Omega_p=lambda t: np.full_like(np.asarray(t, dtype=float),
                                           np.nan, dtype=complex),
            Omega_s=base.Omega_s, Delta_p=base.Delta_p, Delta_s=base.Delta_s,
            t_start=base.t_start, t_end=base.t_end, strategy="c",
            trajectory=base.trajectory)
        with pytest.raises(PropagationError):
            propagate(bad, ket(1), PropagationConfig(
                steps_per_carrier_period=100))

    def test_non_finite_error_names_earliest_time(self):
        # 6400 steps of 0.01, recorded every 10, run in blocks of L = 10
        # steps, 21 half-step rows each; NaN from half-step 75 (block 3,
        # row 15) and from half-step 204 (block 10, row 4), the later one at
        # the lower row
        base = zero_schedule(omega=TWO_PI, n_periods=64)
        dt = (base.t_end - base.t_start) / 6400
        starts = [base.t_start + 0.5 * dt * k for k in (75, 204)]

        def omega_p(t):
            t = np.asarray(t, dtype=float)
            nan = np.zeros(t.shape, dtype=bool)
            for t_bad in starts:
                nan |= (t >= t_bad) & (t < t_bad + 1.25 * dt)
            return np.where(nan, np.nan, base.Omega_p(t))

        bad = dataclasses.replace(base, Omega_p=omega_p)
        with pytest.raises(PropagationError) as info:
            propagate(bad, ket(1), PropagationConfig(
                steps_per_carrier_period=100))
        t_reported = float(str(info.value).split("t=")[1].split("(")[-1]
                           .rstrip(")"))
        assert t_reported == starts[0]

    @pytest.mark.parametrize("cells", [[(900, 19), (300, 19)],
                                       [(700, 3), (40, 15)]],
                             ids=["last_group", "earlier_time_in_later_group"])
    def test_non_finite_error_names_earliest_time_in_any_group(self, cells):
        # 12,000 steps of 1/2000 in blocks of L = 10: a (20, 1201) grid of
        # half-steps, whose rows are sampled in groups 0-5, 6-11, 12-17 and
        # 18-19; NaN at row r of column c, half-step 20c + r, for each (c, r):
        # only in the last group, or in the first and third groups with the
        # earlier time in the third
        base = zero_schedule(omega=TWO_PI, n_periods=6)
        dt = (base.t_end - base.t_start) / 12000
        bad = [base.t_start + 0.5 * dt * (20 * c + r) for c, r in cells]

        def omega_p(t):
            t = np.asarray(t, dtype=float)
            nan = np.zeros(t.shape, dtype=bool)
            for t_bad in bad:
                nan |= np.abs(t - t_bad) < 0.25 * dt
            return np.where(nan, np.nan, base.Omega_p(t))

        with pytest.raises(PropagationError) as info:
            propagate(dataclasses.replace(base, Omega_p=omega_p), ket(1),
                      PropagationConfig(steps_per_carrier_period=2000))
        assert float(str(info.value).split("t=")[1]) == min(bad)

    def test_non_finite_error_prints_plain_float(self):
        base = zero_schedule()
        bad = dataclasses.replace(base, Omega_p=_nan_near(
            base.Omega_p, base.t_start + 1.0, 0.1))
        with pytest.raises(PropagationError) as info:
            propagate(bad, ket(1), PropagationConfig(
                steps_per_carrier_period=100))
        assert "np.float64" not in str(info.value)
        assert re.search(r"at t=\d+\.\d+$", str(info.value))

    def test_recording(self):
        sch = zero_schedule()
        report = propagate(sch, ket(2), PropagationConfig(
            steps_per_carrier_period=200, record_states=True))
        assert report.times[0] == sch.t_start
        assert report.times[-1] == pytest.approx(sch.t_end)
        assert report.states is not None
        assert report.populations.shape == (len(report.times), 3)
        assert report.max_p2 == pytest.approx(1.0)


def test_scalar_closures_broadcast():
    # closures that return one scalar for array times run bit for bit like
    # closures that return it at every time
    def schedule(closure):
        return PulseSchedule(
            omega=10.0, Omega_p=closure(0.3 + 0.1j), Omega_s=closure(0.2 - 0.05j),
            Delta_p=closure(-0.4), Delta_s=closure(-0.4), t_start=0.0, t_end=1.0,
            strategy="test")

    cfg = PropagationConfig(steps_per_carrier_period=100, record_states=True)
    scalar = propagate(schedule(lambda v: lambda t: v), ket(1), cfg)
    full = propagate(schedule(lambda v: lambda t: np.full(np.shape(t), v)),
                     ket(1), cfg)
    assert np.array_equal(scalar.times, full.times)
    assert np.array_equal(scalar.states, full.states)
    assert np.array_equal(scalar.norms, full.norms)


def test_stride_past_the_run_folds_only_its_blocks():
    # a run of 2e-6 of a period at 10^9 steps per period takes ~2000 steps,
    # far fewer than its record interval of 10^8, and records its two ends;
    # the fold visits only the 400 blocks there are, not stride/L - 1 = 2e7
    # slices (over a minute)
    sch = strategy_c(0.3, 1.0, 1)
    sch = dataclasses.replace(
        sch, t_end=sch.t_start + 2e-6 * (sch.t_end - sch.t_start))
    cfg = PropagationConfig(steps_per_carrier_period=10**9, record_states=True)
    start = time.perf_counter()
    report = propagate(sch, ket(1), cfg)
    elapsed = time.perf_counter() - start
    times, states = scalar_rk4(sch, ket(1), cfg)
    assert elapsed < 1.0
    assert len(report.times) == 2 and report.times[0] == sch.t_start
    assert np.array_equal(report.times, times)
    assert np.max(np.abs(report.states - states)) <= 1e-12


def scalar_rk4(schedule, psi0, cfg):
    """Reference: one Python iteration per RK4 step on scalar amplitudes,
    recording ten times per carrier period and after the last step. Returns
    (times, states)."""
    t0, t1 = schedule.t_start, schedule.t_end
    n_steps = max(1, int(np.ceil((t1 - t0) / (TWO_PI / schedule.omega)
                                 * cfg.steps_per_carrier_period)))
    dt = (t1 - t0) / n_steps
    stride = cfg.steps_per_carrier_period // 10
    grid = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
    a, p, s, d = (arr.tolist() for arr in hamiltonian_entries(schedule, grid))

    def f(i, x1, x2, x3):   # -i H(t_i) x
        return (-1j * (a[i] * x1 + p[i] * x2),
                -1j * (p[i].conjugate() * x1 + s[i].conjugate() * x3),
                -1j * (s[i] * x2 + d[i] * x3))

    c = tuple(complex(x) for x in psi0)
    times, states = [t0], [c]
    for k in range(n_steps):
        k1 = f(2 * k, *c)
        k2 = f(2 * k + 1, *(x + 0.5 * dt * y for x, y in zip(c, k1)))
        k3 = f(2 * k + 1, *(x + 0.5 * dt * y for x, y in zip(c, k2)))
        k4 = f(2 * k + 2, *(x + dt * y for x, y in zip(c, k3)))
        c = tuple(x + dt / 6.0 * (y1 + 2 * y2 + 2 * y3 + y4)
                  for x, y1, y2, y3, y4 in zip(c, k1, k2, k3, k4))
        if (k + 1) % stride == 0 or k == n_steps - 1:
            times.append(t0 + (k + 1) * dt)
            states.append(c)
    return np.array(times), np.array(states)


@functools.cache
def oracle_schedule(strategy):
    if strategy == "a":
        return strategy_a(0.6, 21.05 * np.pi, 1.0)
    if strategy == "b":
        return strategy_b(0.5, 11.34 * np.pi, 1.0, 0.01)
    sch = strategy_c(0.3396, 1.0, 2)
    # Stokes apart from pump, or unequal detunings: H does not decouple, and
    # RK4 runs on the one 3x3 block
    if strategy == "stokes":
        return dataclasses.replace(
            sch, Omega_s=lambda t: (0.7 - 0.2j) * sch.Omega_p(t))
    if strategy == "detuning":
        return dataclasses.replace(sch, Delta_s=lambda t: sch.Delta_p(t) + 0.05)
    return sch


@settings(max_examples=60, deadline=None)
@given(strategy=st.sampled_from(["a", "b", "c", "stokes", "detuning"]),
       spp=st.integers(100, 400),
       window=st.one_of(st.none(), st.tuples(st.floats(0.0, 0.5),
                                             st.floats(0.5, 1.0))),
       psi0=st.sampled_from([ket(1), ket(3),
                             np.array([0.6, 0.8j, 0.0])]))
def test_matches_scalar_loop(strategy, spp, window, psi0):
    # the block-vectorized integrator reorders rounding only: partial last
    # blocks and sub-windows included, on the bright/dark split and on the
    # 3x3 block
    sch = oracle_schedule(strategy)
    if window is not None:
        span = sch.t_end - sch.t_start
        sch = dataclasses.replace(sch, t_start=sch.t_start + window[0] * span,
                                  t_end=sch.t_start + window[1] * span)
    cfg = PropagationConfig(steps_per_carrier_period=spp, record_states=True)
    report = propagate(sch, psi0, cfg)
    times, states = scalar_rk4(sch, psi0, cfg)
    assert np.array_equal(report.times, times)
    assert np.max(np.abs(report.states - states)) <= 1e-12
    drift = np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0))
    assert abs(report.norm_drift - drift) <= 1e-12


def test_decoupling_is_decided_by_value():
    # Stokes and its detuning as closures apart from the pump's, with the
    # same values: the run is the shared-closure run, bit for bit, and the
    # dark state (|1> - |3>)/sqrt2 never reaches |2>
    sch = oracle_schedule("a")
    twin = dataclasses.replace(sch, Omega_s=lambda t: sch.Omega_p(t),
                               Delta_s=lambda t: sch.Delta_p(t))
    cfg = PropagationConfig(steps_per_carrier_period=200, record_states=True)
    for psi0 in (ket(1), np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)):
        shared, apart = propagate(sch, psi0, cfg), propagate(twin, psi0, cfg)
        assert np.array_equal(shared.states, apart.states)
        assert np.array_equal(shared.norms, apart.norms)
    assert shared.max_p2 == apart.max_p2 == 0.0


def late_disagreement_schedule():
    """Strategy C over 6 periods, Stokes equal to the pump except at one time.

    At 2000 steps per period the run takes 12,000 steps in blocks of L = 10,
    on a (20, 1201) grid of half-steps sampled in groups of rows 0-5, 6-11,
    12-17 and 18-19; the time is row 17 of block 700, in the third group.
    """
    sch = strategy_c(0.3396, 1.0, 6)
    dt = (sch.t_end - sch.t_start) / 12000
    t_apart = sch.t_start + 0.5 * dt * (20 * 700 + 17)

    def omega_s(t):
        omega_p = sch.Omega_p(t)
        return np.where(np.abs(t - t_apart) < 0.25 * dt, 1.5 * omega_p, omega_p)

    return dataclasses.replace(sch, Omega_s=omega_s)


def test_late_disagreement_restarts_on_the_3x3_block():
    # the first groups agree and the split runs until the third; the run
    # then restarts on the one 3x3 block, which leaks the dark state
    # (|1> - |3>)/sqrt2 into |2> at the one time the pump and Stokes differ,
    # where the split would keep |2> empty to the last bit
    sch = late_disagreement_schedule()
    dark = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    cfg = PropagationConfig(steps_per_carrier_period=2000, record_states=True)
    report = propagate(sch, dark, cfg)
    times, states = scalar_rk4(sch, dark, cfg)
    assert np.array_equal(report.times, times)
    assert np.max(np.abs(report.states - states)) <= 1e-12
    assert report.max_p2 > 0


@pytest.mark.parametrize("spp,bound_mib", [(2000, 6), (8000, 12)])
def test_memory_grows_with_blocks_not_steps(spp, bound_mib):
    # A = 0.2 takes 179,040 steps at 2000 steps per period and 716,160 at
    # 8000; H is held a group of rows at a time beside the propagators of
    # 3581 and 7162 blocks, where the whole grid of samples peaked at 18.4
    # and 69.6 MiB under tracemalloc
    sch = strategy_a(0.2, 179.04 * np.pi, 1.0)
    cfg = PropagationConfig(steps_per_carrier_period=spp)
    tracemalloc.start()
    try:
        report = propagate(sch, ket(1), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.steps == 179040 * spp // 2000
    assert peak <= bound_mib * 2**20


@functools.cache
def window_schedule(strategy):
    if strategy == "a":
        return strategy_a(0.5, solve_omega_T_for_A(0.5).value, 1.0)
    return strategy_c(0.3, 1.0, 2)


@settings(max_examples=20, deadline=None)
@given(strategy=st.sampled_from("ac"),
       window=st.tuples(st.floats(0.0, 0.45), st.floats(0.55, 1.0)),
       psi0=st.sampled_from([ket(1), ket(3),
                             np.array([0.6, 0.8j, 0.0])]))
def test_rk4_matches_closed_form_on_any_window(strategy, window, psi0):
    # a schedule narrowed at either end: the expansion starts from the run's
    # first state at its first time; deviation_from_analytic of the report is
    # compare_with_analytic, and the same run gives the norm drift
    sch = window_schedule(strategy)
    span = sch.t_end - sch.t_start
    sch = dataclasses.replace(sch, t_start=sch.t_start + window[0] * span,
                              t_end=sch.t_start + window[1] * span)
    report = propagate(sch, psi0, PropagationConfig(record_states=True))
    assert deviation_from_analytic(report, sch) <= 1e-6
    assert report.norm_drift <= 1e-9


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

    def test_summaries_follow_data(self):
        # the summaries are read from populations and norms, so a replaced
        # report cannot keep stale ones
        report = propagate(strategy_c(0.2, 1.0, 2), ket(1), PropagationConfig(
            steps_per_carrier_period=300))
        n = len(report.times)
        pops = np.zeros((n, 3))
        pops[:, 0] = 1.0
        pops[n // 2] = [0.5, 0.3, 0.2]
        pops[-1] = [0.1, 0.2, 0.7]
        norms = np.ones(n)
        norms[1] = 1.0 + 3e-4
        edited = dataclasses.replace(report, populations=pops, norms=norms)
        assert edited.final_p3 == 0.7
        assert edited.max_p2 == 0.3
        assert edited.norm_drift == pytest.approx(3e-4, rel=1e-9)
        summary = edited.summary()
        assert summary["final_populations"] == [0.1, 0.2, 0.7]
        assert summary["max_p2"] == 0.3
        assert summary["norm_drift"] == edited.norm_drift
        assert report.final_p3 != 0.7


class TestAnalyticComparison:
    def test_strategy_c_agreement(self):
        sch = strategy_c(0.3, 1.0, 2)
        dev = compare_with_analytic(sch, ket(1), PropagationConfig(
            steps_per_carrier_period=1000))
        assert dev < 1e-6

    def test_initial_state_from_report(self):
        # the expansion starts from the report's first state, here |3>
        sch = strategy_c(0.3, 1.0, 2)
        report = propagate(sch, ket(3), PropagationConfig(
            steps_per_carrier_period=1000, record_states=True))
        assert deviation_from_analytic(report, sch) < 1e-6

    def test_narrowed_at_start_verifies(self):
        # one period cut from the start: the expansion starts where the run
        # starts, not at the trajectory start (there it read 0.184)
        sch = strategy_c(0.3, 1.0, 4)
        result = run_verification(dataclasses.replace(
            sch, t_start=sch.t_start + TWO_PI / sch.omega))
        check = result["checks"]["analytic_agreement"]
        assert check["passed"] and check["max_deviation"] < 1e-9
        assert result["passed"]

    def test_record_past_the_window_end(self):
        # at T = 25210 the last step lands an ulp past t_end, within the
        # window's relative slack, and the closed form is compared there too
        T = 25210.0
        sch = strategy_a(0.5, solve_omega_T_for_A(0.5).value / T, T)
        cfg = PropagationConfig(steps_per_carrier_period=200)
        assert propagate(sch, ket(1), cfg).times[-1] > sch.t_end
        assert compare_with_analytic(sch, ket(1), cfg) < 1e-6

    def test_narrowed_b_keeps_its_patch_width(self):
        # the patches keep the half-width 0.01 * T of the schedule's own
        # T = 1, not 0.01 of the narrowed window's span 0.5
        sch = strategy_b(0.5, 11.34 * np.pi, 1.0, 0.01)
        result = run_verification(dataclasses.replace(sch, t_start=0.25,
                                                      t_end=0.75))
        assert result["passed"], result["checks"]

    def test_report_without_states(self):
        sch = strategy_c(0.3, 1.0, 1)
        report = propagate(sch, ket(1), PropagationConfig(
            steps_per_carrier_period=100))
        with pytest.raises(ValueError, match="record_states=True"):
            deviation_from_analytic(report, sch)

    def test_domain_mismatch(self):
        sch = strategy_c(0.3, 1.0, 2)
        aux = sch.trajectory.at
        traj = reduced_trajectory(lambda t: aux(t).beta, lambda t: aux(t).beta_dot,
                                  1.0, sch.t_start, sch.t_start + 1.0)
        with pytest.raises(ValueError, match="does not cover"):
            compare_with_analytic(dataclasses.replace(sch, trajectory=traj),
                                  ket(1))


def _nan_near(fn, t_bad, width):
    def wrapped(t):
        return np.where(np.abs(t - t_bad) < width, np.nan, fn(t))
    return wrapped


def _nan_phase_at_one_record(sch):
    # 500 steps/period records every span/20; NaN at the 7th record only
    span = sch.t_end - sch.t_start
    traj = sch.trajectory
    zero = _nan_near(lambda t: traj.phases(t)[1], sch.t_start + 7 * span / 20,
                     span / 80)
    bad = dataclasses.replace(
        traj, phases=lambda t: np.stack([traj.phases(t)[0], zero(t)]))
    return check_analytic_agreement(
        dataclasses.replace(sch, trajectory=bad),
        PropagationConfig(steps_per_carrier_period=500)), "max_deviation"


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
