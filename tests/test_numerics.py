"""Tests for the shared numerical kernels."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrpulse
from lrpulse.numerics import (_GL_NODES, _GL_WEIGHTS, Bracket, RunningIntegral,
                              central_diff, find_root, integrate)


def loaded_by_cli_import(module):
    """'True' or 'False': whether `import lrpulse.cli` in a fresh interpreter
    loads module."""
    src = str(Path(lrpulse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lrpulse.cli; "
         f"print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestFindRoot:
    def test_cosine_root(self):
        root, iters = find_root(np.cos, Bracket(1.0, 2.0), tol=1e-12)
        assert abs(root - np.pi / 2) < 1e-11
        assert iters > 0

    def test_endpoint_root(self):
        root, _ = find_root(lambda x: x, Bracket(0.0, 1.0), tol=1e-12)
        assert root == 0.0

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            find_root(lambda x: x + 2.0, Bracket(0.0, 1.0), tol=1e-9)

    def test_bad_tol(self):
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                find_root(np.cos, Bracket(1.0, 2.0), tol=tol)

    def test_sub_ulp_tol_rejected_up_front(self):
        # below 4 ulps of the bracket ends the least step, tol/4, leaves the
        # estimate where it is; this call once spent 202 evaluations of f
        # before it raised ConvergenceError
        calls = []

        def f(x):
            calls.append(x)
            return np.cos(x)

        with pytest.raises(ValueError, match="tol must be"):
            find_root(f, Bracket(1.0, 2.0), tol=1e-17)
        assert len(calls) <= 2

    def test_random_cubics(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = rng.uniform(-2.0, 2.0)
            f = lambda x: (x - r) * (x ** 2 + 1.0)
            root, _ = find_root(f, Bracket(-3.0, 3.0), tol=1e-10)
            assert abs(root - r) < 1e-9

    def test_signs_survive_underflow(self):
        # products of f values this small underflow to zero; signs do not
        root, _ = find_root(lambda x: 1e-200 * (x - 0.3), Bracket(0.0, 1.0),
                            tol=1e-9)
        assert abs(root - 0.3) <= 5e-10

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(-2.5, 2.5), m=st.floats(-2.0, 2.0),
           a=st.floats(0.0, 2.0), b=st.floats(0.1, 2.0),
           sign=st.sampled_from([-1.0, 1.0]), log_tol=st.floats(-10.0, -2.0))
    def test_monotone_cubic_root_within_half_tol(self, r, m, a, b, sign, log_tol):
        # f(root - tol/2) and f(root + tol/2) straddle zero, as for the
        # midpoint of a bisection bracket tol wide
        c = -(a * (r - m) ** 3 + b * (r - m))
        f = lambda x: sign * (a * (x - m) ** 3 + b * (x - m) + c)
        tol = 10.0 ** log_tol
        root, _ = find_root(f, Bracket(-3.0, 3.0), tol=tol)
        assert f(root - 0.5 * tol) * f(root + 0.5 * tol) <= 0.0

    @pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-12])
    def test_step_function_falls_back_to_bisection(self, tol):
        # interpolation on f = sign(x - r) never beats bisection, which must
        # still reach tol/2 in the steps it alone would take
        rng = np.random.default_rng(3)
        for r in rng.uniform(-2.9, 2.9, 50):
            root, iters = find_root(lambda x: np.sign(x - r), Bracket(-3.0, 3.0),
                                    tol=tol)
            assert abs(root - r) <= 0.5 * tol
            assert iters <= np.ceil(np.log2(2.0 * 6.0 / tol))

    def test_smooth_cubic_converges_superlinearly(self):
        # bisection would take 37 evaluations to tol = 1e-10 on [-3, 3]; the
        # cubics above are no test of this, as the secant through their
        # bracket ends meets zero at r itself
        rng = np.random.default_rng(8)
        for r in rng.uniform(-2.0, 2.0, 50):
            f = lambda x: x ** 3 + x - (r ** 3 + r)
            root, iters = find_root(f, Bracket(-3.0, 3.0), tol=1e-10)
            assert abs(root - r) <= 1e-10 and iters <= 12

    def test_cli_import_does_not_load_scipy(self):
        # find_root is written on numpy and the standard library alone
        assert loaded_by_cli_import("scipy") == "False"


class TestIntegrate:
    def test_sine(self):
        assert abs(integrate(np.sin, 0.0, np.pi, 1) - 2.0) < 1e-9

    def test_polynomial(self):
        val = integrate(lambda x: 3.0 * x ** 2, 0.0, 2.0, 1)
        assert abs(val - 8.0) < 1e-10

    def test_oscillatory(self):
        # mean of cos^2 over whole periods
        val = integrate(lambda x: np.cos(50.0 * x) ** 2, 0.0, 2.0 * np.pi, 8)
        assert abs(val - np.pi) < 1e-9

    def test_degenerate_interval(self):
        assert integrate(np.sin, 1.0, 1.0, 1) == 0.0

    def test_reversed_limits_flip_sign(self):
        fwd = integrate(np.sin, 0.0, 1.0, 1)
        rev = integrate(np.sin, 1.0, 0.0, 1)
        assert abs(fwd + rev) < 1e-12

    def test_bad_cell_count(self):
        with pytest.raises(ValueError):
            integrate(np.sin, 0.0, 1.0, 0)


class TestCentralDiff:
    def test_exponential(self):
        d = central_diff(np.exp, 0.0, 1e-5)
        assert abs(d - 1.0) < 1e-9

    def test_matrix_valued(self):
        f = lambda t: np.array([[np.cos(t), 0.0], [0.0, np.sin(t)]])
        d = central_diff(f, 0.3, 1e-6)
        assert abs(d[0, 0] + np.sin(0.3)) < 1e-9
        assert abs(d[1, 1] - np.cos(0.3)) < 1e-9

    def test_bad_h(self):
        with pytest.raises(ValueError):
            central_diff(np.exp, 0.0, 0.0)


class TestRunningIntegral:
    def test_against_closed_form(self):
        F = RunningIntegral(np.sin, 0.0, 10.0, 256)
        rng = np.random.default_rng(11)
        for t in rng.uniform(0.0, 10.0, 100):
            assert abs(F(t) - (1.0 - np.cos(t))) < 1e-12

    def test_array_evaluation(self):
        F = RunningIntegral(lambda u: 2.0 * u, 0.0, 4.0, 64)
        ts = np.linspace(0.0, 4.0, 17)
        assert np.max(np.abs(F(ts) - ts ** 2)) < 1e-12

    def test_start_is_zero(self):
        F = RunningIntegral(np.cos, -1.0, 1.0, 32)
        assert F(-1.0) == 0.0

    @pytest.mark.parametrize("shape", [(16, 7), (3, 4)])
    def test_2d_times_match_flattened(self, shape):
        # a last axis of length 7, the rule's node count, must not be taken
        # for the quadrature nodes, and other shapes must broadcast
        F = RunningIntegral(np.cos, 0.0, 3.0, 16)
        ts = np.random.default_rng(5).uniform(0.0, 3.0, shape)
        got = F(ts)
        assert got.shape == shape
        assert np.max(np.abs(got - F(ts.ravel()).reshape(shape))) <= 1e-15

    def test_component_axes_match_scalar_integrals(self):
        # an integrand with a leading component axis integrates each row as
        # its own scalar integrand would
        F = RunningIntegral(lambda u: np.stack([np.sin(u), u * u]), 0.0, 3.0, 16)
        ts = np.random.default_rng(6).uniform(0.0, 3.0, (4, 5))
        got = F(ts)
        assert got.shape == (2, 4, 5)
        for row, f in zip(got, (np.sin, lambda u: u * u)):
            assert np.array_equal(row, RunningIntegral(f, 0.0, 3.0, 16)(ts))
        assert F(1.5).shape == (2,)


class TestGaussLegendreTable:
    def test_literals_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.array_equal(_GL_NODES, nodes)
        assert np.array_equal(_GL_WEIGHTS, weights)

    def test_cli_import_does_not_load_numpy_polynomial(self):
        assert loaded_by_cli_import("numpy.polynomial") == "False"
