"""Shared numerical kernels: a bracketed root finder (Brent-Dekker), stencils,
and one quadrature rule, 7-point Gauss-Legendre on uniform cells (integrate,
RunningIntegral).

All routines are pure functions (or immutable precomputed tables) and are safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError

# 7-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(7)
# written out so that importing the package does not load numpy.polynomial
_GL_NODES = np.array([-0.9491079123427586, -0.7415311855993945, -0.4058451513773972,
                      0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427586])
_GL_WEIGHTS = np.array([0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
                        0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
                        0.12948496616886973])
_MAX_ROOT_STEPS = 200
_INTEGRATE_TOL = 1e-10
_MAX_CELLS = 2**17   # 7 * 2**17 abscissae, about 2**20


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] on which a target function changes sign."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"invalid bracket: lo={self.lo} >= hi={self.hi}")


def find_root(f: Callable[[float], float], bracket: Bracket,
              tol: float) -> tuple[float, int]:
    """Root of f on the bracket by Brent's method (Algorithms for Minimization
    without Derivatives, 1973, ch. 4): inverse quadratic or secant steps,
    bisection where they stall.

    Returns (root, iterations), iterations counting the evaluations of f
    inside the bracket. The root is the end with the smaller |f| of a bracket
    at most tol/2 wide, or an exact zero, so it lies within tol/2 of a sign
    change of f; tol must be at least 4 ulps of the bracket ends.
    """
    ulp = np.spacing(max(abs(bracket.lo), abs(bracket.hi)))
    if not (np.isfinite(tol) and tol >= 4.0 * ulp):
        raise ValueError(f"tol must be finite and at least 4 ulps, {4.0 * ulp:.3g}")
    a, b = bracket.lo, bracket.hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a, 0
    if fb == 0.0:
        return b, 0
    if not (fa < 0 < fb or fb < 0 < fa):
        raise ValueError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")
    # b is the best estimate and c the end across the sign change from it; a is
    # the previous b. d is the last step and e the one before it
    c, fc = a, fa
    d = e = b - a
    step = 0.25 * tol   # the least step, and half the final bracket width
    for it in range(_MAX_ROOT_STEPS + 1):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half = 0.5 * (c - b)
        if abs(half) <= step or fb == 0.0:
            return b, it
        if it == _MAX_ROOT_STEPS:
            break
        if abs(e) >= step and abs(fa) > abs(fb):
            # secant through a and b, or inverse quadratic through a, b and c
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            # accept a step that stays well inside the bracket and shrinks
            # faster than the one before last; bisect otherwise
            if 2.0 * p < min(3.0 * half * q - abs(step * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > step else (step if half > 0 else -step)
        fb = f(b)
    raise ConvergenceError(f"root search did not converge in {_MAX_ROOT_STEPS} steps")


def _gauss_legendre(f: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of f over each interval [lo, hi], elementwise for any shape."""
    half = 0.5 * (hi - lo)
    xs = (0.5 * (lo + hi))[..., None] + half[..., None] * _GL_NODES
    ys = np.asarray(f(xs), dtype=float)
    return (ys * _GL_WEIGHTS).sum(axis=-1) * half


def integrate(f: Callable, a: float, b: float, n_cells: int) -> float:
    """Gauss-Legendre quadrature on n_cells uniform cells, the count doubled
    until two successive sums differ by less than 1e-10. f takes arrays."""
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    if a == b:
        return 0.0
    prev = np.inf
    while n_cells <= _MAX_CELLS:
        edges = np.linspace(a, b, n_cells + 1)
        cur = float(_gauss_legendre(f, edges[:-1], edges[1:]).sum())
        if abs(cur - prev) < _INTEGRATE_TOL:
            return cur
        prev, n_cells = cur, 2 * n_cells
    raise ConvergenceError(f"quadrature did not converge to {_INTEGRATE_TOL}")


def central_diff(f: Callable, t: float, h: float):
    """Second-order central difference (f(t+h) - f(t-h)) / (2h).

    Works for scalar-, vector-, and matrix-valued f.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    return (f(t + h) - f(t - h)) / (2.0 * h)


class RunningIntegral:
    """Cumulative integral of f from t_start, evaluable anywhere in the domain.

    The domain is split into uniform cells integrated once with a 7-point
    Gauss-Legendre rule; a partial cell is integrated on demand. Accuracy is
    at machine level provided f varies over scales no finer than a cell. f is
    evaluated on arrays of abscissae, and times may have any shape; values of
    f with leading component axes give results with the same leading axes.
    """

    def __init__(self, f: Callable, t_start: float, t_end: float, n_cells: int):
        if not t_end > t_start:
            raise ValueError("t_end must exceed t_start")
        self._f = f
        self.t_start = t_start
        self.t_end = t_end
        self._edges = np.linspace(t_start, t_end, n_cells + 1)
        cell = _gauss_legendre(f, self._edges[:-1], self._edges[1:])
        self._cum = np.cumsum(np.insert(cell, 0, 0.0, axis=-1), axis=-1)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self._edges, t, side="right") - 1,
                      0, len(self._edges) - 2)
        partial = _gauss_legendre(self._f, self._edges[idx], t)
        return (self._cum[..., idx] + partial)[()]
