"""Shared numerical kernels: bisection, stencils, and one quadrature rule,
7-point Gauss-Legendre on uniform cells (integrate, RunningIntegral).

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
_MAX_BISECTIONS = 200
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
    """Bisection root of f on the bracket.

    Returns (root, iterations). Terminates when the bracket width drops
    below tol or an exact zero is hit.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for it in range(1, _MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) <= tol:
            return mid, it
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise ConvergenceError(f"bisection did not converge in {_MAX_BISECTIONS} iterations")


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
