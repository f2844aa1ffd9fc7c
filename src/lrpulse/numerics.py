"""Shared numerical kernels: bisection, composite Simpson quadrature, stencils.

All routines are pure functions (or immutable precomputed tables) and are safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError

_MAX_PANELS = 2**20


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] on which a target function changes sign."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"invalid bracket: lo={self.lo} >= hi={self.hi}")


def find_root(f: Callable[[float], float], bracket: Bracket, tol: float,
              max_iter: int = 200) -> tuple[float, int]:
    """Bisection root of f on the bracket.

    Returns (root, iterations). Terminates when the bracket width drops
    below tol or an exact zero is hit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) <= tol:
            return mid, it
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise ConvergenceError(f"bisection did not converge in {max_iter} iterations")


def integrate(f: Callable, a: float, b: float, abs_tol: float = 1e-9,
              min_panels: int = 256) -> float:
    """Composite Simpson quadrature, panel count doubled until converged.

    Convergence means two successive estimates differ by less than abs_tol.
    f is evaluated on arrays of abscissae.
    """
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    def simpson(n: int) -> float:
        xs = np.linspace(a, b, n + 1)
        ys = np.asarray(f(xs), dtype=float)
        h = (b - a) / n
        return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())

    n = max(4, min_panels)
    if n % 2:
        n += 1
    prev = simpson(n)
    while n <= _MAX_PANELS:
        n *= 2
        cur = simpson(n)
        if abs(cur - prev) < abs_tol:
            return sign * cur
        prev = cur
    raise ConvergenceError(f"Simpson quadrature did not converge below {abs_tol}")


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
    evaluated on arrays of abscissae.
    """

    def __init__(self, f: Callable, t_start: float, t_end: float, n_cells: int):
        if not t_end > t_start:
            raise ValueError("t_end must exceed t_start")
        self._f = f
        self.t_start = t_start
        self.t_end = t_end
        nodes, weights = np.polynomial.legendre.leggauss(7)
        self._nodes, self._weights = nodes, weights
        self._edges = np.linspace(t_start, t_end, n_cells + 1)
        a = self._edges[:-1, None]
        b = self._edges[1:, None]
        xs = 0.5 * (a + b) + 0.5 * (b - a) * nodes[None, :]
        ys = np.asarray(f(xs), dtype=float)
        cell = (ys * weights[None, :]).sum(axis=1) * 0.5 * (b - a)[:, 0]
        self._cum = np.concatenate([[0.0], np.cumsum(cell)])

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(self._edges, t_arr, side="right") - 1,
                      0, len(self._edges) - 2)
        a = self._edges[idx]
        half = 0.5 * (t_arr - a)
        xs = a[:, None] + half[:, None] * (1.0 + self._nodes[None, :])
        ys = np.asarray(self._f(xs), dtype=float)
        partial = (ys * self._weights[None, :]).sum(axis=1) * half
        out = self._cum[idx] + partial
        return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out
