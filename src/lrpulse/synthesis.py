"""Auxiliary-angle trajectories, inverse-engineered pulse schedules, and the
three concrete design strategies with their calibration solvers.

Every schedule is views of one sampler that maps times to its fields and
cos(omega*t) (_schedule). synthesize_general samples a trajectory once for the
pump/Stokes envelopes and detunings that realize it. Strategies A, B and C
share one reduced invariant (alpha = pi/4, lambda = 0, theta_dot = -omega): a
strategy is a mixing angle beta, its derivative beta_dot and a sampler giving,
from shared sines and cosines, the envelope (regular at the carrier zeros) and
Delta = -2*omega*sin(beta)^2 that pump and Stokes share. Strategy A multiplies
a smooth window by the squared carrier and evaluates the quotient in factored
form; B takes the window alone and patches the singular quotient linearly
around each carrier zero; C picks the envelope's real part first and solves
beta backwards. The calibrations integrate sin(beta)^2 of the same beta.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import AuxParams, SQRT2, lr_phase_rate
from .errors import CalibrationError, SynthesisError
from .numerics import (Bracket, RunningIntegral, central_diff, find_root,
                       integrate)

TWO_PI = 2.0 * np.pi

KAPPA_SUP = 1.0 / (2.0 * SQRT2)   # supremum of Omega0/omega for strategy C

# Gauss-Legendre cells per carrier period (the calibrations double theirs until
# converged), and over the whole domain of a general trajectory
_RUNNING_CELLS_PER_PERIOD = 64
_CALIBRATION_CELLS_PER_PERIOD = 8
_GENERAL_TRAJECTORY_CELLS = 4096
_REDUCED_ALPHA = np.pi / 4       # the reduced invariant's constant alpha
_OMEGA_T_MAX = 2000.0 * np.pi    # largest calibrated omega*T or A's bracket end
_BOUND_MARGIN = 1e-6             # quadrature allowance of the omega*T bracket
_OMEGA_T_TOL = 1e-6              # find_root tol: omega*T within 5e-7 of a sign change
_KAPPA_TOL = 1e-8                # find_root tol: kappa within 5e-9 of a sign change
# the column names of a schedule file, in the order write_csv writes them
_SCHEDULE_COLUMNS = ("t", "re_omega_p", "im_omega_p", "re_omega_s", "im_omega_s",
                     "delta")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuxiliaryTrajectory:
    """Auxiliary angles and accumulated branch phases on [t_start, t_end].

    at and phases take scalar or array times: at gives the AuxParams of the
    angles and their derivatives, and phases the stacked (theta_pm, theta_0)
    picked up since t_start by the +1 and -1 eigenvectors, which share one,
    and by the 0 eigenvector. theta_dot maps the AuxParams of at to the
    invariant's phase-rate parameter. Under the schedule of synthesize_general
    the rates <phi_k| i d/dt - H |phi_k> are -theta_dot cos(beta)^2 and
    theta_dot sin(beta)^2.
    """

    at: Callable
    theta_dot: Callable
    phases: Callable
    t_start: float
    t_end: float


def reduced_trajectory(beta: Callable, beta_dot: Callable, omega: float,
                       t_start: float, t_end: float) -> AuxiliaryTrajectory:
    """Trajectory with alpha = pi/4, lambda = 0, and theta_dot = -omega.

    epsilon accumulates as omega * integral of sin(beta)^2, which keeps the
    phase-rate relation regular even where sin(beta) vanishes. The branch
    phases come out in closed form: (omega*tau - eps) for both the +1 and -1
    branches and -eps for the 0 branch, with tau measured from t_start.
    These phases are relative to the energy reference <2|H|2> = 0 of
    core.hamiltonian_entries: adding c(t) times the identity to H shifts
    every branch rate by -c(t) and leaves all populations unchanged.
    """
    _check_carrier(omega)
    periods = (t_end - t_start) * omega / TWO_PI
    if not np.isfinite(periods):
        raise ValueError(f"trajectory window [{t_start}, {t_end}] must be finite")
    n_cells = max(64, int(np.ceil(periods * _RUNNING_CELLS_PER_PERIOD)))
    eps = RunningIntegral(lambda t: omega * np.sin(beta(t)) ** 2,
                          t_start, t_end, n_cells)

    def at(t):
        b = beta(t)
        return AuxParams(alpha=_REDUCED_ALPHA, beta=b, epsilon=eps(t), lam=0.0,
                         beta_dot=beta_dot(t), epsilon_dot=omega * np.sin(b) ** 2)

    def phases(t):
        e = eps(t)
        return np.stack([omega * (np.asarray(t, dtype=float) - t_start) - e, -e])

    return AuxiliaryTrajectory(
        at=at, theta_dot=lambda p: np.full(np.shape(p.beta), -omega),
        phases=phases, t_start=t_start, t_end=t_end)


def general_trajectory(alpha0: float, beta: Callable, beta_dot: Callable,
                       epsilon: Callable, epsilon_dot: Callable,
                       lam: Callable, lam_dot: Callable,
                       t_start: float, t_end: float) -> AuxiliaryTrajectory:
    """Trajectory with nonconstant lambda; alpha follows from the constraint
    alpha_dot = lam_dot * cos(beta) * cos(epsilon).

    The phase-rate parameter is pinned by the quotient relation, so sin(beta)
    must stay away from zero on the whole domain.
    """
    constraint = lambda b, e, ld: ld * np.cos(b) * np.cos(e)   # alpha_dot
    alpha = RunningIntegral(lambda t: constraint(beta(t), epsilon(t), lam_dot(t)),
                            t_start, t_end, _GENERAL_TRAJECTORY_CELLS)

    def at(t):
        b, e, ld = beta(t), epsilon(t), lam_dot(t)
        return AuxParams(alpha=alpha0 + alpha(t), beta=b, epsilon=e, lam=lam(t),
                         alpha_dot=constraint(b, e, ld), beta_dot=beta_dot(t),
                         epsilon_dot=epsilon_dot(t), lam_dot=ld)

    def rates(t):   # the +-1 and the 0 branch phase rates, from one sample
        p = at(t)
        return lr_phase_rate(p) * np.stack([-np.cos(p.beta) ** 2,
                                            np.sin(p.beta) ** 2])

    return AuxiliaryTrajectory(
        at=at, theta_dot=lr_phase_rate,
        phases=RunningIntegral(rates, t_start, t_end, _GENERAL_TRAJECTORY_CELLS),
        t_start=t_start, t_end=t_end)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def _check_carrier(omega: float) -> None:
    if omega <= 0:
        raise ValueError("carrier frequency must be positive")
    if not np.isfinite(omega):
        raise ValueError(f"carrier frequency must be finite, not {omega}")


@dataclass(frozen=True)
class PulseSchedule:
    """Complex envelopes and detunings, callables of scalar or array times,
    on one carrier frequency omega that pump and Stokes share."""

    omega: float
    Omega_p: Callable
    Omega_s: Callable
    Delta_p: Callable
    Delta_s: Callable
    t_start: float
    t_end: float
    strategy: str
    params: dict = field(default_factory=dict)
    trajectory: AuxiliaryTrajectory | None = None

    def __post_init__(self):
        _check_carrier(self.omega)

    def header(self) -> dict:
        return {"schema_version": 1, "omega": self.omega,
                "strategy": self.strategy, "params": self.params,
                "t_start": self.t_start, "t_end": self.t_end}

    def sample(self, t):
        """(Omega_p, Omega_s, Delta_p, Delta_s, cos(omega*t)), each of t's shape.
        Each distinct closure, or sampler of a _View (by type), is called once;
        only a view on this omega gives the carrier, else it is np.cos(omega*t)."""
        t = np.asarray(t, dtype=float)
        calls, samples, carrier = {}, [], None
        for fn in (self.Omega_p, self.Omega_s, self.Delta_p, self.Delta_s):
            view = isinstance(fn, _View)
            key = id(fn.sampler if view else fn)
            if key not in calls:
                calls[key] = fn.sampler(t) if view else fn(t)
            if view and fn.omega == self.omega:
                carrier = calls[key][-1]
            samples.append(calls[key][fn.index] if view else calls[key])
        samples.append(np.cos(self.omega * t) if carrier is None else carrier)
        return tuple(x if getattr(x, "shape", None) == t.shape
                     else np.broadcast_to(x, t.shape) for x in samples)

    def sample_times(self, samples_per_period: int = 200) -> np.ndarray:
        """At least 3 uniform times spanning the domain; raises ValueError
        for a samples_per_period below 1."""
        if not samples_per_period >= 1:
            raise ValueError("samples_per_period must be at least 1")
        n = max(2, int(np.ceil((self.t_end - self.t_start) * self.omega
                               / TWO_PI * samples_per_period)))
        return np.linspace(self.t_start, self.t_end, n + 1)

    def write_csv(self, path, samples_per_period: int = 200,
                  time_scale: float = 1.0) -> None:
        """Write sampled envelopes and detuning, JSON header in a comment line.

        The time column is t / time_scale. Raises ValueError for distinct
        pump and Stokes detunings, which the one delta column cannot hold.
        """
        ts = self.sample_times(samples_per_period)
        op, os_, dd, ds, _ = self.sample(ts)
        if np.max(np.abs(ds - dd)) > 1e-12 * self.omega:
            raise ValueError("Stokes detuning differs from the pump detuning; "
                             "a schedule file holds one detuning column")
        np.savetxt(path, np.column_stack([ts / time_scale, op.real, op.imag,
                                          os_.real, os_.imag, dd]),
                   fmt="%.12g", delimiter=",", comments="",
                   header="# " + json.dumps(self.header()) + "\n"
                   + ",".join(_SCHEDULE_COLUMNS))


class _View:
    """Output index of a schedule's sampler on omega."""

    def __init__(self, sampler, index: int, omega: float):
        self.sampler, self.index, self.omega = sampler, index, omega

    def __call__(self, t):
        return self.sampler(np.asarray(t, dtype=float))[self.index]


def _schedule(strategy: str, params: dict, sampler: Callable, fields: tuple,
              omega: float, traj: AuxiliaryTrajectory) -> PulseSchedule:
    """Schedule of traj whose Omega_p, Omega_s, Delta_p and Delta_s read the
    outputs fields of sampler, which maps float times to a tuple ending in
    cos(omega*t); fields reading one output share one view."""
    views = {i: _View(sampler, i, omega) for i in set(fields)}
    return PulseSchedule(omega, *(views[i] for i in fields), traj.t_start,
                         traj.t_end, strategy, params, traj)


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def load_schedule_csv(path):
    """Read back a schedule CSV: (header dict, record array of columns).

    Raises ValueError, naming the path, for a first line that is not '# '
    and a JSON object; for fewer than 2 data rows; for the first data row
    whose column count differs from the column-name line; for column names
    other than the six write_csv writes, each once in any order;
    for the first cell that is not a finite number (by data row and column);
    and for the first data row whose t does not exceed the row before it.
    Blank lines and lines starting with '#' are not data rows.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise ValueError(f"{path}: missing JSON header line")
        try:
            meta = json.loads(first[2:])
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON header line: {exc}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: JSON header line is not an object")
        names = [name.strip() for name in fh.readline().split(",")]
        rows = [ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if len(rows) < 2:
        raise ValueError(f"{path}: {len(rows)} data rows, at least 2 needed")
    for n, row in enumerate(rows, start=1):
        n_columns = row.count(",") + 1
        if n_columns != len(names):
            raise ValueError(f"{path}: data row {n}: {n_columns} columns "
                             f"under {len(names)} column names")
    if sorted(names) != sorted(_SCHEDULE_COLUMNS):
        raise ValueError(f"{path}: column names {','.join(names)} are not "
                         f"{','.join(_SCHEDULE_COLUMNS)}, each once")
    try:
        cells = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError:
        # some cell is not a number: read it as NaN, for the check below
        cells = np.loadtxt(rows, delimiter=",", ndmin=2, converters=_float_or_nan)
    for col, name in enumerate(names):
        bad = np.flatnonzero(~np.isfinite(cells[:, col]))
        if bad.size:
            raise ValueError(f"{path}: data row {bad[0] + 1}, column {name!r}: "
                             "not a finite number")
    data = np.rec.fromarrays(cells.T, names=names)
    bad = np.flatnonzero(np.diff(data["t"]) <= 0.0)
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 2}: t does not exceed "
                         "the row before it")
    return meta, data


def carrier_singular_times(omega: float, t_start: float, t_end: float) -> np.ndarray:
    """Zeros of cos(omega*t) inside (t_start, t_end)."""
    n_lo = int(np.floor(omega * t_start / np.pi - 0.5)) - 1
    n_hi = int(np.ceil(omega * t_end / np.pi - 0.5)) + 1
    ts = (np.arange(n_lo, n_hi + 1) + 0.5) * np.pi / omega
    return ts[(ts > t_start) & (ts < t_end)]


def _nearest_carrier_zero(omega: float, t):
    """The zero of cos(omega*t) nearest to each t."""
    return (np.round(omega * t / np.pi - 0.5) + 0.5) * np.pi / omega


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration solve."""

    value: float
    residual: float
    iterations: int


# ---------------------------------------------------------------------------
# general inverse engineering
# ---------------------------------------------------------------------------

_CARRIER_ZERO_TOL = 1e-8


def _general_fields(aux: AuxiliaryTrajectory, omega: float, t):
    """Pump and Stokes envelope numerators, then pump and Stokes detunings, at
    float times t from one sample of aux; Stokes swaps cos(alpha) and
    sin(alpha) and flips the sign of the lam_dot terms."""
    p = aux.at(t)
    theta_dot = aux.theta_dot(p)
    ca, sa = np.cos(p.alpha), np.sin(p.alpha)
    sb, cb = np.sin(p.beta), np.cos(p.beta)
    swing = theta_dot * np.sin(2 * p.beta)
    ee, se, s2a = np.exp(-1j * p.epsilon), np.sin(p.epsilon), np.sin(2 * p.alpha)
    nums, deltas = [], []
    for sign, c, s in ((1.0, ca, sa), (-1.0, sa, ca)):
        common = 0.5 * c * (-2j * p.beta_dot + swing)
        nums.append((sign * 1j * p.lam_dot * ee * s * sb) + common)
        deltas.append(-p.epsilon_dot * s ** 2
                      + theta_dot * (c ** 2 * sb ** 2 - cb ** 2)
                      - sign * p.lam_dot * se * s2a * cb - omega)
    return (*nums, *deltas)


def synthesize_general(aux: AuxiliaryTrajectory, omega: float) -> PulseSchedule:
    """Envelopes and detunings on carrier omega realizing the given
    trajectory exactly, as views of one sampler of (Omega_p, Omega_s,
    Delta_p, Delta_s, cos(omega*t)).

    The envelope is a quotient by the carrier cosine; trajectories whose
    numerator does not vanish at a carrier zero are rejected because they
    would need an unbounded pulse there.
    """
    _check_carrier(omega)
    numerators = lambda t: np.stack(_general_fields(aux, omega, t)[:2])
    zeros = carrier_singular_times(omega, aux.t_start, aux.t_end)
    probe = np.abs(numerators(np.linspace(aux.t_start, aux.t_end, 1001)))
    scale = np.maximum(np.max(probe, axis=-1), omega)
    bad = np.argwhere(np.abs(numerators(zeros)) > 1e-7 * scale[:, None])
    if bad.size:   # the pump's first, then the Stokes field's
        raise SynthesisError(
            f"{('pump', 'Stokes')[bad[0, 0]]} envelope is singular at "
            f"t={zeros[bad[0, 1]]:.9g}: numerator does not vanish with the "
            "carrier cosine")

    def sample(t):   # one trajectory sample a time
        *nums, delta_p, delta_s = _general_fields(aux, omega, t)
        c = np.cos(omega * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            envelopes = np.asarray(np.stack(nums) / c, dtype=complex)
        near = np.abs(c) < _CARRIER_ZERO_TOL
        if np.any(near):   # the limit is evaluated beside carrier zeros only
            tz = _nearest_carrier_zero(omega, t[near])
            h = 1e-6 * TWO_PI / omega
            envelopes[:, near] = central_diff(numerators, tz, h) \
                / (-omega * np.sin(omega * tz))
        return (*envelopes, delta_p, delta_s, c)

    return _schedule("general", {}, sample, (0, 1, 2, 3), omega, aux)


# ---------------------------------------------------------------------------
# strategies: one reduced invariant, a mixing angle and a regular envelope each
# ---------------------------------------------------------------------------

def _window(amp: float, T: float, name: str):
    """The window 0.5*amp*(1 - cos(2*pi*t/T)) and its derivative, amp in (0, 0.8]."""
    if not 0.0 < amp <= 0.8:
        raise ValueError(f"{name} must lie in (0, 0.8]")
    f = lambda t: 0.5 * amp * (1.0 - np.cos(TWO_PI * t / T))
    fdot = lambda t: (np.pi * amp / T) * np.sin(TWO_PI * t / T)
    return f, fdot


# ---------------------------------------------------------------------------
# strategy A: smooth window times squared carrier
# ---------------------------------------------------------------------------

def _beta_a(f: Callable, fdot: Callable, omega: float):
    """Strategy A's mixing angle f(t) * cos(omega*t)^2 and its derivative."""
    def beta(t):
        return f(t) * np.cos(omega * t) ** 2

    def beta_dot(t):
        return (fdot(t) * np.cos(omega * t) ** 2
                - f(t) * omega * np.sin(2 * omega * t))

    return beta, beta_dot


def strategy_a(A: float, omega: float, T: float) -> PulseSchedule:
    """Schedule from beta = window(t) * cos(omega*t)^2.

    The envelope quotient is evaluated in factored form, so it is finite
    everywhere including the carrier zeros, and it vanishes at both ends.
    """
    f, fdot = _window(A, T, "A")
    if omega <= 0 or T <= 0:
        raise ValueError("omega and T must be positive")

    def sample(t):   # six sines and cosines a time: omega*t, 2*pi*t/T and beta
        c, s = np.cos(omega * t), np.sin(omega * t)
        fv = f(t)
        b = fv * c ** 2
        sb, cb = np.sin(b), np.cos(b)
        # beta_dot / cos and sin(2*beta) / cos, both regular: beta carries a
        # cos^2 factor, and sin(2b)/(2b) = sin(b)cos(b)/b is 1 at b = 0
        bdot_over_c = fdot(t) * c - 2.0 * fv * omega * s
        s2b_over_c = 2.0 * fv * c * np.divide(sb * cb, b, out=np.ones_like(b),
                                              where=b != 0.0)
        envelope = -omega / (2.0 * SQRT2) * s2b_over_c - 1j / SQRT2 * bdot_over_c
        return envelope, -2.0 * omega * sb ** 2, c

    return _schedule("a", {"A": A, "omega_T": omega * T}, sample, (0, 0, 1, 1),
                     omega, reduced_trajectory(*_beta_a(f, fdot, omega), omega,
                                               0.0, T))


def _bessel_j0(z):
    """J0(z) from its power series sum_k (-z^2/4)^k / (k!)^2; 20 terms reach
    double precision for |z| <= 0.8, the largest window amplitude."""
    q = -0.25 * z * z
    term = total = 1.0
    for k in range(1, 20):
        term = term * q / (k * k)
        total = total + term
    return total


def _carrier_mean_sin2(f):
    """m(f) = (1 - cos(f) J0(f)) / 2, the mean of sin(f cos(theta)^2)^2 and of
    sin(f/2 (1 - cos(theta)))^2 over theta, by J0(z) = (1/pi) int_0^pi
    cos(z cos(theta)) dtheta (DLMF 10.9.1)."""
    return 0.5 * (1.0 - np.cos(f) * _bessel_j0(f))


def _deviation_constant(A: float) -> float:
    """C1(A) with u*|eps(u) - u*I| <= C1(A) for strategy A at omega*T = u
    (step 4 of solve_omega_T_for_A):
    sum_j 2j pi (1 + pi (2j - 1)/8) w_j A^(2j),
    w_j = sum_n binom(4j, 2j - n) / (n^2 (2j)! 4^j). C1(A)/A^2 rises from
    4.65 at A -> 0 to 8.07 at A = 0.8; past j = 16 the terms sum to below
    1e-28 for A <= 0.8."""
    total = 0.0
    for j in range(1, 17):
        w = sum(math.comb(4 * j, 2 * j - n) / (n * n) for n in range(1, 2 * j + 1)) \
            / (math.factorial(2 * j) * 4.0 ** j)
        total += 2 * j * np.pi * (1.0 + np.pi * (2 * j - 1) / 8.0) * w * A ** (2 * j)
    return total


def solve_omega_T_for_A(A: float) -> CalibrationResult:
    """omega*T = u completing a strategy-A transfer (epsilon = pi).

    The bound u*|eps(u) - u*I| <= C1(A) brackets every root of
    g(u) = eps(u) - pi, with _BOUND_MARGIN allowing for the quadrature error
    in g. Above hi, the larger root of u*I - C1(A)/u - _BOUND_MARGIN = pi, it
    puts eps above pi. Below lo, the larger root of
    u*I + C1(A)/u + _BOUND_MARGIN = pi, it puts eps below pi down to the
    inner root; below that, eps(u) <= u < pi. For A <= 0.8,
    I <= 9 A^2/64 (as sin(x)^2 <= x^2) and C1(A) <= 8.07 A^2, so
    4 I C1(A) <= 1.9 < pi^2: the discriminant is positive and the inner root
    is below 1.74. find_root searches [lo, hi] once, and iterations counts
    the quadratures of g, the bracket ends included. The bracket is 0.12
    wide at A = 0.2 and 3.3 at A = 0.8. A bracket that ends past
    _OMEGA_T_MAX raises CalibrationError.

    I = int_0^1 m(f(s)) ds, with f the window and m(f) the carrier mean of
    S(f, theta) = sin(f cos(theta)^2)^2 (_carrier_mean_sin2). Here
    eps(u) - u*I = u int_0^1 (S - m)(f(s), u*s) ds, and C1(A)
    (_deviation_constant) bounds u times it, by four steps:

    1. Fourier form. By Jacobi-Anger (DLMF 10.12.2-3),
       S = m(f) + sum_{n>=1} a_n(f) cos(2 n theta) with
       a_2k = (-1)^(k+1) cos(f) J_2k(f), a_2k+1 = (-1)^k sin(f) J_2k+1(f).
    2. Zero-mean partial integrals. G = sum a_n sin(2 n theta)/(2n) is the
       partial integral of S - m in theta and vanishes at f = 0; as
       f(0) = f(1) = 0, integrating by parts in s gives
       eps(u) - u*I = -int_0^1 G_f(f(s), u*s) f'(s) ds. G_f has zero mean in
       theta too, with the zero-mean partial integral
       P = -sum a_n' cos(2 n theta)/(4 n^2); so |P| <= sum sup|a_n'|/(4 n^2)
       and |P_f| <= sum sup|a_n''|/(4 n^2).
    3. Second integration by parts. As f'(0) = f'(1) = 0,
       u (eps(u) - u*I) = int_0^1 (P f'' + P_f f'^2)(f(s), u*s) ds, and the
       window has int |f''| = 4 pi A, int f'^2 = pi^2 A^2/2. So
       u |eps(u) - u*I| <= pi A sum sup|a_n'|/n^2
                           + (pi^2 A^2/8) sum sup|a_n''|/n^2.
    4. Sup over 0 <= f <= A. sin(x)^2 = sum_j (-1)^(j+1) 2^(2j-1) x^(2j)/(2j)!
       and the cos(2 n theta) coefficient of cos(theta)^(4j) is
       2 binom(4j, 2j - n)/16^j, so a_n = sum_j (-1)^(j+1) b_nj f^(2j) with
       b_nj = binom(4j, 2j - n)/((2j)! 4^j) >= 0. Its majorant
       M_n = sum_j b_nj f^(2j) is cosh(f) I_n(f) (n even) or sinh(f) I_n(f)
       (n odd), the Fourier coefficients of sinh(f cos(theta)^2)^2, and
       sup |a_n^(k)| <= M_n^(k)(A) on [0, A]. Summing the series in j gives
       C1(A).
    """
    window = _window(A, 1.0, "A")
    rate = integrate(lambda s: _carrier_mean_sin2(window[0](s)), 0.0, 1.0,
                     _CALIBRATION_CELLS_PER_PERIOD)
    spread = _deviation_constant(A)
    below, above = np.pi - _BOUND_MARGIN, np.pi + _BOUND_MARGIN
    lo = (below + math.sqrt(below * below - 4.0 * rate * spread)) / (2.0 * rate)
    hi = (above + math.sqrt(above * above + 4.0 * rate * spread)) / (2.0 * rate)
    if hi > _OMEGA_T_MAX:
        raise CalibrationError("no omega*T bracket found in search range")

    def eps_total(u):
        n_cells = _CALIBRATION_CELLS_PER_PERIOD * (1 + int(u / TWO_PI))
        beta = _beta_a(*window, u)[0]
        return u * integrate(lambda s: np.sin(beta(s)) ** 2, 0.0, 1.0, n_cells)

    # cached: the residual re-evaluates the root find_root returns, and the
    # cache size counts the quadratures
    g = functools.cache(lambda u: eps_total(u) - np.pi)
    root, _ = find_root(g, Bracket(lo, hi), tol=_OMEGA_T_TOL)
    return CalibrationResult(value=root, residual=abs(g(root)),
                             iterations=g.cache_info().currsize)


# ---------------------------------------------------------------------------
# strategy B: flat window with patched singular points
# ---------------------------------------------------------------------------

def strategy_b(B: float, omega: float, T: float, delta_t: float,
               neglect_imag: bool = False) -> PulseSchedule:
    """Schedule from beta = window(t), with the singular envelope quotient
    replaced by linear interpolation on (t_n - delta_t, t_n + delta_t) around
    each carrier zero t_n.

    With neglect_imag the imaginary part of the patched envelope is dropped
    entirely. The detuning is untouched by the patching.
    """
    f, fdot = _window(B, T, "B")
    if omega <= 0 or T <= 0:
        raise ValueError("omega and T must be positive")
    if not np.isfinite(omega * T):
        raise ValueError(f"omega*T must be finite, not {omega * T}")
    if not 0.0 < delta_t < 0.5 * np.pi / omega:
        raise ValueError("delta_t must lie in (0, pi/(2*omega)): a wider patch "
                         "overlaps adjacent singular points")
    singulars = carrier_singular_times(omega, 0.0, T)

    def quotient(t, fv, c):   # the envelope, singular at the carrier zeros
        return -(2j * fdot(t) + omega * np.sin(2 * fv)) / (2.0 * SQRT2 * c)

    def sample(t):   # the window f and cos(omega*t) once a time
        fv, c = f(t), np.cos(omega * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.asarray(quotient(t, fv, c), dtype=complex)
        tn = _nearest_carrier_zero(omega, t)
        inside = (np.abs(t - tn) < delta_t) & (tn > 0.0) & (tn < T)
        if np.any(inside):   # the patch ends are evaluated inside patches only
            raw = lambda u: quotient(u, f(u), np.cos(omega * u))
            t_in, tn = t[inside], tn[inside]
            lo, hi = raw(tn - delta_t), raw(tn + delta_t)
            val[inside] = lo + (hi - lo) / (2.0 * delta_t) * (t_in - tn + delta_t)
        if neglect_imag:
            val = val.real.astype(complex)
        return val, -2.0 * omega * np.sin(fv) ** 2, c

    return _schedule(
        "b", {"B": B, "omega_T": omega * T, "delta_t_over_T": delta_t / T,
              "neglect_imag": neglect_imag, "singular_times": singulars.tolist()},
        sample, (0, 0, 1, 1), omega, reduced_trajectory(f, fdot, omega, 0.0, T))


def solve_omega_T_for_B(B: float) -> CalibrationResult:
    """omega*T completing a strategy-B transfer (accumulated epsilon = pi).

    B's mixing angle is the window f alone, so eps(u) = u*m(B) exactly
    (_carrier_mean_sin2) and the root is pi/m(B) = 2 pi/(1 - cos(B) J0(B)).
    iterations counts the one quadrature of eps that gives the residual.
    """
    f, _ = _window(B, 1.0, "B")
    value = float(np.pi / _carrier_mean_sin2(B))
    if value > _OMEGA_T_MAX:
        raise CalibrationError("no omega*T bracket found in search range")
    eps = value * integrate(lambda s: np.sin(f(s)) ** 2, 0.0, 1.0,
                            _CALIBRATION_CELLS_PER_PERIOD)
    return CalibrationResult(value=value, residual=abs(eps - np.pi), iterations=1)


# ---------------------------------------------------------------------------
# strategy C: reversely solved envelope
# ---------------------------------------------------------------------------

def _beta_c(kappa: float, omega: float):
    def beta(t):
        return -0.5 * np.arcsin(2.0 * SQRT2 * kappa * np.cos(omega * t) ** 4)

    def beta_dot(t):
        c = np.cos(omega * t)
        s = np.sin(omega * t)
        return (4.0 * SQRT2 * kappa * omega * c ** 3 * s
                / np.sqrt(1.0 - 8.0 * kappa ** 2 * c ** 8))

    return beta, beta_dot


def strategy_c(Omega0: float, omega: float, n_periods: int) -> PulseSchedule:
    """Schedule with real envelope part Omega0 * cos(omega*t)^3, repeated for
    n_periods full carrier periods starting at t = pi / (2*omega)."""
    _check_carrier(omega)
    if not 0.0 <= Omega0 < omega * KAPPA_SUP:
        raise ValueError(
            f"Omega0 must lie in [0, omega/(2*sqrt(2))) = [0, {omega * KAPPA_SUP:.6g})")
    if isinstance(n_periods, bool) or not isinstance(n_periods, (int, np.integer)):
        raise ValueError(f"n_periods must be an integer, not {n_periods!r}")
    if n_periods < 1:
        raise ValueError("n_periods must be at least 1")
    kappa = Omega0 / omega
    t_start = 0.5 * np.pi / omega
    t_end = t_start + n_periods * TWO_PI / omega

    def sample(t):
        c, s = np.cos(omega * t), np.sin(omega * t)
        # x = sin(2 beta)^2: Delta = -omega x/(1 + sqrt(1 - x)) does not cancel
        x = 8.0 * kappa ** 2 * c ** 8
        root = np.sqrt(1.0 - x)
        envelope = Omega0 * c * c * c + 1j * (-4.0 * Omega0 * c * c * s / root)
        return envelope, -omega * x / (1.0 + root), c

    return _schedule(
        "c", {"Omega0_over_omega": kappa, "n_periods": int(n_periods)},
        sample, (0, 0, 1, 1), omega,
        reduced_trajectory(*_beta_c(kappa, omega), omega, t_start, t_end))


def delta_epsilon_per_period(Omega0_over_omega: float) -> float:
    """Accumulated epsilon over one full carrier period of a strategy-C
    schedule; dimensionless and monotone in Omega0/omega."""
    kappa = Omega0_over_omega
    if not 0.0 <= kappa < KAPPA_SUP:
        raise ValueError("Omega0/omega must lie in [0, 1/(2*sqrt(2)))")
    if kappa == 0.0:
        return 0.0
    beta, _ = _beta_c(kappa, 1.0)
    return integrate(lambda u: np.sin(beta(u)) ** 2, 0.5 * np.pi, 2.5 * np.pi,
                     _CALIBRATION_CELLS_PER_PERIOD)


def calibrate_strategy_c(target_delta_epsilon: float) -> CalibrationResult:
    """Omega0/omega whose per-period epsilon increment hits the target."""
    if not np.isfinite(target_delta_epsilon):
        raise ValueError("target delta epsilon must be a finite number")
    if target_delta_epsilon == 0.0:
        return CalibrationResult(0.0, 0.0, 0)
    hi = KAPPA_SUP * (1.0 - 1e-12)
    g = functools.cache(lambda k: delta_epsilon_per_period(k) - target_delta_epsilon)
    if not (target_delta_epsilon > 0.0 and g(hi) >= 0.0):
        raise CalibrationError(f"target {target_delta_epsilon} outside reachable "
                               f"range (0, {delta_epsilon_per_period(hi):.6g}]")
    root, _ = find_root(g, Bracket(0.0, hi), tol=_KAPPA_TOL)
    # iterations counts the quadratures: g(0) = -target needs none
    return CalibrationResult(value=root, residual=abs(g(root)),
                             iterations=g.cache_info().currsize - 1)
