"""Auxiliary-angle trajectories, inverse-engineered pulse schedules, and the
three concrete design strategies with their calibration solvers.

A trajectory fixes the invariant's angles over time; inverse engineering then
yields the complex pump/Stokes envelopes and the common two-photon detuning
that make the invariant exact. Strategy A shapes the mixing angle with a
smooth window times the squared carrier so the envelope quotient stays
bounded; strategy B drops the carrier factor and patches the resulting
singular quotient by linear interpolation around each carrier zero; strategy
C picks the envelope's real part first and solves the angles backwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import AuxParams, SQRT2, lr_phase_rate
from .errors import CalibrationError, SynthesisError
from .numerics import Bracket, RunningIntegral, find_root, integrate

TWO_PI = 2.0 * np.pi

KAPPA_SUP = 1.0 / (2.0 * SQRT2)   # supremum of Omega0/omega for strategy C

# Gauss-Legendre cells per carrier period (the calibrations double theirs until
# converged), and over the whole domain of a general trajectory
_RUNNING_CELLS_PER_PERIOD = 64
_CALIBRATION_CELLS_PER_PERIOD = 8
_GENERAL_TRAJECTORY_CELLS = 4096


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuxiliaryTrajectory:
    """Evaluable auxiliary angles, derivatives, and accumulated branch phases.

    Every callable takes scalar or array times; theta_dot is the invariant's
    phase-rate parameter. phase_plus / phase_minus / phase_zero are the
    phases picked up by the +1 / -1 / 0 invariant eigenvectors between
    t_start and t; they are what analytic_evolution attaches to each branch.
    They may be None for trajectories that were never paired with a schedule.
    """

    alpha: Callable
    alpha_dot: Callable
    beta: Callable
    beta_dot: Callable
    epsilon: Callable
    epsilon_dot: Callable
    lam: Callable
    lam_dot: Callable
    theta_dot: Callable
    t_start: float
    t_end: float
    phase_plus: Callable | None = None
    phase_minus: Callable | None = None
    phase_zero: Callable | None = None

    def at(self, t) -> AuxParams:
        return AuxParams(
            alpha=self.alpha(t), beta=self.beta(t),
            epsilon=self.epsilon(t), lam=self.lam(t),
            alpha_dot=self.alpha_dot(t), beta_dot=self.beta_dot(t),
            epsilon_dot=self.epsilon_dot(t), lam_dot=self.lam_dot(t),
        )

    def constraint_residual(self, t):
        return self.at(t).constraint_residual()


def _const(value: float) -> Callable:
    return lambda t: np.full(np.shape(t), value)


def reduced_trajectory(beta: Callable, beta_dot: Callable, omega: float,
                       t_start: float, t_end: float,
                       alpha: float = np.pi / 4) -> AuxiliaryTrajectory:
    """Trajectory with constant alpha, lambda = 0, and theta_dot = -omega.

    epsilon accumulates as omega * integral of sin(beta)^2, which keeps the
    phase-rate relation regular even where sin(beta) vanishes. The branch
    phases come out in closed form: (omega*tau - eps) for both the +1 and -1
    branches and -eps for the 0 branch, with tau measured from t_start.
    These phases are relative to the energy reference <2|H|2> = 0 of
    core.hamiltonian_entries: adding c(t) times the identity to H shifts
    every branch rate by -c(t) and leaves all populations unchanged.
    """
    periods = (t_end - t_start) * omega / TWO_PI
    n_cells = max(64, int(np.ceil(periods * _RUNNING_CELLS_PER_PERIOD)))
    eps = RunningIntegral(lambda u: omega * np.sin(beta(u)) ** 2,
                          t_start, t_end, n_cells)
    return AuxiliaryTrajectory(
        alpha=_const(alpha), alpha_dot=_const(0.0),
        beta=beta, beta_dot=beta_dot,
        epsilon=eps, epsilon_dot=lambda t: omega * np.sin(beta(t)) ** 2,
        lam=_const(0.0), lam_dot=_const(0.0),
        theta_dot=_const(-omega),
        t_start=t_start, t_end=t_end,
        phase_plus=lambda t: omega * (np.asarray(t, dtype=float) - t_start) - eps(t),
        phase_minus=lambda t: omega * (np.asarray(t, dtype=float) - t_start) - eps(t),
        phase_zero=lambda t: -eps(t),
    )


def general_trajectory(alpha0: float, beta: Callable, beta_dot: Callable,
                       epsilon: Callable, epsilon_dot: Callable,
                       lam: Callable, lam_dot: Callable,
                       t_start: float, t_end: float) -> AuxiliaryTrajectory:
    """Trajectory with nonconstant lambda; alpha follows from the constraint
    alpha_dot = lam_dot * cos(beta) * cos(epsilon).

    The phase-rate parameter is pinned by the quotient relation, so sin(beta)
    must stay away from zero on the whole domain.
    """
    alpha = RunningIntegral(
        lambda u: lam_dot(u) * np.cos(beta(u)) * np.cos(epsilon(u)),
        t_start, t_end, _GENERAL_TRAJECTORY_CELLS)

    def alpha_of(t):
        return alpha0 + alpha(t)

    def theta_dot(t):
        return lr_phase_rate(AuxParams(
            alpha=alpha_of(t), beta=beta(t), epsilon=epsilon(t), lam=lam(t),
            epsilon_dot=epsilon_dot(t), lam_dot=lam_dot(t)))

    phase_zero = RunningIntegral(lambda u: theta_dot(u) * np.sin(beta(u)) ** 2,
                                 t_start, t_end, _GENERAL_TRAJECTORY_CELLS)
    return AuxiliaryTrajectory(
        alpha=alpha_of,
        alpha_dot=lambda t: lam_dot(t) * np.cos(beta(t)) * np.cos(epsilon(t)),
        beta=beta, beta_dot=beta_dot,
        epsilon=epsilon, epsilon_dot=epsilon_dot,
        lam=lam, lam_dot=lam_dot, theta_dot=theta_dot,
        t_start=t_start, t_end=t_end,
        phase_zero=phase_zero,
    )


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PulseSchedule:
    """Evaluable complex envelopes, detunings, and carrier frequencies.

    Envelopes and detunings are callables of scalar or array times.
    """

    omega_p: float
    omega_s: float
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
        if self.omega_p <= 0 or self.omega_s <= 0:
            raise ValueError("carrier frequencies must be positive")

    @property
    def omega(self) -> float:
        """Common carrier frequency (strategies all use omega_p = omega_s)."""
        if self.omega_p != self.omega_s:
            raise ValueError("schedule has distinct carrier frequencies")
        return self.omega_p

    def header(self) -> dict:
        return {"schema_version": 1, "omega": self.omega_p,
                "strategy": self.strategy, "params": self.params,
                "t_start": self.t_start, "t_end": self.t_end}

    def sample_times(self, samples_per_period: int = 200) -> np.ndarray:
        n = max(2, int(np.ceil((self.t_end - self.t_start) * self.omega_p
                               / TWO_PI * samples_per_period)))
        return np.linspace(self.t_start, self.t_end, n + 1)

    def write_csv(self, path, samples_per_period: int = 200,
                  time_scale: float = 1.0) -> None:
        """Write sampled envelopes and detuning, JSON header in a comment line.

        The time column is t / time_scale.
        """
        ts = self.sample_times(samples_per_period)
        op = np.asarray(self.Omega_p(ts), dtype=complex)
        os_ = np.asarray(self.Omega_s(ts), dtype=complex)
        dd = np.asarray(self.Delta_p(ts), dtype=float)
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(self.header()) + "\n")
            fh.write("t,re_omega_p,im_omega_p,re_omega_s,im_omega_s,delta\n")
            for i, t in enumerate(ts):
                fh.write(f"{t / time_scale:.12g},{op[i].real:.12g},"
                         f"{op[i].imag:.12g},{os_[i].real:.12g},"
                         f"{os_[i].imag:.12g},{dd[i]:.12g}\n")


def load_schedule_csv(path):
    """Read back a schedule CSV: (header dict, record array of columns).

    Raises ValueError naming the data row and column of the first cell that
    is not a finite number.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise ValueError(f"{path}: missing JSON header line")
        meta = json.loads(first[2:])
        data = np.genfromtxt(fh, delimiter=",", names=True)
    for name in data.dtype.names:
        bad = np.flatnonzero(~np.isfinite(data[name]))
        if bad.size:
            raise ValueError(f"{path}: data row {bad[0] + 1}, column {name!r}: "
                             "not a finite number")
    return meta, data


def carrier_singular_times(omega: float, t_start: float, t_end: float) -> np.ndarray:
    """Zeros of cos(omega*t) inside (t_start, t_end)."""
    n_lo = int(np.floor(omega * t_start / np.pi - 0.5)) - 1
    n_hi = int(np.ceil(omega * t_end / np.pi - 0.5)) + 1
    ts = (np.arange(n_lo, n_hi + 1) + 0.5) * np.pi / omega
    return ts[(ts > t_start) & (ts < t_end)]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration solve."""

    input_value: float
    value: float
    residual: float
    iterations: int


# ---------------------------------------------------------------------------
# general inverse engineering
# ---------------------------------------------------------------------------

_CARRIER_ZERO_TOL = 1e-8


def _branch_numerators(aux: AuxiliaryTrajectory):
    """Numerators of the pump/Stokes envelope quotients as array closures."""
    def num_p(t):
        a, b = aux.alpha(t), aux.beta(t)
        common = 0.5 * np.cos(a) * (-2j * aux.beta_dot(t)
                                    + aux.theta_dot(t) * np.sin(2 * b))
        return (1j * aux.lam_dot(t) * np.exp(-1j * aux.epsilon(t))
                * np.sin(a) * np.sin(b)) + common

    def num_s(t):
        a, b = aux.alpha(t), aux.beta(t)
        common = 0.5 * np.sin(a) * (-2j * aux.beta_dot(t)
                                    + aux.theta_dot(t) * np.sin(2 * b))
        return (-1j * aux.lam_dot(t) * np.exp(-1j * aux.epsilon(t))
                * np.cos(a) * np.sin(b)) + common

    return num_p, num_s


def synthesize_general(aux: AuxiliaryTrajectory, omega_p: float,
                       omega_s: float) -> PulseSchedule:
    """Envelopes and detunings realizing the given trajectory exactly.

    The envelope is a quotient by the carrier cosine; trajectories whose
    numerator does not vanish at a carrier zero are rejected because they
    would need an unbounded pulse there.
    """
    num_p, num_s = _branch_numerators(aux)

    probe = np.linspace(aux.t_start, aux.t_end, 1001)
    for carrier, num, name in ((omega_p, num_p, "pump"),
                               (omega_s, num_s, "Stokes")):
        scale = max(float(np.max(np.abs(num(probe)))), carrier)
        for tz in carrier_singular_times(carrier, aux.t_start, aux.t_end):
            if abs(complex(num(tz))) > 1e-7 * scale:
                raise SynthesisError(
                    f"{name} envelope is singular at t={tz:.9g}: "
                    "numerator does not vanish with the carrier cosine")

    def quotient(num, carrier):
        def fn(t):
            c = np.cos(carrier * t)
            near = np.abs(c) < _CARRIER_ZERO_TOL
            with np.errstate(divide="ignore", invalid="ignore"):
                val = np.asarray(num(t) / c, dtype=complex)
            if np.any(near):
                tz = (np.round(carrier * t / np.pi - 0.5) + 0.5) * np.pi / carrier
                h = 1e-6 * TWO_PI / carrier
                lim = (num(tz + h) - num(tz - h)) / (2 * h) \
                    / (-carrier * np.sin(carrier * tz))
                val = np.where(near, lim, val)
            return val
        return fn

    def delta_p(t):
        a, b = aux.alpha(t), aux.beta(t)
        rhs = (-aux.epsilon_dot(t) * np.sin(a) ** 2
               + aux.theta_dot(t) * (np.cos(a) ** 2 * np.sin(b) ** 2
                                     - np.cos(b) ** 2)
               - aux.lam_dot(t) * np.sin(aux.epsilon(t)) * np.sin(2 * a)
               * np.cos(b))
        return rhs - omega_p

    def delta_s(t):
        a, b = aux.alpha(t), aux.beta(t)
        rhs = (-aux.epsilon_dot(t) * np.cos(a) ** 2
               + aux.theta_dot(t) * (np.sin(a) ** 2 * np.sin(b) ** 2
                                     - np.cos(b) ** 2)
               + aux.lam_dot(t) * np.sin(aux.epsilon(t)) * np.sin(2 * a)
               * np.cos(b))
        return rhs - omega_s

    return PulseSchedule(
        omega_p=omega_p, omega_s=omega_s,
        Omega_p=quotient(num_p, omega_p), Omega_s=quotient(num_s, omega_s),
        Delta_p=delta_p, Delta_s=delta_s,
        t_start=aux.t_start, t_end=aux.t_end,
        strategy="general", params={}, trajectory=aux)


# ---------------------------------------------------------------------------
# strategy A: smooth window times squared carrier
# ---------------------------------------------------------------------------

def _window(A: float, T: float):
    f = lambda t: 0.5 * A * (1.0 - np.cos(TWO_PI * t / T))
    fdot = lambda t: (np.pi * A / T) * np.sin(TWO_PI * t / T)
    return f, fdot


def strategy_a(A: float, omega: float, T: float) -> PulseSchedule:
    """Schedule from beta = window(t) * cos(omega*t)^2.

    The envelope quotient is evaluated in factored form, so it is finite
    everywhere including the carrier zeros, and it vanishes at both ends.
    """
    if not 0.0 < A <= 0.8:
        raise ValueError("A must lie in (0, 0.8]")
    if omega <= 0 or T <= 0:
        raise ValueError("omega and T must be positive")
    f, fdot = _window(A, T)

    def beta(t):
        return f(t) * np.cos(omega * t) ** 2

    def beta_dot(t):
        return (fdot(t) * np.cos(omega * t) ** 2
                - f(t) * omega * np.sin(2 * omega * t))

    def envelope(t):
        c = np.cos(omega * t)
        s = np.sin(omega * t)
        fv = f(t)
        # beta_dot / cos and sin(2*beta) / cos, both regular: beta carries a
        # cos^2 factor, and sin(2b)/(2b) is evaluated as a cardinal sine.
        bdot_over_c = fdot(t) * c - 2.0 * fv * omega * s
        s2b_over_c = 2.0 * fv * c * np.sinc(2.0 * fv * c * c / np.pi)
        return -(2j * bdot_over_c + omega * s2b_over_c) / (2.0 * SQRT2)

    def delta(t):
        return -2.0 * omega * np.sin(beta(t)) ** 2

    traj = reduced_trajectory(beta, beta_dot, omega, 0.0, T)
    return PulseSchedule(
        omega_p=omega, omega_s=omega, Omega_p=envelope, Omega_s=envelope,
        Delta_p=delta, Delta_s=delta, t_start=0.0, t_end=T,
        strategy="a", params={"A": A, "omega_T": omega * T},
        trajectory=traj)


def _solve_omega_T(shape, param: float, tol: float,
                   u_max: float = 2000.0 * np.pi) -> CalibrationResult:
    """Smallest u = omega*T with accumulated epsilon equal to pi.

    shape(s, u) is the mixing angle as a function of the scaled time
    s = t/T in [0, 1].
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def eps_total(u):
        n_cells = _CALIBRATION_CELLS_PER_PERIOD * (1 + int(u / TWO_PI))
        return u * integrate(lambda s: np.sin(shape(s, u)) ** 2, 0.0, 1.0,
                             n_cells)

    # eps_total(u) <= u, so the march starts below the root
    g = lambda u: eps_total(u) - np.pi
    step = 0.5 * np.pi
    lo = step
    glo = g(lo)
    hi = lo
    n_march = 0
    while True:
        hi = hi + step
        n_march += 1
        if hi > u_max:
            raise CalibrationError("no omega*T bracket found in search range")
        ghi = g(hi)
        if glo * ghi <= 0:
            break
        lo, glo = hi, ghi
    root, iters = find_root(g, Bracket(lo, hi), tol=min(tol, 1e-6))
    residual = abs(g(root))
    return CalibrationResult(input_value=param, value=root,
                             residual=residual, iterations=n_march + iters)


def solve_omega_T_for_A(A: float, tol: float = 1e-6) -> CalibrationResult:
    """omega*T completing a strategy-A transfer (accumulated epsilon = pi)."""
    if not 0.0 < A <= 0.8:
        raise ValueError("A must lie in (0, 0.8]")
    f = lambda s: 0.5 * A * (1.0 - np.cos(TWO_PI * s))
    return _solve_omega_T(lambda s, u: f(s) * np.cos(u * s) ** 2, A, tol)


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
    if not 0.0 < B <= 0.8:
        raise ValueError("B must lie in (0, 0.8]")
    if omega <= 0 or T <= 0:
        raise ValueError("omega and T must be positive")
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if delta_t >= 0.5 * np.pi / omega:
        raise ValueError("delta_t overlaps adjacent singular points")
    f, fdot = _window(B, T)
    singulars = carrier_singular_times(omega, 0.0, T)

    def raw(t):
        b = f(t)
        return -(2j * fdot(t) + omega * np.sin(2 * b)) \
            / (2.0 * SQRT2 * np.cos(omega * t))

    def envelope(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.asarray(raw(t), dtype=complex)
        n = np.round(omega * t / np.pi + 0.5)
        tn = (2.0 * n - 1.0) * np.pi / (2.0 * omega)
        inside = (np.abs(t - tn) < delta_t) & (tn > 0.0) & (tn < T)
        if np.any(inside):
            lo = raw(tn - delta_t)
            hi = raw(tn + delta_t)
            interp = lo + (hi - lo) / (2.0 * delta_t) * (t - tn + delta_t)
            val = np.where(inside, interp, val)
        if neglect_imag:
            val = val.real.astype(complex)
        return val

    def delta(t):
        return -2.0 * omega * np.sin(f(t)) ** 2

    traj = reduced_trajectory(f, fdot, omega, 0.0, T)
    return PulseSchedule(
        omega_p=omega, omega_s=omega, Omega_p=envelope, Omega_s=envelope,
        Delta_p=delta, Delta_s=delta, t_start=0.0, t_end=T,
        strategy="b",
        params={"B": B, "omega_T": omega * T, "delta_t_over_T": delta_t / T,
                "neglect_imag": neglect_imag,
                "singular_times": singulars.tolist()},
        trajectory=traj)


def solve_omega_T_for_B(B: float, tol: float = 1e-6) -> CalibrationResult:
    """omega*T completing a strategy-B transfer (accumulated epsilon = pi)."""
    if not 0.0 < B <= 0.8:
        raise ValueError("B must lie in (0, 0.8]")
    f = lambda s: 0.5 * B * (1.0 - np.cos(TWO_PI * s))
    return _solve_omega_T(lambda s, u: f(s) + 0.0 * u, B, tol)


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
    if omega <= 0:
        raise ValueError("omega must be positive")
    if not 0.0 <= Omega0 < omega * KAPPA_SUP:
        raise ValueError(
            f"Omega0 must lie in [0, omega/(2*sqrt(2))) = [0, {omega * KAPPA_SUP:.6g})")
    if n_periods < 1:
        raise ValueError("n_periods must be at least 1")
    kappa = Omega0 / omega
    t_start = 0.5 * np.pi / omega
    t_end = t_start + n_periods * TWO_PI / omega
    beta, beta_dot = _beta_c(kappa, omega)

    def envelope(t):
        c = np.cos(omega * t)
        s = np.sin(omega * t)
        om_r = Omega0 * c ** 3
        om_i = -4.0 * Omega0 * c ** 2 * s / np.sqrt(1.0 - 8.0 * kappa ** 2 * c ** 8)
        return om_r + 1j * om_i

    def delta(t):
        return -2.0 * omega * np.sin(beta(t)) ** 2

    traj = reduced_trajectory(beta, beta_dot, omega, t_start, t_end)
    return PulseSchedule(
        omega_p=omega, omega_s=omega, Omega_p=envelope, Omega_s=envelope,
        Delta_p=delta, Delta_s=delta, t_start=t_start, t_end=t_end,
        strategy="c",
        params={"Omega0_over_omega": kappa, "n_periods": int(n_periods)},
        trajectory=traj)


def delta_epsilon_per_period(Omega0_over_omega: float) -> float:
    """Accumulated epsilon over one full carrier period of a strategy-C
    schedule; dimensionless and monotone in Omega0/omega."""
    kappa = Omega0_over_omega
    if not 0.0 <= kappa < KAPPA_SUP:
        raise ValueError("Omega0/omega must lie in [0, 1/(2*sqrt(2)))")
    if kappa == 0.0:
        return 0.0
    integrand = lambda u: np.sin(
        -0.5 * np.arcsin(2.0 * SQRT2 * kappa * np.cos(u) ** 4)) ** 2
    return integrate(integrand, 0.5 * np.pi, 2.5 * np.pi,
                     _CALIBRATION_CELLS_PER_PERIOD)


def calibrate_strategy_c(target_delta_epsilon: float,
                         tol: float = 1e-6) -> CalibrationResult:
    """Omega0/omega whose per-period epsilon increment hits the target."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if target_delta_epsilon == 0.0:
        return CalibrationResult(0.0, 0.0, 0.0, 0)
    hi = KAPPA_SUP * (1.0 - 1e-12)
    d_max = delta_epsilon_per_period(hi)
    if not 0.0 < target_delta_epsilon <= d_max:
        raise CalibrationError(
            f"target {target_delta_epsilon} outside reachable range (0, {d_max:.6g}]")
    g = lambda k: delta_epsilon_per_period(k) - target_delta_epsilon
    root, iters = find_root(g, Bracket(0.0, hi), tol=min(tol, 1e-8))
    return CalibrationResult(input_value=target_delta_epsilon, value=root,
                             residual=abs(g(root)), iterations=iters)
