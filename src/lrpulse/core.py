"""Hamiltonian, dynamical invariant, eigenstructure, and analytic evolution.

The driven three-level lambda system is kept beyond the rotating-wave
approximation: the pump and Stokes couplings retain their full cos(omega*t)
carrier factors. A family of Hermitian invariants parametrized by four
auxiliary angles (alpha, beta, epsilon, lambda) commutes with the dynamics in
the Lewis-Riesenfeld sense, and its eigenvectors carry the state up to
accumulated phases. Everything here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .numerics import central_diff

SQRT2 = np.sqrt(2.0)

_TINY = 1e-12
_NORM_TOL = 1e-9
_CHUNK = 8192   # flat times per sampling pass: its temporaries stay in cache


def ket(j: int) -> np.ndarray:
    """Basis state |j> for j in {1, 2, 3}."""
    if j not in (1, 2, 3):
        raise ValueError("basis index must be 1, 2, or 3")
    v = np.zeros(3, dtype=complex)
    v[j - 1] = 1.0
    return v


def is_normalized(psi: np.ndarray) -> bool:
    return abs(np.linalg.norm(psi) - 1.0) <= _NORM_TOL


@dataclass(frozen=True)
class AuxParams:
    """Auxiliary angles and their first time-derivatives.

    Each field is a float or an array over a time grid; array fields must
    broadcast against each other.
    """

    alpha: float
    beta: float
    epsilon: float
    lam: float
    alpha_dot: float = 0.0
    beta_dot: float = 0.0
    epsilon_dot: float = 0.0
    lam_dot: float = 0.0

    def constraint_residual(self):
        """Residual of alpha_dot = lam_dot * cos(beta) * cos(epsilon)."""
        return np.abs(self.alpha_dot
                      - self.lam_dot * np.cos(self.beta) * np.cos(self.epsilon))


def _check_in_window(window, name: str, t) -> None:
    """Raise DomainError unless times t lie in [t_start, t_end] of window."""
    t, lo, hi = np.asarray(t, dtype=float), window.t_start, window.t_end
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))   # grids ending at t_end overshoot
    if t.size and not (lo - slack <= t.min() and t.max() <= hi + slack):
        raise DomainError(f"{name} [{float(lo)}, {float(hi)}] does not cover "
                          f"t in [{float(t.min())}, {float(t.max())}]")


def hamiltonian_entries(schedule, t):
    """Nonzero entries (h11, h12, h32, h33) of the full (non-RWA) Hamiltonian
    at scalar or array times t, hbar = 1:

        H = [[h11, h12, 0], [conj(h12), 0, conj(h32)], [0, h32, h33]]

    The couplings keep their cos(omega*t) carrier factors and the diagonal is
    -omega - Delta. The energy reference is <2|H|2> = 0: every phase derived
    from H, such as the invariant-branch phases, is relative to it. Times
    beyond the schedule window (widened by a relative 1e-9) raise DomainError.
    Fields come from schedule.sample, _CHUNK flat times at a time; a field
    pump and Stokes share gives one entry: h32 is h12, or h33 is h11.
    """
    t = np.asarray(t, dtype=float, order="C")   # so t.reshape(-1) is a view
    _check_in_window(schedule, "schedule domain", t)
    h11, h12 = np.empty(t.shape), np.empty(t.shape, dtype=complex)
    h32 = h12 if schedule.Omega_s is schedule.Omega_p else np.empty_like(h12)
    h33 = h11 if schedule.Delta_s is schedule.Delta_p else np.empty_like(h11)
    for lo in range(0, t.size, _CHUNK):
        tc = t.reshape(-1)[lo:lo + _CHUNK]
        op, os_, dp, ds, carrier = schedule.sample(tc)
        np.multiply(op, carrier, out=h12.reshape(-1)[lo:lo + _CHUNK])
        np.subtract(-schedule.omega, dp, out=h11.reshape(-1)[lo:lo + _CHUNK])
        if h32 is not h12:
            np.multiply(os_, carrier, out=h32.reshape(-1)[lo:lo + _CHUNK])
        if h33 is not h11:
            np.subtract(-schedule.omega, ds, out=h33.reshape(-1)[lo:lo + _CHUNK])
    return h11, h12, h32, h33


def hamiltonian_at(schedule, t) -> np.ndarray:
    """Hamiltonian matrices at scalar or array times t, shape t.shape + (3, 3)."""
    h11, h12, h32, h33 = hamiltonian_entries(schedule, t)
    H = np.zeros(np.shape(t) + (3, 3), dtype=complex)
    H[..., 0, 0] = h11
    H[..., 0, 1] = h12
    H[..., 1, 0] = np.conj(h12)
    H[..., 1, 2] = np.conj(h32)
    H[..., 2, 1] = h32
    H[..., 2, 2] = h33
    return H


def invariant_at(aux: AuxParams) -> np.ndarray:
    """Invariant matrices (eigenvalues +1, -1, 0), shape angles.shape + (3, 3)."""
    a, b, e, l = np.broadcast_arrays(aux.alpha, aux.beta, aux.epsilon, aux.lam)
    for name, v in (("alpha", a), ("beta", b), ("epsilon", e), ("lambda", l)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite auxiliary angle {name}")
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    c2l, s2l = np.cos(2 * l), np.sin(2 * l)
    s2a = np.sin(2 * a)
    i11 = c2l * (ca**2 * cb**2 - sa**2) + np.cos(e) * cb * s2a * s2l
    i12 = (ca * c2l * cb + np.exp(-1j * e) * sa * s2l) * sb
    i13 = (0.25 * c2l * (3 + np.cos(2 * b)) * s2a
           - cb * (np.cos(e) * np.cos(2 * a) + 1j * np.sin(e)) * s2l)
    i22 = c2l * sb**2
    i23 = (sa * c2l * cb - np.exp(1j * e) * ca * s2l) * sb
    i33 = c2l * (sa**2 * cb**2 - ca**2) - np.cos(e) * cb * s2a * s2l
    return np.stack([
        np.stack([i11, i12, i13], axis=-1),
        np.stack([np.conj(i12), i22, i23], axis=-1),
        np.stack([np.conj(i13), np.conj(i23), i33], axis=-1),
    ], axis=-2)


def invariant_eigenvectors(aux: AuxParams):
    """Closed-form eigenvectors (phi_plus, phi_minus, phi_zero), each of shape
    angles.shape + (3,).

    They belong to eigenvalues +1, -1, 0 of invariant_at(aux) and form an
    orthonormal triple.
    """
    a, b, e, l = np.broadcast_arrays(aux.alpha, aux.beta, aux.epsilon, aux.lam)
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cl, sl = np.cos(l), np.sin(l)
    ee = np.exp(-1j * e)
    phi_plus = np.stack([ca * cb * cl + ee * sa * sl,
                         sb * cl,
                         sa * cb * cl - ee * ca * sl], axis=-1)
    phi_minus = np.stack([ca * cb * sl - ee * sa * cl,
                          sb * sl,
                          sa * cb * sl + ee * ca * cl], axis=-1)
    phi_zero = np.stack([ca * sb, -cb, sa * sb], axis=-1).astype(complex)
    return phi_plus, phi_minus, phi_zero


def lr_phase_rate(aux: AuxParams):
    """Phase-rate parameter tied to the zero-eigenvalue branch.

    Evaluates -(epsilon_dot + 2*lam_dot*sin(eps)*cos(beta)*cot(2*alpha)) /
    sin(beta)^2, elementwise over array angles. Synthesis never calls this at
    sin(beta) = 0; it inverts the relation instead. Raises SingularityError
    if any point sits on a pole.
    """
    sb2 = np.sin(aux.beta) ** 2
    lam_dot = np.asarray(aux.lam_dot)
    s2a = np.sin(2 * aux.alpha)
    driven = lam_dot != 0.0
    if np.any(driven & (np.abs(s2a) < _TINY)):
        raise SingularityError("cot(2*alpha) pole with lam_dot != 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (2.0 * lam_dot * np.sin(aux.epsilon) * np.cos(aux.beta)
                 * np.cos(2 * aux.alpha) / s2a)
    num = aux.epsilon_dot + np.where(driven, cross, 0.0)
    flat = sb2 < _TINY
    if np.any(flat & (np.abs(num) >= _TINY)):
        raise SingularityError("sin(beta) = 0 with nonzero phase-rate numerator")
    return np.where(flat, 0.0, -num / np.where(flat, 1.0, sb2))[()]


def invariance_residual(schedule, t, h: float):
    """Frobenius norm of i*dI/dt - [H(t), I(t)] at scalar or array times t,
    I from schedule.trajectory, dI/dt by central difference with step h.

    Vanishes as O(h^2) for schedules synthesized from their trajectory.
    """
    H = hamiltonian_at(schedule, t)
    I = invariant_at(schedule.trajectory.at(t))
    dI = central_diff(lambda u: invariant_at(schedule.trajectory.at(u)), t, h)
    return np.linalg.norm(1j * dI - (H @ I - I @ H), axis=(-2, -1))[()]


def analytic_evolution(aux_traj, psi0: np.ndarray, t, t0=None) -> np.ndarray:
    """Closed-form state at scalar or array times t, shape t.shape + (3,),
    for the state psi0 given at time t0 (default: the trajectory start); t
    or t0 outside the trajectory domain raise DomainError.

    Each branch k in (+1, -1, 0) carries the amplitude
    c_k = <phi_k(t0)|psi0> exp(-i theta_k(t0)) and then the phase theta_k(t)
    from the trajectory's phases, which the +1 and -1 branches share.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if not is_normalized(psi0):
        raise ValueError("psi0 must be normalized")
    t0 = aux_traj.t_start if t0 is None else t0
    _check_in_window(aux_traj, "trajectory domain", np.append(t, t0))
    pm, zero = (np.exp(1j * (theta - theta0)) for theta, theta0
                in zip(aux_traj.phases(t), aux_traj.phases(t0)))
    branches = zip(invariant_eigenvectors(aux_traj.at(t0)),
                   invariant_eigenvectors(aux_traj.at(t)), (pm, pm, zero))
    return sum((np.vdot(phi0, psi0) * turn)[..., None] * phi
               for phi0, phi, turn in branches)


def final_state_prediction(alpha: float, epsilon_T: float) -> np.ndarray:
    """Endpoint state (up to a global phase) for a transfer started in |1>
    with beta vanishing at both ends and constant alpha (lambda = 0)."""
    ee = np.exp(-1j * epsilon_T)
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array([ca**2 + ee * sa**2, 0.0, (1.0 - ee) * sa * ca],
                    dtype=complex)
