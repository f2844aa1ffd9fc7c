"""Invariant-based pulse design for driven three-level systems beyond the
rotating-wave approximation."""

from .core import (
    AuxParams,
    analytic_evolution,
    final_state_prediction,
    hamiltonian_at,
    invariance_residual,
    invariant_at,
    invariant_eigenvectors,
    ket,
    lr_phase_rate,
)
from .errors import (
    CalibrationError,
    ConvergenceError,
    DomainError,
    PropagationError,
    SingularityError,
    SynthesisError,
)
from .numerics import Bracket, central_diff, find_root, integrate
from .propagate import (
    PropagationConfig,
    TransferReport,
    compare_with_analytic,
    convergence_study,
    deviation_from_analytic,
    propagate,
)
from .verify import run_verification
from .synthesis import (
    AuxiliaryTrajectory,
    CalibrationResult,
    PulseSchedule,
    calibrate_strategy_c,
    carrier_singular_times,
    delta_epsilon_per_period,
    general_trajectory,
    load_schedule_csv,
    reduced_trajectory,
    solve_omega_T_for_A,
    solve_omega_T_for_B,
    strategy_a,
    strategy_b,
    strategy_c,
    synthesize_general,
)

__version__ = "0.1.0"
