"""Simulator of a tunable Majorana / charge-qubit / microwave-cavity interface."""

from .circuit import (
    CircuitParams,
    EffectiveQubit,
    effective_qubit,
    phi_J_exact,
    phi_J_series,
    tunneling_leakage,
)
from .config import ConfigError, RunConfig, load_config
from .dynamics import (
    FidelityCurve,
    GateSchedule,
    analytic_U,
    fidelity_curve,
    ideal_gate_state,
    plus_plus_state,
    propagator_AB,
    single_interface_evolution,
    target_entangled_state,
)
from .interface import (
    CouplingSet,
    HamiltonianModel,
    build_H_CT,
    build_H_I,
    build_H_single_interface,
    couplings,
    optimal_working_point,
)
from .qcore import (
    ConvergenceError,
    IntegrationError,
    LindbladSpec,
    QuantumState,
    entanglement_entropy,
    evolve_master_equation,
    expm_hermitian,
    integrate_master_equation,
    partial_trace,
    state_fidelity,
    tensor,
)
from .wire import (
    SplittingResult,
    WireParams,
    inverse_x_over_tan,
    splitting_derivative,
    thermal_leakage,
    wire_splitting,
)

__version__ = "0.1.0"
