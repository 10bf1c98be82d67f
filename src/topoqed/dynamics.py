"""Closed-form gate propagator, scheduling, and dissipative fidelity curves.

The interaction-picture Hamiltonian -lambda2 (a e^{-i nu t} + a+ e^{i nu t}) J_z
closes on the operator algebra {a J_z, a+ J_z, J_z^2}, so its propagator has
the exact form

    U(t) = exp(-i A(t) J_z^2) * exp(-i B(t) a J_z) * exp(-i B*(t) a+ J_z)

with B(t) = -i (lambda2/nu) (e^{-i nu t} - 1) and a phase whose real part is
A_r(t) = -(lambda2^2/nu) (t - sin(nu t)/nu).  The full phase in the ordered
product above also carries the imaginary part |B(t)|^2 / 2, which exactly
compensates the reordering factor of the two displacement-like exponentials;
equivalently, and as implemented here,

    U(t) = exp(-i A_r(t) J_z^2) * expm( (-i B a - i B* a+) J_z )

whose second factor is the exponential of an anti-Hermitian matrix and is
therefore unitary at any Fock truncation.  ``propagator_AB`` returns the real
phase A_r together with B.

Scheduling: B vanishes whenever nu*t = 2*pi*k, and with nu = 2*lambda2*sqrt(k)
the gate time tau = sqrt(k)*pi/lambda2 gives A_r(tau) = -pi/2, turning
U(tau) = exp(+i (pi/2) J_z^2) into an entangling phase gate that maps |++> to
(|++> + i |-->)/sqrt(2) with the cavity returned to its initial state.

Dissipative fidelity curves are propagated in the frame that rotates with
the cavity at nu, where the generator is time-independent:

    H' = nu a+a - lambda2 (a + a+) J_z.

The frame change exp(-i nu t a+a) is diagonal in the Fock basis, so it is an
exact cavity-local unitary at any cutoff; the cavity damping term is
invariant under it and the qubit channels do not touch the cavity.  The
reduced qubit state, and with it F(t), is therefore the interaction
picture's.  One sparse Liouvillian per Fock cutoff is stepped between grid
points by ``qcore.evolve_master_equation`` (``expm_multiply``).

Dissipation follows the channel convention of :mod:`topoqed.qcore`: cavity
channel (a, kappa) and one lowering channel (|0><1|, gamma) per qubit, each
entering as rate * (2 L rho L+ - L+ L rho - rho L+ L), so quoted rates are
half the corresponding energy-decay rates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .interface import CouplingSet, HamiltonianModel, build_H_single_interface
from .qcore import (
    TAU_MINUS,
    IntegrationError,
    QuantumState,
    basis_state,
    evolve_master_equation,
    expm_hermitian,
    eye,
    partial_trace,
    state_fidelity,
    tensor,
)

__all__ = [
    "FidelityCurve",
    "GateSchedule",
    "analytic_U",
    "fidelity_curve",
    "ideal_gate_state",
    "plus_plus_state",
    "propagator_AB",
    "single_interface_evolution",
    "target_entangled_state",
]


@dataclass(frozen=True)
class GateSchedule:
    """Gate timing for loop closure number k: nu = 2*lambda2*sqrt(k)."""

    k: int
    lambda2: float

    def __post_init__(self):
        if not math.isfinite(self.k) or self.k < 1 or int(self.k) != self.k:
            raise ValueError("k must be a positive integer")
        if not (math.isfinite(self.lambda2) and self.lambda2 > 0):
            raise ValueError("the schedule takes the coupling magnitude, finite lambda2 > 0")

    @property
    def nu(self) -> float:
        return 2.0 * self.lambda2 * math.sqrt(self.k)

    @property
    def tau(self) -> float:
        return math.sqrt(self.k) * math.pi / self.lambda2


def propagator_AB(lambda2: float, nu: float, t: float) -> tuple[float, complex]:
    """Accumulated gate phase A_r(t) and displacement amplitude B(t)."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    a = -(lambda2**2 / nu) * (t - math.sin(nu * t) / nu)
    b = -1j * (lambda2 / nu) * (cmath.exp(-1j * nu * t) - 1.0)
    return a, b


def _vacuum_columns(model: HamiltonianModel) -> np.ndarray:
    return np.arange(4) * model.fock_cutoff


def analytic_U(lambda2: float, nu: float, t: float, model: HamiltonianModel) -> np.ndarray:
    """Closed-form propagator on the truncated qubit-qubit-cavity space.

    The displacement factor is exponentiated (scaling and squaring) as the
    single anti-Hermitian generator (-i B a - i B* a+) J_z, which keeps the
    result unitary at finite cutoff; truncation error then shows up only in
    how faithfully the low-photon sector reproduces the untruncated dynamics.
    Unitarity on the cavity-vacuum columns is verified to 1e-8; a violation
    means the cutoff is too small.
    """
    a_r, b = propagator_AB(lambda2, nu, t)
    a_jz = model.a_op @ model.j_z
    gen = -1j * (b * a_jz + np.conj(b) * a_jz.conj().T)
    u = np.exp(-1j * a_r * np.diag(model.j_z @ model.j_z))[:, None] * expm(gen)
    cols = _vacuum_columns(model)
    defect = u.conj().T @ u - np.eye(model.dim)
    dev = float(np.max(np.abs(defect[:, cols])))
    if dev > 1e-8:
        raise IntegrationError(
            f"propagator unitarity deviation {dev:.2e} on the vacuum sector; "
            "increase the Fock cutoff"
        )
    return u


def plus_plus_state() -> QuantumState:
    """Both qubits in (|0> + |1>)/sqrt(2)."""
    return QuantumState.pure(np.full(4, 0.5, dtype=complex), (2, 2))


def target_entangled_state() -> QuantumState:
    """The maximally entangled gate target (|++> + i|-->)/sqrt(2)."""
    plus_plus = np.full(4, 0.5, dtype=complex)
    minus_minus = 0.5 * np.array([1.0, -1.0, -1.0, 1.0], dtype=complex)
    return QuantumState.pure((plus_plus + 1j * minus_minus) / math.sqrt(2.0), (2, 2))


def _gate_start(fock_cutoff: int) -> QuantumState:
    """|++> with the cavity in vacuum, the initial state of every gate run."""
    psi0 = np.kron(plus_plus_state().data, basis_state(fock_cutoff, 0))
    return QuantumState.pure(psi0, (2, 2, fock_cutoff))


def ideal_gate_state(schedule: GateSchedule, fock_cutoff: int = 16) -> QuantumState:
    """Closed-system state after one full gate, from |++> and cavity vacuum.

    Verifies that the cavity has returned to vacuum (overlap >= 1 - 1e-8) and
    that the qubit pair reaches the entangled target with fidelity
    >= 1 - 1e-8 (global phase discarded).
    """
    model = HamiltonianModel(fock_cutoff=fock_cutoff, nu=schedule.nu)
    loop_dev = abs(schedule.nu * schedule.tau - 2.0 * math.pi * schedule.k)
    if loop_dev > 1e-9:
        raise ValueError(f"schedule does not close the loop: |nu*tau - 2k*pi| = {loop_dev:.2e}")
    u = analytic_U(schedule.lambda2, schedule.nu, schedule.tau, model)
    psi = u @ _gate_start(fock_cutoff).data
    psi = psi / np.linalg.norm(psi)
    state = QuantumState.pure(psi, model.dims)

    vacuum_weight = float(np.sum(np.abs(psi[_vacuum_columns(model)]) ** 2))
    if vacuum_weight < 1.0 - 1e-8:
        raise IntegrationError(
            f"cavity did not return to vacuum: overlap {vacuum_weight:.12f}"
        )
    qubit_fidelity = state_fidelity(partial_trace(state, (0, 1)), target_entangled_state())
    if qubit_fidelity < 1.0 - 1e-8:
        raise IntegrationError(
            f"gate target fidelity {qubit_fidelity:.12f} below 1 - 1e-8"
        )
    return state


@dataclass(frozen=True)
class FidelityCurve:
    """Entangling fidelity versus time, with the parameters that produced it."""

    times_ns: np.ndarray
    lambda2_t_over_pi: np.ndarray
    fidelities: np.ndarray
    params: dict = field(default_factory=dict)
    fock_cutoff_used: int = 0
    convergence_delta: float = 0.0

    def __post_init__(self):
        times = np.asarray(self.times_ns, dtype=float)
        xs = np.asarray(self.lambda2_t_over_pi, dtype=float)
        fs = np.asarray(self.fidelities, dtype=float)
        if not (len(times) == len(xs) == len(fs)):
            raise ValueError("time and fidelity arrays must have equal length")
        if np.any(fs < -1e-8) or np.any(fs > 1.0 + 1e-8):
            raise ValueError("fidelities outside [0, 1 + 1e-8]")
        for name, arr in (("times_ns", times), ("lambda2_t_over_pi", xs), ("fidelities", fs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _rotating_frame_hamiltonian(schedule: GateSchedule, model: HamiltonianModel) -> np.ndarray:
    """The gate's generator nu a+a - lambda2 (a + a+) J_z in the cavity frame."""
    return schedule.nu * model.n_photon - schedule.lambda2 * (
        model.a_j_z + model.a_j_z.conj().T
    )


def _qubit_states(
    schedule: GateSchedule,
    kappa: float,
    gamma: float,
    t_grid: np.ndarray,
    fock_cutoff: int,
) -> list[QuantumState]:
    """Reduced qubit states of the dissipative gate from |++> and vacuum."""
    model = HamiltonianModel(fock_cutoff=fock_cutoff, nu=schedule.nu)
    n = fock_cutoff
    channels = []
    if kappa > 0:
        channels.append((model.a_op, kappa))
    if gamma > 0:
        channels.append((tensor([TAU_MINUS, eye(2), eye(n)]), gamma))
        channels.append((tensor([eye(2), TAU_MINUS, eye(n)]), gamma))
    states = evolve_master_equation(
        _rotating_frame_hamiltonian(schedule, model), channels, _gate_start(n), t_grid
    )
    return [partial_trace(s, (0, 1)) for s in states]


def fidelity_curve(
    schedule: GateSchedule,
    kappa: float,
    gamma: float,
    t_grid: Sequence[float],
    fock_cutoff: int = 16,
) -> FidelityCurve:
    """Entangling fidelity under cavity decay and qubit relaxation.

    Starts from |++> with the cavity in vacuum, propagates the master
    equation in the cavity's rotating frame, where the schedule's lambda2 and
    nu give the time-independent generator nu a+a - lambda2 (a + a+) J_z,
    with sparse ``expm_multiply`` steps between grid points, and reports
    F(t) = <target| Tr_cav rho(t) |target> on the grid; the frame change
    leaves the reduced qubit state unchanged.  The curve is recomputed at
    Fock cutoff N + 4 and the maximum fidelity shift must stay below 1e-6,
    otherwise an IntegrationError is raised.
    """
    if kappa < 0 or gamma < 0:
        raise ValueError("rates must be non-negative")
    t_grid = np.asarray(t_grid, dtype=float)

    target = target_entangled_state()
    fids, fids_check = (
        np.array([state_fidelity(rho, target)
                  for rho in _qubit_states(schedule, kappa, gamma, t_grid, n)])
        for n in (fock_cutoff, fock_cutoff + 4)
    )
    delta = float(np.max(np.abs(fids - fids_check)))
    if delta > 1e-6:
        raise IntegrationError(
            f"Fock-cutoff convergence failure: max fidelity shift {delta:.3e} "
            f"between N={fock_cutoff} and N={fock_cutoff + 4}"
        )
    return FidelityCurve(
        times_ns=t_grid * 1e9,
        lambda2_t_over_pi=schedule.lambda2 * t_grid / math.pi,
        fidelities=fids,
        params={
            "k": schedule.k,
            "lambda2_rad_per_s": schedule.lambda2,
            "nu_rad_per_s": schedule.nu,
            "tau_s": schedule.tau,
            "kappa_per_s": kappa,
            "gamma_per_s": gamma,
        },
        fock_cutoff_used=fock_cutoff,
        convergence_delta=delta,
    )


def single_interface_evolution(cs: CouplingSet, t1: float) -> np.ndarray:
    """Evolution exp(-i t1 H) under the qubit-qubit interface Hamiltonian.

    With lambda1*t1 = -pi/2 this primitive, together with local rotations,
    generates arbitrary two-qubit operations on the superconducting (x)
    topological pair.
    """
    return expm_hermitian(build_H_single_interface(cs), t1)
