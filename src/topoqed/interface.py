"""Effective interface couplings and concrete Hamiltonian matrices.

The wire splitting evaluated at the working phase ``phi_c + f1`` yields the
topological-qubit frequency ``omega_t``; its phase derivative, weighted by
the circuit's phase shifts (:class:`~topoqed.circuit.EffectiveQubit`), gives
the two switchable couplings

    lambda1 = f2 * dE/dphi,  f2 = eta * sin(phi_e/2)      (qubit-qubit interface)
    lambda2 = f3 * dE/dphi,  f3 = eta * g * cos(phi_e/2)  (qubit-cavity interface)

with f3 the ``f3_coeff`` of the effective qubit, so lambda1 vanishes
identically at phi_e = 0 and lambda2 at phi_e = pi.  The circuit evaluates
the half-angle factors so those zeros are exact in floating point.

The Hamiltonian builders take the couplings, frequencies and detuning as
plain numbers, and the operators of the qubit (x) qubit (x) cavity space,
with the cavity truncated at ``fock_cutoff`` Fock states, from
:class:`HamiltonianModel`.  They serve ``validate`` and the tests as
oracles; the gate's curve is the closed form of :mod:`topoqed.dynamics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import CircuitParams, EffectiveQubit, effective_qubit
from .qcore import destroy, eye, number_op, tensor
from .wire import WireParams, splitting_derivative, wire_splitting

__all__ = [
    "CouplingSet",
    "HamiltonianModel",
    "build_H_CT",
    "build_H_I",
    "couplings",
    "optimal_working_point",
]

# Where the working-point optimum lies.  At a switch point (phi_e = 0 or pi)
# f1 = 0, so the working phase is phi_c itself, and on (0, pi]
#     |dE/dphi| = (Delta0/2) * |r(Lambda)| * cos(phi/2),
#     Lambda = (Delta0*L/v_F) * sin(phi/2).
# cos(phi/2) falls and Lambda rises with phi, and |r| falls with Lambda (from
# 2/pi at Lambda = 0 through 1/2 at the branch point toward 0), so both
# couplings are largest at the low end of the interval.  At the cusp phi = 0
# itself the derivative is 0 by symmetry, so the interval stops short of it.
PHI_C_MIN = 1e-3


@dataclass(frozen=True)
class CouplingSet:
    """Derived interface couplings at a fixed working point (rad/s)."""

    omega_t: float
    lambda1: float
    lambda2: float
    working_phi: float
    de_dphi: float
    effective: EffectiveQubit


@dataclass(frozen=True)
class HamiltonianModel:
    """Operators of the qubit (x) qubit (x) cavity space, dims (2, 2, fock_cutoff)."""

    fock_cutoff: int = 16

    @property
    def dims(self) -> tuple[int, int, int]:
        return (2, 2, self.fock_cutoff)

    @property
    def dim(self) -> int:
        return 4 * self.fock_cutoff

    @cached_property
    def a_op(self) -> np.ndarray:
        return tensor([eye(2), eye(2), destroy(self.fock_cutoff)])

    @cached_property
    def n_photon(self) -> np.ndarray:
        return tensor([eye(2), eye(2), number_op(self.fock_cutoff)])

    @cached_property
    def j_z(self) -> np.ndarray:
        # (tau1_z + tau2_z)/2 on the qubit basis |00>, |01>, |10>, |11>.
        return tensor([np.diag([1.0, 0.0, 0.0, -1.0]), eye(self.fock_cutoff)])

    @cached_property
    def a_j_z(self) -> np.ndarray:
        return self.a_op @ self.j_z


def couplings(wire: WireParams, circ: CircuitParams) -> CouplingSet:
    """Interface couplings from device parameters.

    Evaluates the wire splitting and its derivative at the working phase
    ``phi_c + f1`` and weights the derivative with the circuit's phase
    shifts: lambda1 = f2 * dE/dphi and lambda2 = f3_coeff * dE/dphi.
    """
    eff = effective_qubit(circ)
    working_phi = circ.phi_c + eff.f1
    split = wire_splitting(wire, working_phi)
    de_dphi = splitting_derivative(wire, working_phi, split.root)
    return CouplingSet(
        omega_t=split.E,
        lambda1=eff.f2 * de_dphi,
        lambda2=eff.f3_coeff * de_dphi,
        working_phi=working_phi,
        de_dphi=de_dphi,
        effective=eff,
    )


def optimal_working_point(wire: WireParams, circ: CircuitParams) -> tuple[float, float, float]:
    """Working phase phi_c maximizing |lambda1| and |lambda2| over [PHI_C_MIN, pi].

    Each coupling peaks at its switch point (phi_e = pi for lambda1, 0 for
    lambda2), where the working phase is phi_c and the magnitude falls
    monotonically in phi_c (see the note above PHI_C_MIN), so both optima
    sit at PHI_C_MIN.  There the half-angle factors are 1, and one
    derivative D = dE/dphi at phi_c = PHI_C_MIN gives both.  Returns
    (PHI_C_MIN, eta * D, eta * g * D); the flux phi_e of ``circ`` is not used.
    """
    d = couplings(wire, circ.with_phases(phi_e=math.pi, phi_c=PHI_C_MIN)).de_dphi
    return PHI_C_MIN, circ.eta * d, circ.eta * circ.g * d


def build_H_CT(omega_t: float, lambda1: float, lambda2: float, omega_r: float,
               model: HamiltonianModel) -> np.ndarray:
    """Lab-frame Hamiltonian of two identical qubits coupled to the cavity.

    H = omega_r a+a - (omega_t + lambda1)/2 * (tau1_z + tau2_z)
        - lambda2 * (tau1_z + tau2_z) * (a + a+)
    """
    tau_sum = 2 * model.j_z
    quad = model.a_op + model.a_op.conj().T
    return (
        omega_r * model.n_photon
        - 0.5 * (omega_t + lambda1) * tau_sum
        - lambda2 * (tau_sum @ quad)
    )


def build_H_I(lambda2: float, nu: float, model: HamiltonianModel, t: float) -> np.ndarray:
    """Interaction-picture Hamiltonian -lambda2 (a e^{-i nu t} + h.c.) J_z, detuning nu > 0."""
    if nu <= 0:
        raise ValueError("the interaction picture requires detuning nu > 0")
    a_jz = model.a_j_z
    phase = np.exp(-1j * nu * t)
    return -lambda2 * (phase * a_jz + np.conj(phase) * a_jz.conj().T)
