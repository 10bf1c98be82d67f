"""Effective interface couplings and concrete Hamiltonian matrices.

The wire splitting evaluated at the working phase ``phi_c + f1`` yields the
topological-qubit frequency ``omega_t``; its phase derivative, weighted by
the circuit's flux response, gives the two switchable couplings

    lambda1 = eta * sin(phi_e/2) * dE/dphi      (qubit-qubit interface)
    lambda2 = eta * g * cos(phi_e/2) * dE/dphi  (qubit-cavity interface)

so lambda1 vanishes identically at phi_e = 0 and lambda2 at phi_e = pi.  The
half-angle factors are evaluated so those zeros are exact in floating point.

The Hamiltonian builders take the couplings, frequencies and detuning as
plain numbers, and the operators of the qubit (x) qubit (x) cavity space,
with the cavity truncated at ``fock_cutoff`` Fock states, from
:class:`HamiltonianModel`.  They serve ``validate`` and the tests as
oracles; the gate's curve is the closed form of :mod:`topoqed.dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import circuit as _circuit
from .circuit import CircuitParams, EffectiveQubit, effective_qubit
from .qcore import SIGMA_Z, destroy, eye, number_op, tensor
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
    effective: EffectiveQubit


@dataclass(frozen=True)
class HamiltonianModel:
    """Operators of the qubit (x) qubit (x) cavity space, dims (2, 2, fock_cutoff)."""

    fock_cutoff: int = 16

    def __post_init__(self):
        if self.fock_cutoff < 8:
            raise ValueError("fock_cutoff must be at least 8")

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
    def tau1_z(self) -> np.ndarray:
        return tensor([SIGMA_Z, eye(2), eye(self.fock_cutoff)])

    @cached_property
    def tau2_z(self) -> np.ndarray:
        return tensor([eye(2), SIGMA_Z, eye(self.fock_cutoff)])

    @cached_property
    def j_z(self) -> np.ndarray:
        return 0.5 * (self.tau1_z + self.tau2_z)

    @cached_property
    def a_j_z(self) -> np.ndarray:
        return self.a_op @ self.j_z


def couplings(wire: WireParams, circ: CircuitParams) -> CouplingSet:
    """Interface couplings from device parameters.

    Evaluates the wire splitting and its derivative at the working phase
    ``phi_c + f1`` and applies the flux-response prefactors.
    """
    eff = effective_qubit(circ)
    working_phi = circ.phi_c + eff.f1
    split = wire_splitting(wire, working_phi)
    de_dphi = splitting_derivative(wire, working_phi, split.root)
    eta = circ.eta
    lam1 = eta * _circuit._half_angle_sin(circ.phi_e) * de_dphi
    lam2 = eta * circ.g * _circuit._half_angle_cos(circ.phi_e) * de_dphi
    return CouplingSet(
        omega_t=split.E,
        lambda1=lam1,
        lambda2=lam2,
        working_phi=working_phi,
        effective=eff,
    )


def optimal_working_point(
    wire: WireParams, circ: CircuitParams, which: str
) -> tuple[float, float]:
    """Working phase phi_c maximizing |lambda1| or |lambda2| over [PHI_C_MIN, pi].

    At a switch point the magnitude falls monotonically in phi_c (see the
    note above PHI_C_MIN), so the optimum is PHI_C_MIN.  Returns (phi_c,
    coupling value at phi_c).  A circuit whose working phase is shifted off
    phi_c (phi_e not 0 or pi) is rejected: there the supremum sits at the
    cusp, where the derivative is 0, and no maximum exists.
    """
    if which not in ("lambda1", "lambda2"):
        raise ValueError("which must be 'lambda1' or 'lambda2'")
    cs = couplings(wire, circ.with_phases(phi_c=PHI_C_MIN))
    if cs.working_phi != PHI_C_MIN:
        raise ValueError(
            f"phi_e = {circ.phi_e!r} shifts the working phase off phi_c; the "
            "working-point optimum is defined at phi_e = 0 or pi only"
        )
    return PHI_C_MIN, getattr(cs, which)


def build_H_CT(omega_t: float, lambda1: float, lambda2: float, omega_r: float,
               model: HamiltonianModel) -> np.ndarray:
    """Lab-frame Hamiltonian of two identical qubits coupled to the cavity.

    H = omega_r a+a - (omega_t + lambda1)/2 * (tau1_z + tau2_z)
        - lambda2 * (tau1_z + tau2_z) * (a + a+)
    """
    tau_sum = model.tau1_z + model.tau2_z
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
