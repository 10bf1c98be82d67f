"""Effective interface couplings, and the gate's interaction-picture Hamiltonian.

The wire splitting evaluated at the working phase ``phi_c + f1`` yields the
topological-qubit frequency ``omega_t``; its phase derivative, weighted by
the circuit's phase shifts (:class:`~topoqed.circuit.EffectiveQubit`), gives
the two switchable couplings

    lambda1 = f2 * dE/dphi,  f2 = eta * sin(phi_e/2)      (qubit-qubit interface)
    lambda2 = f3 * dE/dphi,  f3 = eta * g * cos(phi_e/2)  (qubit-cavity interface)

with f3 the ``f3_coeff`` of the effective qubit, so lambda1 vanishes
identically at phi_e = 0 and lambda2 at phi_e = pi.  The circuit evaluates
the half-angle factors so those zeros are exact in floating point.

``build_H_I`` is the gate's interaction-picture Hamiltonian on the
Fock-truncated space of an ``oracle.HamiltonianModel``.  Only ``validate``
and the tests call it; the gate's curve is the closed form of
:mod:`topoqed.dynamics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, EffectiveQubit, effective_qubit
from .wire import WireParams, splitting_derivative, wire_splitting

__all__ = [
    "CouplingSet",
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


def build_H_I(lambda2: float, nu: float, model, t: float) -> np.ndarray:
    """Interaction-picture Hamiltonian -lambda2 (a e^{-i nu t} + h.c.) J_z, detuning nu > 0.

    ``model`` is an ``oracle.HamiltonianModel``; only its ``a_j_z`` is read.
    """
    if nu <= 0:
        raise ValueError("the interaction picture requires detuning nu > 0")
    a_jz = model.a_j_z
    phase = np.exp(-1j * nu * t)
    return -lambda2 * (phase * a_jz + np.conj(phase) * a_jz.conj().T)
