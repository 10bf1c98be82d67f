"""Effective two-level reduction of the three-junction charge-qubit loop.

The loop carries two identical small junctions (energy E_J) and one large
junction (E_J0 >> E_J), threaded by an external flux phase ``phi_e`` plus a
cavity-induced contribution ``2*g*(a + a+)``.  The supercurrent constraint

    sin(phi_J) = 2*eta * sin(beta) * cos(phi),    2*beta = phi_e - phi_J + 2*g*p

fixes the large-junction phase drop ``phi_J`` (eta = E_J/E_J0, ``p`` the
c-number photon amplitude standing in for a + a+).  Expanding to second order
in eta gives the closed-form series used throughout; ``phi_J_exact`` solves
the constraint without expansion for validation.

At the gate-charge degeneracy point the island reduces to a two-level system
with gap ``E_J_bar`` and qubit-cavity coupling ``xi``; the phase seen by the
attached wire splits into ``eps_plus``/``eps_minus`` depending on the qubit
state.  Energies are angular frequencies (rad/s); phases are radians.

``phi_J_series`` and ``phi_J_exact`` act element-wise on arrays of phi,
photon amplitude and external flux ``phi_e``, which broadcast together: a
sweep is one call and one safeguarded root solve (``qcore.newton_bisect``)
per block of the sweep (``qcore.blocks``), and a float in gives a float
out.  The two-level reduction takes one parameter set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .qcore import as_result, blocks, newton_bisect

__all__ = [
    "CircuitParams",
    "EffectiveQubit",
    "effective_qubit",
    "phi_J_exact",
    "phi_J_series",
    "tunneling_leakage",
]


def _half_angle_sin(phi):
    """sin(phi/2), exactly zero at phi = 0; element-wise."""
    return as_result(np.sin(0.5 * np.asarray(phi, dtype=float)))


def _half_angle_cos(phi):
    """cos(phi/2), evaluated as sin((pi - phi)/2) so it is exactly zero at phi = pi."""
    return as_result(np.sin(0.5 * (math.pi - np.asarray(phi, dtype=float))))


@dataclass(frozen=True)
class CircuitParams:
    """Charge-qubit loop parameters.

    E_J, E_J0 : small/large junction energies (rad/s); eta = E_J/E_J0 < 0.3
    E_c : island charging energy (rad/s)
    n_g : gate charge; the two-level reduction assumes the degeneracy point 1/2
    g : dimensionless cavity-loop magnetic coupling
    phi_e : external flux phase (rad)
    phi_c : controller-fixed phase offset seen by the wire (rad)
    omega_r : cavity frequency (rad/s)
    """

    E_J: float
    E_J0: float
    E_c: float
    n_g: float = 0.5
    g: float = 0.01
    phi_e: float = 0.0
    phi_c: float = 0.0
    omega_r: float = 0.0

    def __post_init__(self):
        values = (self.E_J, self.E_J0, self.E_c, self.n_g, self.g,
                  self.phi_e, self.phi_c, self.omega_r)
        if not all(map(math.isfinite, values)):
            raise ValueError("circuit parameters must be finite")
        # Finite inputs can still overflow in the scale of the coupling xi.
        if not math.isfinite(self.g * self.E_J):
            raise ValueError(f"non-finite product g*E_J = {self.g * self.E_J!r}")
        if self.E_J <= 0 or self.E_J0 <= 0 or self.E_c <= 0:
            raise ValueError("junction and charging energies must be positive")
        if self.eta >= 0.3:
            raise ValueError(
                f"eta = E_J/E_J0 = {self.eta:.3g} >= 0.3: series reduction invalid"
            )
        if self.E_J >= self.E_c:
            warnings.warn(
                "E_J >= E_c: outside the charging regime of the two-level reduction",
                stacklevel=3,
            )
        if self.n_g != 0.5:
            warnings.warn(
                f"n_g = {self.n_g} is away from the degeneracy point 1/2",
                stacklevel=3,
            )

    @property
    def eta(self) -> float:
        return self.E_J / self.E_J0

    def with_phases(self, **phases: float) -> CircuitParams:
        """A copy with new phi_e/phi_c: no warning depends on them, so none repeats."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return replace(self, **phases)


@dataclass(frozen=True)
class EffectiveQubit:
    """Derived two-level parameters and wire phase shifts.

    f3_coeff multiplies the photon amplitude (a + a+) in the qubit-state
    dependent shift; eps_plus/eps_minus are quoted at zero photons, so
    eps_plus - eps_minus = 2*f2.
    """

    E_J_bar: float
    xi: float
    f1: float
    f2: float
    f3_coeff: float
    eps_plus: float
    eps_minus: float


def _full_angle_sin(phi):
    """sin(phi) via the half-angle product, exactly zero at phi = 0 and pi."""
    return 2.0 * _half_angle_sin(phi) * _half_angle_cos(phi)


def phi_J_series(params: CircuitParams, phi, photon_amp=0.0, phi_e=None):
    """Large-junction phase drop to second order in eta.

    ``phi``, ``photon_amp`` and ``phi_e`` (default ``params.phi_e``) are
    floats or arrays that broadcast together; a float in gives a float out.
    """
    phi_e = params.phi_e if phi_e is None else phi_e
    eta = params.eta
    c = np.cos(np.asarray(phi, dtype=float))
    return as_result(
        2.0 * eta * _half_angle_sin(phi_e) * c
        - eta**2 * _full_angle_sin(phi_e) * c * c
        + 2.0 * eta * params.g * _half_angle_cos(phi_e) * c * np.asarray(photon_amp, dtype=float)
    )


def phi_J_exact(params: CircuitParams, phi, photon_amp=0.0, phi_e=None):
    """Self-consistent large-junction phase drop.

    Solves sin(x) = 2*eta*sin((phi_e - x)/2 + g*p)*cos(phi) for the unique
    root in (-pi/2, pi/2) by safeguarded Newton iteration to the solver's
    tolerance |f| <= 1e-12 (its rounding allowance 4 |f'| ulp(x) is smaller
    here for eta < 1000), then one more Newton step.  ``phi``, ``photon_amp``
    and ``phi_e`` (default ``params.phi_e``) are floats or arrays that
    broadcast together; the elements of each block of ``qcore.BLOCK``
    share one root solve, and a float in gives a float out.
    ConvergenceError is raised if any element fails.
    """
    phi_e = params.phi_e if phi_e is None else phi_e
    shift = 0.5 * np.asarray(phi_e, dtype=float) + params.g * np.asarray(photon_amp, dtype=float)
    cphi = np.cos(np.asarray(phi, dtype=float))
    shape = np.broadcast(shift, cphi).shape
    # Solved one block of the flat index at a time; .flat copies only the
    # block out of the broadcast inputs.
    shift, cphi = np.broadcast_to(shift, shape).flat, np.broadcast_to(cphi, shape).flat
    root = np.empty(shape)
    for block in blocks(root.size):
        root.flat[block] = _phi_J_root(params.eta, shift[block], cphi[block])
    return as_result(root)


def _phi_J_root(eta: float, shift: np.ndarray, cphi: np.ndarray) -> np.ndarray:
    """The root x of sin(x) = 2 eta sin(shift - x/2) cos(phi) for 1-D arrays."""

    def constraint(x):
        return np.sin(x) - 2.0 * eta * np.sin(shift - 0.5 * x) * cphi

    def slope(x):
        return np.cos(x) + eta * np.cos(shift - 0.5 * x) * cphi

    root = newton_bisect(constraint, slope, -0.5 * math.pi, 0.5 * math.pi, 1e-12)
    # Newton's error squares with each step, so one more step from a root
    # good to 1e-12 lands on the rounding floor.
    return root - constraint(root) / slope(root)


def effective_qubit(params: CircuitParams) -> EffectiveQubit:
    """Two-level parameters at the degeneracy point, to second order in eta."""
    eta = params.eta
    s = _half_angle_sin(params.phi_e)
    c = _half_angle_cos(params.phi_e)
    e_j_bar = 2.0 * params.E_J * c * (1.0 - 0.375 * eta**2 * s * s)
    xi = params.g * params.E_J * s
    f1 = -0.25 * eta**2 * _full_angle_sin(params.phi_e)
    f2 = eta * s
    f3_coeff = eta * params.g * c
    return EffectiveQubit(
        E_J_bar=e_j_bar,
        xi=xi,
        f1=f1,
        f2=f2,
        f3_coeff=f3_coeff,
        eps_plus=params.phi_c + f1 + f2,
        eps_minus=params.phi_c + f1 - f2,
    )


def tunneling_leakage(lambda1: float, params: CircuitParams) -> float:
    """Probability of unwanted qubit-state tunneling, (lambda1 / (2*E_J))^2."""
    ratio = lambda1 / (2.0 * params.E_J)
    p_t = ratio * ratio
    if abs(ratio) >= 0.5:
        warnings.warn(
            f"lambda1/(2*E_J) = {ratio:.3f}: two-level suppression regime invalid",
            stacklevel=2,
        )
    return p_t
