"""The Fock-space model of the gate, the oracle of its closed form.

``gate`` and ``fig2`` sum coherent-state branches (:mod:`topoqed.dynamics`)
with no cavity Hilbert space.  This module checks them on the qubit (x) qubit
(x) cavity space, the cavity truncated at ``fock_cutoff`` Fock states; only
``validate`` and the tests import it.  It holds the dense operators,
:class:`HamiltonianModel`, ``build_H_CT``, the closed-form propagator
``analytic_U`` and the Liouvillian stepper ``evolve_master_equation``: a
truncated Taylor series of the exponential's action on substeps of bounded
1-norm (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488-511).
``qubit_states`` steps the gate in the frame that rotates with the cavity,
where its generator is time-independent.  Channels follow the convention of
:mod:`topoqed.qcore`.  ``dynamics.propagator_AB`` and
``qcore._checked_channels`` are looked up at call time, so that a seeded
defect or a replaced check reaches this module too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from . import dynamics, qcore
from .dynamics import GateSchedule, plus_plus_state
from .qcore import IntegrationError, partial_trace, _checked_states, _time_grid

__all__ = [
    "TAU_MINUS", "HamiltonianModel", "analytic_U", "basis_state", "build_H_CT", "destroy",
    "evolve_master_equation", "expm_hermitian", "eye", "gate_start", "number_op",
    "qubit_states", "rotating_frame_hamiltonian", "tensor",
]

# Lowering operator toward the tau_z = +1 ground state: |0><1|.
TAU_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def eye(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def destroy(n: int) -> np.ndarray:
    """Truncated oscillator lowering operator, a|k> = sqrt(k)|k-1>."""
    if n < 1:
        raise ValueError("Fock dimension must be at least 1")
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1).astype(complex)


def number_op(n: int) -> np.ndarray:
    return np.diag(np.arange(n, dtype=float)).astype(complex)


def basis_state(dim: int, k: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


def tensor(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the given operators, in order."""
    if len(ops) == 0:
        raise ValueError("tensor() requires at least one operator")
    return reduce(np.kron, [np.asarray(op, dtype=complex) for op in ops])


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian ``h``, via eigendecomposition.

    Hermiticity is checked against a tolerance of 1e-10 relative to the
    largest matrix entry; the result is verified unitary to 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expm_hermitian expects a square matrix")
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    if not np.max(np.abs(h - h.conj().T)) <= 1e-10 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    if not np.max(np.abs(u @ u.conj().T - np.eye(h.shape[0]))) <= 1e-10:
        raise IntegrationError("eigendecomposition produced a non-unitary result")
    return u


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


def analytic_U(lambda2: float, nu: float, t: float, model: HamiltonianModel) -> np.ndarray:
    """Closed-form propagator on the truncated qubit-qubit-cavity space.

    The displacement factor is exp(-i H) of the Hermitian generator
    H = (B a + B* a+) J_z, by eigendecomposition (``expm_hermitian``, which
    verifies it unitary to 1e-10), and the phase factor a unit-modulus
    diagonal, so U is unitary at every cutoff and cannot show truncation.  The
    states do: ``validate`` compares U with the exact propagation of the
    truncated closed gate's pure state under the rotating-frame generator
    (``propagator_oracle``) and with the untruncated coherent-state branches
    at N = 16 (``coherent_state_branches``).
    """
    a_r, b = dynamics.propagator_AB(lambda2, nu, t)
    a_jz = model.a_j_z
    return np.exp(-1j * a_r * np.diag(model.j_z @ model.j_z))[:, None] * expm_hermitian(
        b * a_jz + np.conj(b) * a_jz.conj().T, 1.0)


def gate_start(fock_cutoff: int) -> np.ndarray:
    """|++> with the cavity in vacuum, the initial state of every gate run."""
    return np.kron(plus_plus_state(), basis_state(fock_cutoff, 0))


def rotating_frame_hamiltonian(schedule: GateSchedule, model: HamiltonianModel) -> np.ndarray:
    """The gate's generator nu a+a - lambda2 (a + a+) J_z in the cavity frame."""
    return schedule.nu * model.n_photon - schedule.lambda2 * (
        model.a_j_z + model.a_j_z.conj().T
    )


# A Taylor substep's generator has 1-norm at most theta_50 (Al-Mohy & Higham
# 2011, Table 3.1); its series stops when two consecutive terms fall below
# the unit roundoff relative to the sum, and fails after 50 terms.
_THETA = 8.5
_MAX_TERMS = 50
_TERM_TOL = 2.0**-53


def _diagonals(op: np.ndarray) -> dict[int, np.ndarray]:
    """The nonzero diagonals of a square matrix, ``{offset: values by row}``.

    Row i of diagonal ``o`` holds ``op[i, i + o]``, and 0 where that column
    lies outside the matrix.
    """
    d = op.shape[0]
    rows, cols = np.nonzero(op)
    present = np.zeros(2 * d - 1, dtype=bool)
    present[cols - rows + d - 1] = True
    diagonals = {}
    for o in (np.flatnonzero(present) - (d - 1)).tolist():
        values = np.zeros(d, dtype=complex)
        values[max(0, -o):d - max(0, o)] = np.diagonal(op, o)
        diagonals[o] = values
    return diagonals


def _liouvillian(h: np.ndarray, channels) -> list[tuple[slice, slice, np.ndarray]]:
    """The row-major Liouvillian as ``(rows, columns, values)`` per diagonal.

    The generator is ``K (x) 1 + 1 (x) conj(K) + sum 2 r L (x) conj(L)`` with
    ``K = -i H - sum r L+ L``.  The Kronecker product of diagonal ``oa`` of a
    d x d matrix with diagonal ``ob`` of another is the diagonal at
    ``oa * d + ob``, with values ``outer(a, b)`` by row, so no d**2 x d**2
    matrix is formed.  ``rows`` is the slice of the output that a diagonal
    writes, ``columns`` the slice of the input that it reads.
    """
    d = h.shape[0]
    k = -1j * h
    terms = []
    for op, rate in channels:
        k = k - rate * (op.conj().T @ op)
        terms.append((_diagonals(op), _diagonals(op.conj()), 2.0 * rate))
    one = {0: np.ones(d, dtype=complex)}
    terms += [(_diagonals(k), one, 1.0), (one, _diagonals(k.conj()), 1.0)]
    gen = {}
    for a, b, coeff in terms:
        for oa, va in a.items():
            for ob, vb in b.items():
                values = coeff * np.outer(va, vb).ravel()
                o = oa * d + ob
                gen[o] = gen[o] + values if o in gen else values
    n = d * d
    return [(slice(max(0, -o), n - max(0, o)), slice(max(0, o), n + min(0, o)),
             values[max(0, -o):n - max(0, o)]) for o, values in sorted(gen.items())]


def _apply(gen, vec: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vec)
    for rows, cols, values in gen:
        out[rows] += values * vec[cols]
    return out


def _size(vec: np.ndarray) -> float:
    # The largest real or imaginary part: a norm, and about three times
    # cheaper than the largest modulus.
    return np.max(np.abs(vec.view(float)))


def _expm_step(gen, norm: float, dt: float, vec: np.ndarray, t: float) -> np.ndarray:
    """exp(dt * gen) vec by truncated Taylor series on substeps (``_THETA``)."""
    substeps = max(1, math.ceil(dt * norm / _THETA))
    h = dt / substeps
    for _ in range(substeps):
        total, term = vec, vec
        c1 = _size(term)
        for j in range(1, _MAX_TERMS + 1):
            term = _apply(gen, term) * (h / j)
            c2 = _size(term)
            total = total + term
            if c1 + c2 <= _TERM_TOL * _size(total):
                break
            c1 = c2
        else:
            raise IntegrationError(
                f"Taylor series not converged after {_MAX_TERMS} terms before t={t:.3e}")
        vec = total
    return vec


def evolve_master_equation(
    hamiltonian: np.ndarray,
    channels: Sequence[tuple[np.ndarray, float]],
    rho0: np.ndarray,
    t_grid: Sequence[float],
) -> np.ndarray:
    """Propagate a density matrix under a time-independent generator.

    Builds the Liouvillian of ``hamiltonian`` and the ``(L, rate)`` channels
    once, stored by diagonals whatever their number, then steps the
    vectorized density matrix from each grid point to the next with a
    truncated Taylor series of its exponential, on substeps of 1-norm at
    most ``_THETA``; a series not converged after 50 terms raises
    :class:`IntegrationError`.  Beyond ``qcore._checked_channels``, the
    generator is taken as given; an unphysical one shows up in the checks of
    ``qcore._checked_states``, which ``rho0``, a ``(d, d)`` density matrix,
    passes first and the whole trajectory after.  Returns the density
    matrices on the grid, shape ``(len(t_grid), d, d)``.
    """
    t_grid = _time_grid(t_grid)
    h = np.asarray(hamiltonian, dtype=complex)
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != h.shape:
        raise ValueError("initial state dimension does not match the Hamiltonian")
    _checked_states(rho[None], t_grid[:1])
    gen = _liouvillian(h, qcore._checked_channels(channels, h.shape))
    # The exact 1-norm, the largest column sum of |gen|.
    col_sums = np.zeros(rho.size)
    for rows, cols, values in gen:
        col_sums[cols] += np.abs(values)
    norm = float(np.max(col_sums))
    if not math.isfinite(norm):
        raise ValueError("the Liouvillian has entries that are not finite")

    rhos = np.empty((len(t_grid),) + rho.shape, dtype=complex)
    rhos[0] = rho
    vec = rho.ravel()
    for i in range(1, len(t_grid)):
        vec = _expm_step(gen, norm, float(t_grid[i] - t_grid[i - 1]), vec, t_grid[i])
        rhos[i] = vec.reshape(rho.shape)
    return _checked_states(rhos, t_grid)


def qubit_states(
    schedule: GateSchedule,
    kappa: float,
    gamma: float,
    t_grid: np.ndarray,
    fock_cutoff: int,
) -> np.ndarray:
    """Reduced qubit states from the Fock-truncated Liouvillian.

    Propagates |++> and vacuum in the cavity's rotating frame with
    ``evolve_master_equation``, and traces the cavity out of the whole
    trajectory at once; returns shape ``(len(t_grid), 4, 4)``.  ``validate``
    and the tests compare the closed form of ``dynamics.fidelity_curve``
    with it.
    """
    model = HamiltonianModel(fock_cutoff)
    n = fock_cutoff
    channels = []
    if kappa > 0:
        channels.append((model.a_op, kappa))
    if gamma > 0:
        channels.append((tensor([TAU_MINUS, eye(2), eye(n)]), gamma))
        channels.append((tensor([eye(2), TAU_MINUS, eye(n)]), gamma))
    psi0 = gate_start(n)
    rhos = evolve_master_equation(rotating_frame_hamiltonian(schedule, model), channels,
                                  np.outer(psi0, psi0.conj()), t_grid)
    return partial_trace(rhos, model.dims, (0, 1))
