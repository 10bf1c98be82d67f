"""Gate scheduling, the propagator's phase and displacement, and fidelity curves.

The interaction-picture Hamiltonian -lambda2 (a e^{-i nu t} + a+ e^{i nu t}) J_z
closes on the operator algebra {a J_z, a+ J_z, J_z^2}, so its propagator has
the exact form

    U(t) = exp(-i A(t) J_z^2) * exp(-i B(t) a J_z) * exp(-i B*(t) a+ J_z)

with B(t) = -i (lambda2/nu) (e^{-i nu t} - 1) and a phase whose real part is
A_r(t) = -(lambda2^2/nu) (t - sin(nu t)/nu).  The full phase in the ordered
product above also carries the imaginary part |B(t)|^2 / 2, which exactly
compensates the reordering factor of the two displacement-like exponentials;
equivalently,

    U(t) = exp(-i A_r(t) J_z^2) * exp( -i (B a + B* a+) J_z ).

``propagator_AB`` returns the real phase A_r together with B, from which
``oracle.analytic_U`` builds U on the Fock-truncated space.

Scheduling: B vanishes whenever nu*t = 2*pi*k, and with nu = 2*lambda2*sqrt(k)
the gate time tau = sqrt(k)*pi/lambda2 gives A_r(tau) = -pi/2, turning
U(tau) = exp(+i (pi/2) J_z^2) into an entangling phase gate that maps |++> to
(|++> + i |-->)/sqrt(2) with the cavity returned to its initial state.

Dissipative fidelity curves are computed in the frame that rotates with the
cavity at nu, where the generator is time-independent:

    H' = nu a+a - lambda2 (a + a+) J_z.

The frame change exp(-i nu t a+a) is an exact cavity-local unitary; the
cavity damping term is invariant under it and the qubit channels do not
touch the cavity.  The reduced qubit state, and with it F(t), is therefore
the interaction picture's.  H', the cavity loss and the no-jump part of
qubit relaxation are all diagonal in the qubit basis, and each qubit jumps
at most once, so the density matrix stays a sum of coherent-state branches
c |s><s'| (x) |alpha><beta| whose amplitudes and weights integrate in closed
form.  ``fidelity_curve`` sums them in numpy, with no cavity Hilbert space
and no Fock cutoff: the spin-dependent-force algebra of the Molmer-Sorensen
gate (Sorensen & Molmer, PRA 62, 022311 (2000)) in the coherent-state
ansatz of Gambetta et al., PRA 77, 012112 (2008).  The coherences fed by
one qubit jump carry an integral over the jump time, which is an exact
series of 136 exponential integrals, truncated at order 15 where the rest
is below 3e-19 for every schedule.  The Fock-truncated Liouvillian of
:mod:`topoqed.oracle` is what ``validate`` and the tests compare the closed
form with; no command runs it or imports scipy.  ``validate`` seeds its
defects in ``propagator_AB``, ``_branch`` and the jump series ``_jump_terms``.

Dissipation follows the channel convention of :mod:`topoqed.qcore`: cavity
channel (a, kappa) and one lowering channel (|0><1|, gamma) per qubit, each
entering as rate * (2 L rho L+ - L+ L rho - rho L+ L), so quoted rates are
half the corresponding energy-decay rates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import IntegrationError, _checked_states, _time_grid, blocks

__all__ = [
    "GateSchedule",
    "fidelity_curve",
    "plus_plus_state",
    "propagator_AB",
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
        if not (math.isfinite(self.nu) and math.isfinite(self.tau)):
            raise ValueError(f"lambda2 = {self.lambda2!r} rad/s at k = {self.k} gives detuning "
                             f"nu = {self.nu:.3g} rad/s and gate time tau = {self.tau:.3g} s, "
                             "which must both be finite")

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


def plus_plus_state() -> np.ndarray:
    """Both qubits in (|0> + |1>)/sqrt(2), as a vector of the two-qubit space."""
    return np.full(4, 0.5, dtype=complex)


def target_entangled_state() -> np.ndarray:
    """The maximally entangled gate target (|++> + i|-->)/sqrt(2), as a vector."""
    minus_minus = 0.5 * np.array([1.0, -1.0, -1.0, 1.0], dtype=complex)
    return (plus_plus_state() + 1j * minus_minus) / math.sqrt(2.0)


# The two-qubit basis |00>, |01>, |10>, |11>, with |0> the tau_z = +1 ground
# state: J_z and the number of excited qubits of each basis state.
_J_Z = np.array([1.0, 0.0, 0.0, -1.0])
_EXCITED = np.array([0.0, 1.0, 1.0, 2.0])

# The jump integral's series (see _jump_terms) sums the 136 terms (n, m) with
# n + m <= SERIES_ORDER, and _FACTORIALS holds 0! to 16!.  A pass evaluates at
# most _PASS_ENTRIES (term, time) entries: about 3 MB for a block of the grid.
SERIES_ORDER = 15
_N, _M = np.array([(n, m) for n in range(SERIES_ORDER + 1)
                   for m in range(SERIES_ORDER + 1 - n)]).T
_FACTORIALS = np.array([math.factorial(j) for j in range(SERIES_ORDER + 2)], dtype=float)
_PASS_ENTRIES = 1 << 15


def _branch(lam, z, m, m_bra, alpha, beta, s):
    """Advance the branch c |s><s'| (x) ||alpha>><<beta|| by s, with no jump.

    ||alpha>> = exp(alpha a+)|0> is the unnormalized coherent state.  Its
    amplitude obeys d alpha/dt = -z alpha + i lambda2 m, with z = kappa + i nu
    and m = J_z of s (m_bra, of s', for beta), so it is affine in exp(-z t).
    The weight obeys d ln c/dt = i lambda2 (m alpha - m_bra beta*)
    + 2 kappa alpha beta* before qubit decay, which integrates in closed form.
    Returns alpha and beta after s and the change of ln c.
    """
    kappa = z.real
    a_inf, b_inf = 1j * lam * m / z, 1j * lam * m_bra / z
    da, db = alpha - a_inf, beta - b_inf
    int_e = -np.expm1(-z * s) / z  # the integral of exp(-z u) over [0, s]
    int_ee = s if kappa == 0.0 else -np.expm1(-2.0 * kappa * s) / (2.0 * kappa)
    int_a = a_inf * s + da * int_e
    int_b = np.conj(b_inf) * s + np.conj(db * int_e)  # of beta*
    int_ab = (a_inf * np.conj(b_inf) * s + a_inf * np.conj(db * int_e)
              + np.conj(b_inf) * da * int_e + da * np.conj(db) * int_ee)
    d_log = 1j * lam * (m * int_a - m_bra * int_b) + 2.0 * kappa * int_ab
    decay = np.exp(-z * s)
    return a_inf + da * decay, b_inf + db * decay, d_log


def _jump_terms(lam: float, z: complex, gamma: float,
                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J, the single-jump part of the coherence |00><01|, and what order 15 adds to it.

    A jump of qubit 1 at t1 takes |10><11| (J_z 0 and -1, three excitations)
    to |00><01| (J_z 1 and 0, one excitation): J is the integral over t1 in
    [0, t] of 2 gamma times that source branch at t1, continued in the target
    branch from t1 to t.  With r = t - t1, p = lambda2^2/z*^2, q = p*,
    s = -lambda2^2/z* - 3 gamma and c = -lambda2^2/z - gamma, the two
    branches of :func:`_branch` compose to the integrand
    exp(s t1 + c r + q (1 - e^{-z r}) + p e^{-z* r} - p e^{-z* t}) / 4.
    Expanding exp(-q e^{-z r}) exp(p e^{-z* r}) integrates term by term:

        J = (gamma/2) e^{q - p e^{-z* t}} sum over n + m <= 15 of
            (-q)^n p^m / (n! m!) (e^{s t} - e^{d t}) / (s - d),
        with d = c - n z - m z*.

    nu^2 = 4 k lambda2^2 gives |p| <= 1/4, so order N carries at most
    (1/2)^N / N! of the sum, and each integral is at most t e^{-gamma t}:
    the orders past 15 add less than 3e-19.  Im(s - d) is (n - m) nu minus
    2 nu lambda2^2/|z|^2 < nu, so s - d never vanishes.  One exponential per
    time gives e^{d t} = e^{c t} X^n X*^m with X = e^{-z t}, every factor of
    modulus at most 1; where |(s - d) t| < 1/2, a Taylor series of
    (1 - e^{-u})/u replaces the difference.  A pass evaluates at most
    ``_PASS_ENTRIES`` (term, time) entries.  Both returned arrays have the
    shape of t.
    """
    ratio = lam / np.conj(z)
    p = ratio * ratio
    q = np.conj(p)
    s, c = -lam * ratio - 3.0 * gamma, -lam * np.conj(ratio) - gamma
    # s - d of each term, real and imaginary parts summed apart: for n = m
    # the imaginary part is the small -2 nu lambda2^2/|z|^2 alone.
    rates = (s - c + (_N + _M) * z.real + 1j * (_N - _M) * z.imag)[:, None]
    # Column 0 sums every term, column 1 those of order 15.
    weights = np.zeros((len(_N), 2), dtype=complex)
    weights[:, 0] = (-q) ** _N * p ** _M / (_FACTORIALS[_N] * _FACTORIALS[_M])
    weights[_N + _M == SERIES_ORDER, 1] = weights[_N + _M == SERIES_ORDER, 0]
    terms = np.empty((len(t), 2), dtype=complex)
    times_per_pass = max(1, _PASS_ENTRIES // len(_N))
    for first in range(0, len(t), times_per_pass):
        tt = t[first:first + times_per_pass]
        x = np.exp(-z * tt)
        powers = np.cumprod(np.vstack([np.ones_like(x)] + [x] * SERIES_ORDER), axis=0)
        e_s = np.exp(s * tt)
        # e^{d t}, then e^{s t} - e^{d t} and its ratio to s - d, in one array.
        integrals = np.exp(c * tt) * powers[_N] * np.conj(powers)[_M]
        np.subtract(e_s, integrals, out=integrals)
        u = rates * tt
        near = np.abs(u) < 0.5
        np.divide(integrals, rates, out=integrals, where=~near)
        # There e^{s t} t (1 - e^{-u})/u instead, the ratio by Horner's rule.
        u = u[near]
        ratio_u = np.full_like(u, 1.0 / _FACTORIALS[-1])
        for factorial in _FACTORIALS[-2:0:-1]:
            ratio_u = 1.0 / factorial - u * ratio_u
        integrals[near] = np.broadcast_to(e_s * tt, near.shape)[near] * ratio_u
        # einsum, not a matmul, so that a curve makes no BLAS call, and each
        # time's sum is the same bits whatever the pass holds.
        prefactor = 0.5 * gamma * np.exp(q - p * np.conj(x))
        terms[first:first + len(tt)] = prefactor[:, None] * np.einsum("pt,pk->tk", integrals,
                                                                       weights)
    return terms[:, 0], terms[:, 1]


def _branch_states(
    schedule: GateSchedule, kappa: float, gamma: float, t_grid: Sequence[float]
) -> tuple[np.ndarray, float]:
    """Reduced qubit states of the dissipative gate, summed over branches.

    Starts from |++> with the cavity in vacuum.  Every operator except the
    qubit jumps is diagonal in the qubit basis, so rho(t) is a sum of
    branches c |s><s'| (x) |alpha><beta| (see :func:`_branch`), and no
    cavity Hilbert space is needed:

    * the diagonal holds the classical populations, each qubit excited with
      probability exp(-2 gamma t)/2;
    * each coherence has a no-jump branch in closed form, whose cavity trace
      is c <beta|alpha>;
    * the four coherences |0x><0y| and |x0><y0| with x != y also gain a
      single-jump part: J (:func:`_jump_terms`) in |00><01| and, by qubit
      exchange, in |00><10|, and conj(J) in their Hermitian conjugates.

    The largest modulus of what order 15 adds to J is returned with the
    states.  The states form one array of shape ``(len(t_grid), 4, 4)``,
    which passes the propagators' stacked check (``qcore._checked_states``)
    once.  The times are a whole grid or one block of it, and the rates
    non-negative: :func:`fidelity_curve` checks both.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    lam, z = schedule.lambda2, complex(kappa, schedule.nu)

    m, m_bra = _J_Z[:, None, None], _J_Z[None, :, None]
    alpha, beta, log_c = _branch(lam, z, m, m_bra, 0.0, 0.0, t_grid)
    excited = _EXCITED[:, None, None] + _EXCITED[None, :, None]
    exponent = (log_c - gamma * excited * t_grid + np.conj(beta) * alpha).transpose(2, 0, 1)
    # The populations replace the diagonal, whose exponent (0 in exact
    # arithmetic) gains rounding that grows with t and can overflow.
    off_diagonal = ~np.eye(4, dtype=bool)
    rho = np.empty(exponent.shape, dtype=complex)
    rho[:, off_diagonal] = 0.25 * np.exp(exponent[:, off_diagonal])
    up = 0.5 * np.exp(-2.0 * gamma * t_grid)
    populations = np.stack([1.0 - up, up], axis=1)
    rho[:, range(4), range(4)] = np.einsum("ti,tj->tij", populations, populations).reshape(-1, 4)

    delta = 0.0
    if gamma > 0:
        jump, last_order = _jump_terms(lam, z, gamma, t_grid)
        delta = float(np.max(np.abs(last_order)))
        rho[:, 0, 1:3] += jump[:, None]
        rho[:, 1:3, 0] += np.conj(jump)[:, None]
    return _checked_states(rho, t_grid), delta


def fidelity_curve(
    schedule: GateSchedule,
    kappa: float,
    gamma: float,
    t_grid: Sequence[float],
) -> tuple[np.ndarray, float]:
    """Entangling fidelity under cavity decay and qubit relaxation.

    Returns F(t) = <target| Tr_cav rho(t) |target> on the grid, from |++>
    and cavity vacuum, with the reduced states of :func:`_branch_states`:
    closed-form coherent-state branches plus the single-jump series, whose
    order-15 part is returned with F as the convergence delta.  The grid is
    checked once, then computed in blocks of ``qcore.BLOCK`` times: each
    block's states pass ``qcore._checked_states`` once, and its F is one
    contraction of them with the target vector, so the memory does not grow
    with the grid beyond F itself.  The delta is the largest over the
    blocks.  A NaN in F, or a value outside [-1e-8, 1 + 1e-8], raises
    IntegrationError.
    """
    if kappa < 0 or gamma < 0:
        raise ValueError("rates must be non-negative")
    t_grid = _time_grid(t_grid)
    target = target_entangled_state()
    fidelities = np.empty(len(t_grid))
    delta = 0.0
    for block in blocks(len(t_grid)):
        rhos, block_delta = _branch_states(schedule, kappa, gamma, t_grid[block])
        fidelities[block] = np.einsum("i,tij,j->t", target.conj(), rhos, target).real
        delta = max(delta, block_delta)
    # Written so that a NaN fails: every comparison with NaN is false.
    if not np.all((fidelities >= -1e-8) & (fidelities <= 1.0 + 1e-8)):
        raise IntegrationError("fidelities outside [-1e-8, 1 + 1e-8]")
    return fidelities, delta
