"""Dense complex linear algebra and open-system primitives.

Operators are plain ``numpy`` arrays of complex doubles; helpers below build
Pauli and truncated-oscillator matrices and combine them with Kronecker
products.  States are plain arrays too: a pure state is a complex vector,
a density matrix a square array, and a trajectory one ``(n, d, d)`` stack.

``_checked_states`` is the one physicality check: finite entries, unit
trace, Hermiticity, and positivity from one batched ``eigvalsh``, each taken
over the whole stack at once, so once per state.  Two propagators pass
their initial state and their trajectory through it, as do the closed-form
gate states of :mod:`topoqed.dynamics`, one block of the grid at a time.
Both propagators take ``(hamiltonian, channels, rho0, t_grid)``, with
``channels`` a sequence of ``(L, rate)`` pairs that ``_checked_channels``
checks for both: each L of H's shape, each rate >= 0.

* ``evolve_master_equation`` takes a time-independent Hamiltonian matrix.  It
  builds the Liouvillian once, stored by diagonals, and steps the vectorized
  density matrix between grid points with the action of its exponential: a
  truncated Taylor series on substeps of bounded 1-norm, the scheme of
  Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488-511, in numpy alone.
  It is the oracle of the gate's closed-form fidelity curve under
  dissipation, in the frame that rotates with the cavity, for ``validate``
  (``coherent_state_branches``) and the tests.  ``validate`` checks the
  closed gate against the pure state propagated with ``expm_hermitian``.
* ``integrate_master_equation`` takes the Hamiltonian as a callable of t and
  runs adaptive RK45.  It is the independent oracle of the first, for tests
  only; it loads ``scipy.integrate`` on first use, so importing the package
  does not.

``newton_bisect`` is the safeguarded root finder that the wire and circuit
layers share, and the one owner of its brackets: it reads f once at both
ends, refuses an element without a sign change there and returns an end
where f is exactly 0.  It acts element-wise on arrays, so a block of a sweep
is one call; a scalar is solved as an array of shape (), and ``as_result``
turns that back into a float, so a float in gives a float out.

``blocks`` splits a grid into pieces of at most ``BLOCK`` points.  The
sweeps and the gate's fidelity curve compute one block at a time into
preallocated outputs, so the temporaries of one block, not of the whole
grid, set their peak memory.

Decay-rate convention
---------------------
Both propagators implement the master equation in the form

    drho/dt = -i [H, rho] + sum_c  r_c (2 L rho L+ - L+ L rho - rho L+ L)

i.e. each channel ``(L, r)`` enters with the prefactor written out above.
A cavity channel ``(a, kappa)`` therefore decays photon number as
``exp(-2*kappa*t)`` and a qubit channel ``(tau_minus, gamma)`` decays the
excited population as ``exp(-2*gamma*t)``: the *energy* decay rates are twice
the quoted channel rates.  This matters when comparing fidelity curves
against rates quoted in MHz.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConvergenceError",
    "IntegrationError",
    "SIGMA_X",
    "SIGMA_Z",
    "TAU_MINUS",
    "basis_state",
    "destroy",
    "evolve_master_equation",
    "expm_hermitian",
    "eye",
    "integrate_master_equation",
    "newton_bisect",
    "number_op",
    "partial_trace",
    "state_fidelity",
    "tensor",
]

# The physicality bounds of a density matrix (see _checked_states).
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-8

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Lowering operator toward the tau_z = +1 ground state: |0><1|.
TAU_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class IntegrationError(RuntimeError):
    """An ODE integration failed or produced an unphysical state."""


def __getattr__(name: str):
    # Importing scipy.integrate would add about 0.3 s to the start-up of
    # every command, and only the RK45 oracle needs it, so it loads on first
    # use.  The binding is stored in the module, where callers and wrappers
    # find it.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()[name] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Grid points per block of the sweeps and the fidelity curve.  A point keeps
# about 0.1 kB of root-solve temporaries, or 0.9 kB of gate-curve states, so
# a block adds at most about 4 MB whatever the grid (tracemalloc).
BLOCK = 4096


def blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``BLOCK`` indices that cover ``range(n)``."""
    return [slice(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK)]


def as_result(x):
    """A numpy array as it is; one element (shape ()) as a Python scalar."""
    return x.item() if x.ndim == 0 else x


ROOT_MAX_ITER = 200


def newton_bisect(f, df, lo, hi, f_tol):
    """Safeguarded root finder: bisection with Newton acceleration, element-wise.

    ``lo``, ``hi`` and ``f_tol`` are floats or arrays that broadcast with
    f(lo) to one shape, and ``f`` and ``df`` act element-wise on an array of
    that shape.  f is read once at each end: an element whose f is exactly 0
    at an end returns that end, bit for bit, and ConvergenceError is raised
    before any iteration if an element has no sign change between its ends.
    An element narrows its own bracket, takes a Newton step when it lands
    inside the bracket and bisects otherwise.  It stops when |f| <= f_tol,
    or when its bracket is exhausted (at most about two ulps wide): it then
    keeps whichever of x and the two bracket ends has the smallest |f|, if
    that is at most 4 |f'(x)| ulp(x), the residual that rounding x can
    explain.  A stopped element no longer moves.  ConvergenceError is raised
    if an element exhausts its bracket without such a residual, as a NaN one
    always does, or still runs after ``ROOT_MAX_ITER`` iterations.  Returns
    an array of the broadcast shape, or a float when that shape is ().
    """
    # A zero derivative gives a non-finite Newton candidate, which the
    # bracket test rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi, f_lo, f_hi, f_tol = np.broadcast_arrays(lo, hi, f(lo), f(hi), f_tol)
        # The sign of NaN is NaN, so a NaN element is not refused here.
        unbracketed = np.sign(f_lo) * np.sign(f_hi) > 0
        if unbracketed.any():
            count = int(np.count_nonzero(unbracketed))
            raise ConvergenceError(f"root finder found no sign change for {count} of "
                                   f"{unbracketed.size} elements between their bracket ends")
        lo_positive = f_lo > 0
        # An element solved on an end starts there and inactive.
        active = (f_lo != 0) & (f_hi != 0)
        x = np.where(f_lo == 0, lo, np.where(f_hi == 0, hi, 0.5 * (lo + hi)))
        for _ in range(ROOT_MAX_ITER):
            fx = f(x)
            # NaN residuals stay active.
            active = active & ~(abs(fx) <= f_tol)
            if not active.any():
                return as_result(x)
            same_sign = (fx > 0) == lo_positive
            lo = np.where(active & same_sign, x, lo)
            hi = np.where(active & ~same_sign, x, hi)
            cand = x - fx / df(x)
            newton_ok = (lo < cand) & (cand < hi)
            x = np.where(active, np.where(newton_ok, cand, 0.5 * (lo + hi)), x)
            # 4.5e-16 |x| is at least two ulps of x.
            exhausted = active & (hi - lo <= 4.5e-16 * np.maximum(abs(lo), abs(hi)))
            if exhausted.any():
                # Bracket exhausted at double precision: keep whichever of x
                # and the bracket ends has the smallest |f|, and accept a
                # residual that four ulps of it can explain (a backward-error
                # bound).
                r_x, r_lo, r_hi = abs(f(x)), abs(f(lo)), abs(f(hi))
                to_lo = exhausted & (r_lo < r_x) & (r_lo <= r_hi)
                to_hi = exhausted & (r_hi < r_x) & (r_hi < r_lo)
                x = np.where(to_lo, lo, np.where(to_hi, hi, x))
                residual = np.where(to_lo, r_lo, np.where(to_hi, r_hi, r_x))
                slack = 4.0 * abs(df(x)) * np.spacing(x)
                stuck = exhausted & ~(residual <= np.maximum(f_tol, slack))
                if stuck.any():
                    # Only these elements failed; the others still active
                    # may yet have converged.
                    failed, how = stuck, "before its bracket ran out"
                    break
                active = active & ~exhausted
        else:
            failed, how = active, f"within {ROOT_MAX_ITER} iterations"
    raise ConvergenceError(
        f"root finder did not reach |f| <= {float(np.max(f_tol)):g} for "
        f"{int(np.count_nonzero(failed))} of {np.size(x)} elements {how}"
    )


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


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrices over the subsystems listed in ``keep``.

    ``rho`` is a ``(..., d, d)`` stack over subsystems of dimensions ``dims``,
    so a whole trajectory reduces at once; kept subsystems keep their order.
    """
    dims = tuple(dims)
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    total = math.prod(dims)
    if rho.shape[-2:] != (total, total):
        raise ValueError(f"density matrices need shape (..., {total}, {total}), got {rho.shape}")
    lead = rho.shape[:-2]
    rho = rho.reshape(lead + dims + dims)
    # Repeatedly trace out the highest-index discarded subsystem so that the
    # remaining axis numbering stays valid.
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        m = (rho.ndim - len(lead)) // 2
        rho = np.trace(rho, axis1=len(lead) + i, axis2=len(lead) + m + i)
    return rho.reshape(lead + (math.prod(dims[k] for k in keep),) * 2)


def state_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """Overlap <psi| rho |psi> of a density matrix with a pure reference vector."""
    if psi.ndim != 1:
        raise ValueError(f"the reference state must be a vector, got shape {psi.shape}")
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: {rho.shape} vs {psi.size}")
    return float(np.real(np.vdot(psi, rho @ psi)))


def _time_grid(t_grid: Sequence[float]) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValueError("t_grid must be a non-empty 1-D sequence")
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must increase strictly from 0")
    return t_grid


def _checked_channels(channels, shape: tuple) -> list[tuple[np.ndarray, float]]:
    """The ``(L, rate)`` channels with each L of H's ``shape`` and rate >= 0.

    See the module docstring for the prefactor convention.
    """
    checked = []
    for op, rate in channels:
        op = np.asarray(op, dtype=complex)
        if op.shape != shape:
            raise ValueError(f"collapse operator shape {op.shape} does not match H {shape}")
        if rate < 0:
            raise ValueError("channel rates must be non-negative")
        checked.append((op, float(rate)))
    return checked


def _checked_states(rhos: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """A stack of density matrices, checked once, or IntegrationError naming t.

    ``rhos`` has shape ``(len(t_grid), d, d)``: a whole trajectory, or one
    block of a gate curve.  Each matrix must have finite entries, unit trace
    (1e-8) and Hermiticity (1e-9); the small anti-Hermitian residue is then
    removed, and one batched ``eigvalsh`` checks positivity (eigenvalues
    >= -1e-8).  Positivity is monitored, never enforced: a violation is
    raised rather than silently projected away.  The adjoint, the
    Hermiticity deviation and the Hermitian parts are each one array
    operation over the whole stack.  The error names the first grid time at
    which any check fails.  Returns the Hermitian parts as one read-only
    array.
    """
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(rhos).all(axis=(1, 2))
        trace_dev = np.abs(np.einsum("tii->t", rhos) - 1.0)
        adjoint = rhos.conj().transpose(0, 2, 1)
        herm_dev = np.max(np.abs(rhos - adjoint), axis=(1, 2))
        herm = 0.5 * (rhos + adjoint)
    # eigvalsh fails on a non-finite matrix, so it runs only on the states
    # before the first one that fails a cheaper check.
    fails = ~finite | (trace_dev > TRACE_TOL) | (herm_dev > HERMITICITY_TOL)
    first = int(np.argmax(fails)) if fails.any() else len(rhos)
    if first:
        min_eig = np.linalg.eigvalsh(herm[:first])[:, 0]
        negative = np.flatnonzero(min_eig < EIGENVALUE_FLOOR)
        if negative.size:
            i = int(negative[0])
            raise IntegrationError(f"density matrix has eigenvalue {float(min_eig[i])} < "
                                   f"{EIGENVALUE_FLOOR} at t={t_grid[i]:.3e}")
    if first < len(rhos):
        t = t_grid[first]
        if not finite[first]:
            raise IntegrationError(f"non-finite density matrix entries at t={t:.3e}")
        if trace_dev[first] > TRACE_TOL:
            raise IntegrationError(f"trace deviation {trace_dev[first]:.3e} at t={t:.3e}")
        raise IntegrationError(f"Hermiticity deviation {herm_dev[first]:.3e} at t={t:.3e}")
    herm.setflags(write=False)
    return herm


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
    :class:`IntegrationError`.  Beyond
    :func:`_checked_channels`, the generator is taken as given; an unphysical
    one shows up in the checks of :func:`_checked_states`, which ``rho0``, a
    ``(d, d)`` density matrix, passes first and the whole trajectory after.
    Returns the density matrices on the grid, shape ``(len(t_grid), d, d)``.
    """
    t_grid = _time_grid(t_grid)
    h = np.asarray(hamiltonian, dtype=complex)
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != h.shape:
        raise ValueError("initial state dimension does not match the Hamiltonian")
    _checked_states(rho[None], t_grid[:1])
    gen = _liouvillian(h, _checked_channels(channels, h.shape))
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


def integrate_master_equation(
    hamiltonian: Callable[[float], np.ndarray],
    channels: Sequence[tuple[np.ndarray, float]],
    rho0: np.ndarray,
    t_grid: Sequence[float],
) -> np.ndarray:
    """Propagate a density matrix under a Hamiltonian that depends on time.

    ``hamiltonian`` maps a time (seconds) to a Hermitian matrix; the channels
    are those of :func:`evolve_master_equation`.  Uses an adaptive embedded
    Runge-Kutta 4(5) pair (rtol 1e-9, atol 1e-12) on the vectorized density
    matrix.  ``rho0``, a ``(d, d)`` density matrix, and the trajectory,
    shape ``(len(t_grid), d, d)``, pass :func:`_checked_states`: finite
    entries, unit trace (1e-8), Hermiticity (1e-9) and positivity
    (eigenvalues >= -1e-8), each raising IntegrationError naming the time.
    """
    t_grid = _time_grid(t_grid)
    rho = np.asarray(rho0, dtype=complex)
    shape = np.shape(hamiltonian(0.0))
    if rho.shape != shape:
        raise ValueError("initial state dimension does not match the Hamiltonian")
    start = _checked_states(rho[None], t_grid[:1])
    ops = [(op, op.conj().T, op.conj().T @ op, rate)
           for op, rate in _checked_channels(channels, shape)]
    if len(t_grid) == 1:
        return start

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        r = y.reshape(shape)
        h = hamiltonian(t)
        drho = -1j * (h @ r - r @ h)
        for op, op_dag, op_dag_op, rate in ops:
            drho += rate * (2.0 * (op @ r @ op_dag) - op_dag_op @ r - r @ op_dag_op)
        return drho.ravel()

    # Through the module, so that the first call imports scipy.integrate.
    sol = sys.modules[__name__].solve_ivp(
        rhs, (float(t_grid[0]), float(t_grid[-1])), rho.ravel(),
        method="RK45", t_eval=t_grid, rtol=1e-9, atol=1e-12,
    )
    if not sol.success:
        raise IntegrationError(f"master-equation integration failed: {sol.message}")
    return _checked_states(sol.y.T.reshape((len(t_grid),) + shape), t_grid)
