"""Root finding, grid blocks and the density-matrix check that the commands share.

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

``_checked_states`` is the one physicality check of a stack of density
matrices (square complex arrays, a trajectory one ``(n, d, d)`` stack):
finite entries, unit trace, Hermiticity, and positivity from one batched
``eigvalsh``, each taken over the whole stack at once, so once per state.
The closed-form gate states of :mod:`topoqed.dynamics` pass it one block of
the grid at a time.

The rest serves the tests and :mod:`topoqed.oracle`: ``partial_trace``,
``state_fidelity`` and ``integrate_master_equation``, an adaptive RK45
propagator for a Hamiltonian that depends on t.  It loads
``scipy.integrate`` on first use, so importing the package does not.  It and
``oracle.evolve_master_equation`` take ``(hamiltonian, channels, rho0,
t_grid)``, with ``channels`` a sequence of ``(L, rate)`` pairs that
``_checked_channels`` checks for both: each L of H's shape, each rate >= 0.

Decay-rate convention
---------------------
Both propagators implement the master equation in the form

    drho/dt = -i [H, rho] + sum_c  r_c (2 L rho L+ - L+ L rho - rho L+ L)

i.e. each channel ``(L, r)`` enters with the prefactor written out above.
A cavity channel ``(a, kappa)`` therefore decays photon number as
``exp(-2*kappa*t)`` and a qubit channel ``(tau_minus, gamma)`` decays the
excited population as ``exp(-2*gamma*t)``: the *energy* decay rates are twice
the quoted channel rates.  The closed form of :mod:`topoqed.dynamics` keeps
the same convention.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConvergenceError",
    "IntegrationError",
    "integrate_master_equation",
    "newton_bisect",
    "partial_trace",
    "state_fidelity",
]

# The physicality bounds of a density matrix (see _checked_states).
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-8


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


def integrate_master_equation(
    hamiltonian: Callable[[float], np.ndarray],
    channels: Sequence[tuple[np.ndarray, float]],
    rho0: np.ndarray,
    t_grid: Sequence[float],
) -> np.ndarray:
    """Propagate a density matrix under a Hamiltonian that depends on time.

    ``hamiltonian`` maps a time (seconds) to a Hermitian matrix, and the
    ``(L, rate)`` channels follow the module docstring.  Uses an adaptive
    embedded Runge-Kutta 4(5) pair (rtol 1e-9, atol 1e-12) on the vectorized
    density matrix.  ``rho0``, a ``(d, d)`` density matrix, and the trajectory,
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
