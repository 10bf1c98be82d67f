"""Bound-state splitting of the Majorana pair versus superconducting phase.

The hybridization energy of the Majorana end modes of a narrow
superconductor/topological-insulator/superconductor wire segment is

    E(eps) = (v_F / L) * sqrt(Lambda**2 + x**2),   Lambda = (Delta0*L/v_F) * |sin(eps/2)|,

where ``x`` solves the quantization condition x/tan(x) = Lambda on its lowest
branch.  For Lambda <= 1 the solution is real (oscillatory bound state).  For
Lambda > 1 the lowest solution moves onto the imaginary axis, x -> i*u with
u/tanh(u) = Lambda, and the splitting continues as

    E = (v_F / L) * sqrt(Lambda**2 - u**2),

which decays like 2*Lambda*exp(-Lambda) for large Lambda.  The two branches
join continuously (with continuous slope) at Lambda = 1.

All energies are angular frequencies (rad/s).  The splitting is an even,
2*pi-periodic function of the phase, so its derivative vanishes by symmetry
at eps = 0 while the one-sided slope there is -Delta0/pi.

``wire_splitting`` and the two inversions act element-wise on arrays: a
sweep of phases is one call, with one safeguarded root solve per branch
(``qcore.newton_bisect``) and block of the sweep (``qcore.blocks``), and a
float in gives a float out.
``splitting_derivative`` takes one phase.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qcore import as_result, blocks, newton_bisect

__all__ = [
    "HBAR",
    "K_B",
    "SplittingResult",
    "WireParams",
    "inverse_x_over_tan",
    "splitting_derivative",
    "thermal_leakage",
    "wire_splitting",
]

# CODATA 2018 exact values.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J / K

# Residual bound of the root solves, scaled by max(1, |y|).  Near the branch
# point a residual r on x/tan(x) = Lambda moves E by up to about 1.5*r
# relative (the slope of x/tan x vanishes like 2x/3 there), so a bound of
# 1e-12 would leave E up to 1.5e-12 off; 1e-13 keeps it below 2e-13
# against plain bisection (tests/test_wire.py).
_ROOT_TOL = 1e-13


@dataclass(frozen=True)
class WireParams:
    """Physical parameters of the wire hosting the Majorana pair.

    v_F : effective Fermi velocity (m/s)
    L : separation of the bound states (m)
    Delta0 : induced s-wave gap as an angular frequency (rad/s)
    W : wire width (m); validity metadata only
    T : temperature (K)
    """

    v_F: float
    L: float
    Delta0: float
    W: float = 0.0
    T: float = 0.02

    def __post_init__(self):
        if not all(map(math.isfinite, (self.v_F, self.L, self.Delta0, self.W, self.T))):
            raise ValueError("wire parameters must be finite")
        if self.v_F <= 0 or self.L <= 0 or self.Delta0 <= 0 or self.T <= 0:
            raise ValueError("v_F, L, Delta0 and T must be positive")
        if self.W < 0:
            raise ValueError(f"wire width W = {self.W!r} must not be negative")
        # Finite inputs can still overflow or underflow in the two scales
        # that every splitting is computed from, and in the thermal energy.
        for name, value in (("Delta0*L/v_F", self.lambda_scale), ("v_F/L", self.level_spacing),
                            ("k_B*T", K_B * self.T)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} = {value!r} must be finite and positive")
        if self.W * self.Delta0 / self.v_F >= 1.0:
            warnings.warn(
                f"wire width W={self.W} violates W*Delta0/v_F < 1; "
                "the single-channel description is unreliable",
                stacklevel=3,
            )

    @property
    def lambda_scale(self) -> float:
        """Dimensionless prefactor Delta0 * L / v_F."""
        return self.Delta0 * self.L / self.v_F

    @property
    def level_spacing(self) -> float:
        """Confinement frequency scale v_F / L (rad/s)."""
        return self.v_F / self.L


@dataclass(frozen=True)
class SplittingResult:
    """Energy splitting together with the dimensionless phase parameter.

    Each field is a scalar for one phase, or an array for a sweep of them.
    """

    E: float | np.ndarray
    Lambda: float | np.ndarray
    # "oscillatory" (Lambda <= 1) or "evanescent" (Lambda > 1)
    branch: str | np.ndarray
    # The solved root: x of x/tan(x) = Lambda on the oscillatory branch, u of
    # u/tanh(u) = Lambda on the evanescent one.
    root: float | np.ndarray


def _x_over_tan(x):
    return x / np.tan(x)


def _d_x_over_tan(x):
    s = np.sin(x)
    return (0.5 * np.sin(2.0 * x) - x) / (s * s)


def inverse_x_over_tan(y, n: int = 0):
    """Inverse of y = x/tan(x) on its n-th monotone branch, element-wise.

    Branch 0 maps [-1e15, 1) onto (0, pi) with the y -> 1 limit returning 0;
    branch n >= 1 maps [-1e15, 1e15] onto (n*pi, (n+1)*pi).  The residual
    |x/tan(x) - y| is at most 1e-13 max(1, |y|), or the root is within two
    ulps of x, whichever is weaker: for large |y| the root sits next to a
    pole, where one ulp of x moves the residual by about y^2 ulp(x).  From
    |y| of about 5e15 on, depending on the branch, the root lies within one
    ulp of the pole, and ConvergenceError ("no sign change") is raised.
    ``y`` is a float or an array; one root solve covers every element.
    """
    if n < 0:
        raise ValueError("branch index must be non-negative")
    y = np.asarray(y, dtype=float)
    at_limit = False
    if n == 0:
        if (y > 1.0).any():
            raise ValueError(f"branch 0 requires y <= 1, got {float(np.max(y))}")
        # The limit elements are solved at y = 0 and replaced by 0 below.
        at_limit = y == 1.0
        y = np.where(at_limit, 0.0, y)
        lo, hi = 1e-12, math.nextafter(math.pi, 0.0)
        # Near y -> 1 the root sits at x ~ sqrt(3*(1-y)); shrink the bracket
        # so bisection starts in a region where f is well resolved.
        hi = np.where(y > 0.9, np.minimum(hi, 4.0 * np.sqrt(3.0 * (1.0 - y)) + 1e-6), hi)
    else:
        # The doubles next to the poles: for large |y| the root lies closer
        # to a pole than any fixed margin.
        lo = math.nextafter(n * math.pi, math.inf)
        hi = math.nextafter((n + 1) * math.pi, 0.0)
    f_tol = _ROOT_TOL * np.maximum(1.0, np.abs(y))
    root = newton_bisect(lambda x: _x_over_tan(x) - y, _d_x_over_tan, lo, hi, f_tol)
    return as_result(np.where(at_limit, 0.0, root))


def _u_over_tanh(u):
    return u / np.tanh(u)


def _d_u_over_tanh(u):
    # (sinh u cosh u - u) / sinh(u)**2, with numerator and denominator scaled
    # by 4 exp(-2u) so that neither overflows for large u.
    q = np.exp(-2.0 * u)
    return (-np.expm1(-4.0 * u) - 4.0 * u * q) / np.expm1(-2.0 * u) ** 2


def inverse_x_over_tanh(y):
    """Inverse of y = u/tanh(u) for y >= 1 (evanescent continuation), element-wise."""
    y = np.asarray(y, dtype=float)
    if (y < 1.0).any():
        raise ValueError(f"u/tanh(u) >= 1 for all u; got y={float(np.min(y))}")
    # The limit elements are solved at y = 2 and replaced by 0 below.
    at_limit = y <= 1.0 + 1e-15
    y = np.where(at_limit, 2.0, y)
    lo = 1e-8
    # u/tanh(u) = y implies u = y*tanh(u) < y.  Once tanh(y) rounds to 1
    # (y above about 19) the root is y itself in double precision, so the
    # bracket ends one ulp above it, where f is still positive: at hi = y
    # every Newton step would land on the bracket end and be refused.
    hi = np.nextafter(y, np.inf)
    f_tol = _ROOT_TOL * np.maximum(1.0, np.abs(y))
    root = newton_bisect(lambda u: _u_over_tanh(u) - y, _d_u_over_tanh, lo, hi, f_tol)
    # The root finder stops at a residual of up to 1e-13*y, which leaves
    # the derivative rounding noise of about 1e-12 relative between nearby
    # phases; Newton's error squares with each step, so one more step from
    # that root reaches double precision (as in circuit.phi_J_exact).
    polished = root - (_u_over_tanh(root) - y) / _d_u_over_tanh(root)
    return as_result(np.where(at_limit, 0.0, polished))


def _oscillatory_splitting(lam):
    """Root x and reduced splitting E*L/v_F for Lambda <= 1."""
    x = inverse_x_over_tan(lam, 0)
    return x, np.hypot(lam, x)


def _evanescent_splitting(lam):
    """Root u and reduced splitting E*L/v_F for Lambda > 1."""
    u = inverse_x_over_tanh(lam)
    # Lambda - u suffers cancellation for large Lambda; evaluate it from
    # the defining relation instead: Lambda - u = Lambda * (1 - tanh u).
    eu = np.exp(-2.0 * u)
    delta = 2.0 * lam * eu / (1.0 + eu)
    return u, np.sqrt(delta * (lam + u))


def wire_splitting(params: WireParams, eps) -> SplittingResult:
    """Bound-state energy splitting E(eps) at superconducting phase ``eps``.

    ``eps`` is a float or an array.  For an array, each branch is one root
    solve per block of ``qcore.BLOCK`` elements, and the result holds arrays
    of E, Lambda, root and branch names; for a float it holds floats and a
    string.
    """
    lam = params.lambda_scale * np.abs(np.sin(0.5 * np.asarray(eps, dtype=float)))
    oscillatory = lam <= 1.0
    flat_lam, flat_osc = lam.reshape(-1), oscillatory.reshape(-1)
    root, reduced = np.empty(lam.size), np.empty(lam.size)
    for block in blocks(lam.size):
        lam_b, osc_b = flat_lam[block], flat_osc[block]
        # Views: the solves write into the preallocated outputs.
        root_b, reduced_b = root[block], reduced[block]
        if osc_b.any():
            root_b[osc_b], reduced_b[osc_b] = _oscillatory_splitting(lam_b[osc_b])
        if not osc_b.all():
            root_b[~osc_b], reduced_b[~osc_b] = _evanescent_splitting(lam_b[~osc_b])
    root, reduced = root.reshape(lam.shape), reduced.reshape(lam.shape)
    return SplittingResult(
        E=as_result(params.level_spacing * reduced),
        Lambda=as_result(lam),
        branch=as_result(np.where(oscillatory, "oscillatory", "evanescent")),
        root=as_result(root),
    )


def splitting_derivative(params: WireParams, phi: float, root: float | None = None) -> float:
    """dE/dphi by implicit differentiation of the quantization condition.

    dE/dphi = (v_F/L) * r * dLambda/dphi, where r = dG/dLambda for the reduced
    splitting G = E*L/v_F: r = (sin x - x cos x) / (sin x cos x - x) on the
    oscillatory branch and its hyperbolic analogue in u on the evanescent
    one.  Both tend to -1/2 at the branch point, so the slope is continuous
    there.  The splitting is even in phi with a cusp at phi = 0 (mod 2*pi);
    exactly at a cusp the symmetric derivative is 0 and that value is
    returned.  A caller that holds ``wire_splitting(params, phi).root``
    passes it as ``root`` and saves the root solve.
    """
    if math.fmod(phi, 2.0 * math.pi) == 0.0:
        return 0.0
    half_sin = math.sin(0.5 * phi)
    kappa = params.lambda_scale
    lam = kappa * abs(half_sin)
    dlam_dphi = math.copysign(0.5 * kappa, half_sin) * math.cos(0.5 * phi)
    if lam <= 1.0:
        x = inverse_x_over_tan(lam, 0) if root is None else root
        if x < 1e-3:
            # Numerator and denominator both cancel like x**3 here.
            r = -0.5 - x * x / 20.0
        else:
            s, c = math.sin(x), math.cos(x)
            r = (s - x * c) / (s * c - x)
    else:
        u = inverse_x_over_tanh(lam) if root is None else root
        if u < 1e-3:
            r = -0.5 + u * u / 20.0
        else:
            # (sinh u - u cosh u) / (sinh u cosh u - u), with numerator and
            # denominator scaled by 4 exp(-2u) so that neither overflows.
            q = math.exp(-2.0 * u)
            r = (2.0 * math.exp(-u) * (-math.expm1(-2.0 * u) - u * (1.0 + q))
                 / (-math.expm1(-4.0 * u) - 4.0 * u * q))
    return params.level_spacing * r * dlam_dphi


def thermal_leakage(params: WireParams) -> float:
    """Probability of thermally exciting the wire modes at E ~ v_F/L.

    Returns exp(-hbar*(v_F/L) / (k_B*T)) with CODATA constants.
    """
    return math.exp(-HBAR * params.level_spacing / (K_B * params.T))
