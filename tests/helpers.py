"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the code paths it is used to check:
roots come from plain bisection, matrix exponentials from a scaling-and-
squaring Taylor series, propagators from fixed-step Runge-Kutta with step
doubling, the splitting derivative from implicit differentiation of the
quantization condition, in double precision or, for long wires, in mpmath,
the charge-qubit gap from dense diagonalization in the charge basis, the
dissipative gate's reduced states from the Fock-truncated Liouvillian with
its N / N + 4 cutoff ladder, the jump-time integral of the closed form from
Gauss-Legendre panels, entanglement entropy from the spectrum of a
reduced state, the qubit-qubit interface Hamiltonian as an explicit 4 x 4
matrix with the Pauli matrices it is checked against, and CSV text from the
row rule applied one value at a time.
"""

import math

import numpy as np
import pytest

from topoqed import dynamics as _dyn
from topoqed import oracle
from topoqed.circuit import effective_qubit
from topoqed.qcore import ConvergenceError, IntegrationError, partial_trace

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection to double precision; requires f(lo)*f(hi) < 0."""
    f_lo = f(lo)
    assert f_lo * f(hi) < 0, "root not bracketed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo = mid
            f_lo = f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_splitting(params, eps: float) -> float:
    """Splitting E(eps) from plain bisection of the quantization condition.

    Solves x/tan(x) = Lambda on (0, pi) for Lambda < 1 and u/tanh(u) = Lambda
    on (0, Lambda) for Lambda > 1; Lambda = 1 gives x = 0.  On the
    evanescent branch Lambda - u is written Lambda * 2 exp(-2u) / (1 +
    exp(-2u)), so that it keeps its digits where tanh(u) rounds to 1.
    """
    v_over_l = params.level_spacing
    lam = params.lambda_scale * abs(math.sin(0.5 * eps))
    if lam == 1.0:
        return v_over_l
    if lam < 1.0:
        x = bisect_root(lambda t: t / math.tan(t) - lam, 1e-300, math.pi - 1e-15)
        return v_over_l * math.hypot(lam, x)
    u = bisect_root(lambda t: t / math.tanh(t) - lam, 1e-300, lam)
    q = math.exp(-2.0 * u)
    return v_over_l * math.sqrt(lam * 2.0 * q / (1.0 + q) * (lam + u))


def bisect_phi_J(params, phi: float, photon_amp: float = 0.0) -> float:
    """Large-junction phase drop by plain bisection of the current constraint."""
    shift = 0.5 * params.phi_e + params.g * photon_amp
    cphi = math.cos(phi)
    return bisect_root(
        lambda x: math.sin(x) - 2.0 * params.eta * math.sin(shift - 0.5 * x) * cphi,
        -0.5 * math.pi, 0.5 * math.pi)


def charge_basis_oracle(params, n_max: int = 10) -> float:
    """Gap of the truncated charge-basis island Hamiltonian.

    Diagonalizes E_c*(n - n_g)^2 - E_J_bar*cos(phi) with cos(phi) represented
    as symmetric nearest-neighbour hopping of amplitude 1/2 over charge states
    n in [-n_max, n_max].  In the charging regime the gap between the two
    lowest levels approaches the effective two-level splitting E_J_bar.
    Raises ConvergenceError if the gap has not converged to 1e-6 relative
    between truncations n_max and n_max + 2.
    """
    if params.n_g != 0.5:
        raise ValueError("the charge-basis oracle assumes the degeneracy point n_g = 1/2")
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    e_j_bar = effective_qubit(params).E_J_bar

    def gap(m: int) -> float:
        n = np.arange(-m, m + 1, dtype=float)
        hopping = np.eye(2 * m + 1, k=1) + np.eye(2 * m + 1, k=-1)
        levels = np.linalg.eigvalsh(np.diag(params.E_c * (n - params.n_g) ** 2)
                                    - 0.5 * e_j_bar * hopping)
        return float(levels[1] - levels[0])

    g1, g2 = gap(n_max), gap(n_max + 2)
    if abs(g1 - g2) > 1e-6 * max(abs(g2), 1e-12 * params.E_c):
        raise ConvergenceError(
            f"charge-basis gap not converged: {g1!r} vs {g2!r} at n_max={n_max}"
        )
    return g1


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaled Taylor summation to machine precision."""
    m = np.asarray(m, dtype=complex)
    norm = float(np.max(np.abs(m))) * m.shape[0]
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-300)))) + 1)
    a = m / (2.0**squarings)
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        result = result + term
        if np.max(np.abs(term)) < 1e-20:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def rk4_columns(h_of_t, y0: np.ndarray, t_final: float, steps: int) -> np.ndarray:
    """Fixed-step RK4 for i dY/dt = H(t) Y, integrating the columns of y0."""
    y = np.array(y0, dtype=complex)
    dt = t_final / steps
    t = 0.0
    for _ in range(steps):
        k1 = -1j * (h_of_t(t) @ y)
        k2 = -1j * (h_of_t(t + 0.5 * dt) @ (y + 0.5 * dt * k1))
        k3 = -1j * (h_of_t(t + 0.5 * dt) @ (y + 0.5 * dt * k2))
        k4 = -1j * (h_of_t(t + dt) @ (y + dt * k3))
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return y


def rk4_columns_step_doubled(
    h_of_t, y0: np.ndarray, t_final: float, steps: int, tol: float = 1e-8
) -> np.ndarray:
    """RK4 with step-doubling validation: halves the step until stable."""
    coarse = rk4_columns(h_of_t, y0, t_final, steps)
    for _ in range(6):
        steps *= 2
        fine = rk4_columns(h_of_t, y0, t_final, steps)
        if float(np.max(np.abs(fine - coarse))) < tol:
            return fine
        coarse = fine
    raise AssertionError("step-doubled RK4 did not stabilize")


def x_over_tan(x: float) -> float:
    return x / math.tan(x)


def u_over_tanh(u: float) -> float:
    return u / math.tanh(u)


def implicit_splitting_derivative(params, phi: float) -> float:
    """dE/dphi from implicit differentiation of the quantization condition.

    Oscillatory branch (Lambda <= 1, x/tan x = Lambda):
        dG/dLambda = x (sin x - x cos x) / (sin^3 x * Lambda'(x) * G)
    Evanescent branch (u/tanh u = Lambda): same with hyperbolic functions and
    G = sqrt(Lambda^2 - u^2).
    """
    kappa = params.lambda_scale
    lam = kappa * abs(math.sin(0.5 * phi))
    if lam == 0.0:
        return 0.0
    sign = 1.0 if math.sin(0.5 * phi) >= 0 else -1.0
    dlam_dphi = 0.5 * kappa * math.cos(0.5 * phi) * sign
    if abs(lam - 1.0) < 1e-12:
        # At the branch point itself: x -> 0 with x^2 ~ 3(1 - Lambda), so
        # G = sqrt(Lambda^2 + x^2) has slope exactly -1/2 there.
        return params.level_spacing * (-0.5) * dlam_dphi
    if lam <= 1.0:
        x = bisect_root(lambda t: x_over_tan(t) - lam, 1e-12, math.pi - 1e-9)
        g = math.hypot(lam, x)
        dlam_dx = (math.sin(x) * math.cos(x) - x) / math.sin(x) ** 2
        dg_dlam = (
            x
            * (math.sin(x) - x * math.cos(x))
            / (math.sin(x) ** 3 * dlam_dx * g)
        )
    else:
        u = bisect_root(lambda t: u_over_tanh(t) - lam, 1e-12, lam)
        g = math.sqrt((lam - u) * (lam + u))
        dlam_du = (math.sinh(u) * math.cosh(u) - u) / math.sinh(u) ** 2
        dg_dlam = (
            u
            * (math.sinh(u) - u * math.cosh(u))
            / (math.sinh(u) ** 3 * dlam_du * g)
        )
    return params.level_spacing * dg_dlam * dlam_dphi


def mp_splitting_derivative(params, phi: float) -> float:
    """dE/dphi on the evanescent branch, in mpmath at 30 + int(kappa) digits.

    Solves u/tanh u = Lambda, then differentiates G = sqrt(Lambda^2 - u^2)
    implicitly: dG/dLambda = (Lambda - u du/dLambda) / G.  On a long wire
    (kappa = Delta0*L/v_F) Lambda - u is about 2 Lambda exp(-2 Lambda), which
    rounds to 0 in double precision past Lambda of about 19; the working
    precision therefore grows with kappa.  The result is rounded to a double
    only at the end, so it may underflow to a subnormal or to 0.
    """
    mpmath = pytest.importorskip("mpmath")
    kappa = params.lambda_scale
    with mpmath.workdps(30 + int(kappa)):
        half = mpmath.mpf(phi) / 2
        lam = kappa * abs(mpmath.sin(half))
        if lam == 0:
            return 0.0
        assert lam > 1, "the oscillatory branch is implicit_splitting_derivative's"
        u = mpmath.findroot(lambda t: t / mpmath.tanh(t) - lam, lam)
        dlam_du = (mpmath.sinh(u) * mpmath.cosh(u) - u) / mpmath.sinh(u) ** 2
        dg_dlam = (lam - u / dlam_du) / mpmath.sqrt(lam**2 - u**2)
        dlam_dphi = kappa * mpmath.cos(half) * mpmath.sign(mpmath.sin(half)) / 2
        return float(params.level_spacing * dg_dlam * dlam_dphi)


def liouvillian_gate_states(schedule, kappa: float, gamma: float, t_grid,
                            fock_cutoff: int = 16) -> np.ndarray:
    """Reduced gate states from the Fock-truncated Liouvillian, shape (len(t), 4, 4).

    Propagates at cutoffs N and N + 4 (``oracle.qubit_states``) and
    raises IntegrationError if any entry of a reduced state moves by more
    than 1e-10 between them; returns the states at cutoff N.
    """
    states, check = (oracle.qubit_states(schedule, kappa, gamma, t_grid, n)
                     for n in (fock_cutoff, fock_cutoff + 4))
    delta = float(np.max(np.abs(states - check)))
    if delta > 1e-10:
        raise IntegrationError(f"Fock-cutoff ladder: reduced states move by {delta:.3e} "
                               f"between N={fock_cutoff} and N={fock_cutoff + 4}")
    return states


def jump_integral(lam: float, z: complex, gamma: float, t) -> np.ndarray:
    """J of ``dynamics._jump_terms`` by brute-force quadrature, shape ``(len(t),)``.

    40-node Gauss-Legendre on equal panels of the jump time t1, at most
    pi / max(nu, 2 kappa) wide for z = kappa + i nu, over the integrand that
    ``dynamics._branch`` composes: the source branch |10><11| from 0 to t1,
    then the target branch |00><01| from t1 to t, with its weight 1/4, its
    qubit decay and the jump rate 2 gamma.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(40)
    result = np.zeros(len(t), dtype=complex)
    for i, end in enumerate(t):
        panels = max(1, math.ceil(end * max(z.imag, 2.0 * z.real) / math.pi))
        width = end / panels
        t1 = width * (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0))
        alpha, beta, log_c = _dyn._branch(lam, z, 0.0, -1.0, 0.0, 0.0, t1)
        alpha, beta, d_log = _dyn._branch(lam, z, 1.0, 0.0, alpha, beta, end - t1)
        integrand = np.exp(log_c + d_log + np.conj(beta) * alpha - gamma * (2.0 * t1 + end))
        result[i] = 0.25 * gamma * width * np.sum(integrand * weights)
    return result


def entanglement_entropy(psi, dims, cut) -> float:
    """Von Neumann entropy (bits) of a pure state vector's reduced state over ``cut``."""
    psi = np.asarray(psi)
    if psi.ndim != 1:
        raise ValueError("entanglement entropy requires a pure state vector")
    eigs = np.linalg.eigvalsh(partial_trace(np.outer(psi, psi.conj()), dims, cut))
    eigs = eigs[eigs > 1e-15]
    return float(-np.sum(eigs * np.log2(eigs)))


def single_interface_hamiltonian(lambda1: float) -> np.ndarray:
    """The qubit-qubit interface Hamiltonian -(lambda1/2) sigma_x (x) tau_z.

    Written out on superconducting (x) topological qubit space, basis
    |00>, |01>, |10>, |11>, with no Kronecker product.
    """
    return -0.5 * lambda1 * np.array([[0, 0, 1, 0],
                                      [0, 0, 0, -1],
                                      [1, 0, 0, 0],
                                      [0, -1, 0, 0]], dtype=complex)


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def reference_line(row) -> str:
    """The CSV rule: a float (numpy.float64 included) as %.12g, anything else as str()."""
    return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)


def reference_text(header, rows) -> str:
    return "\n".join([",".join(header)] + [reference_line(row) for row in rows]) + "\n"
