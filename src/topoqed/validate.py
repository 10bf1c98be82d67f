"""Fast self-check suite: one pass/fail entry per invariant group.

Each group re-derives a handful of the package's load-bearing identities in
seconds.  A group is a function ``_check_<name>(ref)`` of the reference
configuration, parsed once per run, and ``<name>`` is its key in the report.
``closed_gate`` and ``coherent_state_branches`` check the fidelity curve
that ``gate`` and ``fig2`` run.  The Fock-space oracles of the gate come from
:mod:`topoqed.oracle`, which no command module imports.  ``MUTATIONS`` is
the table of seeded defects: each row names the group it corrupts, a
``dynamics`` attribute and a corruption of that attribute's result, which
``run_validation`` installs only while that group runs; the group must then
fail.  Every group's inputs are fixed, so two runs check the same numbers.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import dynamics as _dyn
from .circuit import effective_qubit, phi_J_exact, phi_J_series
from .config import load_config
from .dynamics import GateSchedule, fidelity_curve, propagator_AB
from .interface import build_H_I, couplings
from .oracle import (HamiltonianModel, analytic_U, basis_state, build_H_CT, destroy,
                     evolve_master_equation, expm_hermitian, gate_start, number_op,
                     qubit_states, rotating_frame_hamiltonian)
from .qcore import partial_trace
from .wire import inverse_x_over_tan, wire_splitting

__all__ = ["MUTATIONS", "run_validation"]

# name -> (group, dynamics attribute, corruption of the attribute's result)
MUTATIONS = {
    "gate-phase-sign": ("propagator_oracle", "propagator_AB", lambda a, b: (-a, b)),
    "branch-phase-sign": ("coherent_state_branches", "_branch",
                          lambda alpha, beta, d_log: (alpha, beta, np.conj(d_log))),
    "jump-conjugate": ("coherent_state_branches", "_jump_terms",
                       lambda jump, last_order: (np.conj(jump), last_order)),
}


def _check_schedule_algebra(ref) -> tuple[bool, str]:
    worst_a, worst_b = 0.0, 0.0
    for k in (1, 4, 9):
        sch = GateSchedule(k=k, lambda2=ref.lambda2_pinned)
        a, b = propagator_AB(sch.lambda2, sch.nu, sch.tau)
        worst_a = max(worst_a, abs(a + math.pi / 2))
        worst_b = max(worst_b, abs(b))
        if abs(sch.nu * sch.tau - 2 * math.pi * k) > 1e-12 * k:
            return False, f"loop closure violated at k={k}"
    ok = worst_a <= 1e-12 and worst_b <= 1e-14
    return ok, f"max |A(tau)+pi/2| = {worst_a:.2e}, max |B(tau)| = {worst_b:.2e}"


def _check_propagator_periodicity(ref) -> tuple[bool, str]:
    lam2 = ref.lambda2_pinned
    nu = 2 * lam2
    worst_zero = max(
        abs(propagator_AB(lam2, nu, 2 * math.pi * m / nu)[1]) for m in range(1, 11)
    )
    bound = 2 * lam2 / nu
    offenders = [
        abs(propagator_AB(lam2, nu, t)[1]) - bound
        for t in np.linspace(0.0, 20.0 / nu, 400)
    ]
    at_half = abs(propagator_AB(lam2, nu, math.pi / nu)[1])
    ok = (
        worst_zero <= 1e-14
        and max(offenders) <= 1e-10 * bound
        and abs(at_half - bound) <= 1e-10 * bound
    )
    return ok, f"max |B| at periods = {worst_zero:.2e}, bound slack = {max(offenders):.2e}"


def _check_transcendental_inversion(ref) -> tuple[bool, str]:
    # Branch 0 covers y = x/tan(x) < 1, the other branches all of y.
    grids = [np.linspace(-30.0, 0.999 if n == 0 else 30.0, 134) for n in range(3)]
    worst = 0.0
    for n, y in enumerate(grids):
        x = inverse_x_over_tan(y, n)
        worst = max(worst, float(np.max(np.abs(x / np.tan(x) - y))))
    points = sum(map(len, grids))
    return worst <= 1e-10, f"max round-trip residual = {worst:.2e} over {points} points"


def _check_splitting_continuity(ref) -> tuple[bool, str]:
    # The symmetric difference across the branch point shrinks linearly with
    # the probe width (the splitting has finite slope there); the actual
    # discontinuity is its linearly extrapolated delta -> 0 limit.
    kappa, scale = ref.wire.lambda_scale, ref.wire.level_spacing

    # Lambda = 1 -/+ 1e-4 and 1 -/+ 1e-6 across the branch point, and phase 0.
    eps = [2.0 * math.asin((1.0 + d) / kappa) for d in (-1e-4, 1e-4, -1e-6, 1e-6)]
    lo4, hi4, lo6, hi6, e0 = wire_splitting(ref.wire, np.array(eps + [0.0])).E.tolist()
    j4, j6 = abs(lo4 - hi4), abs(lo6 - hi6)
    discontinuity = abs(100.0 * j6 - j4) / 99.0 / scale
    trend_ok = j6 <= 0.02 * j4
    exact0 = abs(e0 - 0.5 * math.pi * scale) <= 1e-12 * scale
    ok = discontinuity <= 1e-6 and trend_ok and exact0
    return ok, f"extrapolated branch-point jump = {discontinuity:.2e} x (v_F/L)"


def _check_circuit_series_vs_exact(ref) -> tuple[bool, str]:
    circ = ref.circuit
    eta = circ.eta
    # The 12 x 12 x 3 grid of (phi_e, phi, photon amplitude) in one call.
    grid = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    phi_e, phi, p = grid[:, None, None], grid[None, :, None], np.array([-1.0, 0.0, 1.0])
    diff = np.abs(phi_J_series(circ, phi, p, phi_e) - phi_J_exact(circ, phi, p, phi_e))
    worst = float(np.max(diff))
    return worst <= 5 * eta**3, f"max |series - exact| = {worst:.2e} (bound {5 * eta**3:.2e})"


def _check_switching_exactness(ref) -> tuple[bool, str]:
    wire, circ = ref.wire, ref.circuit
    lam1_off = couplings(wire, circ.with_phases(phi_e=0.0)).lambda1
    lam2_off = couplings(wire, circ.with_phases(phi_e=math.pi)).lambda2
    eff = effective_qubit(circ.with_phases(phi_e=math.pi))
    ok = lam1_off == 0.0 and lam2_off == 0.0 and eff.E_J_bar == 0.0
    return ok, f"lambda1(phi_e=0) = {lam1_off!r}, lambda2(phi_e=pi) = {lam2_off!r}"


def _check_hermitian_builders(ref) -> tuple[bool, str]:
    model = HamiltonianModel(fock_cutoff=8)
    h_ct = build_H_CT(1.0, 0.1, 0.3, 5.0, model)
    h_i = build_H_I(0.3, 1.0, model, 0.37)
    dev = max(
        float(np.max(np.abs(h_ct - h_ct.conj().T))),
        float(np.max(np.abs(h_i - h_i.conj().T))),
    )
    h0 = build_H_CT(1.0, 0.1, 0.0, 5.0, model)
    n_op = model.n_photon
    comm = float(np.max(np.abs(h0 @ n_op - n_op @ h0)))
    scale = float(np.max(np.abs(h0)))
    ok = dev <= 1e-12 * max(1.0, scale) and comm <= 1e-12 * max(1.0, scale)
    return ok, f"hermiticity dev = {dev:.2e}, [H(lambda2=0), n] = {comm:.2e}"


def _check_propagator_oracle(ref) -> tuple[bool, str]:
    """The closed gate's state against U rho0 U+ = U|psi0><psi0|U+ of the closed form.

    From |++> and vacuum, the pure state is propagated exactly in the frame
    that rotates with the cavity, psi(t) = exp(-i H' t) psi0, and mapped
    back with exp(+i nu t a+a).  This oracle and ``analytic_U`` share only
    ``expm_hermitian``, and apply it to different generators:
    H' = nu a+a - lambda2 (a + a+) J_z here, (B a + B* a+) J_z there.  A
    closed system needs no Liouvillian; ``coherent_state_branches`` and
    ``master_equation_limits`` keep ``evolve_master_equation`` as the oracle
    where there is dissipation.
    """
    sch = GateSchedule(k=ref.k, lambda2=ref.lambda2_pinned)
    model = HamiltonianModel(fock_cutoff=16)
    start = gate_start(model.fock_cutoff)
    h_rotating = rotating_frame_hamiltonian(sch, model)
    photons = np.real(np.diag(model.n_photon))
    worst = 0.0
    for t in (0.31 * sch.tau, 0.77 * sch.tau):
        psi = np.exp(1j * sch.nu * t * photons) * (expm_hermitian(h_rotating, t) @ start)
        expected = analytic_U(sch.lambda2, sch.nu, t, model) @ start
        dev = np.outer(expected, expected.conj()) - np.outer(psi, psi.conj())
        worst = max(worst, float(np.max(np.abs(dev))))
    return worst <= 1e-6, f"max |U rho0 U+ - rho| = {worst:.2e} (rotating frame)"


def _check_closed_gate(ref) -> tuple[bool, str]:
    # The curve that gate and fig2 run, without dissipation, reaches the
    # entangled target exactly at the gate time of each loop count.
    worst = 0.0
    for k in (1, 4, 9):
        sch = GateSchedule(k=k, lambda2=ref.lambda2_pinned)
        fid = fidelity_curve(sch, 0.0, 0.0, [0.0, sch.tau])[0][-1]
        worst = max(worst, abs(1.0 - fid))
    return worst <= 1e-12, f"max |1 - F(tau)| over k = 1, 4, 9 = {worst:.2e} (closed)"


def _check_coherent_state_branches(ref) -> tuple[bool, str]:
    # The closed form of the fidelity curve against two independent routes:
    # the Fock-truncated Liouvillian with both decay channels, and the
    # closed-form propagator U on the truncated space without them.
    sch = GateSchedule(k=ref.k, lambda2=ref.lambda2_pinned)
    t_grid = [0.0, 0.5 * sch.tau, 0.55 * sch.tau]
    branches = _dyn._branch_states(sch, ref.kappa, ref.gamma, t_grid)[0]
    closed = _dyn._branch_states(sch, 0.0, 0.0, t_grid)[0][-1]
    liouvillian = qubit_states(sch, ref.kappa, ref.gamma, t_grid, 12)
    dev_open = float(np.max(np.abs(branches - liouvillian)))

    model = HamiltonianModel(fock_cutoff=16)
    psi = analytic_U(sch.lambda2, sch.nu, t_grid[-1], model) @ gate_start(16)
    unitary = partial_trace(np.outer(psi, psi.conj()), model.dims, (0, 1))
    dev_closed = float(np.max(np.abs(closed - unitary)))
    ok = dev_open <= 1e-8 and dev_closed <= 1e-10
    return ok, (f"max |rho - rho_Liouvillian(N=12)| = {dev_open:.2e}, "
                f"max |rho - Tr U rho0 U+| = {dev_closed:.2e} (closed)")


def _check_master_equation_limits(ref) -> tuple[bool, str]:
    # Photon decay: <n>(t) = exp(-2*kappa*t) from a one-photon state.
    n = 6
    kappa = 0.7
    rho0 = np.diag(basis_state(n, 1))
    t_grid = np.linspace(0.0, 1.5, 7)
    states = evolve_master_equation(np.zeros((n, n), complex), ((destroy(n), kappa),),
                                    rho0, t_grid)
    worst = max(
        abs(float(np.real(np.trace(number_op(n) @ rho))) - math.exp(-2 * kappa * t))
        for t, rho in zip(t_grid, states)
    )
    # Zero-rate limit: unitary propagation of a qubit pair under a dense
    # Hermitian matrix with four distinct eigenvalues (about -2.58, -0.69,
    # -0.30 and 2.67), from a state with no zero amplitude.
    j, k = np.indices((4, 4))
    h = np.cos(j * k + j + k) + 1j * np.sin(j - k)
    vec = (1.0 + np.arange(4)) * np.exp(1j * np.arange(4))
    vec /= np.linalg.norm(vec)
    out = evolve_master_equation(h, (), np.outer(vec, vec.conj()), [0.0, 0.9])[-1]
    u = expm_hermitian(h, 0.9)
    rho_ref = u @ np.outer(vec, vec.conj()) @ u.conj().T
    dev_u = float(np.max(np.abs(out - rho_ref)))
    ok = worst <= 1e-6 and dev_u <= 1e-8
    return ok, f"decay-law dev = {worst:.2e}, unitary-limit dev = {dev_u:.2e}"


_GROUPS = (
    _check_schedule_algebra, _check_propagator_periodicity, _check_transcendental_inversion,
    _check_splitting_continuity, _check_circuit_series_vs_exact, _check_switching_exactness,
    _check_hermitian_builders, _check_propagator_oracle, _check_closed_gate,
    _check_coherent_state_branches, _check_master_equation_limits,
)


def _corrupted(function, corruption):
    return lambda *args: corruption(*function(*args))


def run_validation(mutations: tuple[str, ...] = ()) -> dict:
    """Run all invariant groups; returns {group: {passed, detail, seconds}}."""
    bad = set(mutations) - set(MUTATIONS)
    if bad:
        raise ValueError(f"unknown mutations {sorted(bad)}")
    ref = load_config(None)
    report = {}
    for check in _GROUPS:
        name = check.__name__.removeprefix("_check_")
        patches = [row[1:] for m, row in MUTATIONS.items() if m in mutations and row[0] == name]
        originals = {attribute: getattr(_dyn, attribute) for attribute, _ in patches}
        start = time.perf_counter()
        try:
            for attribute, corruption in patches:
                setattr(_dyn, attribute, _corrupted(getattr(_dyn, attribute), corruption))
            passed, detail = check(ref)
        except Exception as exc:  # a crashed group is a failed group
            passed, detail = False, f"exception: {exc!r}"
        finally:
            for attribute, original in originals.items():
                setattr(_dyn, attribute, original)
        report[name] = {
            "passed": bool(passed),
            "detail": detail,
            "seconds": round(time.perf_counter() - start, 4),
        }
    return report
