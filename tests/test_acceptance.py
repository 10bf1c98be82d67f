"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line with the measured numbers when it
succeeds (run pytest with ``-s`` or ``-rA`` to see them).  Criteria with a
runtime budget assert it on wall-clock time.
"""

import dataclasses
import json
import math
import time

import numpy as np

from topoqed.circuit import effective_qubit, phi_J_exact, phi_J_series, tunneling_leakage
from topoqed.cli import cmd_fig2
from topoqed.config import load_config
from topoqed.dynamics import GateSchedule, fidelity_curve, propagator_AB, target_entangled_state
from topoqed.interface import build_H_I, couplings, optimal_working_point
from topoqed.oracle import (
    TAU_MINUS,
    HamiltonianModel,
    analytic_U,
    basis_state,
    destroy,
    eye,
    gate_start,
    number_op,
    tensor,
)
from topoqed.qcore import integrate_master_equation, partial_trace, state_fidelity
from topoqed.wire import inverse_x_over_tan, thermal_leakage, wire_splitting

from helpers import charge_basis_oracle, rk4_columns, x_over_tan

LAMBDA2 = 2 * math.pi * 32e6  # headline coupling
KAPPA = GAMMA = 1e6  # headline rates, plain convention


def _vacuum_columns(model: HamiltonianModel) -> np.ndarray:
    return np.arange(4) * model.fock_cutoff


def _headline_problem(model: HamiltonianModel, lambda2: float, nu: float, kappa: float,
                      gamma: float) -> tuple:
    """The gate's time-dependent Hamiltonian and its channels, for the RK45 oracle."""
    n = model.fock_cutoff
    a_jz = model.a_op @ model.j_z

    def hamiltonian(t: float) -> np.ndarray:
        phase = np.exp(-1j * nu * t)
        return -lambda2 * (phase * a_jz + np.conj(phase) * a_jz.conj().T)

    channels = []
    if kappa > 0:
        channels.append((model.a_op, kappa))
    if gamma > 0:
        channels.append((tensor([TAU_MINUS, eye(2), eye(n)]), gamma))
        channels.append((tensor([eye(2), TAU_MINUS, eye(n)]), gamma))
    return hamiltonian, tuple(channels)


def _initial_gate_state(model: HamiltonianModel) -> np.ndarray:
    """The density matrix of |++> with the cavity in vacuum."""
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[_vacuum_columns(model)] = 0.5
    return np.outer(psi0, psi0.conj())


def test_criterion_1_headline_fidelity(tmp_path):
    """fig2 preset: F at the gate time in [0.90, 0.98], k=1, the last order
    of the jump-time series below 1e-10, within 60 s."""
    start = time.perf_counter()
    config = dataclasses.replace(load_config(None), out_dir=str(tmp_path / "fig2"))
    assert cmd_fig2(config) == 0
    elapsed = time.perf_counter() - start

    summary = json.loads((tmp_path / "fig2" / "fig2_summary.json").read_text())
    lines = (tmp_path / "fig2" / "fig2.csv").read_text().strip().splitlines()
    gate_rows = [l for l in lines[1:] if float(l.split(",")[1]) == 1.0]
    assert gate_rows, "no CSV row at lambda2*t/pi = 1"
    f_gate = float(gate_rows[0].split(",")[2])
    assert summary["schedule"]["k"] == 1
    assert summary["convergence_delta"] <= 1e-10
    assert 0.90 <= f_gate <= 0.98
    assert abs(f_gate - summary["F_at_tau"]) < 1e-12
    assert elapsed <= 60.0
    print(f"\nACCEPTANCE 1 PASS - headline fidelity F(tau) = {f_gate:.4f} "
          f"in [0.90, 0.98] ({elapsed:.1f} s)")


def test_criterion_2_closed_system_gate_exactness():
    """kappa = gamma = 0: target fidelity and cavity-vacuum return both
    >= 1 - 1e-6, within 5 s."""
    start = time.perf_counter()
    sch = GateSchedule(k=1, lambda2=LAMBDA2)
    model = HamiltonianModel(fock_cutoff=16)

    # Analytic propagator route.
    psi = analytic_U(sch.lambda2, sch.nu, sch.tau, model) @ gate_start(model.fock_cutoff)
    vac_analytic = float(np.sum(np.abs(psi[_vacuum_columns(model)]) ** 2))
    fid_analytic = state_fidelity(partial_trace(np.outer(psi, psi.conj()), model.dims, (0, 1)),
                                  target_entangled_state())

    # Master-equation route with zero rates.
    problem = _headline_problem(model, LAMBDA2, sch.nu, 0.0, 0.0)
    rho = integrate_master_equation(*problem, _initial_gate_state(model), [0.0, sch.tau])[-1]
    fid_evolved = state_fidelity(partial_trace(rho, model.dims, (0, 1)), target_entangled_state())
    vac_evolved = float(np.real(partial_trace(rho, model.dims, (2,))[0, 0]))
    elapsed = time.perf_counter() - start

    assert fid_analytic >= 1.0 - 1e-6 and fid_evolved >= 1.0 - 1e-6
    assert vac_analytic >= 1.0 - 1e-6 and vac_evolved >= 1.0 - 1e-6
    assert elapsed <= 5.0
    print(f"\nACCEPTANCE 2 PASS - closed-system gate: fidelity {fid_evolved:.9f}, "
          f"vacuum return {vac_evolved:.9f} ({elapsed:.1f} s)")


def test_criterion_3_propagator_identity():
    """Analytic propagator vs direct numerical integration at 20 random
    times, N = 16, max-norm <= 1e-6 on the states the gate acts on (the
    cavity-vacuum sector), within 120 s."""
    start = time.perf_counter()
    sch = GateSchedule(k=1, lambda2=LAMBDA2)
    model = HamiltonianModel(fock_cutoff=16)
    rng = np.random.default_rng(2024)
    times = np.sort(rng.uniform(0.0, 2.0 * sch.tau, 20))

    cols0 = np.zeros((model.dim, 4), dtype=complex)
    for j, c in enumerate(_vacuum_columns(model)):
        cols0[c, j] = 1.0
    h_of_t = lambda t: build_H_I(LAMBDA2, sch.nu, model, t)
    norm_h = 2.0 * LAMBDA2 * 2.0 * math.sqrt(model.fock_cutoff)

    def checkpoints(dt_target: float) -> list[np.ndarray]:
        outs = []
        y = cols0
        t_prev = 0.0
        for t in times:
            span = t - t_prev
            steps = max(1, int(math.ceil(span / dt_target)))
            seg_h = lambda s, t0=t_prev: h_of_t(t0 + s)
            y = rk4_columns(seg_h, y, span, steps)
            outs.append(y)
            t_prev = t
        return outs

    dt = 0.02 / norm_h
    coarse = checkpoints(dt)
    fine = checkpoints(0.5 * dt)
    self_consistency = max(
        float(np.max(np.abs(a - b))) for a, b in zip(coarse, fine)
    )
    assert self_consistency <= 1e-8, "oracle integration not step-converged"

    worst = 0.0
    for t, reference in zip(times, fine):
        u = analytic_U(LAMBDA2, sch.nu, float(t), model)
        worst = max(worst, float(np.max(np.abs(u[:, _vacuum_columns(model)] - reference))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed <= 120.0
    print(f"\nACCEPTANCE 3 PASS - propagator identity: max deviation {worst:.2e} "
          f"over 20 random times (oracle self-consistency {self_consistency:.1e}, "
          f"{elapsed:.1f} s)")


def test_criterion_4_schedule_algebra():
    """A(tau) = -pi/2 within 1e-12 and B(tau) = 0 within 1e-14 for
    k in {1, 4, 9}."""
    worst_a = worst_b = 0.0
    for k in (1, 4, 9):
        sch = GateSchedule(k=k, lambda2=LAMBDA2)
        a, b = propagator_AB(sch.lambda2, sch.nu, sch.tau)
        worst_a = max(worst_a, abs(a + math.pi / 2))
        worst_b = max(worst_b, abs(b))
    assert worst_a <= 1e-12
    assert worst_b <= 1e-14
    print(f"\nACCEPTANCE 4 PASS - schedule algebra: |A(tau)+pi/2| <= {worst_a:.1e}, "
          f"|B(tau)| <= {worst_b:.1e} for k in {{1, 4, 9}}")


def test_criterion_5_transcendental_inversion(paper_wire):
    """Round trip of the branch inverses at 1e4 random points per the three
    lowest branches (residual <= 1e-10); splitting continuous at the branch
    point; exact zero-phase value; within 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(512)
    worst = 0.0
    for n in (0, 1, 2):
        ys = rng.uniform(-40.0, 0.999 if n == 0 else 40.0, 10_000)
        for x, y in zip(inverse_x_over_tan(ys, n).tolist(), ys.tolist()):
            worst = max(worst, abs(x_over_tan(x) - y))
    assert worst <= 1e-10

    kappa = paper_wire.lambda_scale
    scale = paper_wire.level_spacing

    def jump(delta):
        lo = 2.0 * math.asin((1.0 - delta) / kappa)
        hi = 2.0 * math.asin((1.0 + delta) / kappa)
        return abs(wire_splitting(paper_wire, lo).E - wire_splitting(paper_wire, hi).E)

    j4, j6 = jump(1e-4), jump(1e-6)
    # The symmetric difference over a finite window measures the (finite)
    # slope; the actual discontinuity is the extrapolated delta -> 0 limit.
    discontinuity = abs(100.0 * j6 - j4) / 99.0
    assert j6 <= 0.02 * j4
    assert discontinuity <= 1e-6 * scale

    e0 = wire_splitting(paper_wire, 0.0).E
    assert abs(e0 - 0.5 * math.pi * scale) <= 1e-12 * scale
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(f"\nACCEPTANCE 5 PASS - transcendental inversion: residual {worst:.1e} "
          f"over 3x10^4 samples, branch-point jump {discontinuity / scale:.1e} x (v_F/L), "
          f"E(0) exact ({elapsed:.1f} s)")


def test_criterion_6_circuit_series_vs_exact(paper_circuit):
    """|series - exact| <= 5 eta^3 on a 50x50 phase grid at eta = 0.1;
    charge-basis gap within 5% of the two-level splitting at E_c/E_J = 50;
    within 10 s."""
    start = time.perf_counter()
    eta = paper_circuit.eta
    assert abs(eta - 0.1) < 1e-12
    bound = 5.0 * eta**3
    worst = 0.0
    grid = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    for phi_e in grid:
        circ = dataclasses.replace(paper_circuit, phi_e=float(phi_e))
        for phi in grid:
            diff = abs(phi_J_series(circ, float(phi)) - phi_J_exact(circ, float(phi)))
            worst = max(worst, diff)
    assert worst <= bound

    worst_photon = 0.0
    small = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    for phi_e in small:
        circ = dataclasses.replace(paper_circuit, phi_e=float(phi_e))
        for phi in small:
            for p in (-1.0, 1.0):
                diff = abs(phi_J_series(circ, float(phi), p) - phi_J_exact(circ, float(phi), p))
                worst_photon = max(worst_photon, diff)
    assert worst_photon <= bound

    e_c = 50.0 * paper_circuit.E_J
    worst_gap = 0.0
    for phi_e in (0.0, 2.0 * math.pi / 3.0, 2.5):
        circ = dataclasses.replace(paper_circuit, phi_e=phi_e, E_c=e_c)
        gap = charge_basis_oracle(circ, n_max=8)
        expected = effective_qubit(circ).E_J_bar
        worst_gap = max(worst_gap, abs(gap - expected) / expected)
    assert worst_gap <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    print(f"\nACCEPTANCE 6 PASS - circuit reduction: max |series-exact| = {worst:.2e} "
          f"(bound {bound:.1e}), oracle gap within {worst_gap * 100:.2f}% ({elapsed:.1f} s)")


def test_criterion_7_switching_exactness(paper_wire, paper_circuit):
    """lambda1(phi_e=0) and lambda2(phi_e=pi) identically zero; the peak
    cavity coupling lies in [0.1, 1.0] x eta*g*Delta0."""
    cs_zero = couplings(paper_wire, dataclasses.replace(paper_circuit, phi_e=0.0))
    cs_half = couplings(paper_wire, dataclasses.replace(paper_circuit, phi_e=math.pi))
    assert cs_zero.lambda1 == 0.0
    assert cs_half.lambda2 == 0.0

    _, _, lam2_max = optimal_working_point(paper_wire, paper_circuit)
    reference = paper_circuit.eta * paper_circuit.g * paper_wire.Delta0
    ratio = abs(lam2_max) / reference
    assert 0.1 <= ratio <= 1.0
    print(f"\nACCEPTANCE 7 PASS - switching exact; max |lambda2| = 2*pi x "
          f"{abs(lam2_max) / (2 * math.pi * 1e6):.2f} MHz = {ratio:.3f} x eta*g*Delta0 "
          f"(reference 2*pi x 32 MHz)")


def test_criterion_8_leakage_diagnostics(paper_wire, paper_circuit):
    """P_t = 0.01 exactly at the quoted coupling ratio 0.1; thermal leakage
    below 1e-3 from first-principles constants."""
    lam1 = 0.1 * (2.0 * paper_circuit.E_J)
    p_t = tunneling_leakage(lam1, paper_circuit)
    assert p_t == (lam1 / (2.0 * paper_circuit.E_J)) ** 2
    assert abs(p_t - 0.01) < 1e-16
    p_e = thermal_leakage(paper_wire)
    assert p_e < 1e-3
    print(f"\nACCEPTANCE 8 PASS - leakage: P_t = {p_t:.4f} at ratio 0.1, "
          f"P_e = {p_e:.2e} < 1e-3")


def test_criterion_9_open_system_sanity():
    """Physicality bounds along the full headline trajectory and the two
    closed-form decay laws at 1e-6."""
    sch = GateSchedule(k=1, lambda2=LAMBDA2)
    model = HamiltonianModel(fock_cutoff=16)
    problem = _headline_problem(model, LAMBDA2, sch.nu, KAPPA, GAMMA)
    t_grid = np.arange(45) / 40.0 * math.pi / LAMBDA2
    states = integrate_master_equation(*problem, _initial_gate_state(model), t_grid)
    worst_trace = worst_eig = 0.0
    for rho in states:
        worst_trace = max(worst_trace, abs(complex(np.trace(rho)) - 1.0))
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho)[0]))
    assert worst_trace <= 1e-8
    assert worst_eig >= -1e-8

    # Closed-form decay laws on single-subsystem fixtures.
    n, kappa = 8, KAPPA
    a = destroy(n)
    ts = np.linspace(0.0, 1.5e-6, 7)
    photon = integrate_master_equation(lambda t: np.zeros((n, n), complex), ((a, kappa),),
                                       np.diag(basis_state(n, 1)), ts)
    worst_law = max(
        abs(float(np.real(np.trace(number_op(n) @ rho))) - math.exp(-2.0 * kappa * t))
        for t, rho in zip(ts, photon)
    )
    qubit = integrate_master_equation(lambda t: np.zeros((2, 2), complex), ((TAU_MINUS, GAMMA),),
                                      np.diag(basis_state(2, 1)), ts)
    worst_law = max(
        worst_law,
        max(
            abs(float(np.real(rho[1, 1])) - math.exp(-2.0 * GAMMA * t))
            for t, rho in zip(ts, qubit)
        ),
    )
    assert worst_law <= 1e-6
    print(f"\nACCEPTANCE 9 PASS - open-system sanity: trace dev {worst_trace:.1e}, "
          f"min eig {worst_eig:.1e}, decay laws within {worst_law:.1e}")


def test_criterion_10_decoherence_vs_k_trend():
    """Gate fidelity strictly decreasing across k = 1, 4, 9 at the headline
    dissipation rates."""
    results = {}
    for k in (1, 4, 9):
        sch = GateSchedule(k=k, lambda2=LAMBDA2)
        fids, _ = fidelity_curve(sch, KAPPA, GAMMA, [0.0, sch.tau])
        results[k] = float(fids[-1])
    assert results[1] > results[4] > results[9]
    print(f"\nACCEPTANCE 10 PASS - decoherence trend: F(tau) = "
          f"{results[1]:.4f} (k=1) > {results[4]:.4f} (k=4) > {results[9]:.4f} (k=9)")
