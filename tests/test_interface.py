import dataclasses
import math

import numpy as np
import pytest

from topoqed.interface import PHI_C_MIN, build_H_I, couplings, optimal_working_point
from topoqed.oracle import HamiltonianModel, basis_state, build_H_CT, tensor, eye
from topoqed.qcore import newton_bisect
from topoqed.wire import WireParams, splitting_derivative

from helpers import (
    SIGMA_X,
    SIGMA_Z,
    entanglement_entropy,
    expm_taylor,
    random_pure_state,
    single_interface_hamiltonian,
)


class TestCouplings:
    def test_qubit_coupling_switched_off_at_zero_flux(self, paper_wire, paper_circuit):
        cs = couplings(paper_wire, dataclasses.replace(paper_circuit, phi_e=0.0))
        assert cs.lambda1 == 0.0
        assert cs.lambda2 != 0.0

    def test_cavity_coupling_switched_off_at_half_flux(self, paper_wire, paper_circuit):
        cs = couplings(paper_wire, dataclasses.replace(paper_circuit, phi_e=math.pi))
        assert cs.lambda2 == 0.0
        assert cs.lambda1 != 0.0

    def test_coupling_ratio_follows_flux_angle(self, paper_wire, paper_circuit):
        rng = np.random.default_rng(23)
        for _ in range(6):
            phi_e = float(rng.uniform(0.2, math.pi - 0.2))
            circ = dataclasses.replace(paper_circuit, phi_e=phi_e)
            cs = couplings(paper_wire, circ)
            expected = math.sin(phi_e / 2) / (circ.g * math.cos(phi_e / 2))
            assert abs(cs.lambda1 / cs.lambda2 - expected) < 1e-9 * abs(expected)

    def test_working_phase_includes_flux_shift(self, paper_wire, paper_circuit):
        circ = dataclasses.replace(paper_circuit, phi_e=1.0)
        cs = couplings(paper_wire, circ)
        assert cs.effective is not None
        assert cs.working_phi == circ.phi_c + cs.effective.f1
        assert cs.working_phi != circ.phi_c

    def test_one_root_solve_per_call(self, paper_wire, paper_circuit, monkeypatch):
        # The derivative reuses the root of the splitting at the working phase.
        import topoqed.wire as wire

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return newton_bisect(*args, **kwargs)

        monkeypatch.setattr(wire, "newton_bisect", counting)
        for phi_c in (0.1, 1.5):  # one phase on each branch
            calls.clear()
            couplings(paper_wire, dataclasses.replace(paper_circuit, phi_c=phi_c))
            assert len(calls) == 1

    def test_omega_t_is_splitting_at_working_phase(self, paper_wire, paper_circuit):
        from topoqed.wire import wire_splitting

        cs = couplings(paper_wire, paper_circuit)
        assert cs.omega_t == wire_splitting(paper_wire, cs.working_phi).E


class TestOptimalWorkingPoint:
    def test_matches_finer_brute_force_grid(self, paper_wire, paper_circuit):
        circ = dataclasses.replace(paper_circuit, phi_e=0.0)
        fine = np.arange(PHI_C_MIN, math.pi - PHI_C_MIN + 5e-4, 1e-3)
        # Delta0*L/v_F of about 0.6 (x/tan x branch only), 10 (the reference
        # wire, mostly on the u/tanh u branch) and 100.
        for L in (0.3e-6, paper_wire.L, 50e-6):
            wire = dataclasses.replace(paper_wire, L=L)
            phi_c, _, value = optimal_working_point(wire, circ)
            assert phi_c == PHI_C_MIN
            fine_best = max(
                abs(couplings(wire, dataclasses.replace(circ, phi_c=float(p))).lambda2)
                for p in fine
            )
            assert abs(abs(value) - fine_best) <= 1e-6 * fine_best, L

    def test_switched_off_coupling_is_zero_everywhere(self, paper_wire, paper_circuit):
        circ = dataclasses.replace(paper_circuit, phi_e=0.0)
        for phi_c in (PHI_C_MIN, 0.1, 0.9, 2.2):
            cs = couplings(paper_wire, dataclasses.replace(circ, phi_c=phi_c))
            assert cs.lambda1 == 0.0

    def test_beats_random_samples(self, paper_wire, paper_circuit):
        circ = dataclasses.replace(paper_circuit, phi_e=0.0)
        _, _, best = optimal_working_point(paper_wire, circ)
        rng = np.random.default_rng(31)
        for _ in range(100):
            phi_c = float(rng.uniform(PHI_C_MIN, math.pi - PHI_C_MIN))
            sample = couplings(paper_wire, dataclasses.replace(circ, phi_c=phi_c)).lambda2
            assert abs(best) >= abs(sample) - 1e-12 * abs(best)

    @pytest.mark.parametrize("phi_e", [0.0, math.pi, 1.0])
    def test_both_optima_are_the_switch_point_couplings(self, paper_wire, paper_circuit,
                                                        phi_e):
        # One derivative gives both: lambda1 at phi_e = pi and lambda2 at
        # phi_e = 0, each at PHI_C_MIN, whatever the circuit's own flux.
        circ = dataclasses.replace(paper_circuit, phi_e=phi_e)
        phi_c, lam1_max, lam2_max = optimal_working_point(paper_wire, circ)
        at = dataclasses.replace(paper_circuit, phi_c=PHI_C_MIN)
        assert phi_c == PHI_C_MIN
        assert lam1_max == couplings(paper_wire, dataclasses.replace(at, phi_e=math.pi)).lambda1
        assert lam2_max == couplings(paper_wire, dataclasses.replace(at, phi_e=0.0)).lambda2

    def test_splitting_slope_falls_on_the_half_period(self):
        # The premise of the closed-form optimum: |dE/dphi| does not rise on
        # (0, pi] for any Delta0*L/v_F.  The slack covers rounding only: over
        # 60,000 random pairs of phases 1 to 1e6 ulps apart the slope rose
        # by at most 1.3e-13 relative.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        delta0, v_f = 2 * math.pi * 32e9, 1e5
        phases = st.floats(min_value=0.0, max_value=math.pi, exclude_min=True)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.floats(min_value=-3.0, max_value=3.0), phases, phases)
        def check(log_scale, phi_a, phi_b):
            hypothesis.assume(phi_a != phi_b)
            phi1, phi2 = min(phi_a, phi_b), max(phi_a, phi_b)
            wire = WireParams(v_F=v_f, L=10.0**log_scale * v_f / delta0, Delta0=delta0)
            d1 = abs(splitting_derivative(wire, phi1))
            d2 = abs(splitting_derivative(wire, phi2))
            assert d1 >= d2 - 1e-12 * d2 - 1e-300

        check()


class TestHamiltonianModel:
    def test_dims(self):
        model = HamiltonianModel(fock_cutoff=10)
        assert model.dims == (2, 2, 10)
        assert model.dim == 40


class TestBuildHCT:
    def test_hermitian(self):
        model = HamiltonianModel(fock_cutoff=8)
        h = build_H_CT(1.3, 0.2, 0.4, 5.0, model)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12 * np.max(np.abs(h))

    def test_photon_creation_matrix_element(self):
        model = HamiltonianModel(fock_cutoff=8)
        h = build_H_CT(1.3, 0.2, 0.4, 5.0, model)
        n = model.fock_cutoff
        ket_000 = np.kron(np.kron(basis_state(2, 0), basis_state(2, 0)), basis_state(n, 0))
        ket_001 = np.kron(np.kron(basis_state(2, 0), basis_state(2, 0)), basis_state(n, 1))
        element = complex(ket_001.conj() @ h @ ket_000)
        assert abs(element - (-2.0 * 0.4)) < 1e-14

    def test_commutes_with_photon_number_when_cavity_decoupled(self):
        model = HamiltonianModel(fock_cutoff=8)
        h = build_H_CT(1.3, 0.2, 0.0, 5.0, model)
        comm = h @ model.n_photon - model.n_photon @ h
        assert np.max(np.abs(comm)) <= 1e-12 * np.max(np.abs(h))


class TestBuildHI:
    def test_initial_time_form(self):
        model = HamiltonianModel(fock_cutoff=8)
        h0 = build_H_I(0.7, 2.0, model, 0.0)
        quad = model.a_op + model.a_op.conj().T
        expected = -0.7 * quad @ model.j_z
        assert np.max(np.abs(h0 - expected)) < 1e-14

    def test_neutral_subspace_decoupled(self):
        # J_z eigenvalues on the two qubits are {+1, 0, 0, -1}; the 0 sector
        # gives vanishing rows and columns at any time.
        model = HamiltonianModel(fock_cutoff=8)
        n = model.fock_cutoff
        h = build_H_I(0.7, 2.0, model, 0.93)
        neutral = list(range(n, 3 * n))  # |01> and |10> blocks
        assert np.max(np.abs(h[neutral, :])) == 0.0
        assert np.max(np.abs(h[:, neutral])) == 0.0

    def test_expectation_values_real(self):
        model = HamiltonianModel(fock_cutoff=8)
        rng = np.random.default_rng(12)
        for t in rng.uniform(0.0, 10.0, 5):
            h = build_H_I(0.7, 2.0, model, float(t))
            psi = random_pure_state(rng, model.dim)
            assert abs(np.imag(psi.conj() @ h @ psi)) < 1e-12

    def test_requires_positive_detuning(self):
        model = HamiltonianModel(fock_cutoff=8)
        with pytest.raises(ValueError):
            build_H_I(1.0, 0.0, model, 0.0)


class TestBuildHSingleInterface:
    """The qubit-qubit interface Hamiltonian -(lambda1/2) sigma_x tau_z, written
    out in helpers.single_interface_hamiltonian, against the Pauli matrices."""

    def test_matches_pauli_product(self):
        expected = -0.4 * tensor([SIGMA_X, SIGMA_Z])
        assert np.array_equal(single_interface_hamiltonian(0.8), expected)

    def test_spectrum_two_doublets(self):
        h = single_interface_hamiltonian(0.8)
        eigs = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(eigs, [-0.4, -0.4, 0.4, 0.4], atol=1e-14)

    def test_commutes_with_both_qubit_axes(self):
        h = single_interface_hamiltonian(0.8)
        sx = tensor([SIGMA_X, eye(2)])
        tz = tensor([eye(2), SIGMA_Z])
        assert np.max(np.abs(h @ sx - sx @ h)) <= 1e-14
        assert np.max(np.abs(h @ tz - tz @ h)) <= 1e-14

    def test_quarter_turn_is_entangling(self):
        # exp(-i H t1) with lambda1*t1 = -pi/2 on |0>_s |+>_t creates a
        # maximally entangled state (1 bit across the cut); direct 4x4
        # computation through the series oracle.
        lam1 = 0.8
        t1 = -0.5 * math.pi / lam1
        u = expm_taylor(-1j * single_interface_hamiltonian(lam1) * t1)
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        psi0 = np.kron(basis_state(2, 0), plus)
        psi1 = u @ psi0
        assert abs(entanglement_entropy(psi1 / np.linalg.norm(psi1), (2, 2), (0,)) - 1.0) < 1e-10
