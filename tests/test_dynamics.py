import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from topoqed import dynamics as _dyn
from topoqed import oracle as _oracle
from topoqed import qcore as _qcore
from topoqed import validate as _validate
from topoqed.dynamics import (
    GateSchedule,
    fidelity_curve,
    plus_plus_state,
    propagator_AB,
    target_entangled_state,
)
from topoqed.interface import build_H_I
from topoqed.oracle import (
    TAU_MINUS,
    HamiltonianModel,
    analytic_U,
    basis_state,
    expm_hermitian,
    tensor,
    eye,
)
from topoqed.qcore import (
    IntegrationError,
    integrate_master_equation,
    partial_trace,
    state_fidelity,
)

from helpers import (
    SIGMA_X,
    SIGMA_Z,
    entanglement_entropy,
    jump_integral,
    liouvillian_gate_states,
    random_pure_state,
    rk4_columns_step_doubled,
    single_interface_hamiltonian,
)

LAMBDA2 = 2 * math.pi * 32e6


class TestGateSchedule:
    def test_loop_closure_exact(self):
        for k in (1, 4, 9):
            sch = GateSchedule(k=k, lambda2=LAMBDA2)
            assert abs(sch.nu * sch.tau - 2 * math.pi * k) <= 1e-12 * k

    def test_phase_reaches_quarter_turn(self):
        for k in (1, 4, 9):
            sch = GateSchedule(k=k, lambda2=LAMBDA2)
            a, b = propagator_AB(sch.lambda2, sch.nu, sch.tau)
            assert abs(a + math.pi / 2) <= 1e-12
            assert abs(b) <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            GateSchedule(k=0, lambda2=LAMBDA2)
        with pytest.raises(ValueError):
            GateSchedule(k=1, lambda2=-1.0)
        # NaN would give tau = nu = nan, infinity tau = 0; k = inf used to
        # escape as OverflowError from int().
        for k, lambda2 in ((1, math.nan), (1, math.inf), (math.inf, LAMBDA2), (math.nan, LAMBDA2)):
            with pytest.raises(ValueError):
                GateSchedule(k=k, lambda2=lambda2)


class TestPropagatorAB:
    def test_initial_values(self):
        a, b = propagator_AB(LAMBDA2, 2 * LAMBDA2, 0.0)
        assert a == 0.0 and b == 0.0

    def test_full_period(self):
        nu = 2.0 * LAMBDA2
        t = 2.0 * math.pi / nu
        a, b = propagator_AB(LAMBDA2, nu, t)
        assert abs(b) <= 1e-14
        assert abs(a - (-2.0 * math.pi * LAMBDA2**2 / nu**2)) <= 1e-12

    def test_displacement_bound_and_zeros(self):
        nu = 2.0 * LAMBDA2
        bound = 2.0 * LAMBDA2 / nu
        for m in range(1, 11):
            assert abs(propagator_AB(LAMBDA2, nu, 2 * math.pi * m / nu)[1]) <= 1e-14
        ts = np.linspace(0.0, 10 * 2 * math.pi / nu, 997)
        bs = [abs(propagator_AB(LAMBDA2, nu, float(t))[1]) for t in ts]
        assert max(bs) <= bound * (1 + 1e-10)
        t_half = math.pi / nu
        assert abs(abs(propagator_AB(LAMBDA2, nu, t_half)[1]) - bound) <= 1e-10 * bound

    def test_displacement_bound_over_random_schedules(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.floats(min_value=1e3, max_value=1e12),
                          st.integers(min_value=1, max_value=100),
                          st.floats(min_value=0.0, max_value=20.0))
        def check(lambda2, k, periods):
            sch = GateSchedule(k=k, lambda2=lambda2)
            _, b = propagator_AB(lambda2, sch.nu, periods * sch.tau)
            # |exp(-i nu t) - 1| <= 2; the factor allows its last-bit rounding.
            assert abs(b) <= 2.0 * lambda2 / sch.nu * (1 + 1e-15)

        check()

    def test_requires_positive_detuning(self):
        with pytest.raises(ValueError):
            propagator_AB(LAMBDA2, 0.0, 1.0)


class TestAnalyticU:
    def test_zero_coupling_gives_identity(self):
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        model = HamiltonianModel(fock_cutoff=8)
        u = analytic_U(0.0, sch.nu, 1e-8, model)
        assert np.max(np.abs(u - np.eye(model.dim))) < 1e-14

    def test_diagonal_phase_gate_at_closed_loops(self):
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        model = HamiltonianModel(fock_cutoff=12)
        n = model.fock_cutoff
        for m in (1, 2):
            t = 2.0 * math.pi * m / sch.nu
            a_phase, _ = propagator_AB(sch.lambda2, sch.nu, t)
            u = analytic_U(sch.lambda2, sch.nu, t, model)
            expected = np.kron(
                np.diag([np.exp(-1j * a_phase), 1.0, 1.0, np.exp(-1j * a_phase)]),
                eye(n),
            )
            assert np.max(np.abs(u - expected)) <= 1e-8

    def test_neutral_subspace_untouched(self):
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        model = HamiltonianModel(fock_cutoff=12)
        u = analytic_U(sch.lambda2, sch.nu, sch.tau, model)
        n = model.fock_cutoff
        block = slice(n, 3 * n)
        assert np.max(np.abs(u[block, block] - eye(2 * n))) <= 1e-8

    def test_matches_direct_integration_from_random_states(self):
        # Step-doubled RK on the interaction-picture equation, launched from
        # 12 random qubit states with the cavity in vacuum.
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        model = HamiltonianModel(fock_cutoff=16)
        n = model.fock_cutoff
        rng = np.random.default_rng(77)
        cols = np.zeros((model.dim, 12), dtype=complex)
        for j in range(12):
            qubit = random_pure_state(rng, 4)
            cols[:, j] = np.kron(qubit, basis_state(n, 0))
        t = 0.37 * sch.tau
        h_of_t = lambda time: build_H_I(sch.lambda2, sch.nu, model, time)
        steps = max(64, int(t * 4 * sch.lambda2 * math.sqrt(n) / 0.05))
        reference = rk4_columns_step_doubled(h_of_t, cols, t, steps, tol=1e-8)
        evolved = analytic_U(sch.lambda2, sch.nu, t, model) @ cols
        assert np.max(np.abs(evolved - reference)) <= 1e-6

    def test_truncation_shows_in_the_state_not_in_unitarity(self):
        # B = 20i: the exact <0|exp(-i (B a + B* a+))|0> is exp(-|B|^2/2),
        # about 1e-87.  At N = 8 U is unitary to rounding but its vacuum
        # amplitude is about 0.08; at N = 200 it matches.
        _, b = propagator_AB(10.0, 1.0, math.pi)
        exact = math.exp(-0.5 * abs(b) ** 2)
        u = analytic_U(10.0, 1.0, math.pi, HamiltonianModel(fock_cutoff=8))
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-14
        assert abs(abs(u[0, 0]) - exact) >= 1e-2  # |00>, J_z = 1, vacuum
        u = analytic_U(10.0, 1.0, math.pi, HamiltonianModel(fock_cutoff=200))
        assert abs(abs(u[0, 0]) - exact) <= 1e-12


class TestIdealGateState:
    @staticmethod
    def reduced_gate_state(sch):
        # U(tau)|++, 0> returns the cavity to vacuum; the qubit pair's state.
        model = HamiltonianModel(fock_cutoff=16)
        psi = analytic_U(sch.lambda2, sch.nu, sch.tau, model) @ _oracle.gate_start(16)
        assert np.sum(np.abs(psi[np.arange(4) * 16]) ** 2) >= 1.0 - 1e-8
        return partial_trace(np.outer(psi, psi.conj()), (2, 2, 16), (0, 1))

    def test_reaches_target_for_k1(self):
        reduced = self.reduced_gate_state(GateSchedule(k=1, lambda2=LAMBDA2))
        assert state_fidelity(reduced, target_entangled_state()) >= 1.0 - 1e-8

    def test_reaches_same_target_for_k4(self):
        sch1 = GateSchedule(k=1, lambda2=LAMBDA2)
        sch4 = GateSchedule(k=4, lambda2=LAMBDA2)
        assert abs(sch4.tau - 2.0 * sch1.tau) < 1e-20
        reduced = self.reduced_gate_state(sch4)
        assert state_fidelity(reduced, target_entangled_state()) >= 1.0 - 1e-8

    def test_polarized_state_only_acquires_phase(self):
        # |00> is a J_z^2 eigenstate: the gate returns it up to a phase.
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        model = HamiltonianModel(fock_cutoff=12)
        n = model.fock_cutoff
        psi0 = np.kron(np.array([1, 0, 0, 0], dtype=complex), basis_state(n, 0))
        psi1 = analytic_U(sch.lambda2, sch.nu, sch.tau, model) @ psi0
        overlap = abs(np.vdot(psi0, psi1))
        assert overlap >= 1.0 - 1e-8


class TestFidelityCurve:
    def test_initial_overlap_is_half(self):
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        fids, _ = fidelity_curve(sch, 1e6, 1e6, [0.0, 0.1 * sch.tau])
        assert abs(fids[0] - 0.5) < 1e-9

    def test_closed_system_gate_is_exact(self):
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        fids, _ = fidelity_curve(sch, 0.0, 0.0, [0.0, sch.tau])
        assert fids[-1] >= 1.0 - 1e-6

    def test_reference_parameters_land_in_headline_window(self):
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        fids, delta = fidelity_curve(sch, 1e6, 1e6, [0.0, sch.tau])
        assert isinstance(fids, np.ndarray) and fids.shape == (2,)
        assert 0.90 <= fids[-1] <= 0.98
        assert delta <= 1e-6

    @pytest.mark.parametrize("k", [1, 4])
    def test_rotating_frame_matches_interaction_picture_oracle(self, k):
        # The Liouvillian path (rotating frame, Taylor-series propagator)
        # against RK45 on the time-dependent interaction-picture Hamiltonian,
        # on a grid that is not uniform once tau is added (as in the CLI's
        # curves).
        sch = GateSchedule(k=k, lambda2=LAMBDA2)
        n, kappa, gamma = 16, 1e6, 1e6
        model = HamiltonianModel(fock_cutoff=n)
        t_grid = np.union1d(np.linspace(0.0, 1.1, 6) * math.pi / LAMBDA2, [sch.tau])
        channels = (
            (model.a_op, kappa),
            (tensor([TAU_MINUS, eye(2), eye(n)]), gamma),
            (tensor([eye(2), TAU_MINUS, eye(n)]), gamma),
        )
        psi0 = np.kron(plus_plus_state(), basis_state(n, 0))
        start = np.outer(psi0, psi0.conj())
        oracle = integrate_master_equation(
            lambda t: build_H_I(sch.lambda2, sch.nu, model, t), channels, start, t_grid)
        production = _oracle.qubit_states(sch, kappa, gamma, t_grid, n)
        assert len(production) == len(t_grid)
        worst = float(np.max(np.abs(partial_trace(oracle, model.dims, (0, 1)) - production)))
        assert worst <= 1e-8

    @pytest.mark.parametrize("bad", [1.5, np.nan])
    def test_unphysical_fidelity_is_refused(self, bad, monkeypatch):
        # A state stack whose |target> fidelity is 1.5 or NaN: the curve
        # raises rather than returning it.
        target = target_entangled_state()
        rho = np.full((4, 4), bad, dtype=complex) * np.outer(target, target.conj())

        def unphysical(schedule, kappa, gamma, t_grid):
            return np.stack([rho] * len(t_grid)), 0.0

        monkeypatch.setattr(_dyn, "_branch_states", unphysical)
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        with pytest.raises(IntegrationError, match=r"fidelities outside \[-1e-8, 1 \+ 1e-8\]$"):
            fidelity_curve(sch, 1e6, 1e6, [0.0, sch.tau])

    def test_one_positivity_check_per_curve(self, monkeypatch):
        # The 45 reduced states of the fig2 grid are checked as one stack.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        t_grid = np.arange(45) / 40.0 * math.pi / LAMBDA2
        fids, _ = fidelity_curve(sch, 1e6, 1e6, t_grid)
        assert len(fids) == 45
        assert calls == [(45, 4, 4)]

    def test_one_jump_quadrature_pass_per_curve(self, monkeypatch):
        # J and what its order 15 adds come from the same terms.
        calls = []
        jump_terms = _dyn._jump_terms

        def counted(*args):
            calls.append(1)
            return jump_terms(*args)

        monkeypatch.setattr(_dyn, "_jump_terms", counted)
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        fidelity_curve(sch, 1e6, 1e6, [0.0, 0.5 * sch.tau, sch.tau])
        assert len(calls) == 1


class TestJumpSeries:
    """The jump-time integral's series against brute-force quadrature."""

    @pytest.mark.parametrize("k, x_max, points", [(1, 1.1, 45), (9, 3.2, 641)])
    def test_matches_40_node_gauss_legendre(self, k, x_max, points):
        sch = GateSchedule(k=k, lambda2=LAMBDA2)
        t = np.linspace(0.0, x_max, points) * math.pi / LAMBDA2
        args = (sch.lambda2, complex(1e6, sch.nu), 1e6, t)
        jump, last_order = _dyn._jump_terms(*args)
        reference = jump_integral(*args)
        assert np.max(np.abs(reference)) > 1e-3
        assert np.max(np.abs(jump - reference)) <= 1e-15
        assert np.max(np.abs(last_order)) <= 1e-18

    def test_random_schedules_match_40_node_gauss_legendre(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def decades(lo, hi):
            return st.floats(lo, hi).map(lambda e: 10.0**e)

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.integers(min_value=1, max_value=100),
                          st.just(0.0) | decades(4, 9), decades(4, 7))
        def check(k, kappa, gamma):
            sch = GateSchedule(k=k, lambda2=LAMBDA2)
            t = np.array([0.0, 1e-3, 0.37, 1.0, 2.3]) * sch.tau
            args = (sch.lambda2, complex(kappa, sch.nu), gamma, t)
            jump, last_order = _dyn._jump_terms(*args)
            assert np.max(np.abs(jump - jump_integral(*args))) <= 1e-15
            # |p| <= 1/(4k) bounds the order-15 coefficients by
            # (1/2)^15/15!, the prefactor by (gamma/2) e^{1/2} and each
            # integral by t e^{-gamma t} <= 1/(e gamma).
            bound = 0.5 * math.exp(0.5 - 1.0) * 0.5**15 / math.factorial(15)
            assert np.max(np.abs(last_order)) <= bound

        check()

    def test_passes_give_the_same_bits(self, monkeypatch):
        # One time per pass, seven per pass and the default 240 per pass:
        # each time's terms and sums do not depend on what else its pass
        # holds.
        sch = GateSchedule(k=4, lambda2=LAMBDA2)
        args = (sch.lambda2, complex(1e6, sch.nu), 2e6, np.linspace(0.0, 1.3, 500) * sch.tau)
        whole = _dyn._jump_terms(*args)
        for entries in (1, 7 * len(_dyn._N)):
            monkeypatch.setattr(_dyn, "_PASS_ENTRIES", entries)
            split = _dyn._jump_terms(*args)
            assert [part.tolist() for part in split] == [part.tolist() for part in whole]

    def test_both_sides_of_each_switch_to_the_taylor_series(self):
        # Each term switches from the difference of exponentials to the
        # Taylor series of (1 - e^{-u})/u where |(s - d) t| = 1/2; J must
        # not jump there.
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        z, gamma = complex(1e6, sch.nu), 1e6
        ratio = sch.lambda2 / np.conj(z)
        rate = (-sch.lambda2 * ratio - 3.0 * gamma + sch.lambda2 * np.conj(ratio) + gamma
                + _dyn._N * z + _dyn._M * np.conj(z))
        t = np.sort(np.multiply.outer(0.5 / np.abs(rate), [1.0 - 1e-9, 1.0 + 1e-9]).ravel())
        jump, _ = _dyn._jump_terms(sch.lambda2, z, gamma, t)
        assert np.max(np.abs(jump - jump_integral(sch.lambda2, z, gamma, t))) <= 1e-15

    def test_vanishing_coupling_leaves_the_decay_of_the_source(self):
        # As lambda2 -> 0 only the term n = m = 0 is left, and
        # J = (gamma/2) (e^{-gamma t} - e^{-3 gamma t}) / (2 gamma).  At
        # lambda2 = 1e-200 rad/s, lambda2^2/|z|^2 underflows to 0, so with
        # kappa = gamma the term n = m = 1 has s - d = 0 exactly, and the
        # Taylor series must take it without a warning.
        sch = GateSchedule(k=1, lambda2=1e-200)
        t = np.array([0.0, 1e-9, 3e-7, 1e-6, 2e-5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jump, last_order = _dyn._jump_terms(sch.lambda2, complex(1e6, sch.nu), 1e6, t)
        exact = (np.exp(-1e6 * t) - np.exp(-3e6 * t)) / 4.0
        assert np.max(np.abs(jump - exact)) <= 1e-16
        assert not last_order.any()


class TestCoherentStateBranches:
    """The closed form of fidelity_curve against the Fock-truncated Liouvillian."""

    @pytest.mark.parametrize("k", [1, 4, 9])
    @pytest.mark.parametrize("kappa_mhz, gamma_mhz",
                             [(1, 1), (0, 2), (2, 0), (0, 0), (3, 0.5)])
    def test_matches_liouvillian(self, k, kappa_mhz, gamma_mhz):
        sch = GateSchedule(k=k, lambda2=LAMBDA2)
        kappa, gamma = kappa_mhz * 1e6, gamma_mhz * 1e6
        t_grid = np.array([0.0, 0.37, 0.5, 1.0]) * sch.tau
        states, delta = _dyn._branch_states(sch, kappa, gamma, t_grid)
        oracle = liouvillian_gate_states(sch, kappa, gamma, t_grid)
        assert delta <= 1e-10
        assert states.shape == (len(t_grid), 4, 4)
        assert float(np.max(np.abs(states - oracle))) <= 1e-10
        fids, _ = fidelity_curve(sch, kappa, gamma, t_grid)
        target = target_entangled_state()
        assert np.max(np.abs(fids - [state_fidelity(ref, target) for ref in oracle])) <= 1e-10

    def test_random_parameters_match_liouvillian(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=10, deadline=None)
        @hypothesis.given(st.integers(min_value=1, max_value=9),
                          st.floats(min_value=0.0, max_value=3e6),
                          st.floats(min_value=0.0, max_value=3e6),
                          st.floats(min_value=0.05, max_value=1.1))
        def check(k, kappa, gamma, fraction):
            sch = GateSchedule(k=k, lambda2=LAMBDA2)
            t_grid = [0.0, fraction * sch.tau]
            states, _ = _dyn._branch_states(sch, kappa, gamma, t_grid)
            oracle = liouvillian_gate_states(sch, kappa, gamma, t_grid)
            assert float(np.max(np.abs(states[-1] - oracle[-1]))) <= 1e-10

        check()

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_closed_gate_reaches_target_exactly(self, k):
        sch = GateSchedule(k=k, lambda2=LAMBDA2)
        fids, delta = fidelity_curve(sch, 0.0, 0.0, [0.0, sch.tau])
        assert abs(fids[-1] - 1.0) <= 1e-12
        assert delta == 0.0

    def test_closed_form_matches_analytic_propagator(self):
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        model = HamiltonianModel(fock_cutoff=16)
        t_grid = np.array([0.0, 0.21, 0.5, 0.83]) * sch.tau
        states, _ = _dyn._branch_states(sch, 0.0, 0.0, t_grid)
        for t, rho in zip(t_grid, states):
            psi = analytic_U(sch.lambda2, sch.nu, t, model) @ _oracle.gate_start(16)
            ref = partial_trace(np.outer(psi, psi.conj()), model.dims, (0, 1))
            assert np.max(np.abs(rho - ref)) <= 1e-10

    def test_memory_budget_splits_the_grid(self, monkeypatch):
        # One time per pass must give the same curve as the default passes.
        sch = GateSchedule(k=4, lambda2=LAMBDA2)
        t_grid = np.linspace(0.0, 1.3, 9) * sch.tau
        whole, _ = fidelity_curve(sch, 1e6, 2e6, t_grid)
        monkeypatch.setattr(_dyn, "_PASS_ENTRIES", 1)
        split, _ = fidelity_curve(sch, 1e6, 2e6, t_grid)
        assert np.max(np.abs(whole - split)) <= 1e-14

    def test_blocks_give_the_same_curve(self, monkeypatch):
        # Blocks of three grid times against one block: the same F and the
        # same convergence delta, bit for bit.
        sch = GateSchedule(k=4, lambda2=LAMBDA2)
        t_grid = np.linspace(0.0, 1.3, 50) * sch.tau
        whole, delta = fidelity_curve(sch, 1e6, 2e6, t_grid)
        monkeypatch.setattr(_qcore, "BLOCK", 3)
        split, split_delta = fidelity_curve(sch, 1e6, 2e6, t_grid)
        assert split.tolist() == whole.tolist()
        assert split_delta == delta > 0.0

    def test_unphysical_state_in_a_later_block_names_its_time(self, monkeypatch):
        # In blocks of three, the states at indices 4 and 7 get a coherence
        # |00><01| of 0.4, beyond the populations' 0.25: the first block
        # passes, and the error names the time of index 4.
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        t_grid = np.linspace(0.0, 1.0, 9) * sch.tau
        jump_terms = _dyn._jump_terms

        def corrupted(lam, z, gamma, t):
            jump, last_order = jump_terms(lam, z, gamma, t)
            jump[np.isin(t, t_grid[[4, 7]])] += 0.4
            return jump, last_order

        monkeypatch.setattr(_dyn, "_jump_terms", corrupted)
        monkeypatch.setattr(_qcore, "BLOCK", 3)
        with pytest.raises(IntegrationError, match=f"eigenvalue .* at t={t_grid[4]:.3e}"):
            fidelity_curve(sch, 1e6, 1e6, t_grid)

    def test_memory_does_not_grow_with_the_grid(self):
        # 10**5 grid times: F holds 0.8 MB, and the states of one block
        # bring the peak to about 12 MB; one stack of the whole grid took
        # 128 MB.
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        t_grid = np.linspace(0.0, 1.1, 10**5) * sch.tau
        tracemalloc.start()
        try:
            fids, _ = fidelity_curve(sch, 1e6, 1e6, t_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fids) == len(t_grid)
        assert peak <= 24 * 2**20

    def test_populations_replace_the_diagonal_without_overflow(self):
        # At t = 3.1e297 s the diagonal's exponent, 0 in exact arithmetic,
        # is about 1e282 through rounding; only the off-diagonal exponents
        # are exponentiated, so nothing overflows.
        sch = GateSchedule(k=1, lambda2=1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, _ = _dyn._branch_states(sch, 1e6, 0.0, [0.0, 3.1e297])
        assert np.diagonal(states, axis1=1, axis2=2).tolist() == [[0.25] * 4] * 2

    def test_rejects_negative_rates(self):
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        with pytest.raises(ValueError):
            fidelity_curve(sch, -1.0, 0.0, [0.0, sch.tau])


class TestClosedGateOracles:
    def test_liouvillian_matches_exact_state_propagation(self):
        # The Taylor-series Liouvillian at d = 64 without channels, against
        # the pure state propagated exactly under the same rotating-frame
        # generator, at the two times of validate's propagator_oracle.
        sch = GateSchedule(k=1, lambda2=LAMBDA2)
        model = HamiltonianModel(fock_cutoff=16)
        h_rotating = _oracle.rotating_frame_hamiltonian(sch, model)
        start = _oracle.gate_start(model.fock_cutoff)
        t_grid = [0.0, 0.31 * sch.tau, 0.77 * sch.tau]
        states = _oracle.evolve_master_equation(h_rotating, (), np.outer(start, start.conj()),
                                                t_grid)
        for t, rho in zip(t_grid, states):
            psi = expm_hermitian(h_rotating, t) @ start
            assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) <= 1e-10

    def test_validate_steps_the_liouvillian_only_where_there_is_dissipation(self,
                                                                             monkeypatch):
        # Each evolve_master_equation call is booked to the validate group
        # whose frame is on the stack.
        original = _oracle.evolve_master_equation
        groups = []

        def counting(*args, **kwargs):
            frame = sys._getframe(1)
            while not frame.f_code.co_name.startswith("_check_"):
                frame = frame.f_back
            groups.append(frame.f_code.co_name.removeprefix("_check_"))
            return original(*args, **kwargs)

        for module in (_oracle, _validate):
            monkeypatch.setattr(module, "evolve_master_equation", counting)
        report = _validate.run_validation()
        assert all(entry["passed"] for entry in report.values())
        assert set(groups) == {"coherent_state_branches", "master_equation_limits"}


class TestSingleInterfaceEvolution:
    """exp(-i t1 H) under the qubit-qubit interface Hamiltonian, the 4 x 4 matrix
    of helpers.single_interface_hamiltonian."""

    def test_zero_time_is_identity(self):
        h = single_interface_hamiltonian(0.9)
        assert np.allclose(expm_hermitian(h, 0.0), eye(4), atol=1e-14)

    def test_half_turn_reaches_pauli_product(self):
        # Two quarter turns give sigma_x tau_z up to a global phase.
        lam1 = 0.9
        t1 = -0.5 * math.pi / lam1
        u = expm_hermitian(single_interface_hamiltonian(lam1), t1)
        u2 = u @ u
        pauli = tensor([SIGMA_X, SIGMA_Z])
        assert abs(abs(np.trace(u2 @ pauli.conj().T)) - 4.0) <= 1e-10

    def test_quarter_turn_entangles(self):
        lam1 = 0.9
        t1 = -0.5 * math.pi / lam1
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        psi0 = np.kron(basis_state(2, 0), plus)
        psi1 = expm_hermitian(single_interface_hamiltonian(lam1), t1) @ psi0
        assert abs(entanglement_entropy(psi1, (2, 2), (0,)) - 1.0) < 1e-10
