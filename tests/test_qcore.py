import math

import numpy as np
import pytest

from topoqed.qcore import (
    ConvergenceError,
    IntegrationError,
    integrate_master_equation,
    newton_bisect,
    partial_trace,
    state_fidelity,
)
from topoqed import oracle as _oracle
from topoqed import qcore as _qcore
from topoqed.dynamics import GateSchedule, plus_plus_state, target_entangled_state
from topoqed.oracle import (
    TAU_MINUS,
    HamiltonianModel,
    basis_state,
    destroy,
    evolve_master_equation,
    expm_hermitian,
    eye,
    number_op,
    tensor,
)

from helpers import (
    SIGMA_X,
    SIGMA_Z,
    entanglement_entropy,
    expm_taylor,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
)


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor([eye(2), eye(2)]), eye(4))

    def test_diagonal_action_on_basis(self):
        op = tensor([SIGMA_Z, eye(2)])
        ket_10 = np.kron(basis_state(2, 1), basis_state(2, 0))
        assert np.allclose(op @ ket_10, -ket_10)

    def test_involution(self):
        xx = tensor([SIGMA_X, SIGMA_X])
        assert np.allclose(xx @ xx, eye(4))

    def test_dim_is_product(self):
        t = tensor([eye(2), eye(3), eye(5)])
        assert t.shape == (30, 30)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            tensor([])


class TestExpmHermitian:
    def test_zero_hamiltonian(self):
        assert np.allclose(expm_hermitian(np.zeros((3, 3)), 1.7), eye(3))

    def test_sigma_z_quarter_period(self):
        # exp(-i sigma_z pi/2) = diag(-i, i) = -i sigma_z
        u = expm_hermitian(SIGMA_Z, math.pi / 2)
        assert np.allclose(u, -1j * SIGMA_Z, atol=1e-14)

    def test_sigma_z_half_period(self):
        assert np.allclose(expm_hermitian(SIGMA_Z, math.pi), -eye(2), atol=1e-14)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(42)
        h = random_hermitian(rng, 8)
        expected = expm_taylor(-1j * h * 0.83)
        assert np.max(np.abs(expm_hermitian(h, 0.83) - expected)) <= 1e-10

    def test_inverse_property_up_to_dim_64(self):
        rng = np.random.default_rng(5)
        for dim in (2, 7, 16, 64):
            h = random_hermitian(rng, dim)
            prod = expm_hermitian(h, 0.9) @ expm_hermitian(h, -0.9)
            assert np.max(np.abs(prod - eye(dim))) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(0)
        for dims in [(2, 2), (2, 3), (2, 2, 4)]:
            factors = [random_density_matrix(rng, d) for d in dims]
            rho = factors[0]
            for f in factors[1:]:
                rho = np.kron(rho, f)
            for k in range(len(dims)):
                reduced = partial_trace(rho, dims, (k,))
                assert np.max(np.abs(reduced - factors[k])) < 1e-12

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        reduced = partial_trace(np.outer(bell, bell), (2, 2), (0,))
        assert np.allclose(reduced, eye(2) / 2.0, atol=1e-12)

    def test_target_state_with_vacuum_cavity(self):
        target = target_entangled_state()
        n = 6
        full = np.kron(target, basis_state(n, 0))
        reduced = partial_trace(np.outer(full, full.conj()), (2, 2, n), (0, 1))
        expected = np.outer(target, target.conj())
        assert np.max(np.abs(reduced - expected)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        reduced = partial_trace(random_density_matrix(rng, 12), (2, 2, 3), (1, 2))
        assert abs(np.trace(reduced) - 1.0) < 1e-10

    def test_keep_order_preserved(self):
        rng = np.random.default_rng(2)
        a, b = random_density_matrix(rng, 2), random_density_matrix(rng, 3)
        both = partial_trace(np.kron(a, b), (2, 3), (1, 0))
        assert both.shape == (6, 6)
        assert np.max(np.abs(both - np.kron(a, b))) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            partial_trace(np.diag(basis_state(4, 0)), (2, 2), (2,))

    def test_stack_reduces_matrix_by_matrix(self):
        # A (n, d, d) trajectory reduces in one call to the stack of its
        # matrices' reductions.
        rng = np.random.default_rng(7)
        stack = np.array([random_density_matrix(rng, 12) for _ in range(5)])
        for keep in [(0,), (1, 2), (0, 2)]:
            reduced = partial_trace(stack, (2, 2, 3), keep)
            assert reduced.shape[0] == 5
            for rho, expected in zip(stack, reduced):
                assert np.array_equal(partial_trace(rho, (2, 2, 3), keep), expected)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            partial_trace(eye(4), (2, 3), (0,))


class TestStateFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(3)
        psi = random_pure_state(rng, 4)
        rho = np.outer(psi, psi.conj())
        assert abs(state_fidelity(rho, psi) - 1.0) < 1e-12

    def test_maximally_mixed_gives_quarter(self):
        rng = np.random.default_rng(4)
        psi = random_pure_state(rng, 4)
        assert abs(state_fidelity(eye(4) / 4.0, psi) - 0.25) < 1e-12

    def test_plus_plus_against_gate_target_is_half(self):
        # |<target|++>|^2 = 1/2 by direct inner product.
        rho = np.outer(plus_plus_state(), plus_plus_state().conj())
        assert abs(state_fidelity(rho, target_entangled_state()) - 0.5) < 1e-12

    def test_requires_pure_reference(self):
        rho = eye(2) / 2.0
        with pytest.raises(ValueError):
            state_fidelity(rho, rho)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            state_fidelity(eye(2) / 2.0, basis_state(4, 0))


class TestEntanglementEntropy:
    def test_product_state_has_zero_entropy(self):
        rng = np.random.default_rng(6)
        psi = np.kron(random_pure_state(rng, 2), random_pure_state(rng, 2))
        assert abs(entanglement_entropy(psi, (2, 2), (0,))) < 1e-10

    def test_bell_state_has_one_bit(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert abs(entanglement_entropy(bell, (2, 2), (0,)) - 1.0) < 1e-10

    def test_gate_target_has_one_bit_across_qubit_cut(self):
        assert abs(entanglement_entropy(target_entangled_state(), (2, 2), (0,)) - 1.0) < 1e-10

    def test_rejects_mixed_input(self):
        with pytest.raises(ValueError):
            entanglement_entropy(eye(4) / 4.0, (2, 2), (0,))


def _evolve_constant(hamiltonian, channels, rho0, t_grid):
    """evolve_master_equation on a Hamiltonian callable that does not depend on t."""
    return evolve_master_equation(hamiltonian(0.0), channels, rho0, t_grid)


# The RK45 oracle and the Taylor-series Liouvillian propagator; every case below has a
# constant Hamiltonian, so each runs through both.
PROPAGATORS = (integrate_master_equation, _evolve_constant)


class TestChannelCheck:
    """Both propagators run the one channel check before any work."""

    def test_channel_dimension_checked(self):
        rho0 = np.diag(basis_state(4, 0))
        for propagate in PROPAGATORS:
            with pytest.raises(ValueError, match="collapse operator shape"):
                propagate(lambda t: eye(4), ((destroy(3), 1.0),), rho0, [0.0, 1.0])

    def test_negative_rate_rejected(self):
        rho0 = np.diag(basis_state(2, 0))
        for propagate in PROPAGATORS:
            with pytest.raises(ValueError, match="non-negative"):
                propagate(lambda t: eye(2), ((TAU_MINUS, -1.0),), rho0, [0.0, 1.0])


class TestInitialStateCheck:
    """Both propagators pass rho0 through _checked_states before any work, so an
    unphysical initial state raises IntegrationError naming t=0."""

    @staticmethod
    def assert_refused(rho0, message):
        for propagate in PROPAGATORS:
            with pytest.raises(IntegrationError, match=f"{message}.* at t=0\\.000e\\+00"):
                propagate(lambda t: SIGMA_X, (), rho0, [0.0, 0.5])

    def test_pure_norm_enforced(self):
        vec = np.array([1.0, 1.0])
        self.assert_refused(np.outer(vec, vec), "trace deviation")

    def test_mixed_trace_enforced(self):
        self.assert_refused(np.eye(2), "trace deviation")

    def test_mixed_hermiticity_enforced(self):
        self.assert_refused(np.array([[0.5, 0.3], [0.0, 0.5]]), "Hermiticity deviation")

    def test_mixed_positivity_enforced(self):
        self.assert_refused(np.array([[1.2, 0.0], [0.0, -0.2]]), "eigenvalue -0\\.2")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # Without the entry check, the Taylor path would report an
        # unconverged series and RK45 scipy's own error.
        vec = np.array([bad, 0.0])
        with np.errstate(invalid="ignore"):  # inf * 0
            pure = np.outer(vec, vec)
        self.assert_refused(pure, "non-finite")
        self.assert_refused(np.array([[bad, 0.0], [0.0, 1.0]]), "non-finite")
        self.assert_refused(np.array([[0.5, bad], [bad, 0.5]]), "non-finite")


class TestIntegrateMasterEquation:
    def test_unitary_limit_matches_expm(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 6)
        rho0 = random_density_matrix(rng, 6)
        t_grid = [0.0, 0.4, 1.1]
        for propagate in PROPAGATORS:
            states = propagate(lambda t: h, (), rho0, t_grid)
            for t, rho in zip(t_grid, states):
                u = expm_hermitian(h, t)
                assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) <= 1e-8

    def test_photon_number_decays_at_twice_kappa(self):
        n, kappa = 6, 0.9
        a = destroy(n)
        rho0 = np.diag(basis_state(n, 1))
        t_grid = np.linspace(0.0, 2.0, 9)
        for propagate in PROPAGATORS:
            states = propagate(lambda t: np.zeros((n, n), complex), ((a, kappa),), rho0, t_grid)
            for t, rho in zip(t_grid, states):
                n_mean = float(np.real(np.trace(number_op(n) @ rho)))
                assert abs(n_mean - math.exp(-2.0 * kappa * t)) <= 1e-6

    def test_excited_population_decays_at_twice_gamma(self):
        gamma = 1.3
        rho0 = np.diag(basis_state(2, 1))
        t_grid = np.linspace(0.0, 1.5, 7)
        for propagate in PROPAGATORS:
            states = propagate(lambda t: np.zeros((2, 2), complex), ((TAU_MINUS, gamma),),
                               rho0, t_grid)
            for t, rho in zip(t_grid, states):
                p_excited = float(np.real(rho[1, 1]))
                assert abs(p_excited - math.exp(-2.0 * gamma * t)) <= 1e-6

    def test_outputs_satisfy_physicality_bounds(self):
        n, kappa = 5, 0.5
        rho0 = np.diag(basis_state(n, 2))
        for propagate in PROPAGATORS:
            states = propagate(lambda t: 0.3 * number_op(n), ((destroy(n), kappa),), rho0,
                               np.linspace(0.0, 1.0, 5))
            assert states.shape == (5, n, n) and not states.flags.writeable
            for rho in states:
                assert abs(np.trace(rho) - 1.0) <= 1e-8
                assert np.max(np.abs(rho - rho.conj().T)) == 0.0
                assert float(np.linalg.eigvalsh(rho)[0]) >= -1e-8

    def test_positivity_failure_raises_integration_error(self, monkeypatch):
        # A negative rate pumps |+> past full excitation: trace and
        # Hermiticity still hold, so only the positivity check can catch it,
        # and it must surface as IntegrationError (exit 3) naming the time.
        # The channel check would refuse the rate first, so it is bypassed.
        monkeypatch.setattr(_qcore, "_checked_channels", lambda channels, shape: channels)
        plus = np.full((2, 2), 0.5)
        for propagate in PROPAGATORS:
            with pytest.raises(IntegrationError, match="t="):
                propagate(lambda t: np.zeros((2, 2), complex), ((TAU_MINUS, -1.0),), plus,
                          [0.0, 0.5])

    def test_grid_must_start_at_zero_and_increase(self):
        rho0 = np.diag(basis_state(2, 0))
        for propagate in PROPAGATORS:
            with pytest.raises(ValueError):
                propagate(lambda t: eye(2), (), rho0, [0.1, 0.2])
            with pytest.raises(ValueError):
                propagate(lambda t: eye(2), (), rho0, [0.0, 0.2, 0.2])

    def test_dimension_mismatch_rejected(self):
        rho0 = np.diag(basis_state(2, 0))
        for propagate in PROPAGATORS:
            with pytest.raises(ValueError):
                propagate(lambda t: eye(4), (), rho0, [0.0, 1.0])

    def test_expm_propagator_matches_rk45_with_channels(self):
        # Both paths with dissipation and a nonuniform grid; the oracle's
        # rtol 1e-9 bounds the agreement.
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 6)
        channels = ((destroy(6), 0.4), (random_hermitian(rng, 6, scale=0.3), 0.2))
        rho0 = random_density_matrix(rng, 6)
        t_grid = [0.0, 0.3, 0.35, 1.2]
        pairs = zip(integrate_master_equation(lambda t: h, channels, rho0, t_grid),
                    evolve_master_equation(h, channels, rho0, t_grid))
        for oracle, rho in pairs:
            assert np.max(np.abs(rho - oracle)) <= 1e-8


class TestCheckedStates:
    """One check of a whole trajectory, naming the first grid time that fails."""

    T_GRID = np.array([0.0, 0.1, 0.2, 0.3, 0.4])

    @staticmethod
    def stack():
        return np.array([np.diag([0.5, 0.5]).astype(complex)] * 5)

    def test_nan_entry_names_its_time(self):
        # A NaN passes the trace and Hermiticity tests (every comparison with
        # NaN is false), and eigvalsh would fail on the whole stack.
        rhos = self.stack()
        rhos[2, 0, 1] = np.nan
        with pytest.raises(IntegrationError, match=r"non-finite .* at t=2\.000e-01"):
            _qcore._checked_states(rhos, self.T_GRID)

    @pytest.mark.parametrize("entry, value, message", [
        ((0, 0), 0.6, "trace deviation"),
        ((0, 1), 1e-8, "Hermiticity deviation"),
        ((0, 0), np.inf, "non-finite"),
    ])
    def test_first_failing_time_is_named(self, entry, value, message):
        # Index 3 fails the cheap check, index 4 positivity; index 3 is named.
        rhos = self.stack()
        rhos[(3,) + entry] = value
        rhos[4] = np.diag([1.2, -0.2])
        with pytest.raises(IntegrationError, match=f"{message}.* at t=3\\.000e-01"):
            _qcore._checked_states(rhos, self.T_GRID)

    def test_positivity_before_a_nan_is_named(self):
        rhos = self.stack()
        rhos[1] = np.diag([1.2, -0.2])
        rhos[3, 1, 1] = np.nan
        with pytest.raises(IntegrationError, match=r"eigenvalue -0\.2.* at t=1\.000e-01"):
            _qcore._checked_states(rhos, self.T_GRID)


def vectorized_liouvillian(h, channels):
    """The row-major Liouvillian as one dense matrix, from Kronecker products."""
    one = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, one) - np.kron(one, h.T))
    for op, rate in channels:
        op_dag_op = op.conj().T @ op
        gen = gen + rate * (2.0 * np.kron(op, op.conj()) - np.kron(op_dag_op, one)
                            - np.kron(one, op_dag_op.T))
    return gen


class TestLiouvillianByDiagonals:
    """evolve_master_equation stores the Liouvillian by diagonals and steps it
    with a truncated Taylor series; scipy's expm_multiply is its oracle here."""

    def test_matches_expm_multiply(self):
        hypothesis = pytest.importorskip("hypothesis")
        expm_multiply = pytest.importorskip("scipy.sparse.linalg").expm_multiply
        st = hypothesis.strategies
        kinds = st.sampled_from(("lowering", "jump", "dense"))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.integers(min_value=2, max_value=8),
                          st.lists(st.tuples(kinds, st.floats(min_value=0.0, max_value=2.0)),
                                   max_size=3),
                          st.lists(st.floats(min_value=0.01, max_value=1.5), min_size=1,
                                   max_size=4),
                          st.integers(min_value=0, max_value=2**32 - 1))
        def check(d, channel_draws, steps, seed):
            rng = np.random.default_rng(seed)
            h = random_hermitian(rng, d)
            channels = []
            for kind, rate in channel_draws:
                if kind == "lowering":
                    op = destroy(d)
                elif kind == "jump":  # one matrix element |i><j|
                    op = np.zeros((d, d), dtype=complex)
                    op[rng.integers(d), rng.integers(d)] = 1.0
                else:
                    op = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d
                channels.append((op, rate))
            rho0 = random_density_matrix(rng, d)
            t_grid = np.concatenate([[0.0], np.cumsum(steps)])  # not uniform
            states = evolve_master_equation(h, channels, rho0, t_grid)
            gen = vectorized_liouvillian(h, channels)
            vec = rho0.ravel()
            for t_prev, t, rho in zip(t_grid[:-1], t_grid[1:], states[1:]):
                vec = expm_multiply(gen * (t - t_prev), vec)
                assert np.max(np.abs(rho - vec.reshape(d, d))) <= 1e-10

        check()

    def test_diagonals_reproduce_the_dense_liouvillian(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 6)
        channels = ((destroy(6), 0.4), (random_hermitian(rng, 6, scale=0.3), 0.2))
        dense = np.zeros((36, 36), dtype=complex)
        diagonals = _oracle._liouvillian(h, channels)
        for rows, cols, values in diagonals:
            dense[np.arange(36)[rows], np.arange(36)[cols]] = values
        assert np.max(np.abs(dense - vectorized_liouvillian(h, channels))) <= 1e-14
        # A dense 6 x 6 channel fills every offset -35..35.
        assert len(diagonals) == 71

    def test_gate_generators_have_few_diagonals(self):
        sch = GateSchedule(k=1, lambda2=2 * math.pi * 32e6)
        closed = HamiltonianModel(fock_cutoff=16)
        h = _oracle.rotating_frame_hamiltonian(sch, closed)
        assert len(_oracle._liouvillian(h, ())) == 5
        n = 12
        model = HamiltonianModel(fock_cutoff=n)
        channels = ((model.a_op, 1e6), (tensor([TAU_MINUS, eye(2), eye(n)]), 1e6),
                    (tensor([eye(2), TAU_MINUS, eye(n)]), 1e6))
        h = _oracle.rotating_frame_hamiltonian(sch, model)
        assert len(_oracle._liouvillian(h, channels)) == 8

    def test_unconverged_series_raises_integration_error(self, monkeypatch):
        # With room for two terms per substep the series cannot reach the
        # unit roundoff.
        monkeypatch.setattr(_oracle, "_MAX_TERMS", 2)
        rho0 = np.diag(basis_state(2, 0))
        with pytest.raises(IntegrationError, match="not converged after 2 terms"):
            evolve_master_equation(SIGMA_X, (), rho0, [0.0, 1.0])


def test_blocks_cover_the_range_in_order(monkeypatch):
    monkeypatch.setattr(_qcore, "BLOCK", 3)
    assert _qcore.blocks(7) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert _qcore.blocks(3) == [slice(0, 3)]
    assert _qcore.blocks(0) == []


class TestNewtonBisect:
    """The root finder acts element-wise; each element keeps its own bracket."""

    @staticmethod
    def solve(c, hi=3.0):
        # Roots of x**2 = c on [0, hi]; f(0) carries the shape of c.
        c = np.asarray(c, dtype=float)
        return newton_bisect(lambda x: x * x - c, lambda x: 2.0 * x, 0.0, hi, 1e-13)

    def test_each_element_reaches_its_tolerance(self):
        c = np.linspace(0.01, 8.0, 257)
        x = self.solve(c)
        assert x.shape == c.shape
        assert np.all(np.abs(x * x - c) <= 1e-13)

    def test_array_matches_one_call_per_element(self):
        # A finished element stops moving, so it lands where a call of its
        # own lands, bit for bit.
        c = np.array([0.3, 1e-6, 2.0, 7.9, 4.0])
        x = self.solve(c)
        assert x.tolist() == [self.solve(float(v)) for v in c]

    def test_float_in_float_out(self):
        x = self.solve(2.0)
        assert type(x) is float
        assert abs(x - math.sqrt(2.0)) <= 1e-13

    def test_one_element_without_root_fails_the_call(self):
        # x**2 = 16 has no root in [0, 3]: f is negative at both ends, and
        # the whole call raises.
        assert np.all(np.isfinite(self.solve([0.5, 2.0])))
        with pytest.raises(ConvergenceError, match="1 of 3 elements"):
            self.solve([0.5, 16.0, 2.0])

    def test_unbracketed_element_is_refused_before_iterating(self):
        # f is read once at each end, and nothing is iterated.
        c = np.array([0.5, 16.0, 2.0])
        calls = []

        def f(x):
            calls.append(x)
            return x * x - c

        with pytest.raises(ConvergenceError, match="no sign change for 1 of 3 elements"):
            newton_bisect(f, lambda x: 2.0 * x, 0.0, 3.0, 1e-13)
        assert len(calls) == 2

    def test_roots_on_an_end_are_returned_exactly(self):
        # x**2 - c vanishes exactly at the low end for c = lo*lo and at the
        # high end for c = 9; those elements return their end bit for bit,
        # and the middle one lands where a call of its own lands.
        lo, hi = 0.1, 3.0
        c = np.array([lo * lo, 2.0, hi * hi])
        x = newton_bisect(lambda x: x * x - c, lambda x: 2.0 * x, lo, hi, 1e-13)
        assert x[0] == lo and x[2] == hi
        assert x[1] == newton_bisect(lambda x: x * x - 2.0, lambda x: 2.0 * x, lo, hi, 1e-13)

    def test_failure_count_leaves_out_elements_still_running(self):
        # The step element changes sign at x = 1 without ever reaching
        # |f| <= f_tol; with a zero derivative it bisects, and its bracket
        # runs out after about 55 iterations, while the x**2 = 2 element,
        # halving down from 2**100, needs about 100: only the first one has
        # failed when the call stops.
        step = np.array([True, False])
        hi = np.array([3.0, 2.0**100])
        assert self.solve(2.0, hi=2.0**100) == pytest.approx(math.sqrt(2.0), abs=1e-13)
        with pytest.raises(ConvergenceError, match="1 of 2 elements before its bracket ran out"):
            newton_bisect(lambda x: np.where(step, np.where(x < 1.0, -1.0, 1.0), x * x - 2.0),
                          lambda x: np.where(step, 0.0, 2.0 * x), 0.0, hi, 1e-13)

    def test_steep_root_stops_within_two_ulps(self):
        # The root lies halfway between pi and the next double, where the
        # slope of 1e20 keeps |f| at 2.2e4 on both sides: no double reaches
        # f_tol, so the solve stops when its bracket is exhausted and the
        # residual is what rounding x explains.
        half_ulp = 0.5 * math.ulp(math.pi)
        x = newton_bisect(lambda x: 1e20 * ((x - math.pi) - half_ulp),
                          lambda x: np.full_like(x, 1e20), 3.0, 4.0, 1e-13)
        assert abs((x - math.pi) - half_ulp) <= 2.0 * math.ulp(math.pi)

    def test_iteration_limit_raises(self):
        # A zero-slope step bisects from 1e300 down to its sign change at 1,
        # about 1000 halvings, and is still running at the limit.
        with pytest.raises(ConvergenceError, match="1 of 1 elements within 200 iterations"):
            newton_bisect(lambda x: np.where(x < 1.0, -1.0, 1.0), np.zeros_like,
                          0.0, 1e300, 1e-13)

    def test_nan_element_fails_when_its_bracket_runs_out(self):
        # A NaN residual never reaches f_tol: the element bisects until its
        # bracket is exhausted, long before the iteration limit.
        with pytest.raises(ConvergenceError, match="1 of 2 elements before its bracket ran out"):
            self.solve([0.5, math.nan])
