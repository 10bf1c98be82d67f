import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from topoqed import circuit as _circuit
from topoqed import qcore as _qcore
from topoqed.circuit import (
    CircuitParams,
    effective_qubit,
    phi_J_exact,
    phi_J_series,
    tunneling_leakage,
)
from topoqed.config import SweepSpec, load_config
from topoqed.qcore import ConvergenceError

from helpers import bisect_phi_J, bisect_root, charge_basis_oracle

# Root of sin(x) = 0.2 cos(x/2) (eta = 0.1, phi_e = pi, phi = 0), frozen from
# the bisection oracle below.
FROZEN_EXACT_ROOT = 0.2003348423231196


def params(**overrides) -> CircuitParams:
    base = dict(
        E_J=2 * math.pi * 16e9,
        E_J0=2 * math.pi * 160e9,
        E_c=2 * math.pi * 160e9,
        n_g=0.5,
        g=0.01,
        phi_e=0.0,
        phi_c=0.5,
        omega_r=2 * math.pi * 6e9,
    )
    base.update(overrides)
    return CircuitParams(**base)


class TestCircuitParams:
    def test_eta_guard(self):
        with pytest.raises(ValueError):
            params(E_J0=2 * math.pi * 32e9)  # eta = 0.5
        # E_J0 = 1e-300 GHz: eta is quoted in a few digits, not about 300.
        with pytest.raises(ValueError, match=r"^eta = E_J/E_J0 = 1\.6e\+301 >= 0\.3: "):
            params(E_J0=2 * math.pi * 1e-300 * 1e9)
        # Non-finite values built in code, where no config parser checks them,
        # and finite g and E_J whose product, the scale of xi, overflows.
        for overrides in ({"E_J": math.nan}, {"E_J0": math.inf}, {"g": math.nan},
                          {"phi_e": math.inf}, {"omega_r": math.inf}, {"g": 1e300}):
            with pytest.raises(ValueError, match="finite"):
                params(**overrides)

    def test_charging_regime_warning(self):
        with pytest.warns(UserWarning):
            params(E_c=2 * math.pi * 1e9)

    def test_degeneracy_point_warning(self):
        with pytest.warns(UserWarning) as record:
            params(n_g=0.3)
        assert record[0].filename == __file__


class TestPhiJSeries:
    def test_vanishes_for_negligible_eta(self):
        p = params(E_J0=2 * math.pi * 16e39)  # eta ~ 1e-30
        assert abs(phi_J_series(p, 0.7, 0.5)) < 1e-29

    def test_direct_evaluation_quarter_flux(self):
        p = params(phi_e=math.pi / 2)
        expected = 0.2 * math.sin(math.pi / 4) - 0.01 * math.sin(math.pi / 2)
        assert abs(phi_J_series(p, 0.0) - expected) < 1e-15
        assert abs(phi_J_series(p, 0.0) - 0.13142135623731) < 1e-12

    def test_direct_evaluation_half_flux(self):
        # Second-order term carries sin(phi_e) and drops out at phi_e = pi.
        p = params(phi_e=math.pi)
        assert phi_J_series(p, 0.0) == 0.2

    def test_photon_term(self):
        p = params(phi_e=0.0)
        # Only the cavity term survives: 2*g*eta*cos(0)*photon.
        assert abs(phi_J_series(p, 0.0, 1.0) - 2 * 0.01 * 0.1) < 1e-15


class TestPhiJExact:
    def test_symmetric_point_root_is_zero(self):
        p = params(phi_e=0.0, g=0.0)
        for phi in (0.0, 0.9, 2.2):
            assert phi_J_exact(p, phi) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_for_negligible_eta(self):
        p = params(E_J0=2 * math.pi * 16e39, phi_e=1.3)
        assert abs(phi_J_exact(p, 0.7)) < 1e-12

    def test_underflowing_eta_solves_to_exact_zero(self, monkeypatch):
        # eta = 1e-600 underflows to 0.0, where the constraint is sin(x) and
        # the bracket's midpoint 0.0 is the root: the general path returns
        # it bit for bit.
        p = params(E_J=1e-300, E_J0=1e300, phi_e=1.3)
        assert p.eta == 0.0
        calls = []
        original = _circuit.newton_bisect
        monkeypatch.setattr(_circuit, "newton_bisect",
                            lambda *args: calls.append(args) or original(*args))
        root = phi_J_exact(p, 0.7)
        assert type(root) is float and root == 0.0 and math.copysign(1.0, root) == 1.0
        roots = phi_J_exact(p, np.linspace(0.0, 3.0, 5), np.array([[-1.0], [0.0], [1.0]]))
        assert roots.shape == (3, 5) and roots.tobytes() == np.zeros((3, 5)).tobytes()
        assert len(calls) == 2

    def test_half_flux_root_matches_bisection_oracle(self):
        p = params(phi_e=math.pi)
        oracle = bisect_root(lambda x: math.sin(x) - 0.2 * math.cos(0.5 * x), 0.0, 1.0)
        got = phi_J_exact(p, 0.0)
        assert abs(got - oracle) < 1e-12
        assert abs(got - FROZEN_EXACT_ROOT) < 1e-12
        # Agreement with the series is O(eta^3).
        assert abs(got - phi_J_series(p, 0.0)) <= 1e-3

    def test_residual_below_tolerance(self):
        p = params(phi_e=2.0)
        x = phi_J_exact(p, 0.7, 0.4)
        shift = 0.5 * p.phi_e + p.g * 0.4
        residual = math.sin(x) - 2 * p.eta * math.sin(shift - 0.5 * x) * math.cos(0.7)
        assert abs(residual) <= 1e-12

    def test_matches_bisection_oracle_over_validate_grid(self):
        # The reference device over the 12 x 12 x 3 grid of validate's
        # circuit_series_vs_exact group.  Stopping at |f| <= 1e-12 without
        # the last Newton step would miss by up to 1e-12.
        circ = load_config(None).circuit
        worst = 0.0
        for phi_e in np.linspace(0.0, 2 * math.pi, 12, endpoint=False):
            p = dataclasses.replace(circ, phi_e=float(phi_e))
            for phi in np.linspace(0.0, 2 * math.pi, 12, endpoint=False):
                for photon in (-1.0, 0.0, 1.0):
                    got = phi_J_exact(p, float(phi), photon)
                    worst = max(worst, abs(got - bisect_phi_J(p, float(phi), photon)))
        assert worst <= 1e-13

    def test_no_sign_change_raises(self):
        # eta = 0.9 lies beyond CircuitParams' guard, so a stand-in carries
        # it; with phi_e = -3*pi/2 the constraint is positive at both ends.
        p = SimpleNamespace(eta=0.9, phi_e=-1.5 * math.pi, g=0.0)
        with pytest.raises(ConvergenceError, match="no sign change"):
            phi_J_exact(p, 0.0)

    def test_series_tracks_exact_over_phase_grid(self):
        p0 = params()
        eta = p0.eta
        bound = 5.0 * eta**3
        for phi_e in np.linspace(0.0, 2 * math.pi, 17, endpoint=False):
            p = dataclasses.replace(p0, phi_e=float(phi_e))
            for phi in np.linspace(0.0, 2 * math.pi, 17, endpoint=False):
                for photon in (-1.0, 0.0, 1.0):
                    diff = abs(phi_J_series(p, float(phi), photon) - phi_J_exact(p, float(phi), photon))
                    assert diff <= bound

    def test_series_error_is_third_order_over_random_devices(self):
        # The series drops terms of order eta**3 and eta*(g*p)**2.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        phases = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.floats(min_value=1e-3, max_value=0.29, exclude_max=True),
                          st.floats(min_value=-0.05, max_value=0.05),
                          st.floats(min_value=-2.0, max_value=2.0), phases, phases)
        def check(eta, g, photon, phi, phi_e):
            p = params(E_J=eta * 2 * math.pi * 160e9, g=g, phi_e=phi_e)
            diff = abs(phi_J_exact(p, phi, photon) - phi_J_series(p, phi, photon))
            assert diff <= 5.0 * (p.eta**3 + p.eta * (g * photon) ** 2)

        check()


class TestEffectiveQubit:
    def test_zero_flux_values(self):
        eff = effective_qubit(params(phi_e=0.0))
        p = params(phi_e=0.0)
        assert eff.E_J_bar == 2 * p.E_J
        assert eff.xi == 0.0
        assert eff.f1 == 0.0 and eff.f2 == 0.0
        assert eff.f3_coeff == p.eta * p.g

    def test_half_flux_values(self):
        p = params(phi_e=math.pi)
        eff = effective_qubit(p)
        assert eff.E_J_bar == 0.0
        assert abs(eff.xi - p.g * p.E_J) < 1e-9
        assert abs(eff.f2 - 0.1) < 1e-15
        assert eff.f1 == 0.0
        assert eff.f3_coeff == 0.0

    def test_state_dependent_phase_split(self):
        for phi_e in (0.4, 1.0, 2.5):
            eff = effective_qubit(params(phi_e=phi_e))
            assert abs((eff.eps_plus - eff.eps_minus) - 2 * eff.f2) < 1e-15

    def test_shift_magnitude_bounds(self):
        p = params()
        cap = p.eta + p.eta**2
        for phi_e in np.linspace(0, 4 * math.pi, 50):
            eff = effective_qubit(dataclasses.replace(p, phi_e=float(phi_e)))
            assert abs(eff.f1) <= cap and abs(eff.f2) <= cap

    def test_gap_even_and_4pi_periodic(self):
        p = params()
        for phi_e in (0.3, 1.7, 2.9):
            a = effective_qubit(dataclasses.replace(p, phi_e=phi_e)).E_J_bar
            b = effective_qubit(dataclasses.replace(p, phi_e=-phi_e)).E_J_bar
            c = effective_qubit(dataclasses.replace(p, phi_e=phi_e + 4 * math.pi)).E_J_bar
            assert abs(a - b) < 1e-9 * abs(a)
            assert abs(a - c) < 1e-9 * abs(a)

    def test_coupling_extremal_at_half_flux(self):
        p = params()
        xi = lambda phi_e: effective_qubit(dataclasses.replace(p, phi_e=phi_e)).xi
        assert xi(0.0) == 0.0
        h = 1e-5
        assert abs(xi(math.pi + h) - xi(math.pi - h)) / (2 * h) < 1e-5 * abs(xi(math.pi))
        assert xi(math.pi) > xi(math.pi - 0.3) and xi(math.pi) > xi(math.pi + 0.3)


class TestChargeBasisOracle:
    def test_gap_matches_two_level_splitting_at_zero_flux(self):
        p = params(phi_e=0.0, E_c=50 * 2 * math.pi * 16e9)
        gap = charge_basis_oracle(p, n_max=8)
        assert 0.98 <= gap / (2 * p.E_J) <= 1.02

    def test_gap_closes_at_half_flux(self):
        p = params(phi_e=math.pi, E_c=50 * 2 * math.pi * 16e9)
        gap = charge_basis_oracle(p, n_max=8)
        assert gap <= 0.02 * p.E_J

    def test_gap_tracks_effective_splitting(self):
        p = params(phi_e=2 * math.pi / 3, E_c=50 * 2 * math.pi * 16e9)
        gap = charge_basis_oracle(p, n_max=8)
        expected = effective_qubit(p).E_J_bar
        assert abs(gap - expected) <= 0.05 * expected

    def test_relative_error_shrinks_with_charging_energy(self):
        errors = []
        for ratio in (10.0, 50.0, 200.0):
            p = params(phi_e=0.0, E_c=ratio * 2 * math.pi * 16e9)
            gap = charge_basis_oracle(p, n_max=10)
            expected = effective_qubit(p).E_J_bar
            errors.append(abs(gap - expected) / expected)
        assert errors[0] > errors[1] > errors[2]
        # Error scales like E_J / E_c.
        assert errors[2] < 0.2 * errors[1]

    def test_requires_degeneracy_point(self):
        with pytest.warns(UserWarning):
            p = params(n_g=0.4)
        with pytest.raises(ValueError):
            charge_basis_oracle(p, n_max=6)

    def test_requires_minimum_truncation(self):
        with pytest.raises(ValueError):
            charge_basis_oracle(params(), n_max=2)


class TestTunnelingLeakage:
    def test_zero_coupling(self):
        assert tunneling_leakage(0.0, params()) == 0.0

    def test_reference_ratio(self):
        p = params()
        lam1 = 0.1 * (2.0 * p.E_J)
        assert abs(tunneling_leakage(lam1, p) - 0.01) < 1e-16

    def test_boundary_flagged(self):
        p = params()
        with pytest.warns(UserWarning):
            assert tunneling_leakage(2.0 * p.E_J, p) == 1.0


class TestPhiJArrays:
    """phi, photon amplitude and phi_e as arrays, in one root solve."""

    def test_phi_e_sweep_rows_satisfy_the_constraint(self):
        # The rows of `phij --sweep phi_e:0:2pi:N`, both ends included.
        circ = load_config(None).circuit
        phi_e = SweepSpec(variable="phi_e", min=0.0, max=2 * math.pi, steps=2000).values()
        assert phi_e[0] == 0.0 and phi_e[-1] == 2 * math.pi
        exact = phi_J_exact(circ, 0.0, 0.0, phi_e)
        for pe, x in zip(phi_e.tolist(), exact.tolist()):
            residual = math.sin(x) - 2.0 * circ.eta * math.sin(0.5 * (pe - x))
            assert abs(residual) <= 1e-12, pe
            assert abs(x - bisect_phi_J(dataclasses.replace(circ, phi_e=pe), 0.0)) <= 1e-13, pe

    def test_grid_matches_one_call_per_point(self):
        circ = load_config(None).circuit
        grid = np.linspace(0.0, 2 * math.pi, 9, endpoint=False)
        photons = np.array([-1.0, 0.0, 1.0])
        shape = (9, 9, 3)
        for func in (phi_J_series, phi_J_exact):
            values = func(circ, grid[None, :, None], photons, grid[:, None, None])
            assert values.shape == shape
            singles = [
                func(dataclasses.replace(circ, phi_e=pe), phi, p)
                for pe in grid.tolist() for phi in grid.tolist() for p in photons.tolist()
            ]
            assert values.ravel().tolist() == singles

    def test_blocks_give_the_same_sweep(self, monkeypatch):
        # A phi sweep, a phi_e sweep and a 2-D grid, in blocks of three
        # elements against one block: the same bits and the same shape.
        circ = dataclasses.replace(load_config(None).circuit, phi_e=0.8)
        grid = np.linspace(0.0, 2 * math.pi, 301)
        calls = [(grid, 0.0, None), (0.3, 0.0, grid), (0.3, np.linspace(-1.0, 1.0, 301), grid),
                 (grid[None, :20], 0.0, grid[::30, None])]
        whole = [phi_J_exact(circ, *args) for args in calls]
        monkeypatch.setattr(_qcore, "BLOCK", 3)
        for args, expected in zip(calls, whole):
            split = phi_J_exact(circ, *args)
            assert split.shape == expected.shape
            assert split.tolist() == expected.tolist()
        assert whole[-1].shape == (11, 20)

    def test_endpoint_roots_stay_exact_in_an_array(self):
        # With eta = 0.5 (a stand-in beyond CircuitParams' guard), phi_e =
        # pi/2 and cos(phi) = -1, the constraint sin(x) + sin(pi/4 - x/2)
        # vanishes exactly at the end x = -pi/2.
        p = SimpleNamespace(eta=0.5, phi_e=0.5 * math.pi, g=0.0)
        roots = phi_J_exact(p, np.array([math.pi, 0.4]))
        assert roots[0] == -0.5 * math.pi == phi_J_exact(p, math.pi)
        assert roots[1] == phi_J_exact(p, 0.4)
        assert abs(roots[1] - bisect_phi_J(p, 0.4)) <= 1e-13

    def test_float_in_float_out(self):
        p = params(phi_e=0.8)
        assert type(phi_J_series(p, 0.3)) is float
        assert type(phi_J_series(p, 0.3, 1.0)) is float
        assert type(phi_J_exact(p, 0.3)) is float
        assert type(phi_J_exact(p, 0.3, 0.5)) is float

    def test_one_bad_element_fails_the_whole_call(self):
        # A NaN phase leaves that element's constraint NaN everywhere.
        with pytest.raises(ConvergenceError):
            phi_J_exact(params(phi_e=0.8), np.array([0.1, math.nan, 0.3]))
