import math
import sys
import tracemalloc

import numpy as np
import pytest

from topoqed import qcore as _qcore
from topoqed import wire as _wire
from topoqed.qcore import ConvergenceError
from topoqed.wire import (
    HBAR,
    K_B,
    WireParams,
    inverse_x_over_tan,
    inverse_x_over_tanh,
    splitting_derivative,
    thermal_leakage,
    wire_splitting,
)

from helpers import (
    bisect_root,
    bisect_splitting,
    implicit_splitting_derivative,
    mp_splitting_derivative,
    u_over_tanh,
    x_over_tan,
)

# Splitting at eps = pi/2 with the reference device, frozen from the
# bisection oracle (u/tanh u = Lambda, then E = (v_F/L) sqrt(Lambda^2 - u^2)).
FROZEN_E_QUARTER_TURN = 232604126.8459099  # rad/s, about 2*pi x 37.0 MHz


class TestInverseXOverTan:
    def test_branch0_at_zero_is_half_pi(self):
        assert abs(inverse_x_over_tan(0.0, 0) - math.pi / 2) < 1e-12

    def test_branch1_at_zero_is_three_half_pi(self):
        assert abs(inverse_x_over_tan(0.0, 1) - 1.5 * math.pi) < 1e-12

    def test_branch0_at_minus_one_matches_bisection_oracle(self):
        # Root of x = -tan(x) in (pi/2, pi).
        oracle = bisect_root(lambda x: x_over_tan(x) - (-1.0), math.pi / 2 + 1e-9, math.pi - 1e-9)
        x = inverse_x_over_tan(-1.0, 0)
        assert abs(x - oracle) < 1e-11
        assert abs(x - 2.028757838110434) < 1e-11  # classical tabulated value

    def test_limit_value_at_one(self):
        assert inverse_x_over_tan(1.0, 0) == 0.0

    def test_branch_ranges(self):
        with pytest.raises(ValueError):
            inverse_x_over_tan(1.5, 0)
        with pytest.raises(ValueError):
            inverse_x_over_tan(0.0, -1)

    def test_round_trip_on_three_branches(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n = int(rng.integers(0, 3))
            y = float(rng.uniform(-40.0, 0.999 if n == 0 else 40.0))
            x = inverse_x_over_tan(y, n)
            lo = n * math.pi if n else 0.0
            assert lo < x < (n + 1) * math.pi
            assert abs(x_over_tan(x) - y) <= 1e-10

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_round_trip_meets_the_stated_residual(self, n):
        # The docstring's residual bound, 1e-13 * max(1, |y|), checked with
        # math.tan.  From |y| of about 1.1e3 on, rounding x by one ulp moves
        # the residual past it; test_meets_the_contract_to_1e8 covers that.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.floats(min_value=-1e3, max_value=1.0 if n == 0 else 1e3))
        def check(y):
            x = inverse_x_over_tan(y, n)
            if n == 0 and y == 1.0:  # the y -> 1 limit of branch 0
                assert x == 0.0
                return
            assert n * math.pi < x < (n + 1) * math.pi
            assert abs(x_over_tan(x) - y) <= 1e-13 * max(1.0, abs(y))

        check()

    @pytest.mark.parametrize("n, y", [(n, y) for n in range(3)
                                      for y in (-2e3, 2e3, -1e4, 1e4) if n or y < 0]
                             # Roots closer to a pole than 1e-9 (n >= 1) or 1e-12 (n = 0).
                             + [(0, -1e13), (1, 5e9), (1, 1e10), (1, -1e10), (1, 1e12),
                                (1, -1e12), (2, 1e10), (2, -1e10), (2, -1e12)])
    def test_large_y_near_the_pole(self, n, y):
        x = inverse_x_over_tan(y, n)
        assert n * math.pi < x < (n + 1) * math.pi
        assert meets_root_contract(x, y)

    @pytest.mark.parametrize("n, y", [(2, -1e6)] + [(n, y) for n in range(3)
                                                     for y in (-1e4, 1e4) if n or y < 0])
    def test_exhausted_bracket_keeps_the_best_double(self, n, y):
        # Next to the pole one ulp of x moves x/tan(x) by about y^2 ulp(x),
        # far above the residual bound, so the bracket runs out.  The root
        # kept has a residual no larger than either neighbouring double's.
        x = inverse_x_over_tan(y, n)
        residual = abs(x_over_tan(x) - y)
        assert residual <= abs(x_over_tan(math.nextafter(x, -math.inf)) - y)
        assert residual <= abs(x_over_tan(math.nextafter(x, math.inf)) - y)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_meets_the_contract_to_1e8(self, n):
        check_contract_up_to(1e8, n)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_meets_the_contract_to_1e15(self, n):
        check_contract_up_to(1e15, n)

    def test_root_within_an_ulp_of_the_pole_is_refused(self):
        # Past the documented range the root and the pole share a double.
        with pytest.raises(ConvergenceError, match="no sign change"):
            inverse_x_over_tan(1e17, 1)


def check_contract_up_to(bound, n):
    """The root contract on branch n for 200 values of |y| <= bound."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.floats(min_value=-bound, max_value=1.0 if n == 0 else bound))
    def check(y):
        x = inverse_x_over_tan(y, n)
        if n == 0 and y == 1.0:  # the y -> 1 limit of branch 0
            assert x == 0.0
            return
        assert n * math.pi < x < (n + 1) * math.pi
        assert meets_root_contract(x, y)

    check()


def meets_root_contract(x, y):
    """The residual is at most 1e-13 max(1, |y|), or x/tan(x) - y changes sign
    within two ulps of x."""
    if abs(x_over_tan(x) - y) <= 1e-13 * max(1.0, abs(y)):
        return True
    step = 2.0 * math.ulp(x)
    return (x_over_tan(x - step) - y) * (x_over_tan(x + step) - y) <= 0.0


class TestInverseXOverTanh:
    @pytest.mark.parametrize("lam", [3.0, 19.0, 30.0, 300.0])
    def test_converges_in_a_few_evaluations(self, lam, monkeypatch):
        # Once tanh(Lambda) rounds to 1 the root is Lambda itself in double
        # precision, and Newton steps must still land inside the bracket.
        calls = []
        original = _wire._u_over_tanh

        def counted(u):
            calls.append(1)
            return original(u)

        monkeypatch.setattr(_wire, "_u_over_tanh", counted)
        u = inverse_x_over_tanh(lam)
        assert len(calls) <= 10
        oracle = bisect_root(lambda t: t / math.tanh(t) - lam, 1e-300, lam + 1.0)
        assert abs(u - oracle) <= 1e-13 * oracle

    def test_round_trip_meets_the_stated_residual(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.floats(min_value=1.0, max_value=1e3))
        def check(y):
            u = inverse_x_over_tanh(y)
            if y <= 1.0 + 1e-15:  # the y -> 1 limit, returned as 0
                assert u == 0.0
                return
            assert u > 0.0
            assert abs(u_over_tanh(u) - y) <= 1e-13 * max(1.0, abs(y))

        check()


class TestWireParams:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            WireParams(v_F=-1e5, L=5e-6, Delta0=1e11)
        for overrides in ({"v_F": math.nan}, {"L": math.inf}, {"Delta0": math.nan},
                          {"W": math.nan}, {"T": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                WireParams(**{"v_F": 1e5, "L": 5e-6, "Delta0": 1e11, **overrides})

    @pytest.mark.parametrize("v_F, L, Delta0, name", [
        (1e-300, 1e10, 1e11, "Delta0"),  # Delta0*L/v_F overflows
        (1e300, 1e-100, 1e11, "Delta0"),  # Delta0*L/v_F underflows to 0
        (1e300, 1e-10, 1e11, "v_F/L"),  # v_F/L overflows
        (1e-200, 1e200, 1e-300, "v_F/L"),  # v_F/L underflows to 0
    ])
    def test_scales_must_be_finite_and_positive(self, v_F, L, Delta0, name):
        with pytest.raises(ValueError, match=name):
            WireParams(v_F=v_F, L=L, Delta0=Delta0)

    def test_wide_wire_warns(self):
        with pytest.warns(UserWarning) as record:
            WireParams(v_F=1e5, L=5e-6, Delta0=2e11, W=1e-5)
        # The warning points at the caller, not at the generated __init__.
        assert record[0].filename == __file__


class TestWireSplitting:
    def test_zero_phase_value_exact(self, paper_wire):
        res = wire_splitting(paper_wire, 0.0)
        assert res.Lambda == 0.0
        assert res.branch == "oscillatory"
        assert abs(res.E - 0.5 * math.pi * paper_wire.level_spacing) < 1e-12 * res.E
        assert abs(res.E / (2 * math.pi * 1e9) - 5.0) < 1e-12

    def test_branch_point_value(self, paper_wire):
        eps = 2.0 * math.asin(1.0 / paper_wire.lambda_scale)
        res = wire_splitting(paper_wire, eps)
        assert abs(res.E - paper_wire.level_spacing) < 1e-9 * paper_wire.level_spacing

    def test_quarter_turn_against_oracle(self, paper_wire):
        lam = paper_wire.lambda_scale * math.sin(math.pi / 4)
        u = bisect_root(lambda t: u_over_tanh(t) - lam, 1e-9, lam)
        expected = paper_wire.level_spacing * math.sqrt(lam * lam - u * u)
        res = wire_splitting(paper_wire, math.pi / 2)
        assert res.branch == "evanescent"
        assert abs(res.Lambda - lam) < 1e-12
        assert abs(res.E - expected) < 1e-6 * expected
        assert abs(res.E - FROZEN_E_QUARTER_TURN) < 1e-6 * FROZEN_E_QUARTER_TURN
        # Deep in the evanescent regime the splitting is tiny compared with
        # its zero-phase value (2*pi x 5 GHz): here about 2*pi x 37 MHz.
        assert res.E < 0.01 * wire_splitting(paper_wire, 0.0).E

    def test_even_and_periodic(self, paper_wire):
        for eps in (0.3, 1.1, 2.9):
            e_plus = wire_splitting(paper_wire, eps).E
            assert abs(e_plus - wire_splitting(paper_wire, -eps).E) < 1e-12 * e_plus
            assert abs(e_plus - wire_splitting(paper_wire, eps + 2 * math.pi).E) < 1e-9 * e_plus

    def test_monotone_decay_deep_in_evanescent_regime(self, paper_wire):
        # E falls monotonically once Lambda >= 3.
        kappa = paper_wire.lambda_scale
        lams = np.linspace(3.0, kappa - 1e-6, 40)
        energies = [
            wire_splitting(paper_wire, 2.0 * math.asin(l / kappa)).E for l in lams
        ]
        assert all(e1 > e2 for e1, e2 in zip(energies, energies[1:]))

    def test_continuity_across_branch_point(self, paper_wire):
        kappa = paper_wire.lambda_scale
        scale = paper_wire.level_spacing

        def jump(delta):
            lo = 2.0 * math.asin((1.0 - delta) / kappa)
            hi = 2.0 * math.asin((1.0 + delta) / kappa)
            return abs(wire_splitting(paper_wire, lo).E - wire_splitting(paper_wire, hi).E)

        j4, j6 = jump(1e-4), jump(1e-6)
        # Finite slope: the symmetric difference shrinks linearly, and its
        # extrapolated delta -> 0 limit (the actual jump) is consistent with 0.
        assert j6 <= 0.02 * j4
        assert abs(100.0 * j6 - j4) / 99.0 <= 1e-6 * scale


class TestArraySweep:
    """A phase array in one call, against plain bisection in tests/helpers."""

    def test_dense_sweep_across_branch_point_matches_bisection(self, paper_wire):
        eps_star = 2.0 * math.asin(1.0 / paper_wire.lambda_scale)
        offsets = np.geomspace(1e-15, 1e-2, 120)
        eps = np.concatenate([
            np.linspace(0.0, 2.0 * math.pi, 1001),  # Lambda = 0 at both ends
            np.linspace(eps_star - 0.02, eps_star + 0.02, 801),
            eps_star - offsets,
            eps_star + offsets,
        ])
        res = wire_splitting(paper_wire, eps)
        assert res.Lambda[0] == 0.0
        assert np.count_nonzero(res.Lambda < 1.0) > 500
        assert np.count_nonzero(res.Lambda > 1.0) > 500
        expected = np.array([bisect_splitting(paper_wire, e) for e in eps.tolist()])
        rel = np.abs(res.E - expected) / expected
        assert rel.max() <= 1e-12, eps[np.argmax(rel)]
        assert res.branch.tolist() == [
            "oscillatory" if lam <= 1.0 else "evanescent" for lam in res.Lambda.tolist()]

    def test_blocks_give_the_same_sweep(self, paper_wire, monkeypatch):
        # Blocks of three phases, with both branches on either side of
        # Lambda = 1, against one block: the same bits in every field.
        eps_star = 2.0 * math.asin(1.0 / paper_wire.lambda_scale)
        eps = np.concatenate([np.linspace(eps_star - 0.05, eps_star + 0.05, 301),
                              np.linspace(0.0, math.pi, 100)])
        whole = wire_splitting(paper_wire, eps)
        monkeypatch.setattr(_qcore, "BLOCK", 3)
        split = wire_splitting(paper_wire, eps)
        for field in ("E", "Lambda", "root", "branch"):
            assert getattr(split, field).tolist() == getattr(whole, field).tolist(), field
        assert np.count_nonzero(whole.Lambda <= 1.0) > 100
        assert np.count_nonzero(whole.Lambda > 1.0) > 100

    def test_root_solves_do_not_grow_with_the_sweep(self, paper_wire):
        # 2*10**5 phases: the result holds about 13 MB, most of it the
        # branch names.  The root solves, a block at a time, add about 2 MB
        # to that; one solve over the whole sweep added 13 MB.
        eps = np.linspace(0.0, math.pi, 2 * 10**5)
        tracemalloc.start()
        try:
            res = wire_splitting(paper_wire, eps)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.E) == len(eps)
        assert peak - held <= 4 * 2**20

    def test_lambda_exactly_zero_and_one(self):
        # Delta0*L/v_F = 1 exactly, so Lambda = |sin(eps/2)| is 0 at eps = 0
        # and exactly 1 at eps = pi, where x = 0 and E = v_F/L.
        wire = WireParams(v_F=1.0, L=0.5, Delta0=2.0)
        eps = np.array([0.0, 0.5 * math.pi, math.pi])
        res = wire_splitting(wire, eps)
        assert res.Lambda[0] == 0.0 and res.Lambda[2] == 1.0
        assert res.E[2] == wire.level_spacing
        assert res.branch.tolist() == ["oscillatory"] * 3
        expected = [bisect_splitting(wire, e) for e in eps.tolist()]
        assert np.all(np.abs(res.E - expected) <= 1e-12 * np.array(expected))
        assert abs(res.E[0] - 0.5 * math.pi * wire.level_spacing) <= 1e-12 * res.E[0]

    def test_array_matches_one_call_per_phase(self, paper_wire):
        eps = np.linspace(-0.5, 3.5, 161)
        res = wire_splitting(paper_wire, eps)
        singles = [wire_splitting(paper_wire, e) for e in eps.tolist()]
        assert res.E.tolist() == [r.E for r in singles]
        assert res.Lambda.tolist() == [r.Lambda for r in singles]
        assert res.branch.tolist() == [r.branch for r in singles]
        ys = np.linspace(-30.0, 1.0, 97)
        assert inverse_x_over_tan(ys, 0).tolist() == [inverse_x_over_tan(y, 0) for y in ys.tolist()]
        ys = np.linspace(-40.0, 40.0, 97)
        for n in (1, 2):
            assert inverse_x_over_tan(ys, n).tolist() == [
                inverse_x_over_tan(y, n) for y in ys.tolist()]
        ys = np.linspace(1.0, 40.0, 97)
        assert inverse_x_over_tanh(ys).tolist() == [inverse_x_over_tanh(y) for y in ys.tolist()]

    def test_float_in_float_out(self, paper_wire):
        for eps in (0.0, 0.1, 1.3):
            res = wire_splitting(paper_wire, eps)
            assert type(res.E) is float and type(res.Lambda) is float
            assert type(res.branch) is str
        assert type(inverse_x_over_tan(0.3, 0)) is float
        assert type(inverse_x_over_tan(1.0, 0)) is float
        assert type(inverse_x_over_tan(0.3, 2)) is float
        assert type(inverse_x_over_tanh(3.0)) is float
        assert type(inverse_x_over_tanh(1.0)) is float
        assert type(splitting_derivative(paper_wire, 0.4)) is float

    def test_one_bad_phase_fails_the_whole_sweep(self, paper_wire):
        # A NaN phase gives a NaN Lambda, whose root solve cannot converge.
        eps = np.array([0.1, 0.6, math.nan, 2.0])
        with pytest.raises(ConvergenceError):
            wire_splitting(paper_wire, eps)
        with pytest.raises(ValueError, match="branch 0 requires y <= 1"):
            inverse_x_over_tan(np.array([0.2, 1.5, -3.0]), 0)
        with pytest.raises(ValueError):
            inverse_x_over_tanh(np.array([2.0, 0.5]))


class TestSplittingDerivative:
    def test_root_from_the_splitting_gives_the_same_slope(self, paper_wire):
        # Phases on both branches (the branch point sits near eps = 0.2) and
        # one at the cusp; the root that wire_splitting found replaces the
        # derivative's own solve bit for bit.
        phases = [0.0, 0.05, 0.2, 1.3, 3.0, -2.0]
        for phi in phases:
            split = wire_splitting(paper_wire, phi)
            branch_root = (inverse_x_over_tan(split.Lambda, 0) if split.branch == "oscillatory"
                           else inverse_x_over_tanh(split.Lambda))
            assert split.root == branch_root
            assert splitting_derivative(paper_wire, phi, split.root) == splitting_derivative(paper_wire, phi)
        sweep = wire_splitting(paper_wire, np.array(phases))
        assert sweep.root.tolist() == [wire_splitting(paper_wire, phi).root for phi in phases]

    def test_zero_at_cusp_by_symmetry(self, paper_wire):
        assert splitting_derivative(paper_wire, 0.0) == 0.0

    def test_one_sided_limit_at_origin(self, paper_wire):
        # As phi -> 0+ the slope tends to (Delta0/2) * G'(0) with G'(0) = -2/pi.
        expected = -paper_wire.Delta0 / math.pi
        got = splitting_derivative(paper_wire, 1e-7)
        assert abs(got - expected) < 1e-5 * abs(expected)

    def test_odd_under_phase_reflection(self, paper_wire):
        for phi in (0.4, 1.3, 2.2):
            d_plus = splitting_derivative(paper_wire, phi)
            d_minus = splitting_derivative(paper_wire, -phi)
            assert abs(d_plus + d_minus) <= 1e-8 * abs(d_plus)

    def test_agrees_with_implicit_form_at_random_phases(self, paper_wire):
        rng = np.random.default_rng(17)
        phis = [float(rng.uniform(0.02, math.pi - 0.05)) for _ in range(20)]
        phi_star = 2.0 * math.asin(1.0 / paper_wire.lambda_scale)
        # Oscillatory-branch phases (Lambda < 1) besides the random ones.
        phis += [0.05, 0.1, 0.15, 0.19]
        h = 1e-6
        for phi in phis:
            closed = splitting_derivative(paper_wire, phi)
            implicit = implicit_splitting_derivative(paper_wire, phi)
            assert abs(closed - implicit) <= 1e-6 * abs(implicit)
            # A central difference of the splitting shares no formula with
            # the closed form.
            central = (
                wire_splitting(paper_wire, phi + h).E - wire_splitting(paper_wire, phi - h).E
            ) / (2.0 * h)
            assert abs(closed - central) <= 1e-7 * abs(central)
        for offset in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
            for phi in (phi_star - offset, phi_star + offset):
                closed = splitting_derivative(paper_wire, phi)
                implicit = implicit_splitting_derivative(paper_wire, phi)
                assert abs(closed - implicit) <= 1e-6 * abs(implicit)

    def test_finite_on_long_wire(self):
        # Delta0*L/v_F is about 1005, so the evanescent root u reaches 1005,
        # where sinh(2u) would overflow a double.  Where the slope is a normal
        # double it must match the mpmath oracle; past Lambda of about 750 it
        # underflows, and the computed value must too.
        wire = WireParams(v_F=1e5, L=5e-4, Delta0=2 * math.pi * 32e9, W=1e-7)
        compared = 0
        for phi in np.linspace(-math.pi, math.pi, 41):
            value = splitting_derivative(wire, float(phi))
            assert math.isfinite(value)
            reference = mp_splitting_derivative(wire, float(phi))
            if abs(reference) >= sys.float_info.min:
                assert abs(value - reference) <= 1e-8 * abs(reference), (phi, value, reference)
                compared += 1
            else:
                assert abs(value) < sys.float_info.min, (phi, value, reference)
        assert compared >= 20

    def test_slope_does_not_rise_between_nearby_phases(self):
        # Two phases 1000 ulps apart on a long wire (Delta0*L/v_F = 185.5,
        # Lambda about 19.5), where |dE/dphi| rose by 1.4e-11 relative while
        # the u/tanh u root stopped at a residual of 1e-12*Lambda.  The slope
        # falls on (0, pi], so it must not rise by more than rounding.
        delta0, v_f = 2 * math.pi * 32e9, 1e5
        wire = WireParams(v_F=v_f, L=185.5 * v_f / delta0, Delta0=delta0)
        phi1 = 0.21083456460141184
        phi2 = phi1 + 1000 * math.ulp(phi1)
        d1 = abs(splitting_derivative(wire, phi1))
        d2 = abs(splitting_derivative(wire, phi2))
        assert d2 <= d1 * (1.0 + 1e-12)

    def test_max_slope_lies_in_expected_window(self, paper_wire):
        # Dense sweep over (0, pi): the largest slope magnitude sits between
        # 0.1 and 1.0 times Delta0 (it approaches Delta0/pi near the cusp).
        phis = np.linspace(1e-3, math.pi - 1e-3, 500)
        peak = max(abs(splitting_derivative(paper_wire, float(p))) for p in phis)
        assert 0.1 * paper_wire.Delta0 <= peak <= 1.0 * paper_wire.Delta0


class TestThermalLeakage:
    def test_limits(self, paper_wire):
        import dataclasses

        hot = dataclasses.replace(paper_wire, T=1e9)
        cold = dataclasses.replace(paper_wire, T=1e-9)
        assert thermal_leakage(hot) > 0.999
        assert thermal_leakage(cold) < 1e-300

    def test_reference_device_value(self, paper_wire):
        # v_F/L = 2e10 1/s at T = 20 mK gives ~ 4.8e-4, below the 1e-3 budget.
        p_e = thermal_leakage(paper_wire)
        expected = math.exp(-HBAR * 2e10 / (K_B * 0.02))
        assert abs(p_e - expected) < 1e-15
        assert abs(p_e - 4.8168e-4) < 1e-7
        assert p_e < 1e-3

    def test_requires_positive_temperature(self, paper_wire):
        import dataclasses

        with pytest.raises(ValueError):
            thermal_leakage(dataclasses.replace(paper_wire, T=0.0))
