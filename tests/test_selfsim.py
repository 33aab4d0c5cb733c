import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selfsimspec as ss
from conftest import canonical, valid_params


class TestMakeParams:
    def test_canonical_derived_constants(self):
        p = canonical()
        assert p.q == 4.0
        assert p.r == 0.5
        assert p.max_order >= 60

    def test_indefinite_q_is_negative(self):
        p = canonical(-1.0)
        assert p.q == -4.0
        assert p.r == 0.5

    @pytest.mark.parametrize("a", [0.0, 1.0, 1.5, -0.2])
    def test_a_outside_unit_interval(self, a):
        with pytest.raises(ss.OutOfRange, match="a out of"):
            ss.make_params(a, 0.5, 0.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ss.OutOfRange):
            ss.make_params(0.5, float("nan"), 0.0, 1.0)

    def test_zero_d_degenerate(self):
        with pytest.raises(ss.DegenerateWeight):
            ss.make_params(0.5, 0.0, 0.0, 1.0)

    def test_contraction_violated(self):
        with pytest.raises(ss.NotContractive, match="contraction"):
            ss.make_params(0.5, 2.0, 0.0, 1.0)

    @pytest.mark.parametrize("d,beta1,beta2", [(0.5, -1e308, 1.5e308), (-0.5, 1.5e308, -1e308)])
    def test_overflowing_jump_rejected(self, d, beta1, beta2):
        """d*beta1 + beta2 - beta1 = 2e308 (or -3.25e308) leaves double range, so r would be
        infinite."""
        with pytest.raises(ss.OutOfRange, match="overflows"):
            ss.make_params(0.5, d, beta1, beta2)

    @pytest.mark.parametrize("a,d", [(1e-200, 1e-200), (5e-324, -2.0), (1e-160, 1e-150)])
    def test_overflowing_q_rejected(self, a, d):
        """a*d underflows to 0, or to a subnormal whose reciprocal overflows: q = 1/(a*d)
        would raise ZeroDivisionError or be infinite."""
        with pytest.raises(ss.OutOfRange, match="q = 1/\\(a\\*d\\) overflows"):
            ss.make_params(a, d, 0.0, 1.0)

    def test_zero_jump_degenerate(self):
        # d*beta1 + beta2 - beta1 = 0.5 + 0.5 - 1 = 0
        with pytest.raises(ss.DegenerateWeight):
            ss.make_params(0.5, 0.5, 1.0, 0.5)

    @given(st.floats(0.05, 0.95), st.floats(0.02, 0.5), st.sampled_from((-1.0, 1.0)),
           st.floats(-320.0, -100.0))
    @example(0.5, 0.5, 1.0, -200.0)  # max_order 411: the gap and entry guards allow 481
    @example(0.5, 0.5, 1.0, -300.0)  # 79
    @settings(deadline=None, max_examples=25)
    def test_max_order_keeps_the_last_mass(self, a, d, sign, exponent):
        """With |d| < 1 the masses shrink and can underflow to 0 before the other guards
        bind: max_order stops at the last order whose last mass is not 0, so the weight and
        fem hold there and every route refuses the next order at the range guard. Below
        beta2 ~ 1e-289 every eigenvalue lies beyond the 1e290 guard, which fem says instead."""
        p = ss.make_params(a, sign * d, 0.0, 10.0**exponent)
        assert ss.weight_truncation(p, p.max_order).masses[-1] != 0.0
        try:
            spec = ss.compute_spectrum(p, p.max_order)
            assert len(spec.values) + spec.dropped == p.max_order
        except ss.ZeroEigenvalue:
            assert exponent < -288.0
        for formulation in ss.FORMULATIONS:
            with pytest.raises(ss.RangeOverflow, match="beyond the range guard"):
                ss.compute_spectrum(p, p.max_order + 1, formulation)

    @given(st.floats(0.05, 0.3), st.floats(0.02, 0.95), st.sampled_from((-1.0, 1.0)),
           st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 308.0))
    @example(0.5, 0.72, 1.0, 1.0, 300.0)  # (0.5, 1.2, 0, 1e300): max_order 105, not 996
    @example(0.3, 0.867, 1.0, 1.0, 250.0)  # (0.3, 1.7, 0, 1e250): 253, not 573
    @example(0.2, 0.45, -1.0, 1.0, 305.0)  # (0.2, -1.5, 0, 1e305): masses leave range first
    @settings(deadline=None, max_examples=30)
    def test_max_order_keeps_the_last_mass_in_range(self, a, s, sign_d, sign_b, exponent):
        """beta2 from +-1e308 down to 1e-300, either sign of d: with a large jump and
        |d| > 1 the masses overflow long before the gap and entry guards bind, as they
        underflow with |d| < 1. max_order is the last order whose last mass is finite and not
        0, fem solves there (or finds every eigenvalue beyond its guard), and the next order
        is refused at the range guard. a <= 0.3 keeps max_order under 573."""
        d = sign_d * math.sqrt(s / a)
        beta2 = sign_b * 10.0**exponent
        p = ss.make_params(a, d, 0.0, beta2)
        m = ss.weight_truncation(p, p.max_order).masses[-1]
        assert math.isfinite(m) and m != 0.0
        try:
            spec = ss.compute_spectrum(p, p.max_order)
            assert len(spec.values) + spec.dropped == p.max_order
        except ss.ZeroEigenvalue:
            pass
        with pytest.raises(ss.RangeOverflow, match="beyond the range guard"):
            ss.compute_spectrum(p, p.max_order + 1)


class TestWeightTruncation:
    def test_canonical_positions_and_masses(self):
        w = ss.weight_truncation(canonical(), 3)
        np.testing.assert_array_equal(w.positions, [0.5, 0.75, 0.875])
        np.testing.assert_array_equal(w.masses, [1.0, 0.5, 0.25])
        np.testing.assert_array_equal(w.gaps, [0.5, 0.25, 0.125])

    def test_indefinite_masses_alternate(self):
        w = ss.weight_truncation(canonical(-1.0), 4)
        np.testing.assert_array_equal(w.masses, [1.0, -0.5, 0.25, -0.125])

    def test_order_zero_rejected(self):
        with pytest.raises(ss.OutOfRange):
            ss.weight_truncation(canonical(), 0)

    def test_largest_orders_before_underflow_and_overflow(self):
        """The refusal is decided from the extreme entries and agrees with the
        arrays: 0.5^1074 is the least subnormal and 0.5^1075 rounds to 0; the
        masses 5e307 * 1.5^k leave double range at k = 4 (a RuntimeWarning on
        the way would fail the test under the pytest configuration)."""
        assert ss.weight_truncation(canonical(), 1074).gaps[-1] > 0.0
        with pytest.raises(ss.RangeOverflow, match="a\\^1075 underflows"):
            ss.weight_truncation(canonical(), 1075)
        grow = ss.make_params(0.2, 1.5, 1e308, 0.0)
        assert np.all(np.isfinite(ss.weight_truncation(grow, 4).masses))
        with pytest.raises(ss.RangeOverflow, match="masses overflow at N = 5"):
            ss.weight_truncation(grow, 5)

    @pytest.mark.parametrize("build", [ss.weight_truncation, ss.step_function])
    def test_underflowing_order_refused_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ss.RangeOverflow, match="underflows"):
                build(canonical(), 20_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_gaps_complement_positions_exactly(self):
        # positions saturate to 1.0 in floating point near order 54; the
        # gaps are the reliable representation and must match while the
        # positions still resolve
        w = ss.weight_truncation(canonical(), 40)
        np.testing.assert_array_equal(w.positions, 1.0 - w.gaps)

    @given(valid_params())
    @settings(deadline=None)
    def test_mass_ratio_is_d(self, p):
        w = ss.weight_truncation(p, 8)
        ratios = w.masses[1:] / w.masses[:-1]
        np.testing.assert_allclose(ratios, p.d, rtol=1e-12)


class TestStepFunction:
    def test_canonical_plateaus(self):
        f = ss.step_function(canonical(), 3)
        np.testing.assert_array_equal(f.values, [0.0, 1.0, 1.5, 1.75])
        np.testing.assert_array_equal(f.breakpoints, [0.5, 0.75, 0.875])

    def test_negative_depth_refused(self):
        with pytest.raises(ss.OutOfRange, match="depth must be >= 0, got -1"):
            ss.step_function(canonical(), -1)

    def test_plateau_jumps_are_the_masses(self):
        p = canonical(-1.0)
        f = ss.step_function(p, 6)
        w = ss.weight_truncation(p, 6)
        np.testing.assert_allclose(np.diff(f.values), w.masses, rtol=1e-15)

    def test_values_at_points(self):
        p = canonical()
        assert ss.step_value(p, 0.3, 10) == 0.0
        assert ss.step_value(p, 0.6, 10) == 1.0
        assert ss.step_value(p, 0.8, 10) == 1.5
        assert ss.step_value(p, 0.0, 10) == 0.0

    def test_breakpoint_refused(self):
        with pytest.raises(ss.AtBreakpoint):
            ss.step_value(canonical(), 0.75, 10)

    def test_accumulation_point_refused(self):
        with pytest.raises(ss.DepthExceeded):
            ss.step_value(canonical(), 1.0, 10)

    def test_depth_exceeded_near_one(self):
        # 1 - 0.5^7 < x < 1 needs plateau 7, truncation stops at 4
        with pytest.raises(ss.DepthExceeded):
            ss.step_value(canonical(), 1.0 - 0.7 * 0.5**7, 4)

    def test_outside_domain(self):
        with pytest.raises(ss.OutOfRange):
            ss.step_value(canonical(), -0.1, 5)


    def test_overflow_raises_without_warning(self):
        """Masses that leave double range, and plateau values that do while
        the masses fit (v_3 = 1e308 + 5e307 + ... > 1.8e308), raise
        RangeOverflow with no RuntimeWarning on the way."""
        grow = ss.make_params(0.2, 1.5, 1e308, 0.0)
        with pytest.raises(ss.RangeOverflow, match="masses overflow at N = 5"):
            ss.step_function(grow, 5)
        with pytest.raises(ss.RangeOverflow, match="masses overflow at N = 40"):
            ss.fixed_point_residual(grow, 40)
        big = ss.make_params(0.5, 0.5, 1e308, 1e308)
        assert np.all(np.isfinite(ss.step_function(big, 2).values))
        with pytest.raises(ss.RangeOverflow, match="plateau values overflow at depth 3"):
            ss.step_function(big, 3)


class TestSimilarityFixedPoint:
    def test_canonical_exactly_fixed(self):
        """The map must reproduce the truncation bit for bit for powers of two."""
        p = canonical()
        f = ss.step_function(p, 8)
        g = ss.apply_similarity(p, f)
        assert g.depth == 9
        np.testing.assert_array_equal(g.breakpoints[1:], ss.step_function(p, 9).breakpoints[1:])
        np.testing.assert_array_equal(g.values, ss.step_function(p, 9).values)

    def test_canonical_residual_zero(self):
        assert ss.fixed_point_residual(canonical(), 40) == 0.0
        assert ss.fixed_point_residual(canonical(-1.0), 40) == 0.0

    @given(valid_params())
    @settings(deadline=None, max_examples=50)
    def test_residual_small_for_generic_params(self, p):
        scale = max(abs(p.beta1), abs(p.beta2), 1.0)
        assert ss.fixed_point_residual(p, 12) <= 1e-12 * scale

    def test_depth_below_two_rejected(self):
        with pytest.raises(ss.OutOfRange):
            ss.fixed_point_residual(canonical(), 1)
