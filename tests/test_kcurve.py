import math

import numpy as np
import pytest

from eggmetrics import (
    Branch,
    ConfigurationError,
    Convexity,
    DomainError,
    DomainParams,
    NumericalError,
    joining_point,
    joining_point_derivatives,
    kcurve_alpha_grid,
    kcurve_alpha_range,
    kcurve_sample,
    kobayashi_reference,
    square_convexity_check,
    third_derivative_reference,
)
from eggmetrics.kcurve import _lower_xy_many, _upper_xy_many, lower_xy, upper_xy
from eggmetrics.numerics import abs_pow, derivative


class TestSamples:
    def test_lower_at_alpha_one(self):
        # x = (1-P)^2, y = p1^2 (1-P)^2 / m^2
        m, p1 = 2.0, 0.4
        d = DomainParams(m=m, n=2)
        P = p1 ** 4
        s = kcurve_sample(d, p1, Branch.LOWER, 1.0)
        assert s.x == pytest.approx((1 - P) ** 2, rel=1e-14)
        assert s.y == pytest.approx(p1 ** 2 * (1 - P) ** 2 / m ** 2, rel=1e-14)

    def test_lower_samples_on_the_line(self):
        for m, p1 in [(0.75, 0.5), (2.0, 0.3)]:
            d = DomainParams(m=m, n=2)
            P = abs_pow(p1, 2 * m)
            for a in kcurve_alpha_grid(d, p1, Branch.LOWER, 32):
                s = kcurve_sample(d, p1, Branch.LOWER, float(a))
                line = (m * m * abs_pow(p1, 2 * m - 2) * s.y / (1 - P) ** 2
                        + s.x / (1 - P))
                assert line == pytest.approx(1.0, abs=1e-13)

    def test_upper_limit_is_joining_point(self):
        for m, p1 in [(0.75, 0.5), (2.0, 0.3), (2.5, 0.7)]:
            d = DomainParams(m=m, n=2)
            up = kcurve_sample(d, p1, Branch.UPPER, 1.0)
            low = kcurve_sample(d, p1, Branch.LOWER, 1.0)
            jx, jy = joining_point(d, p1)
            assert up.x == pytest.approx(low.x, abs=1e-12)
            assert up.y == pytest.approx(low.y, abs=1e-12)
            assert up.x == pytest.approx(jx, abs=1e-12)
            assert up.y == pytest.approx(jy, abs=1e-12)

    def test_every_sample_lies_on_the_indicatrix(self):
        for m in (0.5, 0.75, 1.3, 2.0):
            d = DomainParams(m=m, n=2)
            for p1 in (0.3, 0.6, 0.85):
                for branch in (Branch.UPPER, Branch.LOWER):
                    for a in kcurve_alpha_grid(d, p1, branch, 40):
                        s = kcurve_sample(d, p1, branch, float(a))
                        assert s.x >= 0.0 and s.y >= 0.0
                        v = [math.sqrt(s.y), math.sqrt(s.x)]
                        k2 = kobayashi_reference(d, p1, v) ** 2
                        assert abs(k2 - 1.0) < 1e-10

    def test_upper_axis_endpoint(self):
        # alpha = p1 lands on the y-intercept (0, (1-p1^2)^2)
        d = DomainParams(m=2.0, n=2)
        s = kcurve_sample(d, 0.5, Branch.UPPER, 0.5)
        assert s.x == pytest.approx(0.0, abs=1e-15)
        assert s.y == pytest.approx((1 - 0.25) ** 2, rel=1e-13)

    def test_alpha_out_of_range_rejected(self):
        d = DomainParams(m=2.0, n=2)
        p1 = 0.5
        lo, hi = kcurve_alpha_range(d, p1, Branch.UPPER)
        assert (lo, hi) == (p1, 1.0)
        with pytest.raises(DomainError):
            kcurve_sample(d, p1, Branch.UPPER, 1.1)
        # below p1 the printed parametrization leaves the first quadrant
        endpoint = (p1 ** 4) ** (1.0 / 3.0)  # alpha with alpha^(2m-1) = p1^2m
        assert endpoint < p1
        with pytest.raises(DomainError):
            kcurve_sample(d, p1, Branch.UPPER, endpoint)
        with pytest.raises(DomainError):
            kcurve_sample(d, p1, Branch.LOWER, 0.9)

    def test_grid_hits_endpoints_and_is_sorted(self):
        d = DomainParams(m=2.0, n=2)
        g = kcurve_alpha_grid(d, 0.5, Branch.UPPER, 64)
        assert g[0] == 0.5 and g[-1] == 1.0
        assert np.all(np.diff(g) > 0)


def _upper_xy_abs_pow(m, p1, alpha):
    # the UPPER arc with every power through abs_pow, as written before the
    # one-log sampler
    P = abs_pow(p1, 2 * m)
    x = ((abs_pow(alpha, 2 * m - 2) - P) * (abs_pow(alpha, 2 * m) - P)
         / abs_pow(alpha, 4 * m - 2))
    y = (p1 * (m * abs_pow(alpha, 2 * m - 2) - (m - 1.0) * abs_pow(alpha, 2 * m) - P)
         / (m * abs_pow(alpha, 2 * m - 1))) ** 2
    return x, y


class TestUpperSampler:
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0, 5.0, 20.0, 60.0])
    def test_bit_equal_to_abs_pow_formula_on_the_grid(self, m):
        d = DomainParams(m=m, n=2)
        for p1 in (0.05, 0.5, 0.95):
            grid = kcurve_alpha_grid(d, p1, Branch.UPPER, 512)
            expected = [_upper_xy_abs_pow(m, p1, a) for a in grid]
            assert [upper_xy(m, p1, a) for a in grid] == expected
            assert _upper_xy_many(m, p1, grid) == expected

    def test_alpha_zero_unchanged(self):
        # m = 1/2: the alpha^0 powers are 1 and alpha^(-1) is abs_pow's 0
        for p1 in (0.05, 0.5, 0.95):
            expected = _upper_xy_abs_pow(0.5, p1, 0.0)
            assert upper_xy(0.5, p1, 0.0) == expected
            assert _upper_xy_many(0.5, p1, [0.0, 0.5]) == [
                expected, _upper_xy_abs_pow(0.5, p1, 0.5)]
        # otherwise alpha^(4m-2) = 0 divides x, as before
        for m in (0.75, 1.0, 2.0):
            with pytest.raises(ZeroDivisionError):
                _upper_xy_abs_pow(m, 0.5, 0.0)
            with pytest.raises(ZeroDivisionError):
                upper_xy(m, 0.5, 0.0)


def _lower_xy_abs_pow(m, p1, alpha):
    # the LOWER segment with the p1 powers recomputed per alpha, as written
    # before the hoisted sampler
    P = abs_pow(p1, 2 * m)
    x = (1.0 - P) ** 2 * alpha
    y = (1.0 - P) ** 2 * ((1.0 - alpha) + alpha * P) / (m * m * abs_pow(p1, 2 * m - 2))
    return x, y


class TestLowerSampler:
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0, 5.0, 20.0, 60.0])
    def test_bit_equal_to_abs_pow_formula_on_the_grid(self, m):
        d = DomainParams(m=m, n=2)
        for p1 in (0.05, 0.5, 0.95):
            grid = kcurve_alpha_grid(d, p1, Branch.LOWER, 512)
            expected = [_lower_xy_abs_pow(m, p1, a) for a in grid]
            assert [lower_xy(m, p1, a) for a in grid] == expected
            assert _lower_xy_many(m, p1, grid) == expected


class TestJoiningDerivatives:
    def test_second_derivative_matches(self):
        d = DomainParams(m=2.0, n=2)
        assert abs(joining_point_derivatives(d, 0.3).d2_match) < 1e-8

    def test_third_derivative_closed_form_at_m2(self):
        # numerator 16 p1^6 (1-p1^4)^2 * 9 * (1/2) over xdot^4, xdot = 6 p1^4 (1-p1^4)
        d = DomainParams(m=2.0, n=2)
        p1 = 0.3
        numer = 16 * p1 ** 6 * (1 - p1 ** 4) ** 2 * 9 * 0.5
        xdot = 6 * p1 ** 4 * (1 - p1 ** 4)
        expected = numer / xdot ** 4
        got = joining_point_derivatives(d, p1)
        assert got.d3_expected == pytest.approx(expected, rel=1e-14)
        assert got.d3_jump == pytest.approx(expected, rel=1e-6)

    def test_ball_third_derivative_vanishes(self):
        d = DomainParams(m=1.0, n=2)
        got = joining_point_derivatives(d, 0.5)
        assert got.d3_expected == 0.0
        assert abs(got.d3_jump) < 1e-6

    def test_half_m_rejected(self):
        d = DomainParams(m=0.5, n=2)
        with pytest.raises(ConfigurationError):
            joining_point_derivatives(d, 0.3)
        with pytest.raises(ConfigurationError):
            third_derivative_reference(d, 0.3)

    @pytest.mark.parametrize("m,p1", [(2.0, 0.3), (1.5, 0.4), (0.75, 0.5)])
    def test_numeric_matches_reference_generally(self, m, p1):
        d = DomainParams(m=m, n=2)
        got = joining_point_derivatives(d, p1)
        assert got.d3_jump == pytest.approx(got.d3_expected, rel=1e-6)

    def test_richardson_derivatives_match_closed_first_derivatives(self):
        # the parametric derivative machinery against the exact closed forms
        for m, p1 in [(2.0, 0.3), (1.5, 0.6), (0.75, 0.4)]:
            P = abs_pow(p1, 2 * m)
            fx = lambda a: upper_xy(m, p1, a)[0]
            fy = lambda a: upper_xy(m, p1, a)[1]
            xdot = float(derivative(fx, 1.0, 1, h0=0.05, levels=5))
            ydot = float(derivative(fy, 1.0, 1, h0=0.05, levels=5))
            assert xdot == pytest.approx((4 * m - 2) * P * (1 - P), abs=1e-8)
            assert ydot == pytest.approx(
                -(4 * m - 2) * p1 * p1 * (1 - P) ** 2 / (m * m), abs=1e-8)


class TestConvexity:
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0])
    def test_lower_is_affine(self, m):
        d = DomainParams(m=m, n=2)
        v = square_convexity_check(d, 0.5, Branch.LOWER)
        assert v.verdict is Convexity.AFFINE
        assert v.margin < 1e-9

    def test_upper_convex_below_one(self):
        d = DomainParams(m=0.75, n=2)
        v = square_convexity_check(d, 0.4, Branch.UPPER)
        assert v.verdict is Convexity.CONVEX
        assert v.margin > 0

    def test_upper_concave_above_one(self):
        d = DomainParams(m=2.0, n=2)
        v = square_convexity_check(d, 0.4, Branch.UPPER)
        assert v.verdict is Convexity.CONCAVE
        assert v.margin > 0

    def test_half_m_is_convex(self):
        d = DomainParams(m=0.5, n=2)
        assert square_convexity_check(d, 0.6, Branch.UPPER).verdict is Convexity.CONVEX

    def test_ball_upper_is_affine(self):
        d = DomainParams(m=1.0, n=2)
        assert square_convexity_check(d, 0.5, Branch.UPPER).verdict is Convexity.AFFINE

    def test_stable_under_doubling(self):
        for m in (0.75, 2.0):
            d = DomainParams(m=m, n=2)
            a = square_convexity_check(d, 0.5, Branch.UPPER, samples=64)
            b = square_convexity_check(d, 0.5, Branch.UPPER, samples=128)
            assert a.verdict is b.verdict

    def test_needs_enough_samples(self):
        with pytest.raises(DomainError):
            square_convexity_check(DomainParams(m=2.0, n=2), 0.5, Branch.UPPER, samples=4)

    def test_unresolvable_branch_is_a_numerical_error(self):
        # at m = 20 the LOWER branch at p1 = 0.4 spans under 1e-14 in x, so
        # no divided-difference triple survives
        with pytest.raises(NumericalError, match="LOWER branch spans"):
            square_convexity_check(DomainParams(m=20.0, n=2), 0.4, Branch.LOWER)
