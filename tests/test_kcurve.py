import math

import mpmath
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
from eggmetrics import kcurve as kcurve_module
from eggmetrics.kcurve import _lower_xy_many, _upper_tangents, _upper_xy_many, lower_xy, upper_xy
from eggmetrics.numerics import abs_pow, richardson
from eggmetrics.verification import run_checks

import wu_reference


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


def _upper_xy_50(m, p1, alpha):
    # the printed arc at 50 digits
    with mpmath.workdps(50):
        m, p1, a = mpmath.mpf(m), mpmath.mpf(p1), mpmath.mpf(alpha)
        P = p1 ** (2 * m)
        x = (a ** (2 * m - 2) - P) * (a ** (2 * m) - P) / a ** (4 * m - 2)
        y = (p1 * (m * a ** (2 * m - 2) - (m - 1) * a ** (2 * m) - P) / (m * a ** (2 * m - 1))) ** 2
        return float(x), float(y)


class TestUpperSampler:
    @pytest.mark.parametrize("m,p1", [
        (0.5, 0.3), (0.75, 0.5), (1.0, 0.5), (2.0, 0.4), (5.0, 0.8), (20.0, 0.2),
        (60.0, 0.01), (60.0, 1e-5), (20.0, 0.999999), (0.75, 0.999999),
    ])
    def test_bounded_form_matches_50_digits(self, m, p1):
        # at m = 60 and small p1 the printed formula divides by alpha^(4m-2) =
        # 0, and near either arc end or as p1 -> 1 its differences cancel; the
        # bounded form keeps both coordinates to their relative accuracy
        d = DomainParams(m=m, n=2)
        grid = kcurve_alpha_grid(d, p1, Branch.UPPER, 128)
        got = _upper_xy_many(m, p1, grid)
        want = np.array([_upper_xy_50(m, p1, a) for a in grid])
        assert np.all(got >= 0.0)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-300)
        assert [list(upper_xy(m, p1, a)) for a in grid[::16]] == got[::16].tolist()

    @pytest.mark.parametrize("m", [0.5, 2.0, 60.0])
    def test_arc_ends(self, m):
        # alpha = p1 is the y-intercept (0, (1 - p1^2)^2); alpha = 1 the junction
        d = DomainParams(m=m, n=2)
        for p1 in (0.01, 0.5, 0.95):
            (x0, y0), (x1, y1) = _upper_xy_many(m, p1, [p1, 1.0])
            assert x0 == 0.0 and y0 == pytest.approx((1 - p1 * p1) ** 2, rel=1e-14)
            assert (x1, y1) == pytest.approx(joining_point(d, p1), rel=1e-13, abs=0.0)


def _upper_tangents_mp(m, p1, alpha):
    # x, y, x', y', log lambda and its u-derivative at alpha = e^u, by mpmath
    # differentiation of the reference arc up to second order, at enough
    # digits to resolve x' ~ t = (p1/alpha)^2m where x rounds to 1
    with mpmath.workdps(40 + int(2.0 * m * math.log10(alpha / p1))):
        m, p1 = mpmath.mpf(m), mpmath.mpf(p1)
        u = mpmath.log(mpmath.mpf(alpha))
        (_, dx, ddx), (_, dy, ddy) = (
            list(mpmath.diffs(lambda u, c=c: wu_reference._upper(m, p1, mpmath.e ** u)[c], u, 2))
            for c in (0, 1))
        x, y = wu_reference._upper(m, p1, mpmath.mpf(alpha))  # x = 0 at alpha = p1
        return [float(v) for v in (x, y, dx, dy, mpmath.log(-dy / dx), ddy / dy - ddx / dx)]


class TestUpperTangents:
    @pytest.mark.parametrize("p1", [1e-8, 0.3, 1.0 - 1e-6])
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0, 200.0])
    def test_matches_mpmath_differentiation(self, m, p1):
        # every column to 1e-12 relative over the arc, ends included; log
        # lambda relative to max(1, |log lambda|), where its ulp is 1e-12 at
        # m = 200 and p1 = 1e-8; x' and y' underflow with t at large m, and
        # the nested differentiation leaves about 1e-50 where l' = 0 (alpha = 1)
        alphas = np.append(np.geomspace(p1, 1.0, 5), 0.5 * (p1 + 1.0))
        got = np.stack(_upper_tangents(m, p1, alphas), axis=-1)
        floor = np.array([1e-300] * 5 + [1e-30])
        for row, a in zip(got, alphas):
            want = _upper_tangents_mp(m, p1, a)
            if m == 0.5 and a == 1.0:  # K = 0: x' = y' = 0, and lambda is their ratio's limit
                assert row[2] == row[3] == 0.0
                want[2:] = row[2:]
            scale = np.abs(want) * [1, 1, 1, 1, 0, 1] + [0, 0, 0, 0, max(1.0, abs(want[4])), 0]
            assert np.all(np.abs(row - want) <= 1e-12 * scale + floor), (a, row, want)

    @pytest.mark.parametrize("m,p1", [(0.5, 0.3), (1.0, 1e-300), (2.0, 0.4), (60.0, 1e-5), (200.0, 0.999999)])
    def test_xy_keep_the_bits_of_upper_xy_many(self, m, p1):
        alphas = np.concatenate([[p1, 1.0], np.geomspace(p1, 1.0, 97), np.linspace(p1, 1.0, 31)])
        x, y = _upper_tangents(m, p1, alphas)[:2]
        assert np.stack([x, y], axis=-1).tobytes() == _upper_xy_many(m, p1, alphas).tobytes()

    @pytest.mark.parametrize("p1", [1e-9, 0.3, 0.9, 1.0 - 1e-9])
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 20.0, 60.0])
    def test_xy_alone_are_the_tangent_tables_columns(self, m, p1):
        # _upper_xy_many skips the other four columns, not a bit of x and y
        for alphas in (np.geomspace(p1, 1.0, 65), np.linspace(p1, 1.0, 33), [p1], [1.0]):
            want = np.stack(_upper_tangents(m, p1, alphas)[:2], -1)
            assert _upper_xy_many(m, p1, alphas).tobytes() == want.tobytes()


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
            assert np.array_equal(_lower_xy_many(m, p1, grid), expected)


class TestLowerRange:
    @pytest.mark.parametrize("p1", [0.999999, 1.0 - 1e-12])
    @pytest.mark.parametrize("m", [0.75, 2.0])
    def test_range_end_and_junction_match_50_digits(self, m, p1):
        # 1 - p1^2m by subtraction is off by about eps/(2m (1 - p1)) relative
        # (3.7e-5 at (0.75, 1 - 1e-12)); as -expm1(2m log p1) it is not
        d = DomainParams(m=m, n=2)
        with mpmath.workdps(50):
            q = 1 - mpmath.mpf(p1) ** (2 * mpmath.mpf(m))
            want = [float(1 / q), float(q * q), float(mpmath.mpf(p1) ** 2 * q * q / m ** 2)]
        got = [kcurve_alpha_range(d, p1, Branch.LOWER)[1], *joining_point(d, p1)]
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_collapsed_range_raises(self):
        # at m = 60 and p1 = 1e-5, m^2 p1^118 underflows and 1 - p1^120 rounds to 1
        d = DomainParams(m=60.0, n=2)
        assert kcurve_alpha_range(d, 1e-5, Branch.LOWER) == (1.0, 1.0)
        for sample in (lambda: lower_xy(60.0, 1e-5, 1.0),
                       lambda: kcurve_sample(d, 1e-5, Branch.LOWER, 1.0)):
            with pytest.raises(NumericalError, match=r"LOWER range .* has collapsed to \{1\}"):
                sample()


def central_diff(f, x0, order, h):
    # central finite difference of the given derivative order, O(h^2) accurate
    if order == 1:
        return (f(x0 + h) - f(x0 - h)) / (2 * h)
    if order == 2:
        return (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / (h * h)
    if order == 3:
        return (f(x0 + 2 * h) - 2 * f(x0 + h) + 2 * f(x0 - h) - f(x0 - 2 * h)) / (2 * h ** 3)
    raise ValueError(f"unsupported derivative order {order}")


def derivative(f, x0, order, h0, levels=4):
    # central differences with a Richardson ladder over halved steps: the
    # finite-difference oracle for the exact junction derivatives
    ests = []
    h = h0
    for _ in range(levels):
        ests.append(central_diff(f, x0, order, h))
        h *= 0.5
    return richardson(ests)


def _ladder_junction(m, p1):
    # d2 and d3 of the UPPER curve at alpha = 1 by the Richardson ladder on
    # the rescaled pieces, and the size of the two terms whose difference is d2
    P = abs_pow(p1, 2 * m)

    def g1(a):
        return abs_pow(a, -2 * m) + abs_pow(a, 2 - 2 * m)

    def g2(a):
        return abs_pow(a, 2 - 4 * m)

    def yhat(a):
        numer = m * abs_pow(a, 2 * m - 2) - (m - 1.0) * abs_pow(a, 2 * m) - P
        return numer * numer / abs_pow(a, 4 * m - 2)

    xd1 = (4 * m - 2) * P * (1.0 - P)
    yd1 = -(4 * m - 2) * p1 * p1 * (1.0 - P) ** 2 / (m * m)
    xd2 = float(-P * derivative(g1, 1.0, 2, h0=0.1, levels=6)
                + P * P * derivative(g2, 1.0, 2, h0=0.1, levels=6))
    yd2 = p1 * p1 / (m * m) * float(derivative(yhat, 1.0, 2, h0=0.1, levels=6))
    xd3 = float(-P * derivative(g1, 1.0, 3, h0=0.02, levels=4)
                + P * P * derivative(g2, 1.0, 3, h0=0.02, levels=4))
    yd3 = p1 * p1 / (m * m) * float(derivative(yhat, 1.0, 3, h0=0.02, levels=4))
    d2 = (xd1 * yd2 - yd1 * xd2) / xd1 ** 3
    d3 = (xd1 * yd3 - yd1 * xd3) / xd1 ** 4
    return d2, d3, abs(yd1 * xd2 / xd1 ** 3)


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

    @pytest.mark.parametrize("m,p1", [(2.0, 1e-20), (2.0, 1e-30), (2.0, 1e-80),
                                      (60.0, 1e-5), (60.0, 1e-30)])
    def test_past_the_float_range_is_a_typed_error(self, m, p1):
        # xdot(1)^3 and xdot(1)^4 underflow once p1^2m is small (ZeroDivisionError at
        # m = 2 from p1 = 1e-30, a subnormal xdot^4 at 1e-20): refused, naming p1
        d = DomainParams(m=m, n=2)
        for fn in (joining_point_derivatives, third_derivative_reference):
            with pytest.raises(NumericalError, match=f"float range at p1={p1!r}"):
                fn(d, p1)

    @pytest.mark.parametrize("m,p1", [(2.0, 1e-10), (60.0, 0.3)])
    def test_in_range_near_the_limit(self, m, p1):
        # inside the float range the quotients are finite and d3 meets its closed form
        got = joining_point_derivatives(DomainParams(m=m, n=2), p1)
        assert got.d3_jump == pytest.approx(got.d3_expected, rel=1e-12, abs=0)
        assert all(math.isfinite(x) for x in (got.d2_match, got.d2_terms))

    @pytest.mark.parametrize("m", [0.75, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("p1", [0.3, 0.5, 0.7])
    def test_exact_matches_the_finite_difference_ladder(self, m, p1):
        got = joining_point_derivatives(DomainParams(m=m, n=2), p1)
        d2, d3, scale = _ladder_junction(m, p1)
        # d2 is a cancellation to zero: compare it on the scale of its terms
        assert abs(got.d2_match - d2) <= 1e-6 * scale
        assert got.d3_jump == pytest.approx(d3, rel=1e-6, abs=0)

    @pytest.mark.parametrize("m", [0.75, 2.0, 5.0])
    @pytest.mark.parametrize("p1", [0.999999, 1.0 - 1e-9, 1.0 - 1e-12])
    def test_third_derivative_reference_near_one_matches_50_digits(self, m, p1):
        # 1 - p1^2m from the x-intercept's expm1 form: the subtraction lost
        # up to 7.4e-8 relative at p1 = 1 - 1e-9
        with mpmath.workdps(50):
            mp_m, mp_p1 = mpmath.mpf(m), mpmath.mpf(p1)
            P = mp_p1 ** (2 * mp_m)
            want = (16 * mp_p1 ** (2 * mp_m + 2) * (1 - P) ** 2 * (2 * mp_m - 1) ** 2 * (mp_m - 1)
                    / mp_m / ((4 * mp_m - 2) * P * (1 - P)) ** 4)
            got = third_derivative_reference(DomainParams(m=m, n=2), p1)
            assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("m", [0.75, 1.5, 2.0, 5.0, 20.0, 60.0])
    @pytest.mark.parametrize("p1", [0.3, 0.5, 0.7])
    def test_exact_third_derivative_matches_reference(self, m, p1):
        got = joining_point_derivatives(DomainParams(m=m, n=2), p1)
        assert got.d3_jump == pytest.approx(got.d3_expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [0.75, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0])
    @pytest.mark.parametrize("p1", [1e-20, 1e-10, 1e-5, 0.3, 0.9, 0.99, 0.999999])
    def test_d3_terms_bound_the_rounding(self, m, p1):
        # d3_jump against the closed form at 60 digits from the computed P = p1^2m,
        # 16 P p1^2 (1 - P)^2 (2m - 1)^2 (m - 1)/m / xdot^4: at most 2.2 ulp of
        # d3_terms here, wherever the call returns. At m = 1, p1 = 1e-20 that
        # tells d3_jump = 3.7e64 (0.28 ulp of d3_terms = 6.0e80) from a jump
        try:
            got = joining_point_derivatives(DomainParams(m=m, n=2), p1)
        except NumericalError:
            return
        with mpmath.workdps(60):
            mp_m, mp_p1, P = mpmath.mpf(m), mpmath.mpf(p1), mpmath.mpf(abs_pow(p1, 2 * m))
            exact = (16 * P * mp_p1 ** 2 * (1 - P) ** 2 * (2 * mp_m - 1) ** 2 * (mp_m - 1)
                     / mp_m / ((4 * mp_m - 2) * P * (1 - P)) ** 4)
            assert abs(got.d3_jump - exact) <= 8 * np.finfo(float).eps * got.d3_terms

    @pytest.mark.parametrize("m", [1.0 - 1e-7, 1.0 + 1e-7])
    @pytest.mark.parametrize("p1", [0.3, 0.5, 0.7])
    def test_third_derivative_near_the_ball(self, m, p1):
        # d3 is proportional to m - 1 and is built by cancellation; the
        # finite-difference ladder misses it by 1e-2 relative
        got = joining_point_derivatives(DomainParams(m=m, n=2), p1)
        assert got.d3_jump == pytest.approx(got.d3_expected, rel=1e-7, abs=0)

    @pytest.mark.parametrize("m", [0.75, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0, 60.0])
    def test_second_derivative_vanishes_at_uniform_conditioning(self, m):
        # p1^2m = 0.3, the point the verify check uses
        got = joining_point_derivatives(DomainParams(m=m, n=2), 0.3 ** (1.0 / (2.0 * m)))
        assert abs(got.d2_match) <= 1e-12

    @pytest.mark.parametrize("m", [1.0 - 1e-7, 1.0 + 1e-7, 20.0, 60.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_verify_check_passes(self, m, n):
        [result] = run_checks(DomainParams(m=m, n=n), names=["joining-derivatives"])
        assert result.passed, result.detail

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

    def test_stable_under_doubling(self, monkeypatch):
        domains = [DomainParams(m=m, n=2) for m in (0.75, 2.0)]
        verdicts = [square_convexity_check(d, 0.5, Branch.UPPER).verdict for d in domains]
        monkeypatch.setattr(kcurve_module, "_CONVEXITY_SAMPLES", 128)
        assert [square_convexity_check(d, 0.5, Branch.UPPER).verdict for d in domains] == verdicts

    def test_unresolvable_branch_is_a_numerical_error(self):
        # at m = 20 the LOWER branch at p1 = 0.4 spans under 1e-14 in x, so
        # no divided-difference triple survives
        with pytest.raises(NumericalError, match="LOWER branch spans"):
            square_convexity_check(DomainParams(m=20.0, n=2), 0.4, Branch.LOWER)
