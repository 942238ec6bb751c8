import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eggmetrics import (
    Branch,
    DomainError,
    DomainParams,
    automorphism_jacobian,
    branch_params,
    egg_automorphism,
    kobayashi,
    kobayashi_alt_upper,
    kobayashi_reference,
    kobayashi_sq,
    minkowski_gauge,
    solve_alpha,
)
from eggmetrics.domain import _to_axis
from eggmetrics.numerics import abs_pow

from test_domain import interior_point


def bisect_root(f, lo, hi, iters=200):
    # independent oracle: plain bisection
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestSolveAlpha:
    def test_t_one_gives_one(self):
        assert solve_alpha(2.0, 1.0, 0.5) == 1.0

    def test_small_t_limit_is_p1(self):
        # alpha^2m -> p1^2m as t -> 0
        for m in (0.75, 2.0):
            assert solve_alpha(m, 1e-12, 0.4) == pytest.approx(0.4, abs=1e-9)

    def test_against_bisection_oracle(self):
        # m = 2, p1 = 0.5, t = 0.5: root of a^4 - 0.5 a^2 - 0.5 * 0.5^4
        f = lambda a: a ** 4 - 0.5 * a ** 2 - 0.5 * 0.5 ** 4
        expected = bisect_root(f, 0.5, 1.0)
        assert solve_alpha(2.0, 0.5, 0.5) == pytest.approx(expected, abs=1e-13)
        # closed form for the quadratic in a^2
        a_sq = 0.5 * (0.5 + math.sqrt(0.25 + 4 * 0.5 * 0.5 ** 4))
        assert expected == pytest.approx(math.sqrt(a_sq), abs=1e-13)

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.6, 2.0, 3.2])
    def test_residual_below_tolerance(self, m):
        rng = np.random.default_rng(1)
        for _ in range(40):
            p1 = rng.uniform(0.05, 0.95)
            t = rng.uniform(1e-6, 1.0)
            a = solve_alpha(m, t, p1)
            res = abs_pow(a, 2 * m) - t * abs_pow(a, 2 * m - 2) - (1 - t) * abs_pow(p1, 2 * m)
            assert abs(res) < 1e-13
            assert 0.0 < a <= 1.0

    def test_one_upper_ratio_per_evaluation(self, monkeypatch):
        # the solve's callback gives f and f' together off one R =
        # _upper_ratio(alpha); two callbacks evaluated R twice per iterate
        module = sys.modules["eggmetrics.kobayashi"]
        upper, solve, ratios, evals = module._upper_ratio, module.solve_bracketed, [0], [0]

        def counted_upper(*args):
            ratios[0] += 1
            return upper(*args)

        def counted_solve(fdf, *args, **kwargs):
            def counted_fdf(x):
                evals[0] += 1
                return fdf(x)
            ratios[0] = 0  # the bracket's two ratios are not the callback's
            return solve(counted_fdf, *args, **kwargs)

        monkeypatch.setattr(module, "_upper_ratio", counted_upper)
        monkeypatch.setattr(module, "solve_bracketed", counted_solve)
        solve_alpha(5.0, 0.3, 0.4)
        assert evals[0] >= 3 and ratios[0] == evals[0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            solve_alpha(2.0, 0.5, 1.5)
        with pytest.raises(DomainError):
            solve_alpha(2.0, 1.5, 0.5)

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0])
    def test_rows_match_one_float_calls_to_4_ulp(self, m):
        # one (t, p1) on floats runs the scalar solve, rows the row solve,
        # from the same bracket and start; numpy's and libm's powers round
        # apart by a few ulp at most. A row alone and among others is the
        # same bits
        solve = sys.modules["eggmetrics.kobayashi"]._solve_alpha
        rng = np.random.default_rng([int(1e7 * m), 67])
        p1 = np.concatenate([rng.uniform(1e-3, 1.0 - 1e-6, 80),
                             10.0 ** -rng.uniform(3.0, 140.0, 20)])
        t = rng.uniform(0.0, 1.0, 100)
        alpha = solve(m, t, p1)
        one = np.array([solve(m, a, b) for a, b in zip(t.tolist(), p1.tolist())])
        assert np.all(np.abs(alpha - one) <= 4 * np.spacing(one))
        assert all(solve(m, t[i:i + 1], p1[i:i + 1])[0] == alpha[i] for i in range(0, 100, 9))


class TestBranchParams:
    def test_dispatch(self):
        d = DomainParams(m=2.0, n=2)
        p1 = 0.5
        low = branch_params(d, p1, [p1 / d.m * 0.999, 1.0])
        assert low.branch is Branch.LOWER and low.u <= p1
        tie = branch_params(d, p1, [p1 / d.m, 1.0])
        assert tie.branch is Branch.LOWER  # u = p1 dispatches LOWER
        up = branch_params(d, p1, [p1 / d.m * 1.001, 1.0])
        assert up.branch is Branch.UPPER and up.u > p1
        ax = branch_params(d, p1, [1.0, 0.0])
        assert ax.branch is Branch.AXIS and math.isinf(ax.u)

    def test_alpha_equation_residual_all_branches(self):
        d = DomainParams(m=1.6, n=3)
        p1 = 0.4
        P = abs_pow(p1, 2 * d.m)
        for v in ([0.1, 1.0, 0.0], [0.9, 1.0, 0.2], [0.7, 0.0, 0.0]):
            bp = branch_params(d, p1, v)
            res = (abs_pow(bp.alpha, 2 * d.m) - bp.t * abs_pow(bp.alpha, 2 * d.m - 2)
                   - (1 - bp.t) * P)
            assert abs(res) < 1e-13
            if bp.branch is Branch.UPPER:
                assert 0.0 < bp.t <= 1.0
                assert abs_pow(bp.alpha, 2 * d.m - 1) > P


class TestReferenceMetric:
    def test_hat_direction_closed_form(self):
        for m, p1 in [(0.75, 0.3), (2.0, 0.5), (2.0, 0.9)]:
            d = DomainParams(m=m, n=3)
            P = abs_pow(p1, 2 * m)
            got = kobayashi_reference(d, p1, [0.0, 1.0, 0.0])
            assert got == pytest.approx((1 - P) ** -0.5, rel=1e-14)

    def test_axis_direction_closed_form(self):
        for m, p1 in [(0.75, 0.3), (2.0, 0.5)]:
            d = DomainParams(m=m, n=2)
            got = kobayashi_reference(d, p1, [0.7, 0.0])
            assert got == pytest.approx(0.7 / (1 - p1 * p1), rel=1e-14)

    def test_branch_agreement_at_junction(self):
        for m in (0.5, 0.75, 1.0, 2.0, 2.7):
            d = DomainParams(m=m, n=2)
            for p1 in (0.25, 0.6, 0.85):
                v = [p1 / m, 1.0]  # u = p1 exactly
                k_low = kobayashi_reference(d, p1, v)
                k_up = kobayashi_reference(d, p1, [p1 / m * (1 + 1e-13), 1.0])
                assert abs(k_low - k_up) / k_low < 1e-12

    def test_one_sided_derivatives_match_at_junction(self):
        # C^1 in the branch variable u: one-sided differences agree to 1e-6
        for m in (0.75, 2.0):
            d = DomainParams(m=m, n=2)
            for p1 in (0.3, 0.6):
                def k_of_u(u):
                    return kobayashi_reference(d, p1, [u / m, 1.0])

                h = 1e-4
                d_minus = (3 * k_of_u(p1) - 4 * k_of_u(p1 - h) + k_of_u(p1 - 2 * h)) / (2 * h)
                d_plus = (-3 * k_of_u(p1) + 4 * k_of_u(p1 + h) - k_of_u(p1 + 2 * h)) / (2 * h)
                assert abs(d_plus - d_minus) < 1e-6

    def test_monotone_in_p1_along_hat_direction(self):
        d = DomainParams(m=2.0, n=2)
        vals = [kobayashi_reference(d, p1, [0.0, 1.0]) for p1 in np.linspace(0.05, 0.95, 19)]
        assert np.all(np.diff(vals) > 0)

    def test_rejects_bad_p1(self):
        d = DomainParams(m=2.0, n=2)
        for p1 in (0.0, 1.0, -0.3, 1.2):
            with pytest.raises(DomainError):
                kobayashi_reference(d, p1, [1.0, 0.0])


class TestGlobalMetric:
    def test_origin_equals_gauge(self):
        rng = np.random.default_rng(2)
        for m in (0.5, 0.75, 2.0):
            d = DomainParams(m=m, n=3)
            for _ in range(20):
                v = rng.normal(size=3) + 1j * rng.normal(size=3)
                got = kobayashi(d, np.zeros(3), v)
                assert got == pytest.approx(minkowski_gauge(d, v), rel=1e-12)

    def test_axis_point_matches_reference(self):
        d = DomainParams(m=2.0, n=2)
        v = np.array([0.3 + 0.2j, 1.0 - 0.5j])
        got = kobayashi(d, [0.45, 0.0], v)
        # the reduction flips vhat signs; reference values depend only on moduli
        assert got == pytest.approx(kobayashi_reference(d, 0.45, v), rel=1e-13)

    def test_invariance_under_automorphisms(self):
        rng = np.random.default_rng(4)
        for m in (0.75, 2.0):
            d = DomainParams(m=m, n=3)
            for _ in range(30):
                p = interior_point(rng, d)
                q = interior_point(rng, d)
                v = rng.normal(size=3) + 1j * rng.normal(size=3)
                k1 = kobayashi(d, p, v)
                k2 = kobayashi(d, egg_automorphism(d, q, p),
                               automorphism_jacobian(d, q, p) @ v)
                assert abs(k1 - k2) / k1 < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(lam_re=st.floats(-3, 3), lam_im=st.floats(-3, 3),
           m=st.sampled_from([0.75, 2.0]))
    def test_homogeneity(self, lam_re, lam_im, m):
        lam = complex(lam_re, lam_im)
        if abs(lam) < 1e-3:
            return
        d = DomainParams(m=m, n=2)
        p = np.array([0.3, 0.2 + 0.1j])
        v = np.array([0.8, -0.4 + 0.6j])
        assert kobayashi(d, p, lam * v) == pytest.approx(
            abs(lam) * kobayashi(d, p, v), rel=1e-12)

    def test_rejects_outside_point(self):
        d = DomainParams(m=2.0, n=2)
        with pytest.raises(DomainError):
            kobayashi(d, [1.1, 0.0], [1.0, 0.0])

    def test_squared_variant_consistent(self):
        d = DomainParams(m=2.0, n=2)
        p = [0.3, 0.1j]
        v = [0.5, 1.0]
        assert kobayashi_sq(d, p, v) == pytest.approx(kobayashi(d, p, v) ** 2, rel=1e-14)


    @pytest.mark.parametrize("z", [[0.0, 0.5], [0.1, 0.5]], ids=["on-Z", "off-Z"])
    def test_vector_past_the_square_range_gives_inf(self, z):
        # |v| = 1e160 squares past the float range: the Z branch (the gauge's
        # float square) gives inf, as the axis-point formulas do off Z
        d = DomainParams(m=2.0, n=2)
        assert kobayashi_sq(d, z, [1e160, 0.0]) == math.inf
        assert kobayashi(d, z, [1e160, 0.0]) == math.inf
        with np.errstate(over="ignore"):  # numpy's overflow warning off Z
            rows = kobayashi_sq(d, np.array([z, z]), np.array([[1e160, 0.0], [1.0, 0.0]]))
        assert rows[0] == math.inf
        assert rows[1] == kobayashi_sq(d, z, [1.0, 0.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("m", [0.5, 2.0, 60.0])
    @pytest.mark.parametrize("z", [[0.1, 0.5], [0.0, 0.5]], ids=["off-Z", "on-Z"])
    def test_what_past_the_float_range_gives_inf(self, m, z):
        # |what|^2 alone leaves the float range, and what with it: K reads inf,
        # never NaN, off Z from the moved vector's reals and on Z from the
        # gauge of the moved vector
        d = DomainParams(m=m, n=2)
        v = [0.0, 1.7e308]
        assert kobayashi_sq(d, z, v) == math.inf
        assert kobayashi(d, z, v) == math.inf
        assert list(kobayashi(d, np.array([z, z]), np.array([v, [1.0, 0.0]]))) == [
            math.inf, kobayashi(d, z, [1.0, 0.0])]


class TestAxisFormulasNearZ:
    """``kobayashi`` takes its Z branch only where the UPPER root leaves the float range.

    Below a reduced axis coordinate p1 of 1e-150 alpha^2 underflows, and the
    metric is the Minkowski gauge of the moved vector. Above it the axis-point
    formulas run down to p1 = 1e-140 and meet that gauge to rounding: over
    |z1| in {1e-14, ..., 1e-140}, every m below and n in {2, 3}, 50 seeds of
    20 draws a cell gave at most 1.7e-15 relative in K^2. The bound is 3 times that.
    """

    M_VALUES = (0.5, 0.75, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0)
    BOUND = 5e-15

    @staticmethod
    def _draws(rng, n, z1_abs, count=20):
        for _ in range(count):
            zh = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
            zh *= rng.uniform(0.05, 0.95) / np.linalg.norm(zh)
            z = np.concatenate(([z1_abs * np.exp(2j * np.pi * rng.uniform())], zh))
            yield z, rng.normal(size=n) + 1j * rng.normal(size=n)

    @pytest.mark.parametrize("m", M_VALUES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_axis_formulas_meet_the_gauge(self, m, n):
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng(11)
        for z1_abs in (1e-14, 1e-20, 1e-40, 1e-100, 1e-140):
            pairs = list(self._draws(rng, n, z1_abs))
            p, v = np.array([z for z, _ in pairs]), np.array([w for _, w in pairs])
            p1, w = _to_axis(d, p, v)
            assert (p1 > 1e-150).all()  # the axis formulas' side of the cut-off
            gauge_sq = np.array([minkowski_gauge(d, row) ** 2 for row in w])
            one = np.array([kobayashi_sq(d, z, x) for z, x in pairs])
            assert np.max(np.abs(one - gauge_sq) / gauge_sq) <= self.BOUND
            assert np.max(np.abs(kobayashi_sq(d, p, v) - gauge_sq) / gauge_sq) <= self.BOUND

    @pytest.mark.parametrize("m", [0.5, 2.0, 60.0])
    def test_below_the_float_range_is_the_gauge(self, m):
        # p1 <= 1e-150: the Z branch, one pair and rows alike
        d = DomainParams(m=m, n=2)
        p = np.array([[1e-160, 0.5j], [0.0, 0.3], [1e-151, -0.2]])
        v = np.array([[1.0, 0.5], [0.3j, 1.0], [1.0, 1.0]])
        p1, w = _to_axis(d, p, v)
        assert (p1 <= 1e-150).all()
        gauge_sq = [minkowski_gauge(d, row) ** 2 for row in w]
        assert [kobayashi_sq(d, z, x) for z, x in zip(p, v)] == gauge_sq
        assert list(kobayashi_sq(d, p, v)) == gauge_sq


class TestAlternateUpperFormula:
    def test_agrees_with_branch_formula(self):
        rng = np.random.default_rng(9)
        for m in (0.5, 0.75, 1.3, 2.0, 2.5):
            d = DomainParams(m=m, n=3)
            worst = 0.0
            for _ in range(100):
                p1 = rng.uniform(0.1, 0.9)
                v1 = p1 / m * rng.uniform(1.05, 30.0)
                v = np.array([v1, 1.0, 0.3j])
                a = kobayashi_reference(d, p1, v)
                b = kobayashi_alt_upper(d, p1, v)
                worst = max(worst, abs(a - b) / a)
            assert worst < 1e-10

    def test_small_hat_limit_approaches_axis_formula(self):
        d = DomainParams(m=2.0, n=2)
        p1 = 0.3
        for eps in (1e-4, 1e-6):
            got = kobayashi_alt_upper(d, p1, [1.0, eps])
            assert got == pytest.approx(1.0 / (1 - p1 * p1), rel=1e-6)

    def test_example_cross_branch(self):
        d = DomainParams(m=2.0, n=3)
        v = [1.0, 0.1, 0.0]
        assert kobayashi_alt_upper(d, 0.3, v) == pytest.approx(
            kobayashi_reference(d, 0.3, v), rel=1e-11)

    def test_rejects_lower_branch_inputs(self):
        d = DomainParams(m=2.0, n=2)
        with pytest.raises(DomainError):
            kobayashi_alt_upper(d, 0.5, [0.0, 1.0])
        with pytest.raises(DomainError):
            kobayashi_alt_upper(d, 0.5, [0.01, 1.0])  # u < p1
