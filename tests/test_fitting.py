import math
import statistics

import numpy as np
import pytest

from eggmetrics import (
    Branch,
    ConfigurationError,
    DomainError,
    DomainParams,
    NumericalError,
    WuEllipsoidDiag,
    containment_violation,
    contact_point,
    fit_oracle,
    fit_origin,
    fit_reference,
    joining_point,
    kcurve_alpha_grid,
    kcurve_sample,
    solve_X,
    wu_norm,
    wu_tensor,
)
from eggmetrics import fitting, kcurve, numerics, verification
from eggmetrics.kcurve import _lower_xy_many, _upper_xy_many
from eggmetrics.numerics import Taylor2, _solve_bracketed_rows, abs_pow, solve_bracketed
from eggmetrics.verification import _fit_test_points

from test_domain import weighted_domain
from test_kobayashi import bisect_root

import wu_reference


class TestSolveX:
    def test_small_p1_limit(self):
        d = DomainParams(m=2.0, n=2)
        # X ~ (m+1)^(1/m) p1^2 as p1 -> 0
        for p1 in (1e-3, 1e-5):
            X = solve_X(d, p1)
            assert X == pytest.approx(math.sqrt(3.0) * p1 * p1, rel=1e-4)

    def test_threshold_gives_one(self):
        for m in (1.25, 2.0, 3.0):
            d = DomainParams(m=m, n=2)
            assert solve_X(d, d.m0_radius) == pytest.approx(1.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        # m = 2, s = 1: root of X^3 - 3 p1^4 X + 2 p1^8 in (p1^2, 1)
        d = DomainParams(m=2.0, n=2)
        p1 = 0.5
        f = lambda X: X ** 3 - 3 * p1 ** 4 * X + 2 * p1 ** 8
        expected = bisect_root(f, p1 * p1, 1.0)
        assert solve_X(d, p1) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("m", [1.25, 1.75, 2.0, 2.5])
    def test_residual_of_original_equation(self, m):
        d = DomainParams(m=m, n=3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            s = rng.uniform(0.5, 1.0)
            # reference coordinate strictly inside the inner region
            p1 = rng.uniform(0.05, 0.95) * d.m0_radius * abs_pow(s, 1.0 / m)
            X = solve_X(d, float(_axis_p1(m, p1, s)))
            P, w = abs_pow(p1, 2 * m), d.m0_weight
            res = (s ** 4 * abs_pow(X, 2 * m - 1)
                   - (m * (w - 1) + 1) * P * s * s * abs_pow(X, m - 1)
                   + (m * (w - 1) - w) * P * s * s * abs_pow(X, m)
                   + w * P * P)
            assert abs(res) < 1e-13
            assert 0.0 < X <= 1.0

    def test_outside_inner_region_rejected(self):
        d = DomainParams(m=2.0, n=2)
        with pytest.raises(ConfigurationError):
            solve_X(d, 0.95)
        with pytest.raises(ConfigurationError):
            solve_X(DomainParams(m=0.75, n=2), 0.3)


class TestFitReference:
    def test_chord_closed_form(self):
        d = DomainParams(m=0.75, n=2)
        ell = fit_reference(d, 0.5)
        assert ell.r1 == pytest.approx(16.0 / 9.0, rel=1e-14)
        assert ell.r2 == pytest.approx(1.0 / (1.0 - 0.5 ** 1.5), rel=1e-14)

    def test_outer_closed_form(self):
        d = DomainParams(m=2.0, n=2)
        ell = fit_reference(d, 0.9)
        assert ell.r1 == pytest.approx(4 * 0.9 ** 2 / (1 - 0.9 ** 4) ** 2, rel=1e-14)
        assert ell.r2 == pytest.approx(1.0 / (1 - 0.9 ** 4), rel=1e-14)

    def test_threshold_agreement_of_both_forms(self):
        # at p1 = m0_radius = w^(-1/2m) the inner form with X = 1 equals the outer form
        for m in (1.5, 2.0, 2.5):
            d = DomainParams(m=m, n=2)
            thr, w = d.m0_radius, d.m0_weight
            outer = fit_reference(d, thr)
            X = solve_X(d, thr)
            P = 1.0 / w
            F = m * abs_pow(X, m - 1) - (m - 1) * abs_pow(X, m) - P
            inner_r1 = m * m * abs_pow(X, 2 * m - 1) / (w * thr * thr * F * F)
            inner_r2 = abs_pow(X, 2 * m - 1) / (w * P * F)
            assert outer.r1 == pytest.approx(inner_r1, rel=1e-12)
            assert outer.r2 == pytest.approx(inner_r2, rel=1e-12)
            assert outer.r1 == pytest.approx(w * m * m / ((w - 1) ** 2 * thr * thr), rel=1e-13)
            assert outer.r2 == pytest.approx(w / (w - 1), rel=1e-13)

    def test_continuity_across_threshold(self):
        d = DomainParams(m=2.0, n=2)
        thr = d.m0_radius
        below = fit_reference(d, thr * (1 - 1e-10))
        at = fit_reference(d, thr)
        assert below.r1 == pytest.approx(at.r1, rel=1e-8)
        assert below.r2 == pytest.approx(at.r2, rel=1e-8)

    def test_origin_limits(self):
        for m in (0.75, 1.25, 2.0):
            d = DomainParams(m=m, n=2)
            lim = fit_origin(d)
            got = fit_reference(d, 1e-7)
            assert got.r1 == pytest.approx(lim.r1, rel=1e-6)
            assert got.r2 == pytest.approx(lim.r2, rel=1e-6)
        assert fit_origin(DomainParams(m=0.75, n=2)) == WuEllipsoidDiag(1.0, 1.0)
        d2 = DomainParams(m=2.0, n=2)
        assert fit_origin(d2).r1 == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
        assert fit_origin(d2).r2 == pytest.approx(0.75, rel=1e-14)

    @pytest.mark.parametrize("m", [1.0 + 1e-7, 1.05, 1.5, 2.0, 5.0, 20.0, 60.0, 200.0])
    def test_tau_form_at_p1_0_is_fit_origin(self, m):
        # p1^2 rounds to 0 at p1 = 1e-200: the root is tau0 = (m+1)^(1/m)
        # and the tau-form fit is fit_origin, r2 = tau^m/(2m) to the
        # rounding of tau amplified m times
        d = DomainParams(m=m, n=2)
        tau = fitting._solve_tau(m, d.m0_weight, np.array([1e-200]))
        r1, r2 = fitting._inner_fit(d, 0.0, tau[0])
        origin = fit_origin(d)
        assert r1 == pytest.approx(origin.r1, rel=4e-16, abs=0.0)
        assert r2 == pytest.approx(origin.r2, rel=m * 2.3e-16, abs=0.0)

    def test_chord_steeper_than_lower_line(self):
        # the chord and the lower line share the x-intercept; the chord is steeper
        for m in (0.5, 0.75):
            d = DomainParams(m=m, n=2)
            for p1 in (0.2, 0.5, 0.8):
                ell = fit_reference(d, p1)
                P = abs_pow(p1, 2 * m)
                chord_slope = ell.r2 / ell.r1
                lower_slope = (1.0 - P) / (m * m * abs_pow(p1, 2 * m - 2))
                assert chord_slope > lower_slope

    def test_rejects_bad_p1(self):
        d = DomainParams(m=2.0, n=2)
        for p1 in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                fit_reference(d, p1)


class TestContactPoint:
    def test_on_curve_and_on_line(self):
        d = DomainParams(m=2.0, n=2)
        for p1 in (0.2, 0.5, 0.8):
            c = contact_point(d, p1)
            ell = fit_reference(d, p1)
            assert ell.r1 * c.y_star + ell.r2 * c.x_star == pytest.approx(1.0, abs=1e-9)
            s = kcurve_sample(d, p1, Branch.UPPER, c.alpha_star)
            assert s.x == pytest.approx(c.x_star, abs=1e-12)
            assert s.y == pytest.approx(c.y_star, abs=1e-12)
            assert c.x_star > 0.0

    def test_midpoint_of_intercepts(self):
        # tangency bisects the intercept segment: x* = 1/(2 r2), y* = 1/(2 r1)
        d = DomainParams(m=2.5, n=2)
        c = contact_point(d, 0.4)
        ell = fit_reference(d, 0.4)
        assert c.x_star == pytest.approx(0.5 / ell.r2, rel=1e-12)
        assert c.y_star == pytest.approx(0.5 / ell.r1, rel=1e-12)

    def test_approaches_joining_point_at_threshold(self):
        d = DomainParams(m=2.0, n=2)
        p1 = d.m0_radius * (1 - 1e-10)
        c = contact_point(d, p1)
        jx, jy = joining_point(d, p1)
        assert c.x_star == pytest.approx(jx, rel=1e-4)
        assert c.y_star == pytest.approx(jy, rel=1e-4)

    def test_positive_contact_abscissa_over_range(self):
        d = DomainParams(m=2.0, n=2)
        for p1 in np.linspace(0.02, d.m0_radius * 0.999, 25):
            assert contact_point(d, float(p1)).x_star > 0.0

    @pytest.mark.parametrize("m", [1.0 + 1e-7, 2.0, 60.0])
    @pytest.mark.parametrize("p1", [1e-150, 1e-160, 1e-200, 1e-300])
    def test_tiny_p1_keeps_the_contact_finite(self, m, p1):
        # X = p1^2 tau is subnormal from p1 = 1e-160 (x* read 0.66672 at m = 2) and 0
        # below 1e-162 (x* and y* NaN): alpha* is p1 sqrt(tau). The limit of (x*, y*)
        # as p1 -> 0 is the midpoint of the origin fit's intercepts; both residuals
        # read at most 4e-16 here
        d = DomainParams(m=m, n=2)
        c, ell, origin = contact_point(d, p1), fit_reference(d, p1), fit_origin(d)
        assert all(math.isfinite(x) for x in (c.x_star, c.y_star, c.alpha_star))
        assert abs(ell.r1 * c.y_star + ell.r2 * c.x_star - 1.0) <= 1e-12
        assert c.x_star == pytest.approx(0.5 / origin.r2, rel=1e-14)
        assert c.y_star == pytest.approx(0.5 / origin.r1, rel=1e-14)

    def test_rejected_outside_inner_region(self):
        with pytest.raises(ConfigurationError):
            contact_point(DomainParams(m=0.75, n=2), 0.5)
        with pytest.raises(ConfigurationError):
            contact_point(DomainParams(m=2.0, n=2), 0.9)


#: the m > 1 values of the oracle's grids
_M_TANGENCY = (1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0, 200.0)


def _oracle_grid():
    # every verify fit point, and p1 in {0.05, 0.01, 1e-5, 1e-8} where m > 1
    for m in (0.5, 0.75, 1.0 - 1e-7, 1.0) + _M_TANGENCY:
        d = DomainParams(m=m, n=2)
        for p1 in _fit_test_points(d) + ([0.05, 0.01, 1e-5, 1e-8] if m > 1.0 else []):
            yield m, p1


def _tangency_grid():
    # the m > 1 cells of ``_oracle_grid`` inside M0
    for m in _M_TANGENCY:
        thr = DomainParams(m=m, n=2).m0_radius
        for p1 in (0.5 * thr, 0.95 * thr, 0.05, 0.01, 1e-5, 1e-8):
            yield m, p1


class TestOracle:
    @pytest.mark.parametrize("m,p1", list(_oracle_grid()))
    def test_matches_closed_forms(self, m, p1):
        # the tangent table and its Newton steps reach about 3e-14 on this grid
        d = DomainParams(m=m, n=2)
        ref = fit_reference(d, p1)
        orc = fit_oracle(d, p1)
        assert orc.r1 == pytest.approx(ref.r1, rel=3e-12, abs=0.0)
        assert orc.r2 == pytest.approx(ref.r2, rel=3e-12, abs=0.0)

    @pytest.mark.parametrize("m,p1", list(_tangency_grid()))
    def test_matches_the_50_digit_fit(self, m, p1):
        # the contact within 3e-12 of wu_reference's, where the table must
        # resolve the arc's scale 0.5/m at the y-intercept end as p1 -> 0
        d = DomainParams(m=m, n=2)
        r1, r2, regime = wu_reference.fit(m, d.m0_weight, p1)
        orc = fit_oracle(d, p1)
        assert regime == "tangency"
        assert (orc.r1, orc.r2) == pytest.approx((float(r1), float(r2)), rel=3e-12, abs=0.0)

    @pytest.mark.parametrize("m,p1", [(0.75, 0.6), (2.0, 0.4), (2.0, 0.9), (5.0, 0.3), (20.0, 0.8),
                                      (60.0, 0.5)])
    def test_matches_the_exhaustive_hull_sweep(self, m, p1):
        # the n = 2 reference sweep over 4096 samples of both K-curves agrees
        # to its sampling accuracy (about 1e-3 where the contact is sharp,
        # m >= 5); the oracle's line contains every sample, so the sweep's
        # least-area line is at most as large
        d = DomainParams(m=m, n=2)
        upper = kcurve_alpha_grid(d, p1, Branch.UPPER, 3072)
        lower = kcurve_alpha_grid(d, p1, Branch.LOWER, 1024)
        pts = np.vstack([_upper_xy_many(m, p1, upper), _lower_xy_many(m, p1, lower)])
        _, r1, r2, _ = _reference_enumerate_lines(pts)
        orc = fit_oracle(d, p1)
        assert orc.r1 == pytest.approx(r1, rel=2e-3)
        assert orc.r2 == pytest.approx(r2, rel=2e-3)
        assert np.max(orc.r1 * pts[:, 1] + orc.r2 * pts[:, 0]) - 1.0 <= _SWEEP_FEAS_TOL
        assert r1 * r2 >= orc.r1 * orc.r2 * (1.0 - 1e-12)

    @pytest.mark.parametrize("p1", [1e-20, 1e-300])
    @pytest.mark.parametrize("m", [0.75, 1.5, 60.0])
    def test_tiny_p1(self, m, p1):
        # p1/alpha rounds to 0 over most of the arc; the fit is fit_origin's
        d = DomainParams(m=m, n=2)
        ref, orc = fit_reference(d, p1), fit_oracle(d, p1)
        assert (orc.r1, orc.r2) == pytest.approx((ref.r1, ref.r2), rel=1e-9, abs=0.0)

    def test_subnormal_p1_is_refused(self):
        with pytest.raises(NumericalError, match="normal float"):
            fit_oracle(DomainParams(m=2.0, n=2), 1e-310)

    @pytest.mark.parametrize("m,p1", [(0.75, 0.5), (2.0, 0.9), (20.0, 0.999)])
    def test_chord_regimes_are_exact(self, m, p1):
        # the bracket ends' supports are the chord's end points themselves
        d = DomainParams(m=m, n=2)
        ref, orc = fit_reference(d, p1), fit_oracle(d, p1)
        assert (orc.r1, orc.r2) == pytest.approx((ref.r1, ref.r2), rel=1e-13, abs=0.0)


#: least-volume fits (r1, r2) to five digits for the M0 weight w = n, at (m, p1, w)
WEIGHTED_FITS = {
    (2.0, 0.4, 3): (1.11481, 0.93151),
    (2.0, 0.4, 4): (1.02387, 0.96454),
    (5.0, 0.3, 3): (0.67684, 0.75184),
    (5.0, 0.3, 4): (0.55526, 0.81526),
    (20.0, 0.05, 4): (0.30880, 0.76257),
    (2.0, 0.75, 3): (4.81633, 1.46264),
}


def _weighted_grid():
    # p1 from 1e-8 to just inside M0 and past it, m > 1, for the weights 3 and 4
    for w in (3, 4):
        for m in (1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0, 60.0):
            thr = weighted_domain(m, 2, w).m0_radius
            for p1 in (1e-8, 1e-4, 0.05, 0.5 * thr, 0.9 * thr, thr * (1.0 - 1e-12),
                       0.5 * (thr + 1.0)):
                yield w, m, p1


class TestWeightGeneralFit:
    # the fit, the oracle and the tangency bracket with the M0 weight w set
    # to 3 and 4 (``weighted_domain``): the code that reads ``m0_weight``
    # holds for every weight, not only for the 2 it has today
    @pytest.mark.parametrize("w,m,p1", list(_weighted_grid()))
    def test_fit_is_the_oracle_and_the_50_digit_fit(self, w, m, p1):
        d = weighted_domain(m, 2, w)
        ref, orc = fit_reference(d, p1), fit_oracle(d, p1)
        assert (orc.r1, orc.r2) == pytest.approx((ref.r1, ref.r2), rel=1e-12, abs=0.0)
        r1, r2, regime = wu_reference.fit(m, w, p1)
        assert regime == ("tangency" if p1 < d.m0_radius else "lower")
        assert (ref.r1, ref.r2) == pytest.approx((float(r1), float(r2)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("key", list(WEIGHTED_FITS))
    def test_fit_matches_the_printed_table(self, key):
        m, p1, w = key
        ref = fit_reference(weighted_domain(m, w, w), p1)
        assert (round(ref.r1, 5), round(ref.r2, 5)) == WEIGHTED_FITS[key]

    @pytest.mark.parametrize("w", [3, 4])
    @pytest.mark.parametrize("m", [1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0, 60.0])
    def test_tangency_bracket_is_certified(self, w, m):
        # h(lo) < 0 <= h(hi) on floats and rows, up to m0_radius (1 - 1e-12);
        # the start, and solve_X's refusal just past M0
        thr = weighted_domain(m, 2, w).m0_radius
        p1 = np.concatenate([np.geomspace(1e-8, thr, 60), thr * (1.0 - np.geomspace(1e-2, 1e-12, 20))])
        K, pm = m * (w - 1.0) + 1.0, p1 * p1
        lo, hi, _ = fitting._ends(m, w, K, pm, np.maximum)
        k = fitting._tangency_terms(m, w, pm)
        assert np.all(fitting._tangency(m, K, *k, lo)[0] < 0.0)
        assert np.all(fitting._tangency(m, K, *k, hi)[0] >= 0.0)
        for u in pm.tolist():  # one p1 on floats
            lo, hi, _ = fitting._ends(m, w, K, u, max)
            k = fitting._tangency_terms(m, w, u)
            assert fitting._tangency(m, K, *k, lo)[0] < 0.0 <= fitting._tangency(m, K, *k, hi)[0]
        for u, start in ((0.0, K ** (1.0 / m)), (thr * thr, 1.0 / (thr * thr))):  # exact on Z and M0
            assert fitting._ends(m, w, K, u, max)[2] == pytest.approx(start, rel=1e-13)
        with pytest.raises(ConfigurationError, match="not in the inner region"):
            solve_X(weighted_domain(m, 2, w), thr * (1.0 + 1e-9))

    @pytest.mark.parametrize("w", [3, 4])
    @pytest.mark.parametrize("m", [1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0, 60.0])
    def test_tangency_jet_and_origin(self, w, m):
        # the root's u-jet solves h(tau, u) = 0 to second order, each part
        # within 1e-13 of its terms' sizes; fit_origin is the fit at p1 = 1e-150
        d = weighted_domain(m, 2, w)
        K = m * (w - 1.0) + 1.0
        for u0 in (1e-6, 0.5 * d.m0_radius ** 2, 0.9 * d.m0_radius ** 2):
            u = Taylor2(u0, 1.0)
            tau = fitting._tangency_jet(d, u)
            q = tau ** m
            terms = (q, (m * (w - 1.0) - w) * u * tau, w * u * tau / q)
            h = terms[0] - K + terms[1] + terms[2]
            for part in ("t", "tt"):
                assert abs(getattr(h, part)) <= 1e-13 * sum(abs(getattr(x, part)) for x in terms)
        ref, origin = fit_reference(d, 1e-150), fit_origin(d)
        assert (origin.r1, origin.r2) == pytest.approx((ref.r1, ref.r2), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("p1", [1.0 - 1e-6, 1.0 - 1e-9])
@pytest.mark.parametrize("m", [0.5, 0.75, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0, 200.0])
def test_near_the_boundary_within_the_conditioning_bound(m, p1):
    # the exact chords there against fit_reference, whose 1 - P subtraction
    # the fit's conditioning amplifies to about 2.2e-16 p1/(1 - p1): the
    # worst reading is 3.7e-8 at m = 0.75 and p1 = 1 - 1e-9, and containment
    # of the reference line reads +1.1e-8 at m = 1 - 1e-7 there
    d = DomainParams(m=m, n=2)
    bound = 3e-12 + 2.2e-16 * p1 / (1.0 - p1)
    ref, orc = fit_reference(d, p1), fit_oracle(d, p1)
    assert abs(orc.r1 / ref.r1 - 1.0) <= bound and abs(orc.r2 / ref.r2 - 1.0) <= bound
    assert abs(containment_violation(d, p1, ref)) <= bound


def _upper_kernel_calls(monkeypatch):
    # every UPPER-arc evaluation: _upper_xy_many reads kcurve's _upper_tangents
    calls, kernel = [], kcurve._upper_tangents

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    for module in (kcurve, fitting):
        monkeypatch.setattr(module, "_upper_tangents", counted)
    return calls


class TestOracleCost:
    # one table and a few Newton steps: the zoomed direction passes took up
    # to 49 kernel calls per fit and 6 per containment value
    def test_fit_takes_at_most_eight_kernel_calls(self, monkeypatch):
        calls, worst = _upper_kernel_calls(monkeypatch), 0
        for m, p1 in _oracle_grid():
            calls.clear()
            fit_oracle(DomainParams(m=m, n=2), p1)
            worst = max(worst, len(calls))
        assert 1 <= worst <= 8

    def test_containment_takes_at_most_six_kernel_calls(self, monkeypatch):
        calls, worst = _upper_kernel_calls(monkeypatch), 0
        for m, p1 in _containment_grid():
            d = DomainParams(m=m, n=2)
            ref = fit_reference(d, p1)
            calls.clear()
            containment_violation(d, p1, ref)
            worst = max(worst, len(calls))
        assert 1 <= worst <= 6

    def test_the_oracle_takes_nothing_from_the_fit(self, monkeypatch):
        refs = {(m, p1): fit_reference(DomainParams(m=m, n=2), p1) for m, p1 in _oracle_grid()}

        def refuse(*args):
            raise AssertionError("the oracle called the closed-form fit")

        for name in ("_solve_tau", "_tangency", "_inner_fit", "_fit"):
            monkeypatch.setattr(fitting, name, refuse)
        for (m, p1), ref in refs.items():
            orc = fit_oracle(DomainParams(m=m, n=2), p1)
            assert (orc.r1, orc.r2) == pytest.approx((ref.r1, ref.r2), rel=3e-12, abs=0.0)


class TestOneArcTablePerPoint:
    # verify's fit-vs-oracle row builds one ``_arc_table`` per fit point and
    # hands it to the oracle and to the containment value
    @pytest.mark.parametrize("m", [0.75, 2.0, 20.0])
    def test_one_table_per_test_point(self, monkeypatch, m):
        tables, build = [], fitting._arc_table

        def counted(*args):
            tables.append(args)
            return build(*args)

        for module in (fitting, verification):
            monkeypatch.setattr(module, "_arc_table", counted)
        d = DomainParams(m=m, n=2)
        ok, _ = verification.check_fit_oracle(d, np.random.default_rng(0))
        assert ok and tables == [(m, p1) for p1 in _fit_test_points(d)]

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0])
    def test_shared_table_gives_the_public_bits(self, m):
        d = DomainParams(m=m, n=2)
        for p1 in _fit_test_points(d) + [0.05, 0.999]:
            ref, table = fit_reference(d, p1), fitting._arc_table(m, p1)
            assert fitting._fit_oracle(d, p1, *table) == fit_oracle(d, p1)
            shared = fitting._containment_violation(d, p1, ref, *table)
            assert repr(shared) == repr(containment_violation(d, p1, ref))


def _containment_grid():
    # m in {1 + 1e-7, 1.5, 2, 5, 20, 60} at every verify fit point and p1 in
    # {0.05, 0.01} (36 cells), and m in {0.5, 0.75, 1} at every verify fit point
    for m in (1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0, 60.0, 0.5, 0.75, 1.0):
        for p1 in _fit_test_points(DomainParams(m=m, n=2)) + ([0.05, 0.01] if m > 1.0 else []):
            yield m, p1


def _sampled_violation(m, p1, ell):
    # max(r1 y + r2 x) - 1 over 2^16 samples of both curves: UPPER parameters
    # 2^15 geometric and 2^14 uniform in alpha, 2^14 along the LOWER segment
    # uniform in eps = 1 - alpha (1 - P) from 0 to P, where x = x_int (1 - eps)
    # and y = x_int^2 eps/(m^2 p1^(2m-2)) do not cancel near the boundary
    n = 2 ** 14
    upper = np.concatenate([np.geomspace(p1, 1.0, 2 * n), np.linspace(p1, 1.0, n)])
    x_int, eps = kcurve._x_intercept(m, p1), np.linspace(0.0, p1 ** (2.0 * m), n)
    lower = np.column_stack([x_int * (1.0 - eps),
                             x_int * x_int * eps / (m * m * p1 ** (2.0 * m - 2.0))])
    pts = np.vstack([_upper_xy_many(m, p1, upper), lower])
    return float(np.max(ell.r1 * pts[:, 1] + ell.r2 * pts[:, 0])) - 1.0


class TestContainmentAndMinimality:
    @pytest.mark.parametrize("m,p1", list(_containment_grid()))
    def test_support_value_is_exact(self, m, p1):
        # the fit touches the curves, so it reads 0 to the support's
        # resolution; r1 scaled by 1 + 1e-6 cuts them by about 5e-7 (a
        # maximum over 1 536 samples misses that on 15 of the 36 m > 1
        # cells); and no value lies below the maximum over dense samples
        d = DomainParams(m=m, n=2)
        ref = fit_reference(d, p1)
        cut = WuEllipsoidDiag(ref.r1 * (1.0 + 1e-6), ref.r2)
        value, cut_value = containment_violation(d, p1, ref), containment_violation(d, p1, cut)
        assert -1e-10 <= value <= 1e-13
        assert cut_value >= 1e-7
        assert value >= _sampled_violation(m, p1, ref) - 1e-10
        assert cut_value >= _sampled_violation(m, p1, cut) - 1e-10

    @pytest.mark.parametrize("p1", [1.0 - 1e-6, 1.0 - 1e-9])
    @pytest.mark.parametrize("m", [0.75, 1.0 + 1e-7, 2.0, 5.0])
    def test_support_value_bounds_the_samples_near_the_boundary(self, m, p1):
        # the fit line's LOWER samples read -1.5e-9 at (2, 1 - 1e-9), as the
        # support does; sampled through alpha, y cancels there and read +1.1e-8
        d = DomainParams(m=m, n=2)
        ref = fit_reference(d, p1)
        assert containment_violation(d, p1, ref) >= _sampled_violation(m, p1, ref) - 1e-12

    def test_input_checks(self):
        # p1 as the oracle checks it; the line's coefficients must be positive
        d, ell = DomainParams(m=2.0, n=2), WuEllipsoidDiag(1.0, 1.0)
        with pytest.raises(DomainError):
            containment_violation(d, 1.0, ell)
        with pytest.raises(NumericalError, match="normal float"):
            containment_violation(d, 1e-310, ell)
        for r1, r2 in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0)):
            with pytest.raises(DomainError, match="r1 > 0 and r2 > 0"):
                containment_violation(d, 0.5, WuEllipsoidDiag(r1, r2))

    def test_overflowing_direction(self):
        # r2/r1 overflows: the support is the LOWER end, r2 x_int - 1; a tiny
        # r1 leaves x_int - 1; an infinite coefficient is refused
        d, x_int = DomainParams(m=2.0, n=2), 1.0 - 0.5 ** 4
        value = containment_violation(d, 0.5, WuEllipsoidDiag(1e-300, 1e300))
        assert value == pytest.approx(1e300 * x_int, rel=1e-15)
        assert containment_violation(d, 0.5, WuEllipsoidDiag(5e-324, 1.0)) == pytest.approx(
            x_int - 1.0, rel=1e-15)
        for r1, r2 in ((1.0, math.inf), (math.inf, 1.0)):
            with pytest.raises(DomainError, match="finite r1 > 0 and r2 > 0"):
                containment_violation(d, 0.5, WuEllipsoidDiag(r1, r2))

    @pytest.mark.parametrize("m,p1", [(0.5, 0.3), (0.75, 0.6), (2.0, 0.4), (2.0, 0.9)])
    def test_containment(self, m, p1):
        d = DomainParams(m=m, n=2)
        ell = fit_reference(d, p1)
        assert containment_violation(d, p1, ell) <= 1e-9

    @pytest.mark.parametrize("m,p1", [(0.75, 0.5), (2.0, 0.5), (2.0, 0.9)])
    def test_perturbations_violate_or_grow(self, m, p1):
        d = DomainParams(m=m, n=2)
        ell = fit_reference(d, p1)
        area = 1.0 / (ell.r1 * ell.r2)
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            cand = WuEllipsoidDiag(r1=ell.r1 * (1 + 1e-3 * math.cos(theta)),
                                   r2=ell.r2 * (1 + 1e-3 * math.sin(theta)))
            violated = containment_violation(d, p1, cand) > 1e-9
            grew = 1.0 / (cand.r1 * cand.r2) > area * (1 + 1e-9)
            assert violated or grew


# -- reference sweep: every candidate checked against every sample -----------

#: feasibility slack for the sweep's candidate lines (sample-set containment)
_SWEEP_FEAS_TOL = 1e-11


def _reference_upper_hull(pts: np.ndarray) -> np.ndarray:
    # monotone chain, keeping only the outward (concave-from-origin) frontier
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    chain: list[tuple[float, float]] = []
    for xp, yp in pts[order]:
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            if (x2 - x1) * (yp - y1) - (y2 - y1) * (xp - x1) >= 0.0:
                chain.pop()
            else:
                break
        chain.append((xp, yp))
    return np.array(chain).reshape(-1, 2)


def _reference_enumerate_lines(pts: np.ndarray):
    """Best feasible line over the sampled hull: edge chords and vertex midpoint tangents.

    For a convex sample set in the first quadrant the minimal-area line either
    contains a hull edge or touches a hull vertex at the midpoint of its
    intercept segment; both candidate families are swept and checked for
    containment of every sample.
    """
    hull = _reference_upper_hull(pts)
    best = None

    def consider(r1: float, r2: float, contact_x: float):
        nonlocal best
        if not (r1 > 0.0 and r2 > 0.0 and math.isfinite(r1) and math.isfinite(r2)):
            return
        violation = float(np.max(r1 * pts[:, 1] + r2 * pts[:, 0])) - 1.0
        if violation > _SWEEP_FEAS_TOL:
            return
        area = 1.0 / (r1 * r2)
        if best is None or area < best[0]:
            best = (area, r1, r2, contact_x)

    for i in range(len(hull) - 1):
        (x1, y1), (x2, y2) = hull[i], hull[i + 1]
        det = x1 * y2 - x2 * y1
        if abs(det) < 1e-300:
            continue
        consider((x1 - x2) / det, (y2 - y1) / det, 0.5 * (x1 + x2))
    for x0, y0 in hull:
        if x0 > 1e-13 and y0 > 1e-13:
            consider(0.5 / y0, 0.5 / x0, x0)
    return best


# -- reference tangency solve: scalar, abs_pow powers, its own Newton loop -----

def _reference_solve_bracketed(f, lo, hi, df, rtol=1e-15, max_iter=200):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo > 0.0 or fhi < 0.0:
        raise NumericalError("no sign change", bracket=(lo, hi))
    x = 0.5 * (lo + hi)
    dx_old = hi - lo
    for _ in range(max_iter):
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        width = hi - lo
        if width <= rtol * max(abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        step_ok = False
        d = df(x)
        if d != 0.0 and math.isfinite(d):
            cand = x - fx / d
            # a vanishing step counts only inside the bracket here
            if lo < cand < hi and abs(cand - x) <= 0.5 * dx_old:
                if abs(cand - x) <= rtol * abs(cand):
                    return cand
                dx_old = abs(cand - x)
                x = cand
                step_ok = True
        if not step_ok:
            dx_old = 0.5 * width
            x = 0.5 * (lo + hi)
    raise NumericalError("no convergence", bracket=(lo, hi))


def _reference_solve_X(domain, p1, s=1.0):
    m, w = domain.m, domain.m0_weight
    K, a = m * (w - 1.0) + 1.0, m * (w - 1.0) - w
    if m <= 1.0:
        raise ConfigurationError("the tangency equation applies to m > 1 only")
    if not (0.0 < s <= 1.0):
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    if not (0.0 < p1 < 1.0):
        raise DomainError(f"axis coordinate p1 must lie in (0, 1), got {p1!r}")
    s2 = s * s
    pm = p1 * p1
    if pm < 1e-300:
        return abs_pow(K / s2, 1.0 / m) * pm
    P = abs_pow(p1, 2 * m)
    e = w * P - s2
    if e > 1e-12 * s2:
        raise ConfigurationError("no tangency root")
    if e >= -1e-9 * s2:
        return 1.0 + e / ((2.0 * m - 1.0) * s2)

    def g(tau):
        return (s2 * s2 * abs_pow(tau, 2 * m - 1) - K * s2 * abs_pow(tau, m - 1)
                + a * s2 * pm * abs_pow(tau, m) + w * pm)

    def dg(tau):
        return ((2 * m - 1) * s2 * s2 * abs_pow(tau, 2 * m - 2)
                - K * (m - 1.0) * s2 * abs_pow(tau, m - 2)
                + m * a * s2 * pm * abs_pow(tau, m - 1))

    lo = abs_pow(s2, -1.0 / m)
    hi = 1.0 / pm
    if g(hi) <= 0.0:
        return 1.0
    if g(lo) >= 0.0:
        raise ConfigurationError("no tangency root")
    return _reference_solve_bracketed(g, lo, hi, df=dg) * pm


#: X ~ 1e-320 at p1 = 1e-160 is subnormal: the solve at p1/s^(1/m) and the
#: reference at (p1, s) each round X to the subnormal spacing 5e-324, so the
#: identity X(p1, s) = X(p1/s^(1/m), 1) holds there to a few spacings only
_SUBNORMAL_ROUNDING = 4 * 5e-324


def _axis_p1(m, p1, s):
    # X(p1, s) = X(p1/s^(1/m), 1): the axis coordinate the solve takes for
    # the reference's pair (p1, s); inf at s = 0
    with np.errstate(divide="ignore"):
        return np.asarray(p1, dtype=float) / np.asarray(s, dtype=float) ** (1.0 / m)


def _inner_pairs(d, rng, us):
    # (p1, s) with w p1^2m = u s^2 for the M0 weight w, i.e. w p1^2m - s^2 = (u - 1) s^2
    s = rng.uniform(0.3, 1.0, len(us))
    return (np.asarray(us) * s * s / d.m0_weight) ** (1.0 / (2.0 * d.m)), s


def _solve_X_rows(d, p1):
    # the tangency root X at rows of checked axis coordinates, as the fit
    # solves them: p1^2 times the rows' root in tau
    p1 = np.asarray(p1, dtype=float)
    return p1 * p1 * fitting._solve_tau(d.m, d.m0_weight, p1)


def _root_50(d, p1):
    # the tangency root X at the axis coordinate p1, from 50 digits
    return float(pytest.importorskip("wu_reference").tangency_root(d.m, d.m0_weight, p1))


def _outcome(solve, *args):
    try:
        return solve(*args)
    except Exception as exc:  # the type is the outcome
        return type(exc)


class TestNewtonConvergenceRule:
    def test_a_vanishing_step_returns_inside_the_bracket(self):
        # a derivative of the wrong sign makes the last step of 3e-16 leave
        # the bracket [0, 0.5] upwards; both forms clamp it back
        def f(x):
            return x - 0.3

        def df(x):
            return -0.2 / 3e-16 + 0.0 * x

        assert 0.5 - 0.2 / df(0.5) > 0.5
        assert solve_bracketed(lambda x: (f(x), df(x)), 0.0, 1.0) == 0.5
        roots = _solve_bracketed_rows(lambda x, rows: (f(x), df(x)),
                                      np.zeros(2), np.ones(2), np.full(2, 0.5))
        assert roots.tolist() == [0.5, 0.5]


def _counted_solves(monkeypatch):
    # the (f, f') evaluations of each scalar solve the tangency solve makes
    evals = []

    def counted(fdf, *args):
        def counted_fdf(x):
            evals[-1] += 1
            return fdf(x)
        evals.append(0)
        return solve_bracketed(counted_fdf, *args)

    monkeypatch.setattr(fitting, "solve_bracketed", counted)
    return evals


class TestArrayTangencySolve:
    @pytest.mark.parametrize("m", [1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0])
    def test_equals_scalar_solve_on_seeded_grids(self, m):
        rng = np.random.default_rng(61)
        d = DomainParams(m=m, n=2)
        # a tiny first root ahead of generic rows, rows next to M0, X = 1
        # on M0 and two tiny rows
        us = np.concatenate([[1e-6], rng.uniform(0.0, 1.0, 40),
                             1.0 - 10.0 ** rng.uniform(-12.0, -9.5, 6),   # within 1e-9 of M0
                             1.0 - 10.0 ** rng.uniform(-8.0, -5.0, 6),    # next to M0
                             [1.0]])                                      # on M0, X = 1
        p1, s = _inner_pairs(d, rng, us)
        p1, s = np.concatenate([p1, [1e-11, 1e-160]]), np.concatenate([s, [0.7, 0.9]])
        axis = _axis_p1(m, p1, s)
        X = _solve_X_rows(d, axis)
        expected = []
        for a, b, x in zip(p1, s, axis):
            # the reference's X form overflows at (1e-11, 0.7) for m = 20,
            # where the 50-digit root stands in for it
            want = _outcome(_reference_solve_X, d, a, b)
            expected.append(_root_50(d, float(x)) if want is OverflowError else want)
        expected = np.array(expected)
        assert np.all(np.abs(X - expected) <= np.maximum(1e-14 * expected, _SUBNORMAL_ROUNDING))
        assert X[len(us) - 1] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("m", [1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0, 60.0])
    def test_scalar_solve_matches_the_reference(self, m):
        # every pair either returns within 1e-14 of the reference or raises
        # the same type, off the inner region and out-of-range inputs
        # included; where the reference's X form leaves the float range
        # (beyond e^709.78) the 50-digit root stands in for it
        rng = np.random.default_rng(64)
        d = DomainParams(m=m, n=2)
        us = np.concatenate([rng.uniform(0.0, 1.0, 60), 1.0 - 10.0 ** rng.uniform(-12.0, -5.0, 10),
                             rng.uniform(1.0 + 1e-6, 1.9, 10)])
        p1, s = _inner_pairs(d, rng, us)
        # (0.0515, 1) and (0.051, 0.9) put (2m - 1) log(1/p1^2) between 700 and
        # 709.78 at m = 60, where the equation still fits the float range
        pairs = list(zip(p1, s)) + [(1e-12, 0.8), (1e-160, 0.9), (0.5, 0.0), (1.0, 0.5),
                                    (0.0515, 1.0), (0.051, 0.9)]
        for a, b in pairs:
            x = float(_axis_p1(m, a, b))
            got = _outcome(solve_X, d, x)
            want = _outcome(_reference_solve_X, d, a, b)
            if want is OverflowError:
                want = _root_50(d, x)
            if isinstance(want, type):
                assert got is want, (a, b)
            else:
                assert abs(got - want) <= max(1e-14 * want, _SUBNORMAL_ROUNDING), (a, b)

    @pytest.mark.parametrize("m", [2.0, 5.0])
    def test_stencil_converges_in_a_few_iterations(self, monkeypatch, m):
        # points within 3e-4 of one centre, as in a curvature stencil: the
        # closed-form start leaves a handful of array iterations (a bracket
        # midpoint needs dozens)
        monkeypatch.setattr(numerics, "ROOT_MAX_ITER", 6)
        rng = np.random.default_rng(63)
        d = DomainParams(m=m, n=2)
        p1 = 0.4 + 3e-4 * rng.uniform(-1.0, 1.0, 257)
        s = np.sqrt(1.0 - (0.1 + 3e-4 * rng.uniform(-1.0, 1.0, 257)) ** 2)
        X = _solve_X_rows(d, _axis_p1(m, p1, s))
        expected = np.array([_reference_solve_X(d, a, b) for a, b in zip(p1, s)])
        assert np.all(np.abs(X - expected) <= 1e-14 * expected)

    def test_float_takes_the_scalar_solve_and_rows_the_row_solve(self, monkeypatch):
        # one p1 as a float is one scalar solve; an array, one row included,
        # is one row solve
        d = DomainParams(m=2.0, n=2)
        p1 = float(_axis_p1(2.0, 0.4, 0.9))
        calls = []

        def counted(solve):
            def run(*args, **kwargs):
                calls.append(solve.__name__)
                return solve(*args, **kwargs)
            return run

        monkeypatch.setattr(fitting, "solve_bracketed", counted(solve_bracketed))
        monkeypatch.setattr(fitting, "_solve_bracketed_rows", counted(_solve_bracketed_rows))
        X = solve_X(d, p1)
        assert calls == ["solve_bracketed"]
        assert abs(_solve_X_rows(d, np.array([p1]))[0] - X) <= 4 * np.spacing(X)
        assert calls == ["solve_bracketed", "_solve_bracketed_rows"]

    @pytest.mark.parametrize("m", [1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0, 60.0, 200.0])
    def test_rows_match_one_float_calls_to_4_ulp(self, m):
        # the row solve and the scalar solve run the same Newton rule from
        # the same start and bracket; numpy's and libm's powers round apart,
        # which moves the root by at most a few ulp. Rows do not see each
        # other, so a row alone and among others is the same bits
        rng = np.random.default_rng([int(m), 66])
        d = DomainParams(m=m, n=2)
        thr, w = d.m0_radius, d.m0_weight
        p1 = np.concatenate([thr * rng.uniform(0.0, 1.0, 60),
                             thr * 10.0 ** -rng.uniform(1.0, 12.0, 10),
                             thr * (1.0 - 10.0 ** -rng.uniform(2.0, 16.0, 10)),
                             [thr, np.nextafter(thr, 0.0), 1e-150, 1e-200]])
        tau = fitting._solve_tau(m, w, p1)
        one = np.array([fitting._solve_tau(m, w, float(x)) for x in p1])
        assert np.all(np.abs(tau - one) <= 4 * np.spacing(one))
        assert all(fitting._solve_tau(m, w, p1[i:i + 1])[0] == tau[i] for i in range(0, len(p1), 7))

    @pytest.mark.parametrize("m", [1.0 + 1e-7, 2.0, 5.0])
    @pytest.mark.parametrize("stratum", ["generic", "near-M0", "on-M0", "p1=1e-11", "p1=1e-160"])
    def test_one_pair_on_each_stratum(self, m, stratum):
        # one pair solved on floats (solve_X) and as a row, alone or first
        # of several: the rows agree bit for bit, lie within 4 ulp of the
        # float and within 1e-14 of the reference
        d = DomainParams(m=m, n=2)
        rng = np.random.default_rng([int(10 * m), len(stratum)])
        if stratum.startswith("p1="):
            p1 = np.full(8, float(stratum[3:]))
            s = rng.uniform(0.3, 1.0, 8)
        else:
            us = {"generic": rng.uniform(0.0, 1.0, 8),
                  "near-M0": 1.0 - 10.0 ** rng.uniform(-12.0, -9.5, 8),
                  "on-M0": np.ones(8)}[stratum]
            p1, s = _inner_pairs(d, rng, us)
        for a, b in zip(p1, s):
            x = float(_axis_p1(m, a, b))
            X = solve_X(d, x)
            row = _solve_X_rows(d, [x])[0]
            assert row == _solve_X_rows(d, [x, 0.5 * x])[0]
            assert abs(row - X) <= 4 * np.spacing(X)
            want = _reference_solve_X(d, a, b)
            assert abs(X - want) <= max(1e-14 * want, _SUBNORMAL_ROUNDING), (a, b)
            assert abs(X - _reference_solve_X(d, x)) <= 1e-14 * X, (a, b)

    @pytest.mark.parametrize("m,p1", [(20.0, 1e-5), (60.0, 1e-3)])
    def test_one_pair_solves_as_among_rows(self, m, p1):
        # first, last or alone among array rows: the 50-digit root, where
        # the unbounded X form left the float range
        d = DomainParams(m=m, n=2)
        want = _root_50(d, p1)
        for rows in ([p1], [p1, 0.3], [0.3, p1], [0.3, 0.3, p1]):
            X = _solve_X_rows(d, np.array(rows))[rows.index(p1)]
            assert abs(X - want) <= 1e-15 * want, rows

    def test_newton_convergence_rule_bounds_evaluations(self, monkeypatch):
        # a vanishing Newton step ends the solve even where the iterate sits
        # on its own bracket end; rejecting it there bisected the whole
        # remaining bracket (up to 77 evaluations at m = 5)
        evals = _counted_solves(monkeypatch)
        d = DomainParams(m=5.0, n=2)
        rng = np.random.default_rng(65)
        p1, s = _inner_pairs(d, rng, rng.uniform(0.0, 1.0, 200))
        for a, b in zip(p1, s):
            solve_X(d, float(_axis_p1(5.0, a, b)))
        assert len(evals) == 200
        assert max(evals) <= 40
        # 6 from the closed-form start, the two bracket ends included (8
        # from the bracket midpoint)
        assert statistics.median(evals) <= 10

    @pytest.mark.parametrize("m", [2.0, 5.0])
    def test_start_at_the_leading_order_root(self, monkeypatch, m):
        # |z1| = 1e-8: the root sits next to the leading-order root
        # ((m+1)/s^2)^(1/m) in tau, where the closed-form start is; from the
        # bracket midpoint the solve took 72 to 100 f-evaluations, from that
        # start it takes 3
        evals = _counted_solves(monkeypatch)
        d = DomainParams(m=m, n=2)
        for s in np.linspace(0.05, 1.0, 20):
            X = solve_X(d, float(_axis_p1(m, 1e-8, s)))
            assert abs(X - _reference_solve_X(d, 1e-8, s)) <= 1e-14 * X
        assert len(evals) == 20 and max(evals) <= 13

    def test_one_tangency_call_per_evaluation(self, monkeypatch):
        # each evaluation of the solve's callback, the bracket ends included,
        # is one ``_tangency`` call giving h and h' together (tau^m formed
        # once); two callbacks formed h at every evaluation and h' only
        # where a Newton step was tried
        tangency, pairs = fitting._tangency, []

        def counted(*args):
            pairs.append(tangency(*args))
            return pairs[-1]

        monkeypatch.setattr(fitting, "_tangency", counted)
        evals = _counted_solves(monkeypatch)
        solve_X(DomainParams(m=2.0, n=2), 0.4)
        assert len(evals) == 1 and len(pairs) == evals[0] >= 3
        assert all(len(pair) == 2 for pair in pairs)

    def test_start_inside_the_bracket_only(self):
        # a start strictly inside the bracket is the first iterate; any other
        # start is replaced by the midpoint
        seen = []

        def fdf(x):
            seen.append(x)
            return x - 0.3, 1.0

        assert solve_bracketed(fdf, 0.0, 1.0, x0=0.3) == 0.3
        assert seen == [0.0, 1.0, 0.3]
        for x0 in (0.0, 1.0, 2.0, None):
            seen.clear()
            assert solve_bracketed(fdf, 0.0, 1.0, x0=x0) == 0.3
            assert seen[2] == 0.5

    def test_non_inner_point_raises(self):
        # w p1^2m = u s^2 with u = 0.3 and 0.6 solves; u = 1.1 is off the
        # inner region, refused by solve_X with a message naming p1 (the
        # rows take the fit's tangency rows, which lie inside M0)
        d = DomainParams(m=2.0, n=2)
        p1, s = _inner_pairs(d, np.random.default_rng(62), [0.3, 0.6, 1.1])
        x = _axis_p1(2.0, p1, s).tolist()
        assert solve_X(d, x[0]) < solve_X(d, x[1]) < 1.0
        with pytest.raises(ConfigurationError) as info:
            solve_X(d, x[2])
        assert repr(x[2]) in str(info.value)

    def test_small_row_solves_as_the_scalar_solve(self):
        # p1 = 1e-5 at m = 20, where the X form overflowed: one row and a
        # later array row give the 50-digit root
        d = DomainParams(m=20.0, n=2)
        want = _root_50(d, 1e-5)
        assert abs(solve_X(d, 1e-5) - want) <= 1e-15 * want
        assert abs(_solve_X_rows(d, np.array([0.3, 1e-5]))[1] - want) <= 1e-15 * want

    def test_rows_inside_the_float_range_solve(self):
        # (2m - 1) log(1/p1^2) = 705.9 and 708.3 at m = 60: past e^700, just
        # inside the float range of the X form; the bounded form has no such
        # edge, and both rows give the 50-digit root
        d = DomainParams(m=60.0, n=2)
        x = _axis_p1(60.0, np.array([0.0515, 0.051]), np.array([1.0, 0.9]))
        expected = np.array([_root_50(d, a) for a in x])
        X = _solve_X_rows(d, x)
        assert np.all(np.abs(X - expected) <= 1e-15 * expected)


class TestTinyZ1AtLargeM:
    # |z1| = 1e-8 at m >= 20, where the X form of the tangency equation left
    # the float range: one-point evaluations give the 50-digit tensor
    @pytest.mark.parametrize("m", [20.0, 60.0])
    @pytest.mark.parametrize("evaluate", ["wu_tensor", "wu_norm"])
    def test_one_point_matches_50_digits(self, m, evaluate):
        ref = pytest.importorskip("wu_reference")
        d = DomainParams(m=m, n=2)
        z, v = np.array([1e-8, 0.5]), np.array([1.0, 0.5j])
        H = ref.wu_tensor(m, d.m0_weight, z)[0]
        R = np.array([[complex(H[i, j]) for j in range(2)] for i in range(2)])
        if evaluate == "wu_tensor":
            got, want = wu_tensor(d, z).matrix, R
        else:
            got, want = wu_norm(d, z, v), np.sqrt(np.real(np.conj(v) @ R @ v))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
