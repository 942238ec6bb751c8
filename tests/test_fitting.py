import math

import numpy as np
import pytest

from eggmetrics import (
    Branch,
    ConfigurationError,
    DomainError,
    DomainParams,
    WuEllipsoidDiag,
    containment_violation,
    contact_point,
    fit_oracle,
    fit_origin,
    fit_reference,
    joining_point,
    kcurve_sample,
    solve_X,
)
from eggmetrics import fitting
from eggmetrics.fitting import _ORACLE_FEAS_TOL, _enumerate_lines
from eggmetrics.numerics import abs_pow

from test_kobayashi import bisect_root


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
            X = solve_X(d, p1, s)
            P = abs_pow(p1, 2 * m)
            res = (s ** 4 * abs_pow(X, 2 * m - 1)
                   - (m + 1) * P * s * s * abs_pow(X, m - 1)
                   + (m - 2) * P * s * s * abs_pow(X, m)
                   + 2 * P * P)
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
        # at p1 = 2^(-1/2m) the inner form with X = 1 equals the outer form
        for m in (1.5, 2.0, 2.5):
            d = DomainParams(m=m, n=2)
            thr = d.m0_radius
            outer = fit_reference(d, thr)
            X = solve_X(d, thr)
            P = 0.5
            F = m * abs_pow(X, m - 1) - (m - 1) * abs_pow(X, m) - P
            inner_r1 = m * m * abs_pow(X, 2 * m - 1) / (2 * thr * thr * F * F)
            inner_r2 = abs_pow(X, 2 * m - 1) / (2 * P * F)
            assert outer.r1 == pytest.approx(inner_r1, rel=1e-12)
            assert outer.r2 == pytest.approx(inner_r2, rel=1e-12)
            assert outer.r1 == pytest.approx(2 * m * m / (thr * thr), rel=1e-13)
            assert outer.r2 == pytest.approx(2.0, rel=1e-13)

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

    def test_rejected_outside_inner_region(self):
        with pytest.raises(ConfigurationError):
            contact_point(DomainParams(m=0.75, n=2), 0.5)
        with pytest.raises(ConfigurationError):
            contact_point(DomainParams(m=2.0, n=2), 0.9)


class TestOracle:
    @pytest.mark.parametrize("m,p1", [
        (0.5, 0.5), (0.75, 0.2), (0.75, 0.8),
        (2.0, 0.3), (2.0, 0.84), (2.0, 0.9), (2.5, 0.4),
    ])
    def test_matches_closed_forms(self, m, p1):
        d = DomainParams(m=m, n=2)
        ref = fit_reference(d, p1)
        orc = fit_oracle(d, p1, samples=4096)
        assert orc.r1 == pytest.approx(ref.r1, rel=1e-5)
        assert orc.r2 == pytest.approx(ref.r2, rel=1e-5)

    def test_needs_minimum_samples(self):
        with pytest.raises(DomainError):
            fit_oracle(DomainParams(m=2.0, n=2), 0.5, samples=32)


class TestContainmentAndMinimality:
    @pytest.mark.parametrize("m,p1", [(0.5, 0.3), (0.75, 0.6), (2.0, 0.4), (2.0, 0.9)])
    def test_containment(self, m, p1):
        d = DomainParams(m=m, n=2)
        ell = fit_reference(d, p1)
        assert containment_violation(d, p1, ell, samples=1024) <= 1e-9

    @pytest.mark.parametrize("m,p1", [(0.75, 0.5), (2.0, 0.5), (2.0, 0.9)])
    def test_perturbations_violate_or_grow(self, m, p1):
        d = DomainParams(m=m, n=2)
        ell = fit_reference(d, p1)
        area = 1.0 / (ell.r1 * ell.r2)
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            cand = WuEllipsoidDiag(r1=ell.r1 * (1 + 1e-3 * math.cos(theta)),
                                   r2=ell.r2 * (1 + 1e-3 * math.sin(theta)))
            violated = containment_violation(d, p1, cand, samples=1024) > 1e-9
            grew = 1.0 / (cand.r1 * cand.r2) > area * (1 + 1e-9)
            assert violated or grew


# -- reference sweep: every candidate checked against every sample -----------

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
    return np.array(chain)


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
        if violation > _ORACLE_FEAS_TOL:
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


class TestHullSweep:
    @pytest.mark.parametrize("m,samples", [
        (0.5, 1024), (0.75, 1024), (1.0, 1024), (2.0, 1024), (5.0, 1024), (20.0, 1024),
        (2.0, 4096),
    ])
    def test_matches_reference_on_both_oracle_stages(self, m, samples, monkeypatch):
        seen = []

        def recording(pts):
            seen.append(pts.copy())
            return _enumerate_lines(pts)

        monkeypatch.setattr(fitting, "_enumerate_lines", recording)
        d = DomainParams(m=m, n=2)
        for p1 in (0.6 * d.m0_radius, 0.5 * (d.m0_radius + 1.0)):
            fit_oracle(d, p1, samples=samples)
        assert len(seen) == 4
        for pts in seen:
            assert _enumerate_lines(pts) == _reference_enumerate_lines(pts)

    @pytest.mark.parametrize("pts", [
        # vertical duplicate-x pairs: a rising first hull edge
        [[0.0, 0.2], [0.0, 1.0], [0.5, 0.8], [1.0, 0.0]],
        [[0.3, 0.1], [0.3, 0.9], [0.6, 0.5], [1.0, 0.0], [0.6, 0.2]],
        # collinear runs
        [[0.0, 1.0], [0.2, 0.8], [0.4, 0.6], [0.6, 0.4], [1.0, 0.0]],
        [[0.0, 0.9], [0.1, 0.89], [0.3, 0.75], [0.5, 0.55], [0.7, 0.35], [0.9, 0.1], [1.0, 0.0]],
        # hull of two points
        [[0.2, 0.9], [0.8, 0.3]],
        [[0.5, 0.5], [0.5, 0.5]],
        # no feasible line: no candidate has r1, r2 > 0
        [[0.0, 0.3], [0.0, 0.8], [0.0, 0.5]],
        [[0.2, -0.3], [0.6, 0.0]],
    ])
    def test_matches_reference_on_degenerate_sets(self, pts):
        pts = np.array(pts, dtype=float)
        assert _enumerate_lines(pts) == _reference_enumerate_lines(pts)

    def test_returned_line_contains_every_sample_not_just_the_hull(self, monkeypatch):
        # drop the vertex where the least-area tangent touches from the hull:
        # the chord across the gap is then the smallest candidate, passes the
        # hull-vertex bound, and only the check over every sample rejects it
        theta = np.linspace(0.0, 0.5 * math.pi, 9)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        hull = fitting._upper_hull(pts)
        monkeypatch.setattr(fitting, "_upper_hull", lambda p: np.delete(hull, 4, axis=0))
        _, r1, r2, _ = _enumerate_lines(pts)
        assert np.max(r1 * pts[:, 1] + r2 * pts[:, 0]) - 1.0 <= _ORACLE_FEAS_TOL

    def test_no_feasible_line_is_none(self):
        assert _enumerate_lines(np.array([[0.0, 0.3], [0.0, 0.8]])) is None
        assert _enumerate_lines(np.empty((0, 2))) is None
        assert _reference_enumerate_lines(np.empty((0, 2))) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(3, 400)), 2))
        assert _enumerate_lines(pts) == _reference_enumerate_lines(pts)


class TestOraclePins:
    # fit_oracle(samples=4096) and containment_violation(samples=1024) of that
    # fit, recorded from the exhaustive sweep; verify's 1e-5 agreement with
    # fit_reference cannot see a flip between neighbouring candidates
    @pytest.mark.parametrize("m,p1,r1,r2,violation", [
        (0.5, 0.4, 1.417233560090703, 1.6666666666666665, 0.0),
        (0.75, 0.9, 27.70083102493069, 6.8406456392821475, 0.0),
        (2.0, 0.4, 1.2518366267143355, 0.8583233626471755, -7.458885891153955e-07),
        (2.0, 0.9, 27.39559003717135, 2.9078220412910745, 1.1102230246251565e-14),
        (5.0, 0.05, 0.7194874394643246, 0.6005931756422798, -0.00029775365938544684),
        (20.0, 0.8, 5.392006003434205, 0.6263936140714983, -1.8300743707122535e-06),
    ])
    def test_pinned(self, m, p1, r1, r2, violation):
        d = DomainParams(m=m, n=2)
        orc = fit_oracle(d, p1, samples=4096)
        assert orc.r1 == pytest.approx(r1, rel=1e-12, abs=0.0)
        assert orc.r2 == pytest.approx(r2, rel=1e-12, abs=0.0)
        assert containment_violation(d, p1, orc) == pytest.approx(violation, rel=1e-12, abs=1e-15)
