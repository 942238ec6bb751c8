"""The verify suite's sample sets: row samplers, row regularity probes, the bench's cells."""

import numpy as np
import pytest

from eggmetrics import (
    Branch,
    Convexity,
    DomainParams,
    HermitianForm,
    NumericalError,
    automorphism_jacobian,
    egg_automorphism,
    kobayashi_sq,
    kcurve_alpha_range,
    minkowski_gauge,
    regularity_scan,
    square_convexity_check,
    wu_tensor,
)
from eggmetrics import fitting, numerics, smoothness, verification
from eggmetrics.domain import _defining
from eggmetrics.kcurve import _lower_xy_many, _upper_xy_many
from eggmetrics.verification import (
    _SAMPLE_MARGIN,
    _sample_directions,
    _sample_interior,
    check_alt_upper,
    check_automorphism,
    check_convexity,
    check_domination,
    check_fit_oracle,
    check_gauge,
    check_invariance,
    check_seam_continuity,
    check_tensor_consistency,
    run_checks,
)


def _one_point_interior(domain, rng, scale):
    # the sampler as it was, one rejection attempt at a time
    while True:
        z = (rng.uniform(-1, 1, domain.n) + 1j * rng.uniform(-1, 1, domain.n)) * scale
        if _defining(domain, z) < _SAMPLE_MARGIN - 1.0:
            return z


def _one_point_direction(domain, rng):
    v = rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n)
    return v / np.linalg.norm(v)


class TestRowSamplers:
    @pytest.mark.parametrize("scale", [0.5, 0.75, 0.95])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0.5, 0.75, 2.0, 5.0, 20.0])
    def test_interior_rows_are_the_one_point_draws(self, m, n, scale):
        d = DomainParams(m=m, n=n)
        for count in (1, 7, 60):
            rows = _sample_interior(d, np.random.default_rng([count, n]), count, scale)
            rng = np.random.default_rng([count, n])
            want = np.array([_one_point_interior(d, rng, scale) for _ in range(count)])
            assert rows.shape == (count, n)
            assert np.array_equal(rows, want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_direction_rows_are_unit_one_point_draws(self, n):
        d = DomainParams(m=2.0, n=n)
        for count in (1, 300):
            rows = _sample_directions(d, np.random.default_rng(count), count)
            rng = np.random.default_rng(count)
            want = np.array([_one_point_direction(d, rng) for _ in range(count)])
            assert rows.shape == (count, n)
            assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 4e-16
            assert np.max(np.abs(rows - want)) <= 4e-16


def _spy(monkeypatch, name):
    # the calls of verification.<name>, recorded with their arguments
    calls, real = [], getattr(verification, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verification, name, spy)
    return calls


def _row_gap(a, b):
    # max |a - b| over each row's largest entry, worst row
    return float(np.max(np.max(np.abs(a - b), axis=-1) / np.max(np.abs(b), axis=-1)))


class TestCheckDraws:
    # each check draws its samples as its one-at-a-time loop drew them and
    # evaluates them in one row call: the rows against the loop's samples,
    # from the same seeded generator
    CELLS = [(0.5, 2), (0.75, 3), (2.0, 2), (5.0, 4), (20.0, 3)]

    @staticmethod
    def _gauge_loop(d, rng):
        # (v, lam v) of each sample, drawn as the loop drew them
        for _ in range(50):
            v = _one_point_direction(d, rng) * rng.uniform(0.1, 2.0)
            yield v, rng.uniform(0.1, 5.0) * v

    @pytest.mark.parametrize("m,n", CELLS)
    def test_gauge(self, monkeypatch, m, n):
        d = DomainParams(m=m, n=n)
        calls = _spy(monkeypatch, "_gauge")
        check_gauge(d, np.random.default_rng([n, 1]))
        (_, rows), = calls
        loop = np.array(list(self._gauge_loop(d, np.random.default_rng([n, 1]))))
        assert _row_gap(rows, np.concatenate([loop[:, 0], loop[:, 1]])) <= 4e-16

    def test_gauge_names_the_first_mismatch_in_loop_order(self, monkeypatch):
        d = DomainParams(m=2.0, n=3)
        real = verification._gauge

        def flipped(domain, rows):
            # samples 7 and 30 on the wrong side of the boundary
            g = real(domain, rows)
            g[[7, 30]] = np.where(g[[7, 30]] < 1.0, 2.0, 0.5)
            return g

        monkeypatch.setattr(verification, "_gauge", flipped)
        ok, detail = check_gauge(d, np.random.default_rng(3))
        v7 = list(self._gauge_loop(d, np.random.default_rng(3)))[7][0]
        assert not ok
        assert detail == f"gauge/membership mismatch at {v7!r}"

    @pytest.mark.parametrize("m,n", CELLS)
    def test_automorphism(self, monkeypatch, m, n):
        d = DomainParams(m=m, n=n)
        calls = _spy(monkeypatch, "_automorphism")
        check_automorphism(d, np.random.default_rng([n, 2]))
        (_, base, rows), = calls
        rng = np.random.default_rng([n, 2])
        ps, zs = _sample_interior(d, rng, 25), _sample_interior(d, rng, 25)
        steps = 1e-6 * np.eye(n)
        # per sample p, the boundary point, z (the Jacobian's) and the steps
        want = np.array([np.vstack([p, v / minkowski_gauge(d, v), z, z + steps, z - steps])
                         for p, z, v in zip(ps, zs, _sample_directions(d, rng, 25))])
        rows = rows.reshape(want.shape)
        assert np.array_equal(base, np.repeat(ps, 3 + 2 * n, axis=0))
        assert np.array_equal(np.delete(rows, 1, axis=1), np.delete(want, 1, axis=1))
        # the boundary points take the gauge over rows, which runs a root solve
        assert _row_gap(rows[:, 1], want[:, 1]) <= 1e-13

    @pytest.mark.parametrize("m,n", CELLS)
    def test_alternate_formula(self, monkeypatch, m, n):
        d = DomainParams(m=m, n=n)
        calls = _spy(monkeypatch, "kobayashi")
        check_alt_upper(d, np.random.default_rng([n, 3]))
        (_, axis, vs), = calls
        rng = np.random.default_rng([n, 3])
        p1s, want = [], []
        for _ in range(100):
            p1 = rng.uniform(0.1, 0.9)
            vhat = _one_point_direction(d, rng)[1:]
            vhat = vhat / np.linalg.norm(vhat)
            u = p1 * rng.uniform(1.05, 40.0)
            p1s.append(p1)
            want.append(np.concatenate(([u / m], vhat)))
        want = np.array(want)
        assert np.array_equal(axis[:, 0], p1s) and not np.any(axis[:, 1:])
        assert np.array_equal(vs[:, 0], want[:, 0])
        assert np.max(np.abs(vs[:, 1:] - want[:, 1:])) <= 4e-16

    @pytest.mark.parametrize("m,n", CELLS)
    def test_invariance(self, monkeypatch, m, n):
        d = DomainParams(m=m, n=n)
        calls = _spy(monkeypatch, "kobayashi")
        check_invariance(d, np.random.default_rng([n, 4]))
        (_, points, vectors), = calls
        rng = np.random.default_rng([n, 4])
        ps, qs = _sample_interior(d, rng, 40), _sample_interior(d, rng, 40)
        vs = _sample_directions(d, rng, 40)
        moved = np.array([egg_automorphism(d, q, p) for p, q in zip(ps, qs)])
        dv = np.array([automorphism_jacobian(d, q, p) @ v for p, q, v in zip(ps, qs, vs)])
        assert np.array_equal(points, np.concatenate([ps, moved]))
        assert np.array_equal(vectors[:40], vs)
        assert _row_gap(vectors[40:], dv) <= 2e-15


def _one_point_api(monkeypatch):
    # the probes' two evaluations, one public one-point call per row
    monkeypatch.setattr(smoothness, "wu_tensor", lambda d, z: np.array(
        [wu_tensor(d, p).matrix for p in z]))
    monkeypatch.setattr(smoothness, "kobayashi_sq", lambda d, z, v: np.array(
        [kobayashi_sq(d, p, w) for p, w in zip(z, v)]))


class TestRowProbes:
    # the middle stratum exists only for m > 1
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m,seam", [(0.75, "Z"), (2.0, "Z"), (2.0, "M0"),
                                        (5.0, "Z"), (5.0, "M0")])
    def test_rows_match_one_point_evaluation(self, monkeypatch, m, seam, n):
        d = DomainParams(m=m, n=n)
        for seed in range(4):
            rows = regularity_scan(d, seam, seed=seed, orders=(0, 1, 2, 3), n_paths=1)
            with monkeypatch.context() as mp:
                _one_point_api(mp)
                points = regularity_scan(d, seam, seed=seed, orders=(0, 1, 2, 3), n_paths=1)
            for a, b in zip(rows, points, strict=True):
                assert (a.path, a.order, a.verdict) == (b.path, b.order, b.verdict)
                assert a.jump_detected == b.jump_detected
                if a.order > 1:
                    # at M0 the order-2 and -3 fits run on differences near the
                    # roundoff of the M- tangency solves, whose row and one-point
                    # forms differ in the last bits: only the verdicts are stable
                    continue
                assert a.exponent == pytest.approx(b.exponent, abs=1e-9, nan_ok=True)
                assert abs(a.jump - b.jump) <= 1e-5 * max(abs(a.jump), abs(b.jump))


class TestBenchCells:
    # the (m, n) cells of the benchmark's verify workload: every check passes,
    # so a change of draws that breaks one fails here first
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0, 5.0])
    def test_every_check_passes(self, m, n):
        for seed in range(3):
            results = run_checks(DomainParams(m=m, n=n), seed=seed)
            failed = [(r.name, r.detail) for r in results if not r.passed]
            assert failed == [], (m, n, seed)
            # a Python bool (smoothness gave numpy's at m > 1)
            assert [r.name for r in results if type(r.passed) is not bool] == []


def _budget(monkeypatch, module, limit):
    # the row solves of ``module`` stopped after ``limit`` iterations, one
    # fdf evaluation each (NumericalError past it); returns each call's rows
    calls, solve = [], numerics._solve_bracketed_rows

    def limited(fdf, lo, hi, x0):
        calls.append(lo.size)
        return solve(fdf, lo, hi, x0, max_iter=limit)

    monkeypatch.setattr(module, "_solve_bracketed_rows", limited)
    return calls


class TestRowSolveBudget:
    # verify's sample sets solve every row in a few Newton steps: tangency
    # rows from their closed-form start, two-term rows from two Newton steps
    # in log x. A start at another row's root or at a bracket end costs
    # tens of evaluations on some rows and fails here
    @pytest.mark.parametrize("m", [1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0, 60.0])
    def test_tangency_rows_take_at_most_six_evaluations(self, monkeypatch, m):
        calls = _budget(monkeypatch, fitting, 6)
        for n in (2, 3):
            d = DomainParams(m=m, n=n)
            for seed in range(3):
                for check in (check_domination, check_invariance, check_tensor_consistency):
                    check(d, np.random.default_rng([seed, n]))
        assert len(calls) >= 6 and sum(calls) >= 300

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0])
    def test_two_term_rows_take_at_most_six_evaluations(self, monkeypatch, m):
        calls = _budget(monkeypatch, numerics, 6)
        for n in (2, 3):
            d = DomainParams(m=m, n=n)
            for seed in range(3):
                for check in (check_gauge, check_alt_upper):
                    check(d, np.random.default_rng([seed, n]))
        assert len(calls) >= 6 and sum(calls) >= 300


class TestSeamContinuityAtLargeM:
    # the tensor's slope across M0 grows as 6m relative, so the check steps
    # 1e-7/m either side of M0: a continuous tensor gaps by about 1.2e-6 at
    # every m, under the fixed 1e-5 bound, and a jump of 2e-5 does not
    @pytest.mark.parametrize("m", [2.0, 5.0, 20.0, 60.0])
    def test_continuous_tensor_passes(self, m):
        ok, detail = check_seam_continuity(DomainParams(m=m, n=2), np.random.default_rng(0))
        assert ok, detail
        assert "tensor M0 gap 1.2e-06" in detail

    @pytest.mark.parametrize("m", [2.0, 20.0, 60.0])
    def test_jump_across_m0_fails(self, monkeypatch, m):
        d = DomainParams(m=m, n=2)

        def jumped(domain, z, *args):
            # 2e-5 relative, from M0 out along the axis
            form = wu_tensor(domain, z, *args)
            if abs(z[0]) > domain.m0_radius:
                return HermitianForm(form.matrix * (1.0 + 2e-5), form.region, form.source)
            return form

        monkeypatch.setattr(verification, "wu_tensor", jumped)
        ok, detail = check_seam_continuity(d, np.random.default_rng(0))
        assert not ok
        assert float(detail.split("tensor M0 gap ")[1].split(",")[0]) > 2e-5



class TestFitOracleCheck:
    # fit-vs-oracle bounds the relative gap of fit_reference from the oracle
    # by 1e-8, ten times the oracle's accuracy bound. r1 scaled up by 1e-7
    # also breaks containment; scaled down, only the gap bound sees it
    @pytest.mark.parametrize("m", [0.75, 2.0, 20.0])
    def test_reference_passes(self, m):
        ok, detail = check_fit_oracle(DomainParams(m=m, n=2), np.random.default_rng(0))
        assert ok, detail

    @pytest.mark.parametrize("scale", [1.0 + 1e-7, 1.0 - 1e-7])
    @pytest.mark.parametrize("m", [0.75, 2.0, 20.0])
    def test_scaled_r1_fails(self, monkeypatch, m, scale):
        def scaled(domain, p1):
            ell = fitting.fit_reference(domain, p1)
            return fitting.WuEllipsoidDiag(r1=ell.r1 * scale, r2=ell.r2)

        monkeypatch.setattr(verification, "fit_reference", scaled)
        ok, detail = check_fit_oracle(DomainParams(m=m, n=2), np.random.default_rng(0))
        assert not ok
        assert float(detail.split("rel ")[1].split(",")[0]) > 9e-8

def _divided_difference_loop(x, y):
    # the second divided differences and their roundoff bounds, one triple
    # at a time: the reference for the check's array expressions
    y_mag = max(float(np.max(np.abs(y))), 1e-300)
    eps = np.finfo(float).eps
    dd, noise = [], []
    for i in range(len(x) - 2):
        x0, x1, x2 = x[i], x[i + 1], x[i + 2]
        if x2 - x0 < 1e-14:
            continue
        s1 = (y[i + 1] - y[i]) / (x1 - x0)
        s2 = (y[i + 2] - y[i + 1]) / (x2 - x1)
        dd.append((s2 - s1) / (x2 - x0))
        noise.append(8.0 * eps * (y_mag + max(abs(s1), abs(s2)) * max(abs(x0), abs(x2)))
                     / (min(x1 - x0, x2 - x1) * (x2 - x0)))
    return np.array(dd), np.array(noise)


class TestSquareConvexity:
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 5.0, 20.0])
    def test_array_differences_are_the_loop(self, m):
        # where no triple has a half of zero width, the array expressions
        # give the loop's differences and bounds to the bit, so its verdicts
        d = DomainParams(m=m, n=2)
        for p1 in (0.2, 0.4, 0.7):
            for branch in (Branch.LOWER, Branch.UPPER):
                lo, hi = kcurve_alpha_range(d, p1, branch)
                xy = (_upper_xy_many if branch is Branch.UPPER else _lower_xy_many)(
                    m, p1, np.linspace(lo, hi, 64))
                x, y = xy[np.argsort(xy[:, 0])].T
                if not np.all(np.diff(x) > 0.0) or x[-1] - x[0] < 1e-14:
                    continue
                dd, noise = _divided_difference_loop(x, y)
                scale = max(float(np.max(np.abs(y))), 1e-300) / (x[-1] - x[0]) ** 2
                significant = np.abs(dd) > np.maximum(10.0 * noise, 1e-9 * scale)
                verdict = square_convexity_check(d, p1, branch)
                if not significant.any():
                    want = (Convexity.AFFINE, float(np.max(np.abs(dd))) / scale)
                elif np.all(dd[significant] > 0):
                    want = (Convexity.CONVEX, float(np.min(dd[significant])) / scale)
                elif np.all(dd[significant] < 0):
                    want = (Convexity.CONCAVE, float(np.min(-dd[significant])) / scale)
                else:
                    want = (Convexity.MIXED, 0.0)
                assert (verdict.verdict, verdict.margin) == want, (p1, branch)

    def test_zero_width_half_is_skipped(self):
        # at m = 60, p1 = 0.1 two UPPER samples share an x inside a triple
        # wider than 1e-14; its slope would divide by zero (a RuntimeWarning,
        # an error under pytest.ini)
        d = DomainParams(m=60.0, n=2)
        lo, hi = kcurve_alpha_range(d, 0.1, Branch.UPPER)
        x = np.sort(_upper_xy_many(60.0, 0.1, np.linspace(lo, hi, 64))[:, 0])
        assert np.any((np.diff(x) == 0.0)[1:] & (x[2:] - x[:-2] >= 1e-14))
        assert square_convexity_check(d, 0.1, Branch.UPPER).verdict is Convexity.CONCAVE

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [20.0, 60.0])
    def test_unresolvable_lower_span_takes_the_exact_verdict(self, m, n):
        # the LOWER branch is affine in alpha by construction; where it is too
        # short in x for a divided difference the check says so and passes
        d = DomainParams(m=m, n=n)
        with pytest.raises(NumericalError, match="LOWER branch spans"):
            square_convexity_check(d, 0.4, Branch.LOWER)
        ok, detail = check_convexity(d, np.random.default_rng(0))
        assert ok, detail
        assert "p1=0.4: lower=affine (exact, x-span " in detail
