"""The verify suite's sample sets: row samplers, row regularity probes, the bench's cells."""

import math
import sys

import numpy as np
import pytest

from eggmetrics import (
    Branch,
    Convexity,
    DomainError,
    DomainParams,
    NumericalError,
    RegionLabel,
    automorphism_jacobian,
    egg_automorphism,
    kobayashi_sq,
    kcurve_alpha_range,
    minkowski_gauge,
    pullback_tensor,
    regularity_scan,
    square_convexity_check,
    wu_norm,
    wu_tensor,
)
from eggmetrics import fitting, numerics, smoothness, verification
from eggmetrics.domain import (REGION_TOL, _automorphism, _check_inside, _defining, _region_of,
                               _stratum_points, _unit_rows)
from eggmetrics.kcurve import _lower_xy_many, _upper_xy_many
from eggmetrics.tensor import _norm_sq
from eggmetrics.verification import (
    check_alt_upper,
    check_automorphism,
    check_convexity,
    check_domination,
    check_fit_oracle,
    check_gauge,
    check_invariance,
    check_tensor_consistency,
    run_checks,
)


def _one_row_stratum(domain, rng, count, stratum):
    # the stratum rows as ``_stratum_points`` states them, one scalar at a time from the
    # four blocks (c, t's fraction, z1's phase, the zhat directions) in their order
    w, k = domain.m0_weight, domain.n - 1
    lo, hi = (0.0, 0.9) if stratum == "interior" else (1.0 / w, 0.98)
    cs = [rng.uniform(lo, hi) for _ in range(count)]
    fracs = [rng.uniform() for _ in range(count)]
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(count)]
    dirs = [_one_point_direction(k, rng) for _ in range(count)]
    rows = []
    for c, frac, phase, u in zip(cs, fracs, phases, dirs):
        t0 = 0.0 if stratum == "interior" else (1.0 / c - 1.0) / (w - 1.0)
        t = t0 + (1.0 - t0) * frac
        z1 = (c * t) ** (0.5 / domain.m) * complex(math.cos(phase), math.sin(phase))
        rows.append(np.concatenate(([z1], math.sqrt(c * (1.0 - t)) * u)))
    return np.array(rows)


def _one_point_direction(k, rng):
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    return v / np.linalg.norm(v)


class TestStratumPoints:
    # verify's two strata, placed directly: every row lands in its stratum, from
    # the draws in the order the docstring states
    M_VALUES = [0.5, 0.75, 1.0, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 20.0, 60.0, 200.0]

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("m", M_VALUES)
    def test_interior_rows_lie_inside_the_margin(self, m, n):
        d = DomainParams(m=m, n=n)
        rows = _stratum_points(d, np.random.default_rng([n, 1]), 2000, "interior")
        assert rows.shape == (2000, n)
        assert np.all(_defining(d, rows) < -0.1)
        _check_inside(d, rows)
        for z in rows[:20]:
            _check_inside(d, z)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("m", [m for m in M_VALUES if m > 1.0])
    def test_m_plus_rows_read_m_plus(self, m, n):
        d = DomainParams(m=m, n=n)
        rows = _stratum_points(d, np.random.default_rng([n, 2]), 2000, "M+")
        assert np.all(_defining(d, rows) < -0.02)
        assert np.all(_region_of(d, rows, REGION_TOL) == RegionLabel.M_PLUS)

    @pytest.mark.parametrize("stratum", ["interior", "M+"])
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("m", [0.5, 1.0 + 1e-7, 2.0, 60.0])
    def test_rows_are_the_stated_draws(self, m, n, stratum):
        d = DomainParams(m=m, n=n)
        for count in (1, 7, 60):
            rows = _stratum_points(d, np.random.default_rng([count, n]), count, stratum)
            again = _stratum_points(d, np.random.default_rng([count, n]), count, stratum)
            want = _one_row_stratum(d, np.random.default_rng([count, n]), count, stratum)
            assert rows.shape == (count, n) and np.array_equal(rows, again)
            # numpy's array pow and exp round apart from the scalar math forms: at most
            # 1.6e-16 over m up to 200, n in {2, 3, 8} and up to 500 rows
            assert np.max(np.abs(rows - want)) <= 4e-16

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_direction_rows_are_unit_one_point_draws(self, n):
        for count in (1, 300):
            rows = _unit_rows(np.random.default_rng(count).normal(size=(count, 2, n)))
            rng = np.random.default_rng(count)
            want = np.array([_one_point_direction(n, rng) for _ in range(count)])
            assert rows.shape == (count, n)
            assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 4e-16
            assert np.array_equal(rows, want)


def _spy(monkeypatch, name):
    # the calls of verification.<name>, recorded with their positional arguments
    calls, real = [], getattr(verification, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verification, name, spy)
    return calls


def _row_gap(a, b):
    # max |a - b| over each row's largest entry, worst row
    return float(np.max(np.max(np.abs(a - b), axis=-1) / np.max(np.abs(b), axis=-1)))


class TestCheckDraws:
    # each check draws its samples from its own seeded generator and
    # evaluates them in one row call: the rows against samples drawn here
    # as the check draws them, interior points from the stated draws
    # (``_one_row_stratum``) and directions one at a time, the gauge and the
    # alternate formula's samples as one block per column
    CELLS = [(0.5, 2), (0.75, 3), (2.0, 2), (5.0, 4), (20.0, 3)]

    @staticmethod
    def _gauge_samples(d, rng):
        # (v, lam v) of each sample from three block draws: the directions'
        # real and imaginary parts, the lengths and the lams
        g = rng.normal(size=(50, 2, d.n))
        length, lam = rng.uniform(0.1, 2.0, 50), rng.uniform(0.1, 5.0, 50)
        v = np.array([(a + 1j * b) / np.linalg.norm(a + 1j * b) for a, b in g])
        v *= length[:, None]
        return v, lam[:, None] * v

    @pytest.mark.parametrize("m,n", CELLS)
    def test_gauge(self, monkeypatch, m, n):
        d = DomainParams(m=m, n=n)
        calls = _spy(monkeypatch, "_gauge")
        check_gauge(d, np.random.default_rng([n, 1]))
        (_, rows), = calls
        v, scaled = self._gauge_samples(d, np.random.default_rng([n, 1]))
        assert _row_gap(rows, np.concatenate([v, scaled])) <= 4e-16

    def test_gauge_names_the_first_mismatch_in_row_order(self, monkeypatch):
        d = DomainParams(m=2.0, n=3)
        real = verification._gauge

        def flipped(domain, rows):
            # samples 7 and 30 on the wrong side of the boundary
            g = real(domain, rows)
            g[[7, 30]] = np.where(g[[7, 30]] < 1.0, 2.0, 0.5)
            return g

        monkeypatch.setattr(verification, "_gauge", flipped)
        ok, detail = check_gauge(d, np.random.default_rng(3))
        v7 = self._gauge_samples(d, np.random.default_rng(3))[0][7]
        assert not ok
        assert detail == f"gauge/membership mismatch at {v7!r}"

    @pytest.mark.parametrize("m,n", CELLS)
    def test_automorphism(self, monkeypatch, m, n):
        d = DomainParams(m=m, n=n)
        calls = _spy(monkeypatch, "_automorphism")
        check_automorphism(d, np.random.default_rng([n, 2]))
        (_, base, rows), = calls
        rng = np.random.default_rng([n, 2])
        ps, zs = (_one_row_stratum(d, rng, 25, "interior") for _ in range(2))
        vs = [_one_point_direction(n, rng) for _ in range(25)]
        steps = 1e-6 * np.eye(n)
        # per sample p, the boundary point, z (the Jacobian's) and the steps
        want = np.array([np.vstack([p, v / minkowski_gauge(d, v), z, z + steps, z - steps])
                         for p, z, v in zip(ps, zs, vs)])
        rows = rows.reshape(want.shape)
        # the stated draws to rounding (at most 1.6e-16 on these cells)
        assert np.max(np.abs(base - np.repeat(ps, 3 + 2 * n, axis=0))) <= 4e-16
        assert np.max(np.abs(np.delete(rows, 1, axis=1) - np.delete(want, 1, axis=1))) <= 4e-16
        # the boundary points take the gauge over rows, which runs a root solve
        assert _row_gap(rows[:, 1], want[:, 1]) <= 1e-13

    @pytest.mark.parametrize("m,n", CELLS)
    def test_alternate_formula(self, monkeypatch, m, n):
        d = DomainParams(m=m, n=n)
        calls = _spy(monkeypatch, "kobayashi")
        check_alt_upper(d, np.random.default_rng([n, 3]))
        (_, axis, vs), = calls
        rng = np.random.default_rng([n, 3])
        # p1, the directions' real and imaginary parts and u/p1, one block each
        p1s, g = rng.uniform(0.1, 0.9, 100), rng.normal(size=(100, 2, n))
        ratio = rng.uniform(1.05, 40.0, 100)
        want = []
        for p1, (a, b), r in zip(p1s, g, ratio):
            vhat = a[1:] + 1j * b[1:]
            want.append(np.concatenate(([p1 * r / m], vhat / np.linalg.norm(vhat))))
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
        ps, qs = (_one_row_stratum(d, rng, 40, "interior") for _ in range(2))
        vs = np.array([_one_point_direction(n, rng) for _ in range(40)])
        moved = np.array([egg_automorphism(d, q, p) for p, q in zip(ps, qs)])
        dv = np.array([automorphism_jacobian(d, q, p) @ v for p, q, v in zip(ps, qs, vs)])
        # moved from the stated draws' rounding: at most 4.7e-16 and 3.4e-16 on these cells
        assert _row_gap(points, np.concatenate([ps, moved])) <= 1e-15
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


class TestSeed:
    @pytest.mark.parametrize("seed", [-1, 1.0, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # a seed of -1 leaked numpy's "expected non-negative integer"
        with pytest.raises(DomainError, match="check seed must be an integer >= 0"):
            run_checks(DomainParams(m=2.0, n=2), seed=seed, names=["gauge-membership"])

    def test_numpy_integer_seed_draws_as_its_value(self):
        d, names = DomainParams(m=2.0, n=2), ["gauge-membership", "invariance"]
        got = [(r.passed, r.detail) for r in run_checks(d, seed=np.int64(5), names=names)]
        assert got == [(r.passed, r.detail) for r in run_checks(d, seed=5, names=names)]


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
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "ROOT_MAX_ITER", limit)
            return solve(fdf, lo, hi, x0)

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


def _row_solves(monkeypatch):
    # the row count of every row solve the package makes
    calls, solve = [], numerics._solve_bracketed_rows

    def counted(*args, **kwargs):
        calls.append(args[1].size)
        return solve(*args, **kwargs)

    for module in (numerics, fitting, sys.modules["eggmetrics.kobayashi"]):
        monkeypatch.setattr(module, "_solve_bracketed_rows", counted)
    return calls


class TestRowSolveCount:
    # one verify item at m > 1 makes 13 row solves: invariance reads its Wu
    # norms off the tensors it computes, and seam-continuity and smoothness
    # read M0 off the two fits' jets, which solve no rows
    @pytest.mark.parametrize("m, n", [(2.0, 3), (5.0, 2)])
    def test_one_item_makes_at_most_13_row_solves(self, monkeypatch, m, n):
        calls = _row_solves(monkeypatch)
        results = run_checks(DomainParams(m=m, n=n), seed=0)
        assert [r.name for r in results if not r.passed] == []
        assert 0 < len(calls) <= 13

    def test_a_regime_without_rows_solves_nothing(self, monkeypatch):
        # the tangency is solved for the rows inside M0 only, and not at all
        # for rows that all lie from M0 out
        d = DomainParams(m=2.0, n=2)
        calls = _row_solves(monkeypatch)
        outer = np.array([[0.9, 0.1], [0.95, 0.0]], dtype=complex)
        wu_tensor(d, outer)
        assert calls == []
        wu_tensor(d, np.concatenate([outer, [[0.3, 0.2]]]))
        assert calls == [1]


class TestInvarianceNorms:
    # check_invariance takes its Wu norms from the tensors, which contract H where
    # wu_norm reads the moved vector's three reals: an independent check of wu_norm.
    # On these 80 pairs per cell they differ by at most 4.4e-16 relative, over 40
    # seeds by at most 1.2e-15 for wu_tensor and 1.5e-15 for pullback_tensor;
    # the bound is twice that
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0.75, 2.0, 5.0])
    def test_tensor_norms_are_wu_norm_to_rounding(self, m, n):
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([int(10 * m), n])
        ps, qs = (_stratum_points(d, rng, 40, "interior") for _ in range(2))
        vs = _unit_rows(rng.normal(size=(40, 2, n)))
        pqs, D = _automorphism(d, qs, ps)  # as check_invariance moves its pairs
        z = np.concatenate([ps, pqs])
        v = np.concatenate([vs, (D @ vs[..., None])[..., 0]])
        w = wu_norm(d, z, v)
        for H in (wu_tensor(d, z), pullback_tensor(d, z)):
            assert np.all(np.abs(np.sqrt(_norm_sq(H, v)) - w) <= 3e-15 * w)


def _lower_fit(monkeypatch, defect):
    # verification's fits with the LOWER regime's (r1, r2) replaced by defect(domain, u, r1, r2)
    real = verification._fit

    def fit(domain, regime, u):
        r = real(domain, regime, u)
        return defect(domain, u, *r) if regime == fitting._LOWER else r

    monkeypatch.setattr(verification, "_fit", fit)


def _m0_rows(d):
    # (passed, detail) of seam-continuity and of smoothness
    return [(r.passed, r.detail) for r in run_checks(d, names=["seam-continuity", "smoothness"])]


class TestM0Jets:
    # seam-continuity and smoothness read M0 off the exact jets of the LOWER
    # and the tangency fit at u = m0_radius^2: value and first derivative
    # agree to 2.6e-14 relative up to m = 200, the second derivative jumps by
    # 5e-8 at m = 1 + 1e-7 and by about 8e-2 from m = 1.5 on (to 5.7e-14 and
    # 0.19 with the M0 weight n at n = 3, 4). A defect of 1e-10 relative in
    # either lower order, or a vanished jump, fails
    DEFECT_M = [1.0 + 1e-7, 2.0, 20.0, 60.0]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1.0 + 1e-7, 1.001, 2.0, 5.0, 20.0, 60.0, 200.0])
    def test_continuous_fits_pass(self, m, n):
        d = DomainParams(m=m, n=n)
        for seed in range(4):
            results = run_checks(d, seed=seed, names=["seam-continuity", "smoothness"])
            assert [(r.passed, type(r.passed)) for r in results] == [(True, bool)] * 2
        value, d1, d2 = verification._m0_gaps(d)
        assert value <= 1e-13 and d1 <= 1e-13
        assert 4e-8 <= d2 <= 0.5

    @pytest.mark.parametrize("m", DEFECT_M)
    def test_value_offset_fails_seam_continuity(self, monkeypatch, m):
        # r1 moved by 1e-10 of itself, its derivatives kept
        _lower_fit(monkeypatch, lambda d, u, r1, r2: (r1 + 1e-10 * r1.v, r2))
        (seam_ok, detail), (smooth_ok, _) = _m0_rows(DomainParams(m=m, n=2))
        assert not seam_ok and smooth_ok
        gap = float(detail.split("M0 fit jet value gap ")[1].split(",")[0])
        assert gap == pytest.approx(1e-10, rel=0.1)

    @pytest.mark.parametrize("m", DEFECT_M)
    def test_first_derivative_offset_fails_smoothness(self, monkeypatch, m):
        # dr1/du moved by 1e-10 of itself, the value and second derivative kept
        _lower_fit(monkeypatch, lambda d, u, r1, r2: (r1 + (u - u.v) * (1e-10 * r1.t), r2))
        (seam_ok, _), (smooth_ok, detail) = _m0_rows(DomainParams(m=m, n=2))
        assert seam_ok and not smooth_ok
        gap = float(detail.split("M0 first-derivative gap ")[1].split(",")[0])
        assert gap == pytest.approx(1e-10, rel=0.1)

    @pytest.mark.parametrize("m", DEFECT_M)
    def test_vanished_jump_fails_smoothness(self, monkeypatch, m):
        # the tangency fit on both sides of M0
        _lower_fit(monkeypatch, lambda d, u, r1, r2: fitting._fit(d, fitting._TANGENCY, u))
        (seam_ok, _), (smooth_ok, detail) = _m0_rows(DomainParams(m=m, n=2))
        assert seam_ok and not smooth_ok
        assert detail.endswith("second-derivative jump 0.0e+00")

    def test_no_tangency_solve_is_imported(self):
        assert not hasattr(verification, "solve_X")
        assert not hasattr(verification, "_inner_fit")


class TestZTerm:
    # at m <= 1 smoothness reads h22's |z1|^2m term on Z at zhat = (0.3, ...,
    # 0.3) from the chord's r2 = 1/(1 - P) as a jet in P: its amplitude is
    # 1/s2^2 + 0.09/s2^3 at every m (1.32701 at n = 2), the first derivative's
    # exponent 2m - 1. No difference probe runs at any m
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0.5, 0.6, 0.75, 0.9, 0.93, 0.95, 0.99, 1.0 - 1e-7, 1.0])
    def test_amplitude_is_the_closed_form(self, m, n):
        s2 = 1.0 - 0.09 * (n - 1)
        ok, detail = verification.check_smoothness(DomainParams(m=m, n=n), None)
        assert ok is True
        amp = float(detail.split("amplitude ")[1].split(",")[0])
        assert amp == pytest.approx(1.0 / s2 ** 2 + 0.09 / s2 ** 3, abs=1e-5)
        assert detail.startswith(f"Z |z1|^{2 * m:.8g} term of h22 from r2")

    def test_detail_names_the_regularity(self):
        def detail(m):
            return verification.check_smoothness(DomainParams(m=m, n=2), None)[1]

        assert detail(0.5).endswith("amplitude 1.32701, continuous, not C1")
        assert detail(0.75).endswith("amplitude 1.32701, first derivative Holder with exponent 0.5")
        assert detail(1.0 - 1e-7).endswith("exponent 0.9999998")
        assert detail(1.0).endswith("amplitude 1.32701, analytic")

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0 - 1e-7])
    def test_an_analytic_r2_fails(self, monkeypatch, m):
        # the chord's r2 = 1/(1 - u): P replaced by u, whose terms are analytic
        real = verification._fit
        monkeypatch.setattr(verification, "_fit",
                            lambda domain, regime, u, P=None: real(domain, regime, u, u))
        (passed, detail), = [(r.passed, r.detail)
                             for r in run_checks(DomainParams(m=m, n=2), names=["smoothness"])]
        assert passed is False
        assert "amplitude 0.00000" in detail

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0, 60.0])
    def test_smoothness_runs_no_probe(self, monkeypatch, m):
        calls = []
        for name in ("regularity_scan", "holder_exponent"):
            real = getattr(smoothness, name)
            monkeypatch.setattr(smoothness, name,
                                lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
        results = run_checks(DomainParams(m=m, n=2), names=["smoothness"])
        assert [r.passed for r in results] == [True]
        assert calls == []

    def test_no_probe_is_imported(self):
        for name in ("regularity_scan", "holder_exponent", "SmoothnessReport", "_calibration"):
            assert not hasattr(verification, name)


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
