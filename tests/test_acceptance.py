"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
asserts its runtime budget. Run the whole gate with:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from eggmetrics import (
    DomainParams,
    GridSpec,
    automorphism_jacobian,
    containment_violation,
    curvature_scan,
    curvature_tensor,
    defining_function,
    direction_sample,
    egg_automorphism,
    fit_oracle,
    fit_origin,
    fit_reference,
    holder_exponent,
    joining_point_derivatives,
    kahler_defect,
    kobayashi,
    kobayashi_reference,
    regularity_scan,
    solve_X,
    wu_norm,
    wu_tensor,
)
from eggmetrics.numerics import abs_pow


class _Criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.label}): {status} [{elapsed:.1f}s]")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget")
        return False


def sample_interior(rng, domain, scale=0.7):
    while True:
        z = (rng.uniform(-1, 1, domain.n) + 1j * rng.uniform(-1, 1, domain.n)) * scale
        if defining_function(domain, z) < -0.05:
            return z


def test_criterion_1_outer_region_constant_curvature():
    with _Criterion(1, "outer-region constant curvature -2", 60.0):
        for n in (2, 3):
            d = DomainParams(m=2.0, n=n)
            thr = d.m0_radius
            points = []
            for p1 in np.linspace(1.04 * thr, 0.95, 8):
                z = np.zeros(n, dtype=complex)
                z[0] = p1
                points.append(z)
            off1 = np.zeros(n, dtype=complex)
            off1[0], off1[1] = 0.9, 0.12
            off2 = np.zeros(n, dtype=complex)
            off2[0], off2[1] = 0.92, 0.05 + 0.05j
            points += [off1, off2]
            assert len(points) == 10
            dirs = direction_sample(n, seed=1, count=20)
            for z in points:
                tensor = curvature_tensor(d, z)
                for v in dirs:
                    assert tensor.holomorphic(v) == pytest.approx(-2.0, abs=1e-3)


def test_criterion_2_ball_sanity():
    with _Criterion(2, "ball curvature pins normalization at -2", 10.0):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            d = DomainParams(m=1.0, n=n)
            dirs = direction_sample(n, seed=2, count=8)
            for _ in range(3):
                z = sample_interior(rng, d, scale=0.45)
                tensor = curvature_tensor(d, z)
                for v in dirs:
                    assert tensor.holomorphic(v) == pytest.approx(-2.0, abs=1e-3)


def test_criterion_3_fit_matches_oracle():
    with _Criterion(3, "ellipsoid fit vs brute-force oracle", 30.0):
        cases = [(m, p1) for m in (0.5, 0.75) for p1 in (0.2, 0.5, 0.8)]
        cases += [(2.0, p1) for p1 in (0.3, 0.5, 0.84, 0.9)] + [(20.0, 0.05), (60.0, 0.01)]
        for m, p1 in cases:
            d = DomainParams(m=m, n=2)
            ref = fit_reference(d, p1)
            orc = fit_oracle(d, p1)
            assert orc.r1 == pytest.approx(ref.r1, rel=1e-8), (m, p1)
            assert orc.r2 == pytest.approx(ref.r2, rel=1e-8), (m, p1)
            assert containment_violation(d, p1, ref) <= 1e-9


def test_criterion_4_seam_continuity():
    with _Criterion(4, "fit continuity across the seams", 5.0):
        d = DomainParams(m=2.0, n=2)
        thr = d.m0_radius
        # inner closed form evaluated at the threshold root X -> 1
        X = solve_X(d, thr)
        assert X == pytest.approx(1.0, abs=1e-12)
        w = d.m0_weight
        P = 1.0 / w
        F = d.m * abs_pow(X, d.m - 1) - (d.m - 1) * abs_pow(X, d.m) - P
        inner_r1 = d.m ** 2 * abs_pow(X, 2 * d.m - 1) / (w * thr ** 2 * F ** 2)
        inner_r2 = abs_pow(X, 2 * d.m - 1) / (w * P * F)
        outer = fit_reference(d, thr)
        assert abs(inner_r1 - outer.r1) / outer.r1 < 1e-8
        assert abs(inner_r2 - outer.r2) / outer.r2 < 1e-8
        side = fit_reference(d, thr * (1 - 1e-11))
        assert abs(side.r1 - outer.r1) / outer.r1 < 1e-8
        assert abs(side.r2 - outer.r2) / outer.r2 < 1e-8
        # small-m fits converge to the identity on Z (origin tensor is identity)
        d75 = DomainParams(m=0.75, n=2)
        near = fit_reference(d75, 1e-9)
        assert near.r1 == pytest.approx(1.0, abs=1e-8)
        assert near.r2 == pytest.approx(1.0, abs=1e-8)
        assert fit_origin(d75).r1 == 1.0 and fit_origin(d75).r2 == 1.0
        assert np.allclose(wu_tensor(d75, [0.0, 0.0]).matrix, np.eye(2), atol=1e-14)


def test_criterion_5_invariance_suite():
    with _Criterion(5, "automorphism invariance of K, Wu, tensor", 30.0):
        rng = np.random.default_rng(5)
        count = 0
        for m in (0.75, 2.0):
            for n in (2, 3):
                d = DomainParams(m=m, n=n)
                for _ in range(25):
                    p = sample_interior(rng, d)
                    q = sample_interior(rng, d)
                    v = rng.normal(size=n) + 1j * rng.normal(size=n)
                    D = automorphism_jacobian(d, q, p)
                    pq = egg_automorphism(d, q, p)
                    k1, k2 = kobayashi(d, p, v), kobayashi(d, pq, D @ v)
                    assert abs(k1 - k2) / k1 < 1e-8
                    w1, w2 = wu_norm(d, p, v), wu_norm(d, pq, D @ v)
                    assert abs(w1 - w2) / w1 < 1e-8
                    Hp = wu_tensor(d, p).matrix
                    Hq = wu_tensor(d, pq).matrix
                    pulled = D.T @ Hq @ np.conj(D)
                    assert (np.max(np.abs(pulled - Hp))
                            / np.max(np.abs(Hp))) < 1e-7
                    count += 1
        assert count == 100


def test_criterion_6_domination():
    with _Criterion(6, "Wu norm dominated by Kobayashi", 10.0):
        rng = np.random.default_rng(6)
        count = 0
        for m in (0.5, 0.75, 1.0, 2.0, 2.5):
            for n in (2, 3):
                d = DomainParams(m=m, n=n)
                for _ in range(100):
                    z = sample_interior(rng, d)
                    v = rng.normal(size=n) + 1j * rng.normal(size=n)
                    assert wu_norm(d, z, v) <= kobayashi(d, z, v) + 1e-9
                    count += 1
        assert count == 1000


def test_criterion_7_branch_regularity():
    with _Criterion(7, "branch junction C1 and indicatrix d2/d3", 5.0):
        m, p1 = 2.0, 0.3
        d = DomainParams(m=m, n=2)

        def k_of_u(u):
            return kobayashi_reference(d, p1, [u / m, 1.0])

        k_low = k_of_u(p1)
        k_up = kobayashi_reference(d, p1, [p1 * (1 + 1e-13) / m, 1.0])
        assert abs(k_low - k_up) / k_low < 1e-10
        h = 1e-4
        d_minus = (3 * k_of_u(p1) - 4 * k_of_u(p1 - h) + k_of_u(p1 - 2 * h)) / (2 * h)
        d_plus = (-3 * k_of_u(p1) + 4 * k_of_u(p1 + h) - k_of_u(p1 + 2 * h)) / (2 * h)
        assert abs(d_plus - d_minus) < 1e-6
        der = joining_point_derivatives(d, p1)
        assert abs(der.d2_match) < 1e-8
        # closed-form third derivative: 16 p1^6 (1-p1^4)^2 (2m-1)^2 (m-1)/m / xdot^4
        assert der.d3_jump == pytest.approx(der.d3_expected, rel=1e-6)


def test_criterion_8_kahler_classification():
    with _Criterion(8, "Kahler on the outer region, non-Kahler elsewhere", 10.0):
        d2 = DomainParams(m=2.0, n=2)
        for z in ([0.88, 0.05], [0.92, 0.1], [0.95, 0.0]):
            assert kahler_defect(d2, z) < 1e-6
        # thresholds frozen from evaluation: defect at (0.5, 0.2), m = 0.75,
        # step 1e-5 with one Richardson level measures ~9.2e-2; at
        # (0.4, 0.1), m = 2 it measures ~6.9e-2. Both sit four orders of
        # magnitude above the 1e-3 bar and two below the Kahler ceiling.
        d75 = DomainParams(m=0.75, n=2)
        defect_75 = kahler_defect(d75, [0.5, 0.2])
        assert defect_75 > 1e-3
        assert defect_75 == pytest.approx(9.2e-2, rel=0.1)
        defect_2 = kahler_defect(d2, [0.4, 0.1])
        assert defect_2 > 1e-3
        assert defect_2 == pytest.approx(6.9e-2, rel=0.1)


def test_criterion_9_smoothness_classification():
    with _Criterion(9, "regularity classification across the strata", 120.0):
        # calibration gate first: synthetic power functions within 0.05
        for alpha in (0.3, 0.5, 0.8):
            rep = holder_exponent(lambda t: abs(t) ** (1 + alpha), order=1)
            assert rep.exponent == pytest.approx(alpha, abs=0.05)
        rep = holder_exponent(lambda t: abs(t) ** 2.5, order=2)
        assert rep.exponent == pytest.approx(0.5, abs=0.05)

        # (a) m = 0.75 across Z: first derivative is 0.5-Hoelder
        d = DomainParams(m=0.75, n=2)
        for rep in regularity_scan(d, "Z", component="h22", seed=9,
                                   orders=(1,), n_paths=2):
            assert rep.verdict == "holder"
            assert rep.exponent == pytest.approx(0.5, abs=0.1)

        # (b) m = 2 across M0: C1 with a second-derivative jump > 10x noise
        d = DomainParams(m=2.0, n=2)
        for rep in regularity_scan(d, "M0", component="h11", seed=9,
                                   orders=(0, 1), n_paths=2):
            if rep.order == 0:
                assert not rep.jump_detected
            else:
                assert abs(rep.jump) > 10 * rep.jump_noise

        # (c) m = 2 across Z: no jump through order 3
        for rep in regularity_scan(d, "Z", seed=9, orders=(0, 1, 2), n_paths=2):
            assert rep.verdict == "smooth"
            assert not rep.jump_detected

        # (d) m = 1.25 across Z: C2 with 0.5-Hoelder second derivative
        d = DomainParams(m=1.25, n=2)
        for rep in regularity_scan(d, "Z", seed=9, orders=(2,), n_paths=2):
            assert rep.verdict == "holder"
            assert rep.exponent == pytest.approx(0.5, abs=0.15)


def test_criterion_10_curvature_negativity():
    with _Criterion(10, "strictly negative curvature everywhere sampled", 120.0):
        bounds = {}
        for m in (0.5, 0.75, 2.0):
            d = DomainParams(m=m, n=2)
            grid = GridSpec(p1_min=0.12, p1_max=0.93, count=8, seed=10)
            records, skipped = curvature_scan(d, grid)
            assert len(records) >= 7
            for rec in records:
                assert rec.max_sectional < 0.0, (m, rec.point)
            bounds[m] = max(rec.max_sectional for rec in records)
            # off-axis spot checks keep the claim honest beyond the axis grid
            rng = np.random.default_rng(100 + int(10 * m))
            hits = 0
            while hits < 3:
                z = sample_interior(rng, d, scale=0.5)
                from eggmetrics import seam_distance
                if seam_distance(d, z) < 8e-4:
                    continue
                tensor = curvature_tensor(d, z)
                for v in direction_sample(2, seed=hits, count=6):
                    assert tensor.holomorphic(v) < 0.0
                hits += 1
        # empirical upper bound is comfortably below -0.1 for every m
        for m, bound in bounds.items():
            assert bound <= -0.1, (m, bound)
