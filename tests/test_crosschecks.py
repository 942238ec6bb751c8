"""Independent cross-checks that avoid the package's own reduction machinery."""

import math

import numpy as np
import pytest

from eggmetrics import (
    DomainParams,
    defining_function,
    kobayashi,
    minkowski_gauge,
    wu_norm,
    wu_tensor,
)

from test_domain import interior_point


def ball_metric(z, v):
    # exact Kobayashi metric of the unit ball at a general point
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    r2 = 1.0 - float(np.sum(np.abs(z) ** 2))
    inner = complex(np.vdot(z, v))  # <v, z>
    return math.sqrt(float(np.sum(np.abs(v) ** 2)) / r2 + abs(inner) ** 2 / r2 ** 2)


class TestBallClosedForm:
    def test_general_point_formula(self):
        rng = np.random.default_rng(31)
        d = DomainParams(m=1.0, n=3)
        for _ in range(40):
            z = interior_point(rng, d)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert kobayashi(d, z, v) == pytest.approx(ball_metric(z, v), rel=1e-11)

    def test_wu_equals_kobayashi_on_ball(self):
        # the indicatrix of the ball is an ellipsoid, so the fit is exact
        rng = np.random.default_rng(32)
        d = DomainParams(m=1.0, n=2)
        points = [interior_point(rng, d) for _ in range(25)]
        # exactly on Z as well, where |z1|^(2m-2) is 0^0 = 1
        points += [np.array([0.0, zhat]) for zhat in (0.0, 0.3 - 0.2j, 0.9j)]
        for z in points:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert wu_norm(d, z, v) == pytest.approx(kobayashi(d, z, v), rel=1e-10)


class TestInclusionMonotonicity:
    # domain inclusion reverses the metric order: D1 inside D2 forces
    # K_D2 <= K_D1 on D1. The ball sits inside the egg for m >= 1 and
    # contains it for m <= 1.
    def test_egg_below_ball_for_large_m(self):
        rng = np.random.default_rng(33)
        d = DomainParams(m=2.0, n=2)
        for _ in range(40):
            z = interior_point(rng, d)
            if float(np.sum(np.abs(z) ** 2)) >= 1.0:
                continue  # compare only at points of the smaller domain
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert kobayashi(d, z, v) <= ball_metric(z, v) * (1 + 1e-10)

    def test_egg_above_ball_for_small_m(self):
        rng = np.random.default_rng(34)
        d = DomainParams(m=0.75, n=2)
        for _ in range(40):
            z = interior_point(rng, d)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert kobayashi(d, z, v) >= ball_metric(z, v) * (1 - 1e-10)


class TestLinearDiscUpperBound:
    # any analytic disc through p with derivative v is distance decreasing,
    # so the largest linear disc p + lambda c v inside the egg bounds the
    # metric: K(p, v) <= 1/c
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0, 2.5])
    def test_bound(self, m):
        rng = np.random.default_rng(35)
        d = DomainParams(m=m, n=2)
        for _ in range(25):
            p = interior_point(rng, d)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            c = math.inf
            for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
                w = np.exp(1j * theta) * v
                lo, hi = 0.0, 1.0
                while defining_function(d, p + hi * w) < 0:
                    hi *= 2.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if defining_function(d, p + mid * w) < 0:
                        lo = mid
                    else:
                        hi = mid
                c = min(c, lo)
            assert kobayashi(d, p, v) <= 1.0 / c * (1 + 1e-6)


class TestUnitaryEquivariance:
    def test_tensor_under_block_unitaries(self):
        # phase rotation of z1 and a unitary on zhat are automorphisms; the
        # Wu tensor must transport by the constant Jacobian U
        rng = np.random.default_rng(36)
        for m in (0.75, 2.0):
            d = DomainParams(m=m, n=3)
            for _ in range(15):
                z = interior_point(rng, d)
                phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                q, _ = np.linalg.qr(a)
                U = np.zeros((3, 3), dtype=complex)
                U[0, 0] = phase
                U[1:, 1:] = q
                Hz = wu_tensor(d, z).matrix
                Huz = wu_tensor(d, U @ z).matrix
                pulled = U.T @ Huz @ np.conj(U)
                assert np.max(np.abs(pulled - Hz)) < 1e-12 * np.max(np.abs(Hz))

    def test_gauge_under_block_unitaries(self):
        rng = np.random.default_rng(37)
        d = DomainParams(m=0.6, n=3)
        for _ in range(20):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(a)
            w = v.copy()
            w[0] *= phase
            w[1:] = q @ w[1:]
            assert minkowski_gauge(d, w) == pytest.approx(
                minkowski_gauge(d, v), rel=1e-12)


class TestNumericEdgeRegressions:
    # cases found by fuzzing: tiny reference coordinates and subnormal
    # vector components must keep full relative accuracy, not crash

    def test_metric_continuity_at_tiny_reference_coordinate(self):
        # near the z1 = 0 stratum the metric must match the gauge to the
        # continuity modulus O(|z1|^2m), far below 1e-10 here
        d = DomainParams(m=0.51, n=2)
        z = np.array([1.23392828e-12 + 2.40205663e-12j,
                      1.17218592e-12 - 1.77658042e-13j])
        v = np.array([-0.01138637 + 0.11561855j, 0.02358361 + 0.02646279j])
        assert kobayashi(d, z, v) == pytest.approx(minkowski_gauge(d, v), rel=1e-10)

    def test_gauge_subnormal_components(self):
        d = DomainParams(m=0.5, n=2)
        assert minkowski_gauge(d, np.array([2.225073858507e-311j, 1j])) \
            == pytest.approx(1.0, rel=1e-12)
        assert minkowski_gauge(d, np.array([1.5018879064186162e-105,
                                            1.375 + 1.375j])) \
            == pytest.approx(minkowski_gauge(d, np.array([0.0, 1.375 + 1.375j])),
                             rel=1e-10)

    def test_tiny_axis_coordinate_surfaces(self):
        from eggmetrics import fit_origin, fit_reference, kobayashi_reference, solve_X
        d = DomainParams(m=2.0, n=2)
        tiny = fit_reference(d, 1e-200)
        lim = fit_origin(d)
        assert tiny.r1 == lim.r1 and tiny.r2 == lim.r2
        assert solve_X(d, 1e-12) == pytest.approx(math.sqrt(3.0) * 1e-24, rel=1e-6)
        # lower-branch evaluation regroups powers: no overflow for m < 1
        d51 = DomainParams(m=0.51, n=2)
        assert kobayashi_reference(d51, 1e-200, [1e-201, 1.0]) \
            == pytest.approx(1.0, rel=1e-9)
