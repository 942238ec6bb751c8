import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eggmetrics import (
    DomainError,
    DomainParams,
    RegionLabel,
    automorphism_jacobian,
    classify_region,
    defining_function,
    egg_automorphism,
    minkowski_gauge,
    seam_distance,
)
from eggmetrics.numerics import abs_pow


def interior_point(rng, domain, scale=0.7):
    while True:
        z = (rng.uniform(-1, 1, domain.n) + 1j * rng.uniform(-1, 1, domain.n)) * scale
        if defining_function(domain, z) < -0.05:
            return z


class TestDomainParams:
    def test_threshold_constant(self):
        for m in (0.5, 0.75, 1.0, 1.6, 2.0, 3.5):
            d = DomainParams(m=m, n=2)
            assert 0.0 < d.m0_radius < 1.0
            assert abs_pow(d.m0_radius, 2 * m) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("m,n", [(0.4, 2), (0.49, 3), (2.0, 1), (2.0, 0), (math.nan, 2)])
    def test_rejects_bad_parameters(self, m, n):
        with pytest.raises(DomainError):
            DomainParams(m=m, n=n)

    @pytest.mark.parametrize("n", [np.int64(3), np.int32(2), np.uint8(4)])
    def test_numpy_integer_dimension_is_stored_as_int(self, n):
        # GridSpec and direction_sample take numpy integers; so does n, stored
        # as Python's so that repr and the CLI's JSON and CSV headers keep their bytes
        d = DomainParams(2.0, n)
        assert type(d.n) is int and d == DomainParams(2.0, int(n))
        assert repr(d) == repr(DomainParams(2.0, int(n)))

    @pytest.mark.parametrize("n", [2.0, 1, True, np.float64(3.0), "3"])
    def test_non_integer_dimension_is_refused(self, n):
        with pytest.raises(DomainError, match="dimension n must be an integer >= 2"):
            DomainParams(2.0, n)


class TestMinkowskiGauge:
    def test_axis_boundary_point(self):
        d = DomainParams(m=2.0, n=3)
        assert minkowski_gauge(d, [1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-14)

    def test_hat_vector_is_euclidean(self):
        # alpha = 2 solves the gauge equation for |w| = 1/2
        d = DomainParams(m=1.7, n=2)
        assert minkowski_gauge(d, [0.0, 0.5]) == pytest.approx(0.5, abs=1e-14)

    def test_ball_gauge_is_euclidean_norm(self):
        # oracle: for m = 1 the gauge equation is the quadratic
        # (|v1|^2 + |vhat|^2) a^2 = 1, i.e. the Euclidean norm
        d = DomainParams(m=1.0, n=3)
        v = np.array([1.0, 1.0, 0.0])
        assert minkowski_gauge(d, v) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_zero_vector(self):
        assert minkowski_gauge(DomainParams(m=2.0, n=2), [0.0, 0.0]) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.01, 50.0),
           re1=st.floats(-1.5, 1.5), im1=st.floats(-1.5, 1.5),
           re2=st.floats(-1.5, 1.5), im2=st.floats(-1.5, 1.5),
           m=st.sampled_from([0.5, 0.75, 1.0, 2.0, 2.6]))
    @example(lam=2.0, re1=1.105e-162, im1=0.0, re2=0.0, im2=1.105e-162, m=1.0)
    def test_positive_homogeneity(self, lam, re1, im1, re2, im2, m):
        d = DomainParams(m=m, n=2)
        v = np.array([re1 + 1j * im1, re2 + 1j * im2])
        g = minkowski_gauge(d, v)
        assert minkowski_gauge(d, lam * v) == pytest.approx(lam * g, rel=1e-12, abs=1e-13)

    def test_tiny_vector_is_euclidean_on_the_ball(self):
        # both |v1|^2 and |v2|^2 underflow to 0 unless v is rescaled first
        v = np.array([1.105e-162, 1.105e-162j])
        g = minkowski_gauge(DomainParams(m=1.0, n=2), v)
        assert g == pytest.approx(math.hypot(1.105e-162, 1.105e-162), rel=1e-14, abs=0.0)

    def test_gauge_membership_consistency(self):
        rng = np.random.default_rng(3)
        for m in (0.5, 0.75, 2.0):
            d = DomainParams(m=m, n=3)
            for _ in range(50):
                v = (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)) * rng.uniform(0.2, 1.5)
                g = minkowski_gauge(d, v)
                if abs(g - 1.0) < 1e-12:
                    continue
                assert (g < 1.0) == (defining_function(d, v) < 0.0)


class TestClassifyRegion:
    def test_inner_point(self):
        # 2 * 0.5^4 = 0.125 < 1
        d = DomainParams(m=2.0, n=2)
        assert classify_region(d, [0.5, 0.0]) is RegionLabel.M_MINUS

    def test_middle_point(self):
        d = DomainParams(m=2.0, n=2)
        assert classify_region(d, [d.m0_radius, 0.0]) is RegionLabel.M_ZERO

    def test_outer_point(self):
        d = DomainParams(m=2.0, n=2)
        assert classify_region(d, [0.9, 0.0]) is RegionLabel.M_PLUS

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0])
    def test_z_stratum(self, m):
        d = DomainParams(m=m, n=3)
        assert classify_region(d, [0.0, 0.3, 0.0]) is RegionLabel.Z

    def test_generic_for_small_m(self):
        d = DomainParams(m=0.75, n=2)
        assert classify_region(d, [0.5, 0.3]) is RegionLabel.GENERIC
        assert classify_region(DomainParams(m=1.0, n=2), [0.5, 0.3]) is RegionLabel.GENERIC

    def test_outside(self):
        d = DomainParams(m=2.0, n=2)
        assert classify_region(d, [1.0, 0.5]) is RegionLabel.OUTSIDE
        assert classify_region(d, [1.0, 0.0]) is RegionLabel.OUTSIDE  # boundary

    def test_partition_and_rotation_invariance(self):
        rng = np.random.default_rng(11)
        d = DomainParams(m=2.0, n=3)
        inner_labels = {RegionLabel.M_MINUS, RegionLabel.M_ZERO, RegionLabel.M_PLUS,
                        RegionLabel.Z}
        for _ in range(60):
            z = interior_point(rng, d)
            label = classify_region(d, z)
            assert label in inner_labels
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            rotated = z.copy()
            rotated[0] *= phase
            theta = rng.uniform(0, 2 * np.pi)
            u = np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]], dtype=complex)
            rotated[1:] = u @ rotated[1:]
            assert classify_region(d, rotated) is label

    def test_tol_must_be_positive(self):
        with pytest.raises(DomainError):
            classify_region(DomainParams(m=2.0, n=2), [0.1, 0.1], tol=0.0)


class TestAutomorphism:
    def test_axis_base_point_flips_hat(self):
        d = DomainParams(m=2.0, n=3)
        z = np.array([0.2 + 0.1j, 0.3, -0.2j])
        img = egg_automorphism(d, [0.5, 0.0, 0.0], z)
        assert img[0] == pytest.approx(z[0])
        assert np.allclose(img[1:], -z[1:])

    def test_maps_base_point_to_reference(self):
        rng = np.random.default_rng(5)
        for m in (0.75, 2.0):
            d = DomainParams(m=m, n=3)
            for _ in range(20):
                p = interior_point(rng, d)
                s = math.sqrt(1 - float(np.sum(np.abs(p[1:]) ** 2)))
                img = egg_automorphism(d, p, p)
                assert img[0] == pytest.approx(abs(p[0]) / s ** (1 / m), abs=1e-13)
                assert np.max(np.abs(img[1:])) < 1e-13

    def test_z_base_point_kills_first_coordinate(self):
        d = DomainParams(m=2.0, n=2)
        p = np.array([0.0, 0.4 + 0.2j])
        assert abs(egg_automorphism(d, p, p)[0]) == 0.0

    def test_boundary_to_boundary(self):
        rng = np.random.default_rng(6)
        for m in (0.6, 2.0):
            d = DomainParams(m=m, n=3)
            for _ in range(25):
                p = interior_point(rng, d)
                v = rng.normal(size=3) + 1j * rng.normal(size=3)
                zb = v / minkowski_gauge(d, v)
                assert abs(defining_function(d, zb)) < 1e-12
                img = egg_automorphism(d, p, zb)
                assert abs(defining_function(d, img)) < 1e-9

    def test_interior_to_interior(self):
        rng = np.random.default_rng(7)
        d = DomainParams(m=2.0, n=2)
        for _ in range(40):
            p = interior_point(rng, d)
            z = interior_point(rng, d)
            assert defining_function(d, egg_automorphism(d, p, z)) < 0.0

    def test_rejects_outside_base_point(self):
        d = DomainParams(m=2.0, n=2)
        with pytest.raises(DomainError):
            egg_automorphism(d, [1.2, 0.0], [0.1, 0.1])
        with pytest.raises(DomainError):
            automorphism_jacobian(d, [1.2, 0.0], [0.1, 0.1])


class TestJacobian:
    def test_axis_base_point_is_signed_identity(self):
        d = DomainParams(m=2.0, n=3)
        D = automorphism_jacobian(d, [0.5, 0.0, 0.0], [0.1, 0.2, 0.3])
        assert np.allclose(D, np.diag([1.0, -1.0, -1.0]))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for m in (0.75, 2.0):
            d = DomainParams(m=m, n=3)
            for _ in range(50):
                p = interior_point(rng, d)
                z = interior_point(rng, d)
                D = automorphism_jacobian(d, p, z)
                scale = np.max(np.abs(D))
                for j in range(3):
                    e = np.zeros(3, dtype=complex)
                    e[j] = 1.0
                    fd = (egg_automorphism(d, p, z + h * e)
                          - egg_automorphism(d, p, z - h * e)) / (2 * h)
                    assert np.max(np.abs(fd - D[:, j])) / scale < 1e-6

    def test_first_row_coupling_and_invertibility(self):
        d = DomainParams(m=2.0, n=3)
        p = np.array([0.3 + 0.1j, 0.2, 0.1j])
        z = np.array([0.2, 0.1, 0.05])
        D = automorphism_jacobian(d, p, z)
        assert abs(D[0, 1]) > 0 and abs(D[0, 2]) > 0
        Dp = automorphism_jacobian(d, p, p)
        assert abs(np.linalg.det(Dp)) > 1e-6


def test_seam_distance_orders_points_sensibly():
    d = DomainParams(m=2.0, n=2)
    near_z = seam_distance(d, [1e-4, 0.3])
    near_m0 = seam_distance(d, [d.m0_radius + 1e-4, 0.0])
    deep = seam_distance(d, [0.4, 0.0])
    assert near_z < deep and near_m0 < deep
    assert near_z == pytest.approx(1e-4, rel=1e-6)
