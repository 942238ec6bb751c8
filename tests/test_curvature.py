import math

import numpy as np
import pytest

from eggmetrics import (
    DomainParams,
    GridSpec,
    RegionLabel,
    SeamProximityError,
    automorphism_jacobian,
    curvature_scan,
    curvature_tensor,
    direction_sample,
    egg_automorphism,
    holomorphic_curvature,
    kahler_defect,
)
from eggmetrics import curvature as curvature_module
from eggmetrics import tensor as tensor_module
from eggmetrics.numerics import wirtinger_jet

from test_domain import interior_point


class TestBallNormalization:
    def test_constant_minus_two(self):
        # pins the sectional-curvature normalization once and for all
        rng = np.random.default_rng(21)
        d = DomainParams(m=1.0, n=3)
        for _ in range(4):
            z = interior_point(rng, d, scale=0.45)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert holomorphic_curvature(d, z, v) == pytest.approx(-2.0, abs=1e-3)

    def test_dimension_two(self):
        d = DomainParams(m=1.0, n=2)
        assert holomorphic_curvature(d, [0.3, 0.2j], [1.0, 0.5]) == pytest.approx(
            -2.0, abs=1e-3)


class TestOuterRegion:
    def test_constant_minus_two_on_outer(self):
        d = DomainParams(m=2.0, n=2)
        dirs = direction_sample(2, seed=3, count=8)
        for p1 in (0.87, 0.92):
            tensor = curvature_tensor(d, [p1, 0.0])
            for v in dirs:
                assert tensor.holomorphic(v) == pytest.approx(-2.0, abs=1e-3)

    def test_kahler_symmetry_on_outer(self):
        d = DomainParams(m=2.0, n=2)
        tensor = curvature_tensor(d, [0.9, 0.05])
        assert tensor.kahler_symmetry_defect() < 1e-4


class TestInnerRegion:
    def test_component_pattern_at_reference_point(self):
        # nonzero families at (p1, 0, 0): all-equal pairs of 1/gamma blocks,
        # (i,i,k,k) with i,k > 1, and (i,j,j,i) with i != j > 1; rest vanish
        d = DomainParams(m=2.0, n=3)
        tensor = curvature_tensor(d, [0.4, 0.0, 0.0])
        R = tensor.components
        n = 3
        allowed = set()
        for g in range(1, n):
            allowed |= {(g, g, g, g), (g, g, 0, 0), (g, 0, 0, g),
                        (0, g, g, 0), (0, 0, g, g), (0, 0, 0, 0)}
        for i in range(1, n):
            for k in range(1, n):
                allowed.add((i, i, k, k))
        for i in range(1, n):
            for j in range(1, n):
                if i != j:
                    allowed.add((i, j, j, i))
        scale = np.max(np.abs(R))
        for idx in np.ndindex(3, 3, 3, 3):
            if idx in allowed:
                assert R[idx].real < 0, f"component {idx} should be negative"
                assert abs(R[idx].imag) < 1e-5 * scale
            else:
                assert abs(R[idx]) < 1e-5 * scale, f"component {idx} should vanish"

    def test_cross_component_asymmetry(self):
        # R[1,1,g,g] != R[g,1,1,g] at inner reference points: non-Kahler signature
        d = DomainParams(m=2.0, n=2)
        R = curvature_tensor(d, [0.4, 0.0]).components
        assert abs(R[0, 0, 1, 1] - R[1, 0, 0, 1]) > 1e-4

    def test_axis_direction_strictly_negative(self):
        d = DomainParams(m=2.0, n=2)
        assert holomorphic_curvature(d, [0.3, 0.0], [1.0, 0.0]) < 0.0


class TestInvariances:
    def test_direction_scaling(self):
        d = DomainParams(m=2.0, n=2)
        tensor = curvature_tensor(d, [0.4, 0.1])
        v = np.array([1.0, 0.5 - 0.2j])
        assert tensor.holomorphic(v) == pytest.approx(tensor.holomorphic(3.0 * v),
                                                      abs=1e-10)

    def test_step_robustness(self):
        d = DomainParams(m=2.0, n=2)
        a = holomorphic_curvature(d, [0.9, 0.0], [1.0, 0.3], step=1e-4)
        b = holomorphic_curvature(d, [0.9, 0.0], [1.0, 0.3], step=5e-5)
        assert abs(a - b) < 1e-4

    @pytest.mark.parametrize("m", [0.75, 2.0])
    def test_automorphism_invariance(self, m):
        rng = np.random.default_rng(22)
        d = DomainParams(m=m, n=2)
        hits = 0
        while hits < 5:
            z = interior_point(rng, d, scale=0.5)
            q = interior_point(rng, d, scale=0.4)
            zq = egg_automorphism(d, q, z)
            from eggmetrics import seam_distance
            if seam_distance(d, z) < 1e-3 or seam_distance(d, zq) < 1e-3:
                continue
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            a = holomorphic_curvature(d, z, v)
            b = holomorphic_curvature(d, zq, automorphism_jacobian(d, q, z) @ v)
            assert abs(a - b) < 1e-4
            hits += 1


class TestNegativity:
    @pytest.mark.parametrize("m", [0.5, 0.75, 2.0, 2.5])
    def test_sampled_sectional_values_negative(self, m):
        d = DomainParams(m=m, n=2)
        grid = GridSpec(p1_min=0.15, p1_max=0.9, count=6, seed=5)
        records, _ = curvature_scan(d, grid)
        assert records, "scan produced no records"
        for rec in records:
            assert rec.max_sectional < 0.0


class TestScan:
    def test_seam_points_skipped(self):
        d = DomainParams(m=2.0, n=2)
        thr = d.m0_radius
        grid = GridSpec(p1_min=thr, p1_max=thr, count=1, seed=1)
        records, skipped = curvature_scan(d, grid)
        assert not records and len(skipped) == 1

    def test_record_fields(self):
        d = DomainParams(m=2.0, n=2)
        grid = GridSpec(p1_min=0.3, p1_max=0.9, count=3, seed=1)
        records, skipped = curvature_scan(d, grid)
        assert len(records) + len(skipped) == 3
        regions = {r.region for r in records}
        assert RegionLabel.M_MINUS in regions and RegionLabel.M_PLUS in regions
        for rec in records:
            assert rec.min_sectional <= rec.max_sectional < 0
            assert rec.kahler_defect >= 0
            assert math.isfinite(rec.axis_cross_gap)
            if rec.region is RegionLabel.M_PLUS:
                assert rec.symmetry_defect < 1e-4
                assert rec.kahler_defect < 1e-6
            if rec.region is RegionLabel.M_MINUS:
                assert rec.axis_cross_gap > 1e-4

    def test_direction_sample_size_and_determinism(self):
        a = direction_sample(3, seed=9)
        b = direction_sample(3, seed=9)
        assert a.shape == (2 * 9 + 16, 3)
        assert np.array_equal(a, b)

    def test_conjugate_pair_symmetry(self):
        # R[i,j,k,l] = conj(R[j,i,l,k]) within differencing tolerance
        d = DomainParams(m=2.0, n=2)
        for z in ([0.4, 0.1], [0.9, 0.05]):
            R = curvature_tensor(d, z).components
            swapped = np.conj(np.transpose(R, (1, 0, 3, 2)))
            assert np.max(np.abs(R - swapped)) < 1e-6 * np.max(np.abs(R))

    def test_seam_proximity_raises(self):
        d = DomainParams(m=2.0, n=2)
        with pytest.raises(SeamProximityError):
            curvature_tensor(d, [d.m0_radius + 1e-6, 0.0])


class TestWirtingerJet:
    @pytest.mark.parametrize("n", [2, 3])
    def test_ball_potential_closed_form(self, n):
        # rho = -log(1 - |z|^2): drho/dz_k = zbar_k / q and
        # d2rho/dz_k dzbar_l = delta_kl / q + zbar_k z_l / q^2, q = 1 - |z|^2
        z = np.array([0.3 - 0.1j, 0.2j, -0.15 + 0.25j][:n])
        q = 1.0 - float(np.sum(np.abs(z) ** 2))

        def rho(w):
            return -math.log(1.0 - float(np.sum(np.abs(w) ** 2)))

        dz, ddbar = wirtinger_jet(rho, z, 1e-3)
        assert np.max(np.abs(dz - np.conj(z) / q)) < 1e-8
        expected = np.eye(n) / q + np.outer(np.conj(z), z) / q ** 2
        assert np.max(np.abs(ddbar - expected)) < 1e-8
        dz_only, no_hessian = wirtinger_jet(rho, z, 1e-3, hessian=False)
        assert no_hessian is None
        assert np.array_equal(dz_only, dz)

    @pytest.mark.parametrize("n,per_curvature", [(2, 66), (4, 258)])
    def test_wu_tensor_calls_per_stencil(self, monkeypatch, n, per_curvature):
        # every stencil point is evaluated once: 1 + 16 n^2 jet points plus the
        # metric at z for the curvature, 8 n for the first-order Kahler defect
        original = tensor_module.wu_tensor
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(curvature_module, "wu_tensor", counted)
        monkeypatch.setattr(tensor_module, "wu_tensor", counted)
        d = DomainParams(m=2.0, n=n)
        z = np.zeros(n, dtype=complex)
        z[0] = 0.9
        z[1] = 0.05
        curvature_tensor(d, z)
        assert calls[0] == per_curvature
        calls[0] = 0
        kahler_defect(d, z)
        assert calls[0] == 8 * n
