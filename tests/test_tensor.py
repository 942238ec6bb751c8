import math

import numpy as np
import pytest

from eggmetrics import (
    DomainError,
    DomainParams,
    RegionLabel,
    SeamProximityError,
    automorphism_jacobian,
    egg_automorphism,
    fit_reference,
    kahler_defect,
    kobayashi,
    pullback_tensor,
    wu_norm,
    wu_tensor,
)
from eggmetrics import fitting
from eggmetrics import tensor as tensor_module
from eggmetrics.domain import REGION_TOL, _region_of, _seam_distance
from eggmetrics.numerics import wirtinger_jet
from test_domain import interior_point


class TestClosedForms:
    def test_identity_at_origin_small_m(self):
        d = DomainParams(m=0.75, n=3)
        H = wu_tensor(d, np.zeros(3)).matrix
        assert np.allclose(H, np.eye(3), atol=1e-14)

    def test_outer_axis_diagonal(self):
        m = 2.0
        d = DomainParams(m=m, n=3)
        p1 = 0.9
        P = p1 ** 4
        form = wu_tensor(d, [p1, 0.0, 0.0])
        expected = np.diag([m * m * p1 ** 2 / (1 - P) ** 2, 1 / (1 - P), 1 / (1 - P)])
        assert np.allclose(form.matrix, expected, rtol=1e-13)
        assert form.region is RegionLabel.M_PLUS

    def test_chord_form_cross_entry(self):
        # h_12 = (1-|zh|^2)^(-1+1/m) conj(z1) z2 / (m ((1-|zh|^2)^(1/m) - |z1|^2)^2)
        m = 0.75
        d = DomainParams(m=m, n=2)
        z1, z2 = 0.3, 0.2
        s2 = 1 - z2 ** 2
        expected = (s2 ** (-1 + 1 / m) * z1 * z2
                    / (m * (s2 ** (1 / m) - z1 ** 2) ** 2))
        H = wu_tensor(d, [z1, z2]).matrix
        assert H[0, 1] == pytest.approx(expected, rel=1e-13)
        assert H[1, 0] == pytest.approx(np.conj(expected), rel=1e-13)

    def test_hermitian_positive_definite_sampled(self):
        rng = np.random.default_rng(12)
        for m in (0.5, 0.75, 1.0, 1.3, 2.0):
            d = DomainParams(m=m, n=3)
            for _ in range(25):
                z = interior_point(rng, d)
                form = wu_tensor(d, z)
                H = form.matrix
                assert np.max(np.abs(H - H.conj().T)) < 1e-13
                assert form.eigenvalues()[0] > 0

    def test_rejects_outside_point(self):
        d = DomainParams(m=2.0, n=2)
        with pytest.raises(DomainError):
            wu_tensor(d, [1.2, 0.0])

    def test_limit_tags(self):
        d = DomainParams(m=2.0, n=2)
        assert "Z" in wu_tensor(d, [0.0, 0.3]).source
        assert "M0" in wu_tensor(d, [d.m0_radius, 0.0]).source
        d75 = DomainParams(m=0.75, n=2)
        assert "z1=0" in wu_tensor(d75, [0.0, 0.3]).source


class TestPullbackAgreement:
    def test_axis_point_is_diagonal_fit(self):
        d = DomainParams(m=2.0, n=3)
        p1 = 0.45
        ell = fit_reference(d, p1)
        H = pullback_tensor(d, [p1, 0.0, 0.0]).matrix
        assert np.allclose(H, np.diag([ell.r1, ell.r2, ell.r2]), rtol=1e-13)

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.3, 2.0, 2.5])
    def test_closed_forms_match_pullback(self, m):
        rng = np.random.default_rng(13)
        d = DomainParams(m=m, n=3)
        worst = 0.0
        points = [interior_point(rng, d) for _ in range(40)]
        points += [np.concatenate(([0.0], z[1:])) for z in points[:5]]  # exactly on Z
        for z in points:
            a = wu_tensor(d, z).matrix
            b = pullback_tensor(d, z).matrix
            worst = max(worst, np.max(np.abs(a - b)) / np.max(np.abs(a)))
        assert worst < 1e-7

    def test_inner_region_entrywise(self):
        d = DomainParams(m=2.0, n=3)
        z = np.array([0.35 + 0.1j, 0.25 - 0.05j, 0.1j])
        a = wu_tensor(d, z)
        assert a.region is RegionLabel.M_MINUS
        b = pullback_tensor(d, z)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12 * np.max(np.abs(a.matrix))


class TestFunctoriality:
    @pytest.mark.parametrize("m", [0.75, 2.0])
    def test_tensor_transport(self, m):
        rng = np.random.default_rng(14)
        d = DomainParams(m=m, n=3)
        for _ in range(25):
            z = interior_point(rng, d)
            q = interior_point(rng, d)
            D = automorphism_jacobian(d, q, z)
            Hz = wu_tensor(d, z).matrix
            Hqz = wu_tensor(d, egg_automorphism(d, q, z)).matrix
            pulled = D.T @ Hqz @ np.conj(D)
            assert np.max(np.abs(pulled - Hz)) / np.max(np.abs(Hz)) < 1e-7


class TestPotentialIdentity:
    def test_outer_region_is_log_hessian(self):
        # h_ij = d2/dz_i dzbar_j of -log(1 - |z1|^2m - |zhat|^2) on the outer region
        m = 2.0
        d = DomainParams(m=m, n=2)

        def rho(w):
            return -np.log(1 - np.abs(w[:, 0]) ** (2 * m) - np.abs(w[:, 1]) ** 2)

        for z in (np.array([0.9, 0.05 + 0.02j]), np.array([0.88 + 0.03j, 0.1j])):
            _, _, cplx = wirtinger_jet(rho, z, 1e-4)
            H = wu_tensor(d, z).matrix
            assert np.max(np.abs(cplx - H)) < 1e-6


class TestRegionContinuity:
    def test_across_middle_stratum(self):
        d = DomainParams(m=2.0, n=2)
        c = d.m0_radius
        eps = 1e-7
        a = wu_tensor(d, [c - eps, 0.0]).matrix
        b = wu_tensor(d, [c + eps, 0.0]).matrix
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) / scale < 1e-5
        # first differences from both sides also match (C^1 across the stratum)
        da = (wu_tensor(d, [c - eps, 0.0]).matrix
              - wu_tensor(d, [c - 3 * eps, 0.0]).matrix) / (2 * eps)
        db = (wu_tensor(d, [c + 3 * eps, 0.0]).matrix
              - wu_tensor(d, [c + eps, 0.0]).matrix) / (2 * eps)
        assert np.max(np.abs(da - db)) / np.max(np.abs(da)) < 1e-3

    @pytest.mark.parametrize("m", [1.5, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_labels_and_fit_regimes_place_the_middle_stratum_alike(self, m, n):
        # region labels and the seam distance test the stratum
        # 2|z1|^2m + |zhat|^2 = 1, the fit regime the reference coordinate
        # against m0_radius; at seeded points 1e-6 relative inside and
        # outside it they must agree on the side
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([n, int(4 * m)])
        for side, label, regime in ((-1.0, RegionLabel.M_MINUS, fitting._TANGENCY),
                                    (1.0, RegionLabel.M_PLUS, fitting._LOWER)):
            for _ in range(200):
                zhat = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
                zhat *= math.sqrt(rng.uniform(0.0, 0.9)) / np.linalg.norm(zhat)
                q = float(np.sum(np.abs(zhat) ** 2))
                r1 = ((1.0 - q) / 2.0) ** (1.0 / (2.0 * m)) * (1.0 + side * 1e-6)
                z = np.concatenate(([r1 * np.exp(2j * np.pi * rng.uniform())], zhat))
                assert _region_of(d, z, REGION_TOL) is label
                assert wu_tensor(d, z).source == tensor_module._TAGS[regime]
                assert _seam_distance(d, z) < 1e-5

    @pytest.mark.parametrize("m", [0.75, 1.25, 2.0])
    def test_across_z(self, m):
        d = DomainParams(m=m, n=2)
        zh = 0.3
        base = wu_tensor(d, [0.0, zh]).matrix
        for eps in (1e-5, 1e-6):
            step = wu_tensor(d, [eps, zh]).matrix
            assert np.max(np.abs(step - base)) < 50 * eps

    @pytest.mark.parametrize("m", [0.75, 1.25, 2.0])
    def test_one_sided_derivatives_match_across_z(self, m):
        # C^1 for m > 1/2: the one-sided first-derivative mismatch of h22
        # along a Z-crossing path must vanish as the step shrinks
        d = DomainParams(m=m, n=2)
        zh = 0.3

        def f(t):
            return float(np.real(wu_tensor(d, [t, zh]).matrix[1, 1]))

        def mismatch(h):
            d_plus = (-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)
            d_minus = (3 * f(0.0) - 4 * f(-h) + f(-2 * h)) / (2 * h)
            return abs(d_plus - d_minus)

        coarse = mismatch(1e-4)
        # either the mismatch decays with the step (fractional-derivative
        # case, m < 1) or it already sits at the differencing noise floor
        assert mismatch(1e-4 / 16) < 0.7 * coarse + 1e-12 or coarse < 1e-8


class TestWuNorm:
    def test_axis_diagonal_values(self):
        d = DomainParams(m=2.0, n=2)
        p1 = 0.4
        ell = fit_reference(d, p1)
        assert wu_norm(d, [p1, 0.0], [1.0, 0.0]) == pytest.approx(
            math.sqrt(ell.r1), rel=1e-13)
        assert wu_norm(d, [p1, 0.0], [0.0, 0.0]) == 0.0

    def test_dominated_by_kobayashi(self):
        rng = np.random.default_rng(15)
        for m in (0.5, 0.75, 1.0, 2.0):
            d = DomainParams(m=m, n=2)
            for _ in range(50):
                z = interior_point(rng, d)
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                assert wu_norm(d, z, v) <= kobayashi(d, z, v) + 1e-9


class TestKahlerDefect:
    def test_outer_region_is_kahler(self):
        d = DomainParams(m=2.0, n=2)
        assert kahler_defect(d, [0.9, 0.05]) < 1e-6

    def test_small_m_is_not_kahler(self):
        # measured defect at this point/step is ~9.2e-2, far above the 1e-3 bar
        d = DomainParams(m=0.75, n=2)
        assert kahler_defect(d, [0.5, 0.2]) > 1e-3

    def test_inner_region_is_not_kahler(self):
        # measured defect ~6.9e-2
        d = DomainParams(m=2.0, n=2)
        assert kahler_defect(d, [0.4, 0.1]) > 1e-3

    def test_ball_is_kahler(self):
        d = DomainParams(m=1.0, n=2)
        assert kahler_defect(d, [0.4, 0.2]) < 1e-6

    def test_seam_proximity_rejected(self):
        d = DomainParams(m=2.0, n=2)
        with pytest.raises(SeamProximityError):
            kahler_defect(d, [d.m0_radius, 0.0])

class TestGeneralDimension:
    def test_closed_forms_match_pullback_in_dimension_four(self):
        rng = np.random.default_rng(44)
        for m in (0.75, 2.0):
            d = DomainParams(m=m, n=4)
            for _ in range(8):
                z = interior_point(rng, d)
                a = wu_tensor(d, z)
                b = pullback_tensor(d, z)
                assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10 * np.max(np.abs(a.matrix))
                assert a.eigenvalues()[0] > 0


def _stratum_point(m, n, t, q, rng):
    # |z1|^2m = t and |zhat|^2 = q, with random phases and zhat direction
    zh = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    z1 = t ** (1.0 / (2.0 * m)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return np.concatenate(([z1], math.sqrt(q) * zh / np.linalg.norm(zh)))


class TestBatchedTensor:
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0])
    def test_mixed_batch_equals_row_by_row(self, m):
        rng = np.random.default_rng(41)
        n = 3
        d = DomainParams(m=m, n=n)
        rows = [np.array([0.0, 0.4, 0.2j]),                      # on Z
                _stratum_point(m, n, 0.4, 0.4, rng),              # outer side of M0
                _stratum_point(m, n, 0.1, 0.3, rng)]              # inner side of M0
        if m < 20.0:  # |z1| = 1e-11 overflows the tangency equation at m = 20
            rows.append(np.array([1e-11j, 0.3, -0.1]))
        for t in (0.2, 0.2 * (1.0 + 1e-9), 0.2 * (1.0 - 1e-9)):  # on M0 and either side
            rows.append(_stratum_point(m, n, t, 1.0 - 2.0 * t, rng))
        rows += [interior_point(rng, d) for _ in range(8)]
        batch = tensor_module._wu_matrices(d, np.array(rows))
        sources = set()
        for z, H in zip(rows, batch):
            form = wu_tensor(d, z)
            sources.add(form.source)
            assert np.max(np.abs(H - form.matrix)) <= 1e-13 * np.max(np.abs(form.matrix))
        # every formula and stratum the batch was built to hit
        expected = ({"chord-form", "chord-form (z1=0 limit)"} if m < 1.0
                    else {"ball"} if m == 1.0
                    else {"inner-form", "inner-form (near Z)",
                          "outer-form", "outer-form (on M0)"})
        assert expected <= sources

    def test_single_row_is_wu_tensor(self):
        d = DomainParams(m=2.0, n=3)
        z = np.array([0.3 + 0.1j, 0.2, -0.1j])
        assert np.array_equal(tensor_module._wu_matrices(d, z[None])[0], wu_tensor(d, z).matrix)
