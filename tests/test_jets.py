"""Exact metric jets: the Taylor2 type, the chain rule to z, and the difference oracle."""

import math

import numpy as np
import pytest

from eggmetrics import (
    DomainParams,
    GridSpec,
    RegionLabel,
    SeamProximityError,
    classify_region,
    curvature_scan,
    curvature_tensor,
    holomorphic_curvature,
    kahler_defect,
    reference_coordinate,
    seam_distance,
)
from eggmetrics import curvature as curvature_module
from eggmetrics import fitting
from eggmetrics import tensor as tensor_module
from eggmetrics.numerics import Taylor2, wirtinger_jet
from test_domain import m0_split, weighted_domain


def _parts(f):
    return np.array([f.v, f.t, f.s, f.tt, f.ts, f.ss])


class TestTaylor2:
    T, S = 0.3, 0.7

    def test_variables(self):
        t, s = Taylor2.variables(self.T, self.S)
        assert list(_parts(t)) == [self.T, 1.0, 0.0, 0.0, 0.0, 0.0]
        assert list(_parts(s)) == [self.S, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_product_quotient_and_power(self):
        # f = t^p s^q / (1 + t s) - 2 t + 3, partials written out by hand
        T, S, p, q = self.T, self.S, 1.7, -0.4
        t, s = Taylor2.variables(T, S)
        f = t ** p * s ** q / (1.0 + t * s) - 2.0 * t + 3.0
        g, gt, gs = T ** p * S ** q, p * T ** (p - 1) * S ** q, q * T ** p * S ** (q - 1)
        gtt = p * (p - 1) * T ** (p - 2) * S ** q
        gts = p * q * T ** (p - 1) * S ** (q - 1)
        gss = q * (q - 1) * T ** p * S ** (q - 2)
        h = 1.0 / (1.0 + T * S)  # and its partials
        ht, hs = -S * h * h, -T * h * h
        htt, hss = 2 * S * S * h ** 3, 2 * T * T * h ** 3
        hts = -h * h + 2 * T * S * h ** 3
        expected = [g * h - 2 * T + 3, gt * h + g * ht - 2, gs * h + g * hs,
                    gtt * h + 2 * gt * ht + g * htt,
                    gts * h + gt * hs + gs * ht + g * hts,
                    gss * h + 2 * gs * hs + g * hss]
        assert np.allclose(_parts(f), expected, rtol=1e-13, atol=0.0)

    def test_log_and_reflected_operators(self):
        T, S = self.T, self.S
        t, s = Taylor2.variables(T, S)
        f = (2.0 - t - s * s).log() + 1.0 / s - (5.0 - t)
        u = 2.0 - T - S * S
        expected = [math.log(u) + 1 / S - 5 + T, -1 / u + 1, -2 * S / u - 1 / S ** 2,
                    -1 / u ** 2, -2 * S / u ** 2, -2 / u - 4 * S * S / u ** 2 + 2 / S ** 3]
        assert np.allclose(_parts(f), expected, rtol=1e-13, atol=1e-15)

    def test_rows_equal_one_point_jets(self):
        # numpy rows as parts give each row's float jet; numpy scalars on the
        # left defer to the jet's reflected operators
        T, S = np.array([0.1, 0.3, 0.5]), np.array([0.9, 0.7, 0.4])
        t, s = Taylor2.variables(T, S)
        rows = np.float64(2.0) * (s ** 1.5 - t) / (t * s + 1.0)
        for k in range(3):
            t1, s1 = Taylor2.variables(float(T[k]), float(S[k]))
            one = 2.0 * (s1 ** 1.5 - t1) / (t1 * s1 + 1.0)
            assert np.array_equal(_parts(rows)[:, k], _parts(one))

    @pytest.mark.parametrize("m,regime", [(0.75, fitting._CHORD), (2.0, fitting._LOWER)])
    def test_value_part_is_the_float_formula(self, m, regime):
        # the jet's value is computed as the float code computes it
        d = DomainParams(m=m, n=2)

        def form(t, s2):
            sigma = s2 ** (-1.0 / m)
            return tensor_module._moved(d, t, s2, sigma, *fitting._fit(d, regime, t * sigma))

        T, S = 0.2, 0.6
        assert [f.v for f in form(*Taylor2.variables(T, S))] == list(form(T, S))


#: the acceptance grid of the exact-vs-difference comparison
M_VALUES = [0.5, 0.75, 1.0, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 5.0, 20.0]
SEAM_MARGIN = 0.02


def _region_points(m, n, rng, per_region=2, margin=SEAM_MARGIN, domain=None):
    # points of each region at least ``margin`` from every seam: |zhat|^2 = q,
    # z1 = s^(1/m) x for a reference coordinate x in the region's axis span,
    # random phases and zhat direction; ``domain`` replaces DomainParams(m, n)
    d = DomainParams(m=m, n=n) if domain is None else domain
    spans = [(0.05, 0.995)] if m <= 1.0 else [(0.05, d.m0_radius), (d.m0_radius, 0.9999)]
    points = []
    for lo, hi in spans:
        found = 0
        for _ in range(4000):
            q = rng.uniform(0.0, 0.5)
            x = rng.uniform(lo, hi)
            zh = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
            z1 = (1.0 - q) ** (1.0 / (2.0 * m)) * x * np.exp(1j * rng.uniform(0, 2 * math.pi))
            z = np.concatenate(([z1], math.sqrt(q) * zh / np.linalg.norm(zh)))
            if seam_distance(d, z) >= margin:
                points.append(z)
                found += 1
                if found == per_region:
                    break
    return d, points


def _fd_jet(d, z, step=1e-4):
    return wirtinger_jet(lambda w: tensor_module._wu_matrices(d, w), z, step)


def _exact_jet(d, z):
    # the exact jet as (H, dH/dz, d2H/dz dzbar)
    form, dz, ddbar = tensor_module._wu_jet(d, z, *tensor_module._jet_region(d, z))
    return form.matrix, dz, ddbar


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestExactAgainstDifferences:
    @pytest.mark.parametrize("m", M_VALUES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_jets_match_the_difference_oracle(self, m, n):
        rng = np.random.default_rng([n, int(1e8 * m)])
        d, points = _region_points(m, n, rng)
        regions = {classify_region(d, z) for z in points}
        if m <= 1.0:
            assert regions == {RegionLabel.GENERIC}
        elif m < 20.0:
            assert regions == {RegionLabel.M_MINUS, RegionLabel.M_PLUS}
        else:  # M+ is under 0.01 wide at m = 20: no point is 0.02 from its seams
            assert regions == {RegionLabel.M_MINUS}
        for z in points:
            H, dz, ddbar = _exact_jet(d, z)
            H_fd, dz_fd, ddbar_fd = _fd_jet(d, z)
            assert _rel(H, H_fd) <= 1e-14
            assert _rel(dz, dz_fd) <= 1e-9
            assert _rel(ddbar, ddbar_fd) <= 1e-6

    @pytest.mark.parametrize("w", [2, 3])
    def test_thin_outer_region_at_large_m(self, w):
        # m = 20: M+ points 0.005 from the seams, at the M0 weight w. The
        # difference oracle's own O((h/distance)^4) error shows in dH at the
        # larger steps; halving 4e-4 from the first step that reads dH within
        # 1e-7, it falls 13-17-fold per halving towards the exact jet
        d, points = _region_points(20.0, 3, np.random.default_rng(5), margin=0.005,
                                   domain=weighted_domain(20.0, 3, w))
        plus = [z for z in points if classify_region(d, z) is RegionLabel.M_PLUS]
        assert plus
        for z in plus:
            _, dz, ddbar = _exact_jet(d, z)
            gaps = []
            for step in 4e-4 / 2.0 ** np.arange(10):
                _, dz_fd, ddbar_fd = _fd_jet(d, z, step)
                if gaps or _rel(dz, dz_fd) < 1e-7:
                    gaps.append(_rel(dz, dz_fd))
                    assert _rel(ddbar, ddbar_fd) <= 1e-6
                if len(gaps) == 3:
                    break
            assert len(gaps) == 3
            assert gaps[1] < gaps[0] / 10 and gaps[2] < gaps[1] / 10
            assert gaps[2] <= 1e-9

    @pytest.mark.parametrize("m", [0.75, 1.0, 2.0, 5.0])
    def test_curvature_matches_the_difference_curvature(self, m):
        d, points = _region_points(m, 3, np.random.default_rng(int(10 * m)))
        for z in points:
            exact = curvature_tensor(d, z)
            H, dz, ddbar = _fd_jet(d, z)
            fd = curvature_module._curvature(
                z, tensor_module.HermitianForm(H, exact.metric.region, "difference"), dz, ddbar)
            assert _rel(exact.components, fd.components) <= 1e-6
            assert exact.metric.source == tensor_module.wu_tensor(d, z).source


class TestNearBoundary:
    def test_ball_defect_is_exactly_zero_near_the_boundary(self):
        # 0.02 from the boundary the step-1e-4 difference jet reads a Kahler
        # defect of 1.29e-6 here (1e-5: 7.9e-8); the ball is Kahler
        d = DomainParams(m=1.0, n=2)
        z = np.array([0.9746, 0.1])
        assert seam_distance(d, z) < 0.03
        assert kahler_defect(d, z) <= 1e-12
        _, dz_fd, _ = wirtinger_jet(lambda w: tensor_module._wu_matrices(d, w), z, 1e-4)
        assert tensor_module._jet_defect(dz_fd) > 1e-7

    @pytest.mark.parametrize("m", [1.0, 2.0, 20.0])
    def test_outer_curvature_is_minus_two_close_to_the_boundary(self, m):
        d = DomainParams(m=m, n=2)
        p1 = (1.0 - 1e-4) ** (1.0 / (2.0 * m))
        for v in ([1.0, 0.0], [0.3, 1.0], [1.0, 1j]):
            assert holomorphic_curvature(d, [p1, 0.0], v) == pytest.approx(-2.0, abs=1e-6)


class TestSeams:
    @pytest.mark.parametrize("m,n", [(0.75, 2), (1.0, 3), (2.0, 2), (5.0, 4)])
    def test_on_z_is_refused(self, m, n):
        d = DomainParams(m=m, n=n)
        for z1 in (0.0, 1e-11, 1e-11j):
            z = np.zeros(n, dtype=complex)
            z[0], z[1] = z1, 0.5
            with pytest.raises(SeamProximityError, match="Z"):
                curvature_tensor(d, z)
            with pytest.raises(SeamProximityError, match="Z"):
                kahler_defect(d, z)

    @pytest.mark.parametrize("m", [2.0, 5.0, 20.0])
    def test_on_m0_is_refused(self, m):
        d = DomainParams(m=m, n=3)
        t, _ = m0_split(d, 0.75)  # |zhat|^2 = 0.25
        z = np.array([t ** (1 / (2 * m)), 0.3, 0.4j])
        assert classify_region(d, z) is RegionLabel.M_ZERO
        with pytest.raises(SeamProximityError, match="M_ZERO"):
            curvature_tensor(d, z)
        with pytest.raises(SeamProximityError, match="M_ZERO"):
            kahler_defect(d, z)

    def test_scan_skips_only_the_seam_points(self):
        d = DomainParams(m=2.0, n=2)
        thr = d.m0_radius
        records, skipped = curvature_scan(d, GridSpec(p1_min=thr, p1_max=thr, count=1))
        assert not records and len(skipped) == 1
        # a point 1e-6 beside the seam now has its curvature
        records, skipped = curvature_scan(
            d, GridSpec(p1_min=thr + 1e-6, p1_max=thr + 1e-6, count=1))
        assert len(records) == 1 and not skipped
        assert records[0].region is RegionLabel.M_PLUS


class TestSymbolicChainRule:
    """The chain and product rules against sympy, on the package's own form."""

    @pytest.mark.parametrize("m,point", [(0.75, (0.5 + 0.2j, 0.3 - 0.1j)),
                                         (1.0, (0.4 - 0.3j, 0.2 + 0.5j)),
                                         (2.0, (0.9 + 0.05j, 0.1 + 0.1j))])
    def test_chord_and_lower_line_fits(self, m, point):
        sp = pytest.importorskip("sympy")
        d = DomainParams(m=m, n=2)
        z = np.array(point)
        regime = fitting._regimes(d, np.array([reference_coordinate(d, z)]))[0]
        assert regime in (fitting._CHORD, fitting._LOWER)
        # z and its conjugate w as independent symbols; the fit and the moved
        # form run on the symbolic t = z1 w1 and s2 = 1 - z2 w2
        z1, z2, w1, w2 = sp.symbols("z1 z2 w1 w2")
        t, s2 = z1 * w1, 1 - z2 * w2
        sigma = s2 ** (-1.0 / m)
        a, b, c, e = tensor_module._moved(d, t, s2, sigma, *fitting._fit(d, regime, t * sigma))
        H = sp.Matrix([[a, b * w1 * z2], [b * w2 * z1, c + e * w2 * z2]])
        zs, ws = (z1, z2), (w1, w2)
        mp = pytest.importorskip("mpmath")
        at = [mp.mpc(complex(c)) for c in (*z, *np.conj(z))]

        def num(matrix):
            # the entries at z, evaluated at 30 digits
            with mp.workdps(30):
                value = sp.lambdify((*zs, *ws), matrix, "mpmath")(*at)
            return np.array(value.tolist(), dtype=complex)

        _, dz, ddbar = _exact_jet(d, z)
        for k in range(2):
            dHk = H.diff(zs[k])
            want = num(dHk)
            assert np.max(np.abs(dz[k] - want)) <= 1e-12 * np.max(np.abs(want))
            for l in range(2):
                want = num(dHk.diff(ws[l]))
                assert np.max(np.abs(ddbar[k, l] - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
