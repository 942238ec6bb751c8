"""The Wu tensor against the 50-digit reference of ``wu_reference``.

Each (m, fit regime) cell holds seeded points at reference coordinates
spread over the regime's span, |zhat|^2 up to 0.9, random phases and zhat
directions, half at n = 2 and half at n = 3. The error of a point is
max |H - H_ref| / max |H_ref|. Each bound is the worst error measured over
the cell (CHANGES.md) times 3, rounded up. The errors grow as rounding
amplified by 1/(1 - p1_ref^2): up to 7e-13 in the cells whose span reaches
p1_ref = 0.999 (chord, LOWER line), below 4e-15 elsewhere. The curvature
cells compare the components, relative to the largest, with the
reference's difference curvature.
"""

import math

import numpy as np
import pytest

from eggmetrics import (ConfigurationError, DomainParams, curvature_tensor, fitting, solve_X,
                        wu_tensor)

pytest.importorskip("mpmath")
import wu_reference  # noqa: E402  (needs mpmath)

#: (m, regime, points, bound)
CELLS = [
    (0.5, "chord", 150, 3e-12),
    (0.75, "chord", 150, 7e-13),
    (1.0, "chord", 150, 6e-14),
    (1.0 + 1e-7, "tangency", 60, 6e-15),
    (1.0 + 1e-7, "lower", 150, 5e-13),
    (2.0, "tangency", 60, 2e-14),
    (2.0, "lower", 150, 5e-13),
    (2.0, "origin", 40, 8e-15),
    (5.0, "tangency", 60, 1e-14),
    (5.0, "lower", 150, 6e-13),
    (20.0, "tangency", 60, 2e-14),
    (20.0, "lower", 150, 6e-13),
    (20.0, "origin", 40, 1e-14),
]


def cell_points(m, regime, count, seed):
    """Seeded points of one cell: (domain, z) pairs whose reference coordinate lies in the span."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        d = DomainParams(m=m, n=2 + i % 2)
        n, m0 = d.n, d.m0_radius
        lo, hi = {"chord": (0.0, 0.999), "tangency": (0.0, m0), "lower": (m0, 0.999),
                  "origin": (0.0, 0.0)}[regime]
        q = rng.uniform(0.0, 0.9)
        zhat = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        zhat *= math.sqrt(q) / np.linalg.norm(zhat)
        p1 = rng.uniform(lo, hi)
        z1 = p1 * (1.0 - q) ** (0.5 / m) * np.exp(2j * math.pi * rng.uniform())
        points.append((d, np.concatenate(([z1], zhat))))
    return points


def relative_error(H, z, d):
    """max |H - H_ref| / max |H_ref| at z, and the reference's regime."""
    ref, regime = wu_reference.wu_tensor(d.m, d.m0_weight, z)
    ref = np.array(ref.tolist(), dtype=complex)
    return float(np.max(np.abs(H - ref)) / np.max(np.abs(ref))), regime


@pytest.mark.parametrize("m,regime,count,bound", CELLS)
def test_wu_tensor_within_the_cell_bound(m, regime, count, bound):
    worst = 0.0
    for d, z in cell_points(m, regime, count, seed=[int(1e7 * m), len(regime)]):
        err, got = relative_error(wu_tensor(d, z).matrix, z, d)
        assert got == regime, z
        worst = max(worst, err)
    assert worst <= bound


#: (m, regime, bound) of the curvature cells, three points each
CURVATURE_CELLS = [
    (0.75, "chord", 1e-15),
    (2.0, "tangency", 7e-14),
    (2.0, "lower", 4e-14),
    (5.0, "tangency", 6e-14),
    (5.0, "lower", 7e-14),
]


@pytest.mark.parametrize("m,regime,bound", CURVATURE_CELLS)
def test_curvature_within_the_cell_bound(m, regime, bound):
    worst = 0.0
    for d, z in cell_points(m, regime, 3, seed=[int(1e7 * m), len(regime), 1]):
        R = curvature_tensor(d, z).components
        ref = np.array(wu_reference.curvature(m, d.m0_weight, z), dtype=complex)
        worst = max(worst, float(np.max(np.abs(R - ref)) / np.max(np.abs(ref))))
    assert worst <= bound


@pytest.mark.parametrize("z1", ["0", "1e-30", "1e-100", "1e-300"])
def test_z_limit_at_m_200(z1):
    # the contact search converges at m = 200 down to p1 = 1e-300; at
    # z = (z1, 0) with n = 2 the tensor is diag(r1, r2), which tends to
    # (K^(1/m)/w, K/(w m)) with K = m (w-1) + 1 as z1 -> 0; at w = 2,
    # ((m+1)^(1/m)/2, (m+1)/(2m)) = (0.513435607848..., 0.5025)
    mp = wu_reference.mp
    w = DomainParams(m=200.0, n=2).m0_weight
    with mp.workdps(wu_reference.DIGITS):
        H, regime = wu_reference.wu_tensor(200, w, [mp.mpf(z1), 0])
        assert regime == ("origin" if z1 == "0" else "tangency")
        K = 200 * (mp.mpf(w) - 1) + 1
        assert abs(H[0, 0] - K ** (mp.mpf(1) / 200) / w) < 1e-40
        assert abs(H[1, 1] - K / (200 * w)) < 1e-40
        assert H[0, 1] == 0 and H[1, 0] == 0


#: m of the tangency-root grid, from next to the ball to m = 200
ROOT_M = [1.0 + 1e-7, 1.05, 1.5, 2.0, 5.0, 20.0, 60.0, 200.0]


def root_grid(d, seed):
    """Seeded axis coordinates over the inner region: spread, down to 1e-12 of M0's, next to M0."""
    rng = np.random.default_rng(seed)
    thr = d.m0_radius
    return thr * np.concatenate([rng.uniform(0.0, 1.0, 8), 10.0 ** -rng.uniform(1.0, 12.0, 4),
                                 1.0 - 10.0 ** -rng.uniform(2.0, 11.0, 4), [1e-150]])


@pytest.mark.parametrize("m", ROOT_M)
def test_tangency_root_within_1e_15(m):
    # one row on floats and the whole grid as rows; X stays a normal float
    d = DomainParams(m=m, n=2)
    p1 = root_grid(d, seed=int(1e7 * m))
    want = np.array([float(wu_reference.tangency_root(m, d.m0_weight, x)) for x in p1])
    one = np.array([solve_X(d, float(x)) for x in p1])
    assert np.all(np.abs(one - want) <= 1e-15 * want)
    assert np.all(np.abs(p1 * p1 * fitting._solve_tau(m, d.m0_weight, p1) - want) <= 1e-15 * want)


@pytest.mark.parametrize("m", ROOT_M)
def test_tangency_root_up_to_m0_within_1e_15(m):
    # the bracket's upper end reaches M0 with a margin of 1e-12, so the root
    # needs no expansion next to it: m0_radius, its float predecessor and
    # p1 = m0_radius (1 - 10^-k), k = 6..16, on floats and as rows. A float
    # m0_radius may round just past M0, where X continues above 1
    d = DomainParams(m=m, n=2)
    thr = d.m0_radius
    p1 = np.concatenate([[thr, np.nextafter(thr, 0.0)],
                         thr * (1.0 - 10.0 ** -np.arange(6.0, 17.0))])
    want = np.array([float(wu_reference.tangency_root(m, d.m0_weight, x)) for x in p1])
    one = np.array([solve_X(d, float(x)) for x in p1])
    assert np.all(np.abs(one - want) <= 1e-15 * want)
    assert np.all(np.abs(p1 * p1 * fitting._solve_tau(m, d.m0_weight, p1) - want) <= 1e-15 * want)


@pytest.mark.parametrize("m", ROOT_M)
def test_solve_X_refuses_only_past_its_margin(m):
    # e = w p1^2m - 1 up to 9e-13 past M0 solves, to the 50-digit root's
    # continuation; 2e-12 is off the inner region
    mp = wu_reference.mp
    d = DomainParams(m=m, n=2)
    with mp.workdps(wu_reference.DIGITS):
        inside, off = (float(((1 + mp.mpf(e)) / d.m0_weight) ** (1 / (2 * mp.mpf(m))))
                       for e in ("9e-13", "2e-12"))
    want = float(wu_reference.tangency_root(m, d.m0_weight, inside))
    assert want > 1.0 and abs(solve_X(d, inside) - want) <= 1e-15 * want
    with pytest.raises(ConfigurationError, match="not in the inner region"):
        solve_X(d, off)


@pytest.mark.parametrize("m", ROOT_M)
def test_tangency_root_in_tau_where_x_is_subnormal(m):
    # at p1 = 1e-160, X ~ 1e-320 keeps a few bits; tau = X/p1^2 keeps all
    mp = wu_reference.mp
    w = DomainParams(m=m, n=2).m0_weight
    with mp.workdps(wu_reference.DIGITS):
        want = float(wu_reference.tangency_root(m, w, 1e-160) / mp.mpf(1e-160) ** 2)
    for p1 in ([1e-160], [0.3, 1e-160], [0.3, 0.2, 1e-160]):
        tau = fitting._solve_tau(m, w, np.array(p1))[-1]
        assert abs(tau - want) <= 1e-15 * want, p1


@pytest.mark.parametrize("m", [20.0, 60.0])
@pytest.mark.parametrize("p1", [1e-7, 1e-3])
def test_small_reference_coordinate_at_large_m(m, p1):
    # where the unbounded tangency equation left the float range: a finite,
    # positive definite tensor within 1e-14 of 50 digits
    rng = np.random.default_rng([int(m), int(-math.log10(p1))])
    for n in (2, 3):
        for q in (0.0, 0.3, 0.8):
            zhat = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
            zhat *= math.sqrt(q) / np.linalg.norm(zhat)
            z = np.concatenate(([p1 * (1.0 - q) ** (0.5 / m)], zhat))
            d = DomainParams(m=m, n=n)
            H = wu_tensor(d, z).matrix
            assert np.all(np.isfinite(H)) and np.linalg.eigvalsh(H)[0] > 0.0
            err, regime = relative_error(H, z, d)
            assert regime == "tangency" and err <= 1e-14, (z, err)
