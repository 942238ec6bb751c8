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

from eggmetrics import DomainParams, curvature_tensor, wu_tensor

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
    """Seeded points of one cell: (n, z) pairs whose reference coordinate lies in the span."""
    rng = np.random.default_rng(seed)
    m0 = 2.0 ** (-1.0 / (2.0 * m))
    lo, hi = {"chord": (0.0, 0.999), "tangency": (0.0, m0), "lower": (m0, 0.999),
              "origin": (0.0, 0.0)}[regime]
    points = []
    for i in range(count):
        n = 2 + i % 2
        q = rng.uniform(0.0, 0.9)
        zhat = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        zhat *= math.sqrt(q) / np.linalg.norm(zhat)
        p1 = rng.uniform(lo, hi)
        z1 = p1 * (1.0 - q) ** (0.5 / m) * np.exp(2j * math.pi * rng.uniform())
        points.append((n, np.concatenate(([z1], zhat))))
    return points


def relative_error(H, z, m):
    """max |H - H_ref| / max |H_ref| at z, and the reference's regime."""
    ref, regime = wu_reference.wu_tensor(m, z)
    ref = np.array(ref.tolist(), dtype=complex)
    return float(np.max(np.abs(H - ref)) / np.max(np.abs(ref))), regime


@pytest.mark.parametrize("m,regime,count,bound", CELLS)
def test_wu_tensor_within_the_cell_bound(m, regime, count, bound):
    worst = 0.0
    for n, z in cell_points(m, regime, count, seed=[int(1e7 * m), len(regime)]):
        err, got = relative_error(wu_tensor(DomainParams(m=m, n=n), z).matrix, z, m)
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
    for n, z in cell_points(m, regime, 3, seed=[int(1e7 * m), len(regime), 1]):
        R = curvature_tensor(DomainParams(m=m, n=n), z).components
        ref = np.array(wu_reference.curvature(m, z), dtype=complex)
        worst = max(worst, float(np.max(np.abs(R - ref)) / np.max(np.abs(ref))))
    assert worst <= bound


@pytest.mark.parametrize("z1", ["0", "1e-30", "1e-100", "1e-300"])
def test_z_limit_at_m_200(z1):
    # the contact search converges at m = 200 down to p1 = 1e-300; at
    # z = (z1, 0) with n = 2 the tensor is diag(r1, r2), which tends to
    # ((m+1)^(1/m)/2, (m+1)/(2m)) = (0.513435607848..., 0.5025) as z1 -> 0
    mp = wu_reference.mp
    with mp.workdps(wu_reference.DIGITS):
        H, regime = wu_reference.wu_tensor(200, [mp.mpf(z1), 0])
        assert regime == ("origin" if z1 == "0" else "tangency")
        assert abs(H[0, 0] - mp.mpf(201) ** (mp.mpf(1) / 200) / 2) < 1e-40
        assert abs(H[1, 1] - mp.mpf(201) / 400) < 1e-40
        assert H[0, 1] == 0 and H[1, 0] == 0
