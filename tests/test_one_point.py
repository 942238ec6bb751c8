"""One point against its row, past the float range and without the row membership.

One point reads its inputs off its own (n,) vector with the ufuncs its
(1, n) row runs, so outside the root solves it keeps the row's bits. The
point pins cover n <= 4; numpy's pairwise sum changes block at 8 terms, so
these checks run up to n = 17.
"""

import math

import numpy as np
import pytest

from eggmetrics import DomainParams, kobayashi, kobayashi_sq, wu_norm, wu_tensor
from eggmetrics import domain as domain_module
from eggmetrics import tensor as tensor_module
from eggmetrics.domain import (_check_inside, _hat_sq, _moved_reals, _reference_point,
                               _reference_rows, _stratum_points, _to_axis)
from eggmetrics.fitting import _TANGENCY
from eggmetrics.kobayashi import _branches_sq, _is_upper
from eggmetrics.tensor import _TAGS, _wu_matrices

BIT_M = (0.5, 0.75, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 60.0)
BIT_N = (2, 5, 8, 9, 17)
#: points per (m, n) cell
COUNT = 12


def _unit(rng, k):
    w = rng.normal(size=k) + 1j * rng.normal(size=k)
    return w / np.linalg.norm(w)


def _at(rng, d, p1, s2):
    # a point whose reference coordinate is p1, with 1 - |zhat|^2 = s2 and
    # random phases: |z1| = p1 s2^(1/2m)
    z = np.empty(d.n, dtype=complex)
    z[0] = p1 * s2 ** (0.5 / d.m) * np.exp(2j * math.pi * rng.uniform())
    z[1:] = math.sqrt(1.0 - s2) * _unit(rng, d.n - 1)
    return z


def _points(rng, d, lower=False):
    # interior points of every stratum but the outside: on Z, near it, and
    # p1_ref from 0 to the boundary; with ``lower``, only where the fit runs
    # no root solve (the chord for m <= 1, the LOWER line from M0 out)
    lo = d.m0_radius if lower and d.m > 1.0 else 0.0
    pts = [_at(rng, d, lo + (1.0 - lo) * rng.uniform(0.001, 0.999), rng.uniform(0.02, 1.0))
           for _ in range(COUNT)]
    if not lower:
        pts += [_at(rng, d, p1, rng.uniform(0.02, 1.0)) for p1 in (0.0, 1e-9, 1e-300)]
    return pts


@pytest.mark.parametrize("n", BIT_N)
@pytest.mark.parametrize("m", BIT_M)
class TestOnePointKeepsItsRowsBits:
    def test_membership(self, m, n):
        d = DomainParams(m=m, n=n)
        for z in _points(np.random.default_rng([int(100 * m), n]), d):
            rows = _reference_rows(d, z[None])
            assert _reference_point(d, z) == tuple(float(x[0]) for x in rows)
            assert all(isinstance(x, float) for x in _reference_point(d, z))

    def test_moved_reals_among_rows(self, m, n):
        # one pair's three reals on floats are its row's among the cell's rows
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([int(100 * m), n, 1])
        z = np.array(_points(rng, d))
        v = np.array([_unit(rng, n) * 10.0 ** rng.uniform(-3, 3) for _ in z])
        rows = _moved_reals(d, z, v, _check_inside(d, z))
        for i in range(len(z)):
            one = _moved_reals(d, z[i][None], v[i][None], _check_inside(d, z[i]))
            assert one == tuple(x[i].item() for x in rows)

    def test_matrix_without_root_solve(self, m, n):
        d = DomainParams(m=m, n=n)
        for z in _points(np.random.default_rng([int(100 * m), n, 2]), d, lower=True):
            form = wu_tensor(d, z)
            assert not form.source.startswith(_TAGS[_TANGENCY])
            assert form.matrix.shape == (n, n)
            assert form.matrix.tobytes() == _wu_matrices(d, z[None])[0].tobytes()

    @pytest.mark.parametrize("branch", ["AXIS", "LOWER", "Z"])
    def test_branch_formula(self, m, n, branch):
        rng = np.random.default_rng([int(100 * m), n, 3])
        for _ in range(COUNT):
            p1 = rng.uniform(0.001, 0.999) if branch != "Z" else 10.0 ** -rng.uniform(151, 300)
            w = _unit(rng, n)
            if branch == "AXIS":
                w[1:] = 0.0
            elif branch == "LOWER":  # m |w1| <= p1 |what|
                w[0] *= rng.uniform(0.0, 0.99) * p1 * np.linalg.norm(w[1:]) / (m * abs(w[0]))
                assert not _is_upper(m, p1, abs(w[0]), np.linalg.norm(w[1:]) ** 2)
            a = np.abs(w)
            one = _branches_sq(m, p1, float(a[0]), float((a[1:] ** 2).sum()))
            assert isinstance(one, float)
            row = _branches_sq(m, np.array([p1]), np.abs(w[None, 0]), _hat_sq(w[None]))
            assert one == row[0]


@pytest.mark.parametrize("n", BIT_N)
@pytest.mark.parametrize("m", BIT_M)
class TestMovedReals:
    """K reads the moved vector's p1_ref, |w1| and |what|^2 without building it."""

    def test_the_reals_of_the_moved_vector(self, m, n):
        # to a few ulp of the vector ``_to_axis`` builds; the axis points are
        # interior (p1_ref below 1), so |w1| has no cancellation to amplify
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([int(100 * m), n, 4])
        for z in _points(rng, d):
            v = _unit(rng, n) * 10.0 ** rng.uniform(-3, 3)
            p1, w1, x = _moved_reals(d, z[None], v[None], _check_inside(d, z))
            p1_row, w = _to_axis(d, z[None], v[None])
            assert p1 == p1_row[0]
            assert w1 == pytest.approx(abs(w[0, 0]), rel=8e-16, abs=1e-300)
            assert x == pytest.approx(float(np.sum(np.abs(w[0, 1:]) ** 2)), rel=8e-16)

    def test_one_pair_keeps_its_rows_bits(self, m, n):
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([int(100 * m), n, 5])
        for z in _points(rng, d):
            v = _unit(rng, n) * 10.0 ** rng.uniform(-3, 3)
            one = _moved_reals(d, z[None], v[None], _check_inside(d, z))
            rows = _moved_reals(d, z[None], v[None], _check_inside(d, z[None]))
            assert all(isinstance(x, float) for x in one)
            assert one == tuple(float(x[0]) for x in rows)


class RowMembership(Exception):
    pass


class TestOnePointWithoutTheRowMembership:
    # one point reads its membership off its own vector: with the row
    # membership raising, every one-point evaluation still returns
    @pytest.mark.parametrize("m", [0.75, 1.0, 2.0, 60.0])
    def test_point_calls_return(self, monkeypatch, m):
        def refused(*args):
            raise RowMembership

        for module in (domain_module, tensor_module):
            monkeypatch.setattr(module, "_reference_rows", refused)
        d = DomainParams(m=m, n=3)
        v = np.array([0.3, 1.0j, -0.5])
        for z in ([0.3, 0.2j, 0.1], [0.0, 0.5, 0.0], [d.m0_radius, 0.0, 0.0], [0.95, 0.1, 0.0]):
            assert kobayashi(d, z, v) > 0.0
            assert kobayashi_sq(d, z, v) > 0.0
            assert wu_tensor(d, z).matrix.shape == (3, 3)
            assert wu_norm(d, z, v) > 0.0
        with pytest.raises(RowMembership):  # the guard holds for rows
            wu_tensor(d, np.array([[0.3, 0.2j, 0.1]]))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [0.5, 0.75, 2.0, 5.0, 60.0])
def test_norm_past_the_float_range_is_not_nan(m, n):
    # |v|^2 ||H|| past the float range used to sum to inf - inf = NaN, or
    # to -inf, which read 0; it reads inf, as kobayashi does past the square
    # range, and stays below kobayashi where both are finite
    d = DomainParams(m=m, n=n)
    rng = np.random.default_rng([int(100 * m), n])
    zs = _stratum_points(d, rng, 6, "interior")
    scales = np.array([1e150, 1e155, 1e160, 1e200, 1e250, 1e300])
    z = np.repeat(zs, len(scales), axis=0)
    v = np.array([_unit(rng, n) for _ in z]) * np.tile(scales, len(zs))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        k_rows, w_rows = kobayashi(d, z, v), wu_norm(d, z, v)
        for i in range(len(z)):
            k, w = kobayashi(d, z[i], v[i]), wu_norm(d, z[i], v[i])
            h = wu_tensor(d, z[i]).norm_sq(v[i])
            assert not (math.isnan(w) or math.isnan(h))
            assert w > 0.0 and h > 0.0
            assert w <= k * (1.0 + 1e-9)
            assert w_rows[i] <= k_rows[i] * (1.0 + 1e-9)
    assert not np.isnan(w_rows).any() and (w_rows > 0.0).all()
    assert np.isinf(w_rows[np.tile(scales, len(zs)) >= 1e160]).all()
