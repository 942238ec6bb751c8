"""The array API: the point evaluations on (N, n) rows against their one-point calls."""

import math

import numpy as np
import pytest

from eggmetrics import (
    DomainError,
    DomainParams,
    HermitianForm,
    automorphism_jacobian,
    branch_params,
    classify_region,
    defining_function,
    egg_automorphism,
    kobayashi,
    kobayashi_alt_upper,
    kobayashi_reference,
    kobayashi_sq,
    minkowski_gauge,
    pullback_tensor,
    reference_coordinate,
    seam_distance,
    solve_alpha,
    wu_norm,
    wu_tensor,
)
from eggmetrics.domain import (_automorphism, _gauge, _hat_sq, _reference_coordinate,
                               _stratum_points, _to_axis)
from eggmetrics.kobayashi import Branch, _alt_upper, _is_upper
from test_domain import m0_split

M_VALUES = [0.5, 0.75, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0]
STRATA = ("generic", "on-Z", "z1=1e-11", "on-M0", "near-boundary")


def _unit(rng, k):
    w = rng.normal(size=k) + 1j * rng.normal(size=k)
    return w / np.linalg.norm(w)


def _point(rng, m, n, stratum):
    # a seeded point of the stratum, with random phases and zhat direction
    if stratum == "generic":
        t = rng.uniform(0.05, 0.95)
        g = rng.uniform(0.2, 0.9)
        r1, rhat = g * t ** (1.0 / (2.0 * m)), g * math.sqrt(1.0 - t)
    elif stratum == "on-Z":
        r1, rhat = 0.0, rng.uniform(0.05, 0.95)
    elif stratum == "z1=1e-11":
        r1, rhat = 1e-11, rng.uniform(0.05, 0.95)
    elif stratum == "on-M0":
        t, q = m0_split(DomainParams(m=m, n=n), rng.uniform(0.04, 0.96))
        r1, rhat = t ** (1.0 / (2.0 * m)), math.sqrt(q)
    else:  # gauge 1 - 1e-4
        t = rng.uniform(0.05, 0.95)
        g = 1.0 - 1e-4
        r1, rhat = g * t ** (1.0 / (2.0 * m)), g * math.sqrt(1.0 - t)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return np.concatenate(([r1 * phase], rhat * _unit(rng, n - 1)))


def _rows(m, n, copies=4):
    rng = np.random.default_rng([n, int(1e3 * m), 17])
    z = np.array([_point(rng, m, n, s) for s in STRATA for _ in range(copies)])
    order = rng.permutation(len(z))  # mix the strata, as a caller's rows would be
    v = np.array([_unit(rng, n) * rng.uniform(0.1, 3.0) for _ in z])
    return z[order], v


def _kobayashi_solves(d, z, v):
    # the squared metric at (z, v) runs a root solve on the UPPER branch
    p1 = reference_coordinate(d, z)
    if p1 < 1e-13:
        return False
    return branch_params(d, p1, automorphism_jacobian(d, z, z) @ v).branch is Branch.UPPER


def _tensor_solves(d, z):
    # the fit solves the tangency equation at reference coordinates in
    # [0, m0_radius), Z included
    return d.m > 1.0 and reference_coordinate(d, z) < d.m0_radius


def _assert_rows_match(rows, singles, solved):
    for got, want, tol in zip(rows, singles, solved):
        if tol:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", M_VALUES)
class TestRowsMatchOnePointCalls:
    def test_kobayashi(self, m, n):
        d = DomainParams(m=m, n=n)
        z, v = _rows(m, n)
        solved = [_kobayashi_solves(d, a, b) for a, b in zip(z, v)]
        for fn in (kobayashi, kobayashi_sq):
            _assert_rows_match(fn(d, z, v), [fn(d, a, b) for a, b in zip(z, v)], solved)

    def test_wu_norm_and_tensors(self, m, n):
        d = DomainParams(m=m, n=n)
        z, v = _rows(m, n)
        solved = [_tensor_solves(d, a) for a in z]
        _assert_rows_match(wu_norm(d, z, v), [wu_norm(d, a, b) for a, b in zip(z, v)], solved)
        for fn in (wu_tensor, pullback_tensor):
            _assert_rows_match(fn(d, z), [fn(d, a).matrix for a in z], solved)


class TestReturnTypes:
    D = DomainParams(m=2.0, n=3)

    def test_one_point_keeps_its_types(self):
        z, v = _rows(2.0, 3, copies=1)
        assert type(kobayashi(self.D, z[0], v[0])) is float
        assert type(kobayashi_sq(self.D, z[0], v[0])) is float
        assert type(wu_norm(self.D, z[0], v[0])) is float
        for fn in (wu_tensor, pullback_tensor):
            form = fn(self.D, z[0])
            assert isinstance(form, HermitianForm)
            assert form.region is classify_region(self.D, z[0])
        assert wu_tensor(self.D, [0.0, 0.3, 0.1]).source == "inner-form (near Z)"
        assert pullback_tensor(self.D, [0.0, 0.3, 0.1]).source == "pullback"

    def test_rows_give_arrays(self):
        z, v = _rows(2.0, 3, copies=1)
        for fn in (kobayashi, kobayashi_sq, wu_norm):
            out = fn(self.D, z, v)
            assert out.shape == (len(z),) and out.dtype == float
        for fn in (wu_tensor, pullback_tensor):
            H = fn(self.D, z)
            assert H.shape == (len(z), 3, 3) and H.dtype == complex
            assert not H.flags.writeable

    def test_no_rows(self):
        empty = np.empty((0, 3), dtype=complex)
        for fn in (kobayashi, kobayashi_sq, wu_norm):
            assert fn(self.D, empty, empty).shape == (0,)
        for fn in (wu_tensor, pullback_tensor):
            assert fn(self.D, empty).shape == (0, 3, 3)


class TestRowValidation:
    D = DomainParams(m=2.0, n=3)

    def _calls(self, z, v):
        return [lambda: kobayashi(self.D, z, v), lambda: kobayashi_sq(self.D, z, v),
                lambda: wu_norm(self.D, z, v), lambda: wu_tensor(self.D, z),
                lambda: pullback_tensor(self.D, z)]

    def test_nan_row(self):
        z, v = _rows(2.0, 3, copies=1)
        z[3, 1] = complex(0.1, math.nan)
        for call in self._calls(z, v):
            with pytest.raises(DomainError, match="row 3 has non-finite entries"):
                call()

    def test_nan_vector_row(self):
        z, v = _rows(2.0, 3, copies=1)
        v[2, 0] = math.inf
        for call in self._calls(z, v)[:3]:
            with pytest.raises(DomainError, match="row 2 has non-finite entries"):
                call()

    def test_wrong_width(self):
        z, v = _rows(2.0, 3, copies=1)
        for call in self._calls(z[:, :2], v[:, :2]):
            with pytest.raises(DomainError, match=r"length-3 vector or \(N, 3\) rows"):
                call()

    def test_mismatched_rows(self):
        z, v = _rows(2.0, 3, copies=1)
        for fn in (kobayashi, kobayashi_sq, wu_norm):
            with pytest.raises(DomainError, match="differ in shape"):
                fn(self.D, z, v[:-1])
            with pytest.raises(DomainError, match="differ in shape"):
                fn(self.D, z, v[0])

    def test_outside_row_refuses_the_call(self):
        z, v = _rows(2.0, 3, copies=1)
        z[2] = [0.5, 0.9, 0.5]
        for call in self._calls(z, v):
            with pytest.raises(DomainError, match="outside the egg"):
                call()

    @pytest.mark.parametrize("fn,args", [
        (defining_function, ()), (classify_region, ()), (reference_coordinate, ()),
        (seam_distance, ()), (minkowski_gauge, ()), (kobayashi_reference, (0.5,)),
    ])
    def test_functions_without_rows_refuse_them(self, fn, args):
        z, _ = _rows(2.0, 3, copies=1)
        with pytest.raises(DomainError, match="expected a length-3 vector, got shape"):
            fn(self.D, *args, z) if args else fn(self.D, z)


class TestMovedVector:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", M_VALUES)
    def test_closed_form_is_the_jacobian_at_p(self, m, n):
        d = DomainParams(m=m, n=n)
        z, v = _rows(m, n)
        z[0, 1:] = 0.0  # phat = 0
        z[1] = 0.0      # the origin
        p1_ref, w = _to_axis(d, z, v)
        assert np.array_equal(p1_ref, _reference_coordinate(d, z))
        for p, vec, got in zip(z, v, w):
            want = automorphism_jacobian(d, p, p) @ vec
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _edge_vectors(n):
    # v = 0, v1 = 0, vhat = 0, |v| near 2^600 and 2^-600, and the subnormal
    # vectors of the gauge's fuzzing regressions, vhat padded with zeros
    pad = [0.0] * (n - 2)
    return np.array([[0.0] * n, [0.0, 0.6 - 0.8j] + pad, [0.3 + 0.4j] + [0.0] * (n - 1),
                     [2.0 ** 600, 3.0 * 2.0 ** 599j] + pad, [2.0 ** -600j, 2.0 ** -601] + pad,
                     [2.225073858507e-311j, 1j] + pad,
                     [1.5018879064186162e-105, 1.375 + 1.375j] + pad], dtype=complex)


def _junction_rows(m, p1s=(0.25, 0.5, 0.8)):
    # (p1, v) with |v1| 1 to 4 ulp above the junction p1/m, vhat = (1, 0, ...)
    # and n = 3, where they are UPPER
    rows = []
    for p1 in p1s:
        v1 = p1 / m
        for _ in range(4):
            v1 = np.nextafter(v1, 2.0)
            if _is_upper(m, p1, v1, 1.0):
                rows.append((p1, [v1, 1.0, 0.0]))
    return rows


#: the smallest normal float
_TINY = np.finfo(float).tiny


def _one_pair_automorphism(m, p, z):
    # the image and Jacobian of the automorphism at p, as the former one-pair
    # code formed them (a flat phat below the smallest normal, the Jacobian
    # entry by entry)
    n = len(p)
    p1 = p[0] * (2.0 ** 64 if abs(p[0]) < _TINY else 1.0)
    c = abs(p1) / p1 if p1 != 0 else 1.0
    phat, zhat = p[1:], z[1:]
    phat_sq = float(np.sum(np.abs(phat) ** 2))
    D = np.zeros((n, n), dtype=complex)
    if phat_sq < _TINY:
        D[0, 0], D[np.arange(1, n), np.arange(1, n)] = c, -1.0
        return np.concatenate(([c * z[0]], -zhat)), D
    s = math.sqrt(1.0 - phat_sq)
    w = complex(np.vdot(phat, zhat))
    denom = 1.0 - w
    proj = (w / phat_sq) * phat
    image = np.concatenate(([c * s ** (1.0 / m) * denom ** (-1.0 / m) * z[0]],
                            (phat - proj - s * (zhat - proj)) / denom))
    D[0, 0] = c * s ** (1.0 / m) * denom ** (-1.0 / m)
    numer = phat - (1.0 - s) * (w / phat_sq) * phat - s * zhat
    for j in range(1, n):
        D[0, j] = (c * s ** (1.0 / m) * z[0] * (1.0 / m)
                   * denom ** (-1.0 / m - 1.0) * np.conj(phat[j - 1]))
        for i in range(1, n):
            d_num = -(1.0 - s) * phat[i - 1] * np.conj(phat[j - 1]) / phat_sq - s * (i == j)
            D[i, j] = d_num / denom + numer[i - 1] * np.conj(phat[j - 1]) / denom ** 2
    return image, D


class TestRowForms:
    """The row forms behind ``verify``'s sample sets against one-point calls.

    Rows of the gauge and of the alternate formula run a root solve, so they
    agree to 1e-13 relative; a single vector or pair runs the float code.
    """

    # above m = 450 the power-of-two scaling takes every vector, unit-size ones too
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", M_VALUES + [60.0, 500.0])
    def test_gauge(self, m, n):
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([n, int(1e3 * m), 19])
        v = (rng.normal(size=(60, n)) + 1j * rng.normal(size=(60, n))) * np.exp(
            rng.uniform(-5.0, 5.0, (60, 1)))
        v = np.concatenate([_edge_vectors(n), v])
        one = np.array([minkowski_gauge(d, w) for w in v])
        rows = _gauge(d, v)
        assert rows.shape == (len(v),) and rows[0] == 0.0
        assert np.all(np.abs(rows - one) <= 1e-13 * one)

    @pytest.mark.parametrize("m", M_VALUES + [60.0])
    def test_alternate_formula(self, m):
        d = DomainParams(m=m, n=3)
        rng = np.random.default_rng([int(1e3 * m), 23])
        pairs = _junction_rows(m)
        assert m not in (0.5, 2.0, 60.0) or len(pairs) >= 6
        while len(pairs) < 80:
            p1, v = rng.uniform(0.01, 0.99), rng.normal(size=3) + 1j * rng.normal(size=3)
            if _is_upper(m, p1, abs(v[0]), float(_hat_sq(v))):
                pairs.append((p1, v))
        p1 = np.array([a for a, _ in pairs])
        v = np.array([b for _, b in pairs], dtype=complex)
        one = np.array([kobayashi_alt_upper(d, a, b) for a, b in zip(p1, v)])
        rows = _alt_upper(m, p1, np.abs(v[:, 0]), _hat_sq(v))
        assert np.all(np.abs(rows - one) <= 1e-13 * one)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0, 5.0, 20.0])
    def test_automorphism(self, m, n):
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([n, int(1e3 * m), 29])
        # verify's sample domain (defining function below -0.1)
        p, z = (_stratum_points(d, rng, 100, "interior") for _ in range(2))
        p[0, 1:] = 0.0                    # phat = 0
        p[1, 1:] = 1e-160                 # |phat|^2 subnormal
        p[2, 1:] = 3e-170j                # |phat|^2 underflows to 0
        p[3, 0] = 1e-310 + 2e-310j        # subnormal p1
        p[4, 0] = 0.0
        v = rng.normal(size=(10, n)) + 1j * rng.normal(size=(10, n))
        z[:10] = v / _gauge(d, v)[:, None]  # on the boundary
        images, jacobians = _automorphism(d, p, z)
        for a, b, image, D in zip(p, z, images, jacobians):
            want_image, want_D = _one_pair_automorphism(m, a, b)
            assert np.max(np.abs(image - want_image)) <= 2e-15 * np.max(np.abs(want_image))
            assert np.max(np.abs(D - want_D)) <= 2e-15 * np.max(np.abs(want_D))
            assert np.array_equal(image, egg_automorphism(d, a, b))
            assert np.array_equal(D, automorphism_jacobian(d, a, b))


class TestUpperBranchUnderflow:
    """Where p1^2m underflows the UPPER formula still holds (it returned NaN)."""

    @pytest.mark.parametrize("m", [20.0, 60.0])
    @pytest.mark.parametrize("p1", [1e-8, 1e-6, 1e-3])
    @pytest.mark.parametrize("v", [[0.6, 0.8], [1.0, 1e-3], [0.9, 0.1j], [1e-2, 1.0]])
    def test_matches_the_alternate_formula(self, m, p1, v):
        d = DomainParams(m=m, n=2)
        v = np.array(v, dtype=complex)
        assert branch_params(d, p1, v).branch is Branch.UPPER
        k = kobayashi_reference(d, p1, v)
        assert math.isfinite(k)
        assert abs(k - kobayashi_alt_upper(d, p1, v)) <= 1e-13 * k

    @pytest.mark.parametrize("m", [0.5, 2.0, 60.0])
    def test_tiny_axis_coordinate(self, m):
        # alpha runs down to p1, whose square leaves the float range below
        # p1 = 1e-154: the alternate value above 1e-150, and below it the Z
        # branch, the gauge, as at the point (p1, 0)
        d = DomainParams(m=m, n=2)
        v = np.array([0.6, 0.8])
        for p1 in (1e-60, 1e-140):
            k = kobayashi_reference(d, p1, v)
            assert abs(k - kobayashi_alt_upper(d, p1, v)) <= 1e-14 * k
        k = kobayashi_reference(d, 1e-160, v)
        assert k == kobayashi(d, [1e-160, 0.0], v)
        assert abs(k - minkowski_gauge(d, v)) <= 1e-15 * k

    def test_root_is_above_p1(self):
        # alpha^2m, alpha^(2m-2) and p1^2m are all below 1e-900 here: the
        # alpha equation returned its lower bracket end p1
        d = DomainParams(m=60.0, n=2)
        bp = branch_params(d, 1e-8, np.array([0.6, 0.8]))
        assert bp.alpha == pytest.approx(4.0 / 3.0 * 1e-8, rel=1e-12)
        assert solve_alpha(60.0, bp.t, 1e-8) == bp.alpha
        assert kobayashi_reference(d, 1e-8, np.array([0.6, 0.8])) == pytest.approx(0.8, rel=1e-14)


def _kobayashi_50_digits(mp, m, z, v):
    # K(z, v) through the same reduction to the axis, in 50 digits
    mp.mp.dps = 50
    m = mp.mpf(m)
    p1, phat = mp.mpc(complex(z[0])), [mp.mpc(complex(a)) for a in z[1:]]
    v1, vhat = mp.mpc(complex(v[0])), [mp.mpc(complex(b)) for b in v[1:]]
    s2 = 1 - mp.fsum(abs(a) ** 2 for a in phat)
    d = mp.fsum(mp.conj(a) * b for a, b in zip(phat, vhat))
    ref = abs(p1) / mp.sqrt(s2) ** (1 / m)
    y = abs(v1 + p1 * d / (m * s2)) / mp.sqrt(s2) ** (1 / m)
    x = (s2 * mp.fsum(abs(b) ** 2 for b in vhat) + abs(d) ** 2) / s2 ** 2
    P, u = ref ** (2 * m), m * y / mp.sqrt(x)
    t = 2 * m * m * ref ** 2 / (u ** 2 + 2 * m * (m - 1) * ref ** 2
                                 + u * mp.sqrt(u ** 2 + 4 * m * (m - 1) * ref ** 2))
    lo, hi = ref, mp.mpf(1)
    for _ in range(180):
        a = (lo + hi) / 2
        if a ** (2 * m) - t * a ** (2 * m - 2) - (1 - t) * P < 0:
            lo = a
        else:
            hi = a
    return m * a ** (2 * m - 1) * y / (ref * (a ** (2 * m - 2) - P) * (m * (1 - t) + t))


class TestBoundaryAccuracy:
    """UPPER values at gauge 1 - 1e-6 keep the accuracy of the alpha-equation form.

    The bounds are the largest relative errors of the former scalar code on
    these points (6.4e-10 at m = 60, 2.1e-10 at m = 20) with a margin; a
    form that rounds beta = alpha/p1 before raising it to the power 2 - 2m
    reached 3.2e-9 and 4.3e-10.
    """

    @pytest.mark.parametrize("m, bound", [(20.0, 3e-10), (60.0, 1e-9)])
    def test_against_50_digits(self, m, bound):
        mp = pytest.importorskip("mpmath")
        d = DomainParams(m=m, n=3)
        rng = np.random.default_rng([int(m), 1_000_000])
        worst, count = 0.0, 0
        while count < 16:
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            z *= (1.0 - 1e-6) / minkowski_gauge(d, z)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            p1, w = reference_coordinate(d, z), automorphism_jacobian(d, z, z) @ v
            if branch_params(d, p1, w).branch is not Branch.UPPER:
                continue
            exact = _kobayashi_50_digits(mp, m, z, v)
            worst = max(worst, float(abs(kobayashi(d, z, v) - exact) / exact))
            count += 1
        assert worst <= bound
