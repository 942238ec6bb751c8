"""The egg domain, its strata, and the automorphisms that reduce points to the axis.

Points and tangent vectors are plain complex ndarrays of length n; index 0 is
the distinguished coordinate z1 and ``z[1:]`` is the orthogonal block written
``zhat`` throughout. The point evaluations of the package also take (N, n)
arrays, one point or vector per row.

Each public function checks its vector arguments once, with ``as_vector``;
the private ``_...`` helpers take vectors that are already checked, so that
callers inside the package check at their own boundary and not again at
every layer. ``_defining`` and ``_region_of`` work on the last axis, so they
take one point or rows of points alike. Whether a point lies inside the egg
is decided in one place, ``_reference_rows``; ``_reference_point`` takes its
ufuncs to one point's own vector.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .numerics import _check_integer, _power, _two_term_root, abs_pow

#: default tolerance on the defining expressions used by region classification
REGION_TOL = 1e-10


class RegionLabel(enum.Enum):
    """Automorphism-invariant strata of the egg."""

    Z = "Z"
    M_MINUS = "M_MINUS"
    M_ZERO = "M_ZERO"
    M_PLUS = "M_PLUS"
    GENERIC = "GENERIC"
    OUTSIDE = "OUTSIDE"


@dataclass(frozen=True)
class DomainParams:
    """The egg {|z1|^2m + |z2|^2 + ... + |zn|^2 < 1}.

    ``m`` must be at least 1/2 (convexity threshold); ``m = 1`` is the unit
    ball and is admitted as a sanity configuration. ``m0_weight`` is the
    weight w of the middle stratum M0 = {w |z1|^2m + |zhat|^2 = 1}, which
    splits the inner strata from the outer when m > 1 (w = 2 at every n);
    region labels, seam distances and the tangency fit place M0 with it, and
    ``m0_radius`` = w^(-1/2m) is M0's axis coordinate.
    """

    m: float
    n: int
    m0_weight: float = field(init=False)
    m0_radius: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _check_integer(self.n, "dimension n", 2))
        if not (math.isfinite(self.m) and self.m >= 0.5):
            raise DomainError(f"exponent m must be finite and >= 1/2, got {self.m!r}")
        object.__setattr__(self, "m0_weight", 2.0)
        object.__setattr__(self, "m0_radius", self.m0_weight ** (-1.0 / (2.0 * self.m)))


def as_vector(v, n: int, rows: bool = False) -> np.ndarray:
    """Validate and return a finite complex n-vector; with ``rows`` also an (N, n) array."""
    arr = np.asarray(v, dtype=complex)
    if arr.shape != (n,) and not (rows and arr.ndim == 2 and arr.shape[1] == n):
        expected = f"a length-{n} vector" + (f" or (N, {n}) rows" if rows else "")
        raise DomainError(f"expected {expected}, got shape {arr.shape}")
    _check_finite(arr)
    return arr


def _check_finite(arr: np.ndarray) -> None:
    # a complex entry is finite only when both of its parts are; one vector's
    # n entries are read as Python complex numbers, which costs less than a numpy pass
    if arr.ndim == 1:
        if not all(map(cmath.isfinite, arr.tolist())):
            raise DomainError("vector has non-finite entries")
        return
    finite = np.isfinite(arr)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise DomainError(f"row {row} has non-finite entries")


def _same_rows(a: np.ndarray, b: np.ndarray) -> None:
    # a point evaluation pairs the i-th point with the i-th vector
    if a.shape != b.shape:
        raise DomainError(f"points and vectors differ in shape: {a.shape} and {b.shape}")


def _hat_sq(z: np.ndarray) -> np.ndarray:
    # |zhat|^2 of a point or of each row
    return (np.abs(z[..., 1:]) ** 2).sum(axis=-1)


def _check_p1(p1: float) -> None:
    if not (0.0 < p1 < 1.0):
        raise DomainError(f"axis coordinate p1 must lie in (0, 1), got {p1!r}")


def _check_tol(tol: float) -> None:
    # the region tolerance of a public call: finite and positive (NaN fails both)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")


def _axis_point(domain: DomainParams, p1, z2: complex = 0.0) -> np.ndarray:
    # the point (p1, z2, 0, ..., 0), or one such row per entry of an array p1
    z = np.zeros(np.shape(p1) + (domain.n,), dtype=complex)
    z[..., 0], z[..., 1] = p1, z2
    return z


def defining_function(domain: DomainParams, z) -> float:
    """|z1|^2m + |zhat|^2 - 1; negative inside the egg."""
    return float(_defining(domain, as_vector(z, domain.n)))


def _defining(domain: DomainParams, z: np.ndarray) -> np.ndarray:
    # defining_function of a checked point, or of each row
    return np.abs(z[..., 0]) ** (2 * domain.m) + _hat_sq(z) - 1.0


def minkowski_gauge(domain: DomainParams, v) -> float:
    """Gauge of the egg: the unique lambda >= 0 with v/lambda on the boundary.

    Solves |v1|^2m a^2m + |vhat|^2 a^2 = 1 for the scaling a and returns 1/a;
    v = 0 returns 0 by convention. Positively homogeneous of degree one.
    """
    return _gauge(domain, as_vector(v, domain.n))


def _gauge(domain: DomainParams, v: np.ndarray):
    # minkowski_gauge of a checked vector, on floats, or of each checked (N, n) row
    m = domain.m
    # far from unit size, scale v by an exact power of two so that |v1|^2m,
    # |vhat|^2 and the bracket below stay inside the float range
    e = np.frexp(np.maximum(np.abs(v.real), np.abs(v.imag)).max(axis=-1))[1]
    e = np.where(max(m, 1.0) * (np.abs(e) + 1) > 450.0, e, 0)
    if e.any():
        v = np.ldexp(v.real, -e[..., None]) + 1j * np.ldexp(v.imag, -e[..., None])
    if v.ndim == 1:  # numpy's abs of one complex rounds apart from its abs of rows
        r1, b = float(abs(v[0])), float(_hat_sq(v))
        a = abs_pow(r1, 2 * m)
        return math.ldexp(math.sqrt(b) if a == 0.0 else r1 if b == 0.0
                          else 1.0 / _two_term_root(a, b, m), int(e))
    r1, b = np.abs(v[:, 0]), _hat_sq(v)
    a = r1 ** (2 * m)
    g = np.where(a == 0.0, np.sqrt(b), r1)
    solved = (a != 0.0) & (b != 0.0)
    g[solved] = 1.0 / _two_term_root(a[solved], b[solved], m)
    return np.ldexp(g, e)


def classify_region(domain: DomainParams, z, tol: float = REGION_TOL) -> RegionLabel:
    """Label a point: OUTSIDE, Z, and for m > 1 one of M_MINUS/M_ZERO/M_PLUS, else GENERIC.

    The inner/middle/outer split tests w|z1|^2m + |zhat|^2 - 1 (w = ``m0_weight``)
    against +-tol; Z is |z1| <= tol. Labels depend only on |z1| and |zhat|, so
    they are invariant under phase rotation of z1 and unitary rotation of zhat.
    """
    _check_tol(tol)
    return _region_of(domain, as_vector(z, domain.n), tol)


#: ``_region_of``'s labels by code
_LABELS = np.array([RegionLabel.OUTSIDE, RegionLabel.Z, RegionLabel.GENERIC,
                    RegionLabel.M_MINUS, RegionLabel.M_ZERO, RegionLabel.M_PLUS], dtype=object)


def _region_of(domain: DomainParams, z: np.ndarray, tol: float, rows=None):
    # classify_region of a checked point, or an object array of the labels of
    # each row; the membership parts are ``rows`` when the caller has them,
    # one point's as floats (``_reference_point``)
    if rows is None:
        rows = _reference_rows(domain, z) if z.ndim == 2 else _reference_point(domain, z)
    r1, q, sm = rows
    code = 2  # GENERIC
    if domain.m > 1.0:
        w = domain.m0_weight * r1 ** (2 * domain.m) + q - 1.0
        code = 4 + (w > tol) * 1 - (w < -tol)  # M_MINUS, M_ZERO or M_PLUS
    # Z where r1 <= tol, OUTSIDE unless r1 < sm; arithmetic on the tests, so
    # that one point's floats stay Python bools
    return _LABELS[(r1 < sm) * (code * (r1 > tol) + (r1 <= tol))]


def reference_coordinate(domain: DomainParams, p) -> float:
    """Axis coordinate |p1|/s^(1/m) of the automorphism image of p, s = sqrt(1-|phat|^2)."""
    p = as_vector(p, domain.n)
    if _hat_sq(p) >= 1.0:
        raise DomainError("point has |phat| >= 1")
    return float(_reference_coordinate(domain, p[None])[0])


def _reference_rows(domain: DomainParams, z: np.ndarray):
    """(r1, q, sm) of checked (N, n) rows: the one membership test of the egg.

    r1 = |z1|, q = |zhat|^2 and sm = s^(1/m) with s = sqrt(1 - q), taken as 0
    where q >= 1. A row lies inside the egg exactly where r1 < sm. For
    sm > 0 that is where the reference coordinate p1_ref = r1/sm, the axis
    coordinate of the row's automorphism image, rounds below 1: r1 < sm
    means r1 <= sm (1 - eps/2), so r1/sm rounds to at most 1 - eps/2. On
    rows, as ``_to_axis`` works, since numpy's array power can round apart
    from its scalar power.
    """
    q = _hat_sq(z)
    return np.abs(z[:, 0]), q, np.sqrt(np.maximum(1.0 - q, 0.0)) ** (1.0 / domain.m)


def _reference_point(domain: DomainParams, z: np.ndarray):
    # ``_reference_rows`` of one checked point (n,) as floats, off one np.abs of it: the same
    # ufuncs on the same values (math.sqrt rounds as np.sqrt does, the power is numpy's,
    # ``_power``), so that one point is a member exactly as its row is
    a = np.abs(z)
    q = float((a[1:] ** 2).sum())
    return float(a[0]), q, _power(math.sqrt(max(1.0 - q, 0.0)), 1.0 / domain.m)


def _reference_coordinate(domain: DomainParams, z: np.ndarray) -> np.ndarray:
    # p1_ref of checked (N, n) rows with |zhat| < 1
    r1, _, sm = _reference_rows(domain, z)
    return r1 / sm


def _check_inside(domain: DomainParams, z: np.ndarray):
    # the membership of checked (N, n) rows, each of which must lie inside, or
    # of one checked point (n,) as floats
    one = z.ndim == 1
    r1, _, sm = ref = _reference_point(domain, z) if one else _reference_rows(domain, z)
    if not (r1 < sm if one else (r1 < sm).all()):
        raise DomainError("point lies outside the egg")
    return ref


def egg_automorphism(domain: DomainParams, p, z) -> np.ndarray:
    """Automorphism of the egg sending p to the axis point (|p1|/s^(1/m), 0, ..., 0).

    The zhat block is moved by the standard ball automorphism taking phat to
    the origin; z1 is scaled by the matching (1 - <zhat, phat>)^(-1/m) factor.
    Accepts z on the closed egg (boundary maps to boundary), as one point or
    as (N, n) rows of points moved by the same map; the one-base-point case
    of ``_automorphism``.
    """
    p = as_vector(p, domain.n)
    z = as_vector(z, domain.n, rows=True)
    _check_inside(domain, p)
    if (_defining(domain, z) > 1e-9).any():
        raise DomainError("z must lie in the closed egg")
    rows = z.reshape(-1, domain.n)
    return _automorphism(domain, np.broadcast_to(p, rows.shape), rows)[0].reshape(z.shape)


def automorphism_jacobian(domain: DomainParams, p, z) -> np.ndarray:
    """Holomorphic Jacobian of ``egg_automorphism(domain, p, .)`` at z."""
    p = as_vector(p, domain.n)
    z = as_vector(z, domain.n)
    _check_inside(domain, p)
    return _automorphism(domain, p[None], z[None])[1][0]


def _automorphism(domain: DomainParams, p: np.ndarray, z: np.ndarray):
    """(images, Jacobians): row k of z moved by ``egg_automorphism`` at p[k], checked (N, n) rows.

    z1 is also multiplied by the unimodular c = |p1|/p1 (1 at p1 = 0, where
    any choice gives the same metric values by rotational symmetry; a
    subnormal p1 is scaled up first, as the division takes 1/p1). For
    phat = 0 the map is (c z1, -zhat); phat is taken as 0 where |phat|^2 is
    below the smallest normal float too, where s and 1 - <zhat, phat> round
    to 1 and the projection on phat would divide by |phat|^2. The Jacobian's
    zhat block is ((psi - phat/(1 + s)) conj(phat)^T - s I)/(1 - <zhat, phat>),
    psi the image's zhat block, using (1 - s)/|phat|^2 = 1/(1 + s).
    """
    m = domain.m
    p1 = p[:, 0] * np.where(np.abs(p[:, 0]) < sys.float_info.min, 2.0 ** 64, 1.0)
    c = np.where(p1 == 0, 1.0, np.abs(p1) / np.where(p1 == 0, 1.0, p1))
    q = _hat_sq(p)
    s = np.sqrt(1.0 - q)
    flat = q < sys.float_info.min
    phat, zhat = np.where(flat[:, None], 0.0, p[:, 1:]), z[:, 1:]
    w = (zhat * np.conj(phat)).sum(axis=-1)  # <zhat, phat>, conjugate-linear in phat
    denom = 1.0 - w
    proj = (w / np.where(flat, 1.0, q))[:, None] * phat
    psi = (phat - proj - s[:, None] * (zhat - proj)) / denom[:, None]
    scale = c * s ** (1.0 / m) * denom ** (-1.0 / m)  # the factor that moves z1
    n = z.shape[1]
    D = np.zeros((len(z), n, n), dtype=complex)
    D[:, 0, 0] = scale
    D[:, 0, 1:] = (scale * z[:, 0] / (m * denom))[:, None] * np.conj(phat)
    D[:, 1:, 1:] = ((psi - phat / (1.0 + s)[:, None])[:, :, None] * np.conj(phat)[:, None]
                    - s[:, None, None] * np.eye(n - 1)) / denom[:, None, None]
    return np.concatenate(((scale * z[:, 0])[:, None], psi), axis=-1), D


def _to_axis(domain: DomainParams, p: np.ndarray, v: np.ndarray, ref=None):
    """(reference coordinate, D(p, p) v) of checked (N, n) rows, in O(n) per row.

    Raises ``DomainError`` when a point p lies outside the egg. D(p, p) is
    ``automorphism_jacobian`` at z = p. There the numerator of the zhat block
    vanishes and 1 - <phat, phat> = s^2, so with d = <vhat, phat>
    w1 = c s^(-1/m) (v1 + p1 d/(m s^2)) and what = -(s vhat + phat d/(1+s))/s^2,
    using (1 - s)/|phat|^2 = 1/(1 + s); phat = 0 needs no branch. The
    reference coordinate is ``_reference_coordinate``'s p1_ref. One pair
    passes its checked membership ``ref`` as floats (``_check_inside``):
    its real scalars and the reference coordinate it gets back stay floats
    (math.sqrt rounds as np.sqrt does); its complex parts run on its one row.
    """
    m = domain.m
    if ref is None:
        r1, q, sm = (x[:, None] for x in _check_inside(domain, p))  # as columns
    else:
        r1, q, sm = ref
    p1, phat, vhat = p[:, :1], p[:, 1:], v[:, 1:]
    s2 = 1.0 - q
    s = np.sqrt(s2) if ref is None else math.sqrt(s2)
    d = (np.conj(phat) * vhat).sum(axis=-1, keepdims=True)
    # c = |p1|/p1, and 1 where |p1| is 0 or so small that 1/p1 overflows:
    # the unimodular c moves no value that K or the pullback read
    on_z = r1 < sys.float_info.min
    c = r1 / (np.where(on_z, 1.0, p1) if ref is None else 1.0 if on_z else p1) + on_z
    w = np.empty_like(v)
    w[:, :1] = c * (v[:, :1] + p1 * d / (m * s2)) / sm
    w[:, 1:] = (s * vhat + phat * (d / (1.0 + s))) / -s2
    p1_ref = r1 / sm
    return (p1_ref[:, 0] if ref is None else p1_ref), w


def _moved_reals(domain: DomainParams, p: np.ndarray, v: np.ndarray, ref):
    # (p1_ref, |w1|, |what|^2) of w = D(p, p) v, without building w, for checked (N, n)
    # rows and their ``_check_inside`` membership ``ref``; floats for one pair's row and
    # float ref. ``_to_axis``'s w1 without the unimodular c, and |what|^2 = |vhat|^2/s^2
    # + |d|^2/s^4 (d = <vhat, phat>), so one pair's complex parts run on its row
    r1, q, sm = ref
    s2 = 1.0 - q
    d = (np.conj(p[:, 1:]) * v[:, 1:]).sum(axis=-1)
    w1, ad, b = np.abs(v[:, 0] + p[:, 0] * d / (domain.m * s2)), np.abs(d), _hat_sq(v)
    if isinstance(sm, float):
        (w1,), (ad,), (b,) = w1.tolist(), ad.tolist(), b.tolist()
    return r1 / sm, w1 / sm, b / s2 + ad * ad / (s2 * s2)


def seam_distance(domain: DomainParams, z) -> float:
    """Conservative distance from z to the nearest of: Z, M0 (if m > 1), the boundary.

    First-order estimate |f| / |grad f| on each defining expression: a ball
    of this radius around z meets none of the three to first order.
    """
    return _seam_distance(domain, as_vector(z, domain.n))


def _seam_distance(domain: DomainParams, z: np.ndarray) -> float:
    # seam_distance on a checked vector
    m = domain.m
    r1 = abs(z[0])
    rhat = math.sqrt(float(_hat_sq(z)))
    dists = [r1]  # distance to the hyperplane z1 = 0
    e = abs_pow(r1, 2 * m) + rhat * rhat - 1.0
    grad_e = math.hypot(2 * m * abs_pow(r1, 2 * m - 1), 2 * rhat)
    if grad_e > 0:
        dists.append(abs(e) / grad_e)
    if m > 1.0:
        w = domain.m0_weight * abs_pow(r1, 2 * m) + rhat * rhat - 1.0
        grad_w = math.hypot(2 * m * domain.m0_weight * abs_pow(r1, 2 * m - 1), 2 * rhat)
        if grad_w > 0:
            dists.append(abs(w) / grad_w)
    return min(dists)
