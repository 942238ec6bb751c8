"""The egg domain, its strata, and the automorphisms that reduce points to the axis.

Points and tangent vectors are plain complex ndarrays of length n; index 0 is
the distinguished coordinate z1 and ``z[1:]`` is the orthogonal block written
``zhat`` throughout.

Each public function checks its vector arguments once, with ``as_vector``;
the private ``_...`` helpers take vectors that are already checked, so that
callers inside the package check at their own boundary and not again at
every layer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .numerics import abs_pow, single_term_root, solve_bracketed

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
    ball and is admitted as a sanity configuration. ``m0_radius`` is the axis
    coordinate 2^(-1/2m) separating the inner and outer strata when m > 1.
    """

    m: float
    n: int
    m0_radius: float = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 2):
            raise DomainError(f"dimension n must be an integer >= 2, got {self.n!r}")
        if not (math.isfinite(self.m) and self.m >= 0.5):
            raise DomainError(f"exponent m must be finite and >= 1/2, got {self.m!r}")
        object.__setattr__(self, "m0_radius", 2.0 ** (-1.0 / (2.0 * self.m)))


def as_vector(v, n: int) -> np.ndarray:
    """Validate and return a finite complex n-vector."""
    arr = np.asarray(v, dtype=complex)
    if arr.shape != (n,):
        raise DomainError(f"expected a length-{n} vector, got shape {arr.shape}")
    _check_finite(arr)
    return arr


def _check_finite(arr: np.ndarray) -> None:
    # a complex entry is finite only when both of its parts are
    if not np.isfinite(arr).all():
        raise DomainError("vector has non-finite entries")


def _check_p1(p1: float) -> None:
    if not (0.0 < p1 < 1.0):
        raise DomainError(f"axis coordinate p1 must lie in (0, 1), got {p1!r}")


def defining_function(domain: DomainParams, z) -> float:
    """|z1|^2m + |zhat|^2 - 1; negative inside the egg."""
    return _defining(domain, as_vector(z, domain.n))


def _defining(domain: DomainParams, z: np.ndarray) -> float:
    # defining_function on a checked vector
    return abs_pow(abs(z[0]), 2 * domain.m) + float(np.sum(np.abs(z[1:]) ** 2)) - 1.0


def minkowski_gauge(domain: DomainParams, v) -> float:
    """Gauge of the egg: the unique lambda >= 0 with v/lambda on the boundary.

    Solves |v1|^2m a^2m + |vhat|^2 a^2 = 1 for the scaling a and returns 1/a;
    v = 0 returns 0 by convention. Positively homogeneous of degree one.
    """
    return _gauge(domain, as_vector(v, domain.n))


def _gauge(domain: DomainParams, v: np.ndarray) -> float:
    # minkowski_gauge on a checked vector
    m = domain.m
    # far from unit size, scale v by an exact power of two so that |v1|^2m,
    # |vhat|^2 and the bracket below stay inside the float range
    e = math.frexp(max(float(np.max(np.abs(v.real))), float(np.max(np.abs(v.imag)))))[1]
    if max(m, 1.0) * (abs(e) + 1) > 450.0:
        unit = np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e)
        return math.ldexp(_gauge(domain, unit), e)
    a_coef = abs_pow(abs(v[0]), 2 * m)
    b_coef = float(np.sum(np.abs(v[1:]) ** 2))
    if a_coef == 0.0 and b_coef == 0.0:
        return 0.0
    if a_coef == 0.0:
        return math.sqrt(b_coef)
    if b_coef == 0.0:
        return abs(v[0])

    def g(alpha: float) -> float:
        return a_coef * abs_pow(alpha, 2 * m) + b_coef * alpha * alpha - 1.0

    def dg(alpha: float) -> float:
        return 2 * m * a_coef * abs_pow(alpha, 2 * m - 1) + 2 * b_coef * alpha

    # the root is bounded by the single-term roots (each term alone reaches 1
    # there), which also keeps the bracket sane for subnormal inputs; the
    # safety factor absorbs the rounding of the bound itself
    hi = min(single_term_root(a_coef, 2 * m), single_term_root(b_coef, 2.0)) * (1.0 + 1e-9)
    alpha = solve_bracketed(g, 0.0, hi, df=dg)
    return 1.0 / alpha


def classify_region(domain: DomainParams, z, tol: float = REGION_TOL) -> RegionLabel:
    """Label a point: OUTSIDE, Z, and for m > 1 one of M_MINUS/M_ZERO/M_PLUS, else GENERIC.

    The inner/middle/outer split tests 2|z1|^2m + |zhat|^2 - 1 against +-tol;
    Z is |z1| <= tol. Labels depend only on |z1| and |zhat|, so they are
    invariant under phase rotation of z1 and unitary rotation of zhat.
    """
    return _region_of(domain, as_vector(z, domain.n), tol)


def _region_of(domain: DomainParams, z: np.ndarray, tol: float) -> RegionLabel:
    # classify_region on a checked vector
    if tol <= 0:
        raise DomainError("tol must be positive")
    P = abs_pow(abs(z[0]), 2 * domain.m)
    q = float(np.sum(np.abs(z[1:]) ** 2))
    if P + q - 1.0 >= 0.0:
        return RegionLabel.OUTSIDE
    if abs(z[0]) <= tol:
        return RegionLabel.Z
    if domain.m <= 1.0:
        return RegionLabel.GENERIC
    w = 2.0 * P + q - 1.0
    if w < -tol:
        return RegionLabel.M_MINUS
    if w > tol:
        return RegionLabel.M_PLUS
    return RegionLabel.M_ZERO


def reference_coordinate(domain: DomainParams, p) -> float:
    """Axis coordinate |p1|/s^(1/m) of the automorphism image of p, s = sqrt(1-|phat|^2)."""
    return _reference_coordinate(domain, as_vector(p, domain.n))


def _reference_coordinate(domain: DomainParams, p: np.ndarray) -> float:
    # reference_coordinate on a checked vector
    s2 = 1.0 - float(np.sum(np.abs(p[1:]) ** 2))
    if s2 <= 0.0:
        raise DomainError("point has |phat| >= 1")
    return abs(p[0]) / abs_pow(math.sqrt(s2), 1.0 / domain.m)


def _phase_factor(p1: complex) -> complex:
    # unimodular factor |p1|/p1, fixed to 1 at p1 = 0 (any choice gives the
    # same metric values by rotational symmetry)
    return abs(p1) / p1 if p1 != 0 else 1.0


def egg_automorphism(domain: DomainParams, p, z) -> np.ndarray:
    """Automorphism of the egg sending p to the axis point (|p1|/s^(1/m), 0, ..., 0).

    The zhat block is moved by the standard ball automorphism taking phat to
    the origin; z1 is scaled by the matching (1 - <zhat, phat>)^(-1/m) factor.
    For phat = 0 the map degenerates to (c z1, -zhat) with unimodular c.
    Accepts z on the closed egg (boundary maps to boundary).
    """
    m = domain.m
    p = as_vector(p, domain.n)
    z = as_vector(z, domain.n)
    if _defining(domain, p) >= 0.0:
        raise DomainError("base point p must lie inside the egg")
    if _defining(domain, z) > 1e-9:
        raise DomainError("z must lie in the closed egg")
    c = _phase_factor(p[0])
    phat = p[1:]
    zhat = z[1:]
    phat_sq = float(np.sum(np.abs(phat) ** 2))
    if phat_sq == 0.0:
        return np.concatenate(([c * z[0]], -zhat))
    s = math.sqrt(1.0 - phat_sq)
    w = complex(np.vdot(phat, zhat))  # <zhat, phat>, conjugate-linear in phat
    denom = 1.0 - w
    first = c * s ** (1.0 / m) * denom ** (-1.0 / m) * z[0]
    proj = (w / phat_sq) * phat
    psi = (phat - proj - s * (zhat - proj)) / denom
    return np.concatenate(([first], psi))


def automorphism_jacobian(domain: DomainParams, p, z) -> np.ndarray:
    """Holomorphic Jacobian of ``egg_automorphism(domain, p, .)`` at z."""
    p = as_vector(p, domain.n)
    z = as_vector(z, domain.n)
    if _defining(domain, p) >= 0.0:
        raise DomainError("base point p must lie inside the egg")
    return _jacobian(domain, p, z)


def _jacobian(domain: DomainParams, p: np.ndarray, z: np.ndarray) -> np.ndarray:
    # automorphism_jacobian on checked vectors, p inside the egg
    m = domain.m
    n = domain.n
    c = _phase_factor(p[0])
    phat = p[1:]
    zhat = z[1:]
    phat_sq = float(np.sum(np.abs(phat) ** 2))
    D = np.zeros((n, n), dtype=complex)
    if phat_sq == 0.0:
        D[0, 0] = c
        for j in range(1, n):
            D[j, j] = -1.0
        return D
    s = math.sqrt(1.0 - phat_sq)
    w = complex(np.vdot(phat, zhat))
    denom = 1.0 - w
    D[0, 0] = c * s ** (1.0 / m) * denom ** (-1.0 / m)
    for j in range(1, n):
        D[0, j] = (c * s ** (1.0 / m) * z[0] * (1.0 / m)
                   * denom ** (-1.0 / m - 1.0) * np.conj(phat[j - 1]))
    numer = phat - (1.0 - s) * (w / phat_sq) * phat - s * zhat
    for i in range(1, n):
        for j in range(1, n):
            d_num = -(1.0 - s) * phat[i - 1] * np.conj(phat[j - 1]) / phat_sq
            if i == j:
                d_num -= s
            D[i, j] = d_num / denom + numer[i - 1] * np.conj(phat[j - 1]) / denom ** 2
    return D


def seam_distance(domain: DomainParams, z) -> float:
    """Conservative distance from z to the nearest of: Z, M0 (if m > 1), the boundary.

    First-order estimate |f| / |grad f| on each defining expression; used to
    size differencing stencils so they never straddle a seam.
    """
    return _seam_distance(domain, as_vector(z, domain.n))


def _seam_distance(domain: DomainParams, z: np.ndarray) -> float:
    # seam_distance on a checked vector
    m = domain.m
    r1 = abs(z[0])
    rhat = math.sqrt(float(np.sum(np.abs(z[1:]) ** 2)))
    dists = [r1]  # distance to the hyperplane z1 = 0
    e = abs_pow(r1, 2 * m) + rhat * rhat - 1.0
    grad_e = math.hypot(2 * m * abs_pow(r1, 2 * m - 1), 2 * rhat)
    if grad_e > 0:
        dists.append(abs(e) / grad_e)
    if m > 1.0:
        w = 2.0 * abs_pow(r1, 2 * m) + rhat * rhat - 1.0
        grad_w = math.hypot(4 * m * abs_pow(r1, 2 * m - 1), 2 * rhat)
        if grad_w > 0:
            dists.append(abs(w) / grad_w)
    return min(dists)
