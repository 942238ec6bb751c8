"""The Kobayashi metric on the egg: axis-point branch formulas and the global reduction.

At an axis point (p1, 0, ..., 0) the metric splits into two branches by the
ratio u = m|v1|/|vhat|: a quadratic form for u <= p1 (LOWER) and a rational
expression in the solved parameter alpha for u > p1 (UPPER); vhat = 0 is the
AXIS limit |v1|/(1 - p1^2). General points reduce to the axis through the
automorphism group.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    DomainParams,
    _check_finite,
    _check_p1,
    _defining,
    _gauge,
    _jacobian,
    _reference_coordinate,
    as_vector,
)
from .errors import DomainError
from .numerics import abs_pow, single_term_root, solve_bracketed

#: below this axis coordinate a reduced point is treated as lying on Z
REFERENCE_AXIS_TOL = 1e-13


class Branch(enum.Enum):
    LOWER = "LOWER"
    UPPER = "UPPER"
    AXIS = "AXIS"


@dataclass(frozen=True)
class BranchParams:
    """Branch dispatch data for an axis-point evaluation.

    ``alpha`` always satisfies alpha^2m - t alpha^(2m-2) - (1-t) p1^2m = 0:
    on LOWER the junction values (t, alpha) = (1, 1) are stored, on AXIS the
    limit (0, p1).
    """

    u: float
    t: float
    alpha: float
    branch: Branch


def branch_ratio(m: float, p1: float, u: float) -> float:
    """The parameter t(u) of the UPPER branch; t(p1) = 1 and t decreases in u."""
    disc = u * u + 4.0 * m * (m - 1.0) * p1 * p1
    return 2.0 * m * m * p1 * p1 / (u * u + 2.0 * m * (m - 1.0) * p1 * p1
                                    + u * math.sqrt(disc))


def solve_alpha(m: float, t: float, p1: float) -> float:
    """Unique positive root of alpha^2m - t alpha^(2m-2) - (1-t) p1^2m = 0.

    For t in (0, 1] the root lies in (p1, 1]; t = 1 gives exactly 1. The
    residual at the returned root is below 1e-13.
    """
    if not (m >= 0.5 and math.isfinite(m)):
        raise DomainError(f"m must be >= 1/2, got {m!r}")
    _check_p1(p1)
    if not (0.0 < t <= 1.0):
        raise DomainError(f"t must lie in (0, 1], got {t!r}")
    if t == 1.0:
        return 1.0
    P = abs_pow(p1, 2 * m)

    def g(a: float) -> float:
        return abs_pow(a, 2 * m) - t * abs_pow(a, 2 * m - 2) - (1.0 - t) * P

    def dg(a: float) -> float:
        return (2 * m * abs_pow(a, 2 * m - 1)
                - t * (2 * m - 2) * abs_pow(a, 2 * m - 3))

    return solve_bracketed(g, p1, 1.0, df=dg)


def branch_params(domain: DomainParams, p1: float, v) -> BranchParams:
    """Classify a tangent vector at an axis point and solve the branch parameters."""
    _check_p1(p1)
    v = as_vector(v, domain.n)
    m = domain.m
    vhat = math.sqrt(float(np.sum(np.abs(v[1:]) ** 2)))
    if vhat == 0.0:
        return BranchParams(u=math.inf, t=0.0, alpha=p1, branch=Branch.AXIS)
    u = m * abs(v[0]) / vhat
    if u <= p1:
        return BranchParams(u=u, t=1.0, alpha=1.0, branch=Branch.LOWER)
    t = branch_ratio(m, p1, u)
    return BranchParams(u=u, t=t, alpha=solve_alpha(m, t, p1), branch=Branch.UPPER)


def kobayashi_reference_sq(domain: DomainParams, p1: float, v) -> float:
    """Squared Kobayashi metric at the axis point (p1, 0, ..., 0)."""
    _check_p1(p1)
    return _kobayashi_reference_sq(domain, p1, as_vector(v, domain.n))


def _kobayashi_reference_sq(domain: DomainParams, p1: float, v: np.ndarray) -> float:
    # kobayashi_reference_sq on a checked p1 and vector
    m = domain.m
    P = abs_pow(p1, 2 * m)
    y = abs(v[0]) ** 2
    x = float(np.sum(np.abs(v[1:]) ** 2))
    if x == 0.0:
        return y / (1.0 - p1 * p1) ** 2
    u = m * abs(v[0]) / math.sqrt(x)
    if u <= p1:
        # grouped as (p1^(m-1) |v1|)^2: the branch condition caps |v1| by
        # p1 |vhat|/m, so the grouped factor stays in range even when the
        # split power would overflow for m < 1 at tiny p1
        axial = m * abs_pow(p1, m - 1) * abs(v[0])
        return axial * axial / (1.0 - P) ** 2 + x / (1.0 - P)
    t = branch_ratio(m, p1, u)
    alpha = solve_alpha(m, t, p1)
    # (1-t)/(1-alpha^2) = alpha^(2m-2)/(alpha^(2m-2) - P): no cancellation at
    # the branch junction, where t and alpha both tend to 1
    k = (m * abs_pow(alpha, 2 * m - 1) * abs(v[0])
         / (p1 * (abs_pow(alpha, 2 * m - 2) - P) * (m * (1.0 - t) + t)))
    return k * k


def kobayashi_reference(domain: DomainParams, p1: float, v) -> float:
    """Kobayashi metric at the axis point (p1, 0, ..., 0)."""
    return math.sqrt(kobayashi_reference_sq(domain, p1, v))


def kobayashi_sq(domain: DomainParams, p, v) -> float:
    """Squared Kobayashi metric at an arbitrary interior point."""
    p = as_vector(p, domain.n)
    v = as_vector(v, domain.n)
    if _defining(domain, p) >= 0.0:
        raise DomainError("point lies outside the egg")
    w = _jacobian(domain, p, p) @ v
    p1_ref = _reference_coordinate(domain, p)
    if p1_ref < REFERENCE_AXIS_TOL:
        _check_finite(w)  # D v overflows for v near the float limit
        g = _gauge(domain, w)
        return g * g
    # rounding puts some points just inside the boundary at p1_ref = 1
    _check_p1(p1_ref)
    _check_finite(w)
    return _kobayashi_reference_sq(domain, p1_ref, w)


def kobayashi(domain: DomainParams, p, v) -> float:
    """Kobayashi metric K(p, v); equals the Minkowski gauge of the moved vector on Z."""
    return math.sqrt(kobayashi_sq(domain, p, v))


def kobayashi_alt_upper(domain: DomainParams, p1: float, v) -> float:
    """Independent UPPER-branch expression through the rescaled root x = alpha~.

    Valid for u > p1 with v1 != 0 and vhat != 0. Solves the degree-2m equation
    for the scaled gauge parameter and evaluates the closed rational form;
    cross-validates the branch formula of ``kobayashi_reference``.
    """
    _check_p1(p1)
    v = as_vector(v, domain.n)
    m = domain.m
    v1 = abs(v[0])
    xh = float(np.sum(np.abs(v[1:]) ** 2))
    if v1 == 0.0 or xh == 0.0:
        raise DomainError("alternate formula needs v1 != 0 and vhat != 0")
    if m * v1 / math.sqrt(xh) <= p1:
        raise DomainError("alternate formula is defined on the u > p1 branch only")
    disc = v1 * v1 + 4.0 * (1.0 - 1.0 / m) * p1 * p1 * xh
    t2 = 2.0 * v1 * v1 / (v1 * v1 + 2.0 * (1.0 - 1.0 / m) * xh * p1 * p1
                          + v1 * math.sqrt(disc))
    A = (1.0 - t2 * xh * p1 * p1 / (v1 * v1)) * abs_pow(v1, 2 * m)
    B = t2 * xh

    def g(xv: float) -> float:
        return A * abs_pow(xv, 2 * m) + B * xv * xv - 1.0

    def dg(xv: float) -> float:
        return 2 * m * A * abs_pow(xv, 2 * m - 1) + 2 * B * xv

    hi = min(single_term_root(A, 2 * m), single_term_root(B, 2.0)) * (1.0 + 1e-9)
    root = solve_bracketed(g, 0.0, hi, df=dg)
    inner = v1 * v1 * root * root - p1 * p1 * abs_pow(root, 2 * m) * abs_pow(v1, 2 * m)
    k_sq = root * root * v1 ** 4 / (t2 * inner * inner)
    return math.sqrt(k_sq)
