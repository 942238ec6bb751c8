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
from functools import partial

import numpy as np

from .domain import (
    DomainParams,
    _check_finite,
    _check_inside,
    _check_p1,
    _gauge_exponent,
    _hat_sq,
    _moved_reals,
    _pair_gauge,
    _same_rows,
    as_vector,
)
from .errors import DomainError, NumericalError
from .numerics import _power, _solve_bracketed_rows, _two_term_root, abs_pow, solve_bracketed


#: smallest axis coordinate whose UPPER root alpha, which runs down to p1,
#: keeps alpha^2 in the float range; at or below it the metric takes the Z
#: branch, the Minkowski gauge of the moved vector, which the axis-point
#: formulas meet to rounding well before it
_P1_UPPER_MIN = 1e-150


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


def branch_ratio(m: float, p1, u):
    """The parameter t(u) of the UPPER branch; t(p1) = 1 and t decreases in u.

    Takes floats or arrays of equal shape. Written in q = p1/u, which lies in
    (0, 1) on the branch, so no term overflows.
    """
    q = p1 / u
    qq, k = q * q, m * (m - 1.0)
    return 2.0 * m * m * qq / (1.0 + 2.0 * k * qq + np.sqrt(1.0 + 4.0 * k * qq))


def solve_alpha(m: float, t: float, p1: float) -> float:
    """Unique positive root of alpha^2m - t alpha^(2m-2) - (1-t) p1^2m = 0.

    For t in (0, 1] the root lies in (p1, 1]; t = 1 gives exactly 1. The
    one-row case of ``_solve_alpha``, which stays accurate where p1^2m
    underflows.
    """
    if not (m >= 0.5 and math.isfinite(m)):
        raise DomainError(f"m must be >= 1/2, got {m!r}")
    _check_p1(p1)
    if not (0.0 < t <= 1.0):
        raise DomainError(f"t must lie in (0, 1], got {t!r}")
    if t == 1.0:
        return 1.0
    return _solve_alpha(m, float(t), float(p1))


def _solve_alpha(m: float, t, p1):
    """alpha of each UPPER row, t in [0, 1) and p1 in (0, 1), or of one as floats.

    Divided by alpha^(2m-2), the alpha equation reads alpha^2 - t - (1-t) R = 0
    with R = P/alpha^(2m-2) = ``_upper_ratio``, which stays in range for every
    m even where p1^2m underflows (alpha^2 needs p1 above 1e-154). With
    beta = alpha/p1 the root is bracketed by beta^(2-2m) <= 1 for m >= 1 and
    1 <= beta^(2-2m) <= beta for m < 1, and the bracket is narrowed by one
    fixed-point step, then widened by 1e-9 so that rounding keeps the sign
    change. One row runs the scalar ``solve_bracketed`` on floats, rows run
    ``_solve_bracketed_rows`` from the same midpoint start.
    """
    one = np.ndim(t) == 0
    if not (p1 > _P1_UPPER_MIN if one else (p1 > _P1_UPPER_MIN).all()):
        raise NumericalError(f"UPPER branch leaves the float range at p1={float(np.min(p1))!r}")
    e = 2.0 * m - 2.0

    def fdf(t, c, ec, p1, xp, a):  # c = 1 - t, ec = e (1 - t); a last, for ``partial``
        R = _upper_ratio(m, p1, a, xp)
        return a * a - t - c * R, 2.0 * a + ec * R / a

    def ends(t, p1, xp, maximum, minimum):
        c = 1.0 - t
        if m >= 1.0:
            lo, hi = maximum(p1, xp.sqrt(t)), xp.sqrt(t + c * p1 * p1)
        else:
            lo, hi = xp.sqrt(t + c * p1 * p1), 0.5 * (c * p1 + xp.sqrt(c * c * p1 * p1 + 4.0 * t))
        # the root is the fixed point of F(a) = sqrt(t + c R(a)), which
        # decreases for m > 1 and increases for m < 1: F of each end bounds
        # the root from the other side or the same side, and at m = 1 F is
        # the root itself
        f_lo = xp.sqrt(t + c * _upper_ratio(m, p1, lo, xp))
        f_hi = xp.sqrt(t + c * _upper_ratio(m, p1, hi, xp))
        if m >= 1.0:
            lo, hi = maximum(lo, f_hi), minimum(hi, f_lo)
        else:
            # f is convex for m < 1, so Newton descends from the upper bound
            # without overshooting: pushed out by the bracket's width, that
            # bound is the midpoint the solve starts from
            lo, hi = maximum(lo, f_lo), minimum(hi, f_hi)
            hi = 2.0 * hi - lo
        return lo * (1.0 - 1e-9), hi * (1.0 + 1e-9)

    if one:
        t, p1 = float(t), float(p1)
        c, ec = 1.0 - t, e * (1.0 - t)
        return solve_bracketed(partial(fdf, t, c, ec, p1, math), *ends(t, p1, math, max, min))
    lo, hi = ends(t, p1, np, np.maximum, np.minimum)
    c, ec = 1.0 - t, e * (1.0 - t)
    return _solve_bracketed_rows(lambda a, r: fdf(t[r], c[r], ec[r], p1[r], np, a),
                                 lo, hi, 0.5 * (lo + hi))


def _upper_ratio(m: float, p1, alpha, xp=np):
    # R = p1^2m/alpha^(2m-2) = p1^2 (alpha/p1)^(2-2m), with log(alpha/p1) from
    # the difference alpha - p1: accurate to a few ulps both where alpha and
    # p1 are tiny and near the boundary, where both tend to 1 and R's
    # rounding would be amplified by 2m/(1 - R); xp is math or numpy
    return p1 * p1 * xp.exp((2.0 - 2.0 * m) * xp.log1p((alpha - p1) / p1))


def _is_upper(m: float, p1, v1, x):
    # the one branch test at an axis point, UPPER where m|v1| > p1|vhat|, of
    # |v1| and x = |vhat|^2 as floats or as rows; math.sqrt rounds as np.sqrt does
    return m * v1 > p1 * (math.sqrt(x) if isinstance(x, float) else np.sqrt(x))


def branch_params(domain: DomainParams, p1: float, v) -> BranchParams:
    """Classify a tangent vector at an axis point and solve the branch parameters."""
    _check_p1(p1)
    v = as_vector(v, domain.n)
    m = domain.m
    v1, x = abs(v[0]), float(_hat_sq(v))
    if x == 0.0:
        return BranchParams(u=math.inf, t=0.0, alpha=p1, branch=Branch.AXIS)
    u = m * v1 / math.sqrt(x)
    if not _is_upper(m, p1, v1, x):
        return BranchParams(u=u, t=1.0, alpha=1.0, branch=Branch.LOWER)
    t = float(branch_ratio(m, p1, u))
    return BranchParams(u=u, t=t, alpha=solve_alpha(m, t, p1), branch=Branch.UPPER)


def kobayashi_reference_sq(domain: DomainParams, p1: float, v) -> float:
    """Squared Kobayashi metric at the axis point (p1, 0, ..., 0); on Z (p1 <= 1e-150) gauge(v)^2."""
    _check_p1(p1)
    a = np.abs(as_vector(v, domain.n))
    return float(_branches_sq(domain.m, float(p1), float(a[0]), float((a[1:] ** 2).sum())))


def _branches_sq(m: float, p1, v1, x):
    # the squared metric at axis points from p1, |v1| and |vhat|^2, one pair's as floats or
    # rows': Z at p1 <= _P1_UPPER_MIN, else AXIS where vhat = 0, else UPPER or LOWER by
    # ``_is_upper``
    if isinstance(p1, float):
        branch = (3 if p1 <= _P1_UPPER_MIN else 0 if x == 0.0
                  else 1 + bool(_is_upper(m, p1, v1, x)))
        return _BRANCH_SQ[branch](m, p1, v1, x)
    branch = np.where(p1 <= _P1_UPPER_MIN, 3, (x > 0.0) * (1 + _is_upper(m, p1, v1, x)))
    k_sq = np.empty(len(p1))
    for b, branch_sq in enumerate(_BRANCH_SQ):
        rows = branch == b
        if rows.any():
            k_sq[rows] = branch_sq(m, p1[rows], v1[rows], x[rows])
    return k_sq


# The branch formulas take the rows' p1, |v1| and |vhat|^2, or one pair's as
# floats; squares are products, as numpy squares rows.


def _axis_sq(m: float, p1, v1, x):
    # the vhat = 0 limit |v1|^2/(1 - p1^2)^2
    c = 1.0 - p1 * p1
    return v1 * v1 / (c * c)


def _lower_sq(m: float, p1, v1, x):
    c = 1.0 - _power(p1, 2 * m)
    # grouped as (p1^(m-1) |v1|)^2: the branch condition caps |v1| by
    # p1 |vhat|/m, so the grouped factor stays in range even when the split
    # power would overflow for m < 1 at tiny p1
    axial = m * _power(p1, m - 1) * v1
    return axial * axial / (c * c) + x / c


def _upper_sq(m: float, p1, v1, x):
    t = branch_ratio(m, p1, m * v1 / np.sqrt(x))
    alpha = _solve_alpha(m, t, p1)
    # k = m alpha^(2m-1) |v1| / (p1 (alpha^(2m-2) - P) (m(1-t) + t)) with
    # alpha^(2m-2) divided out, R = P/alpha^(2m-2) as in the alpha equation:
    # no cancellation at the branch junction, where t and alpha both tend to
    # 1, and no underflow where P = p1^2m does
    R = _upper_ratio(m, p1, alpha)
    k = m * alpha * v1 / (p1 * (1.0 - R) * (m - (m - 1.0) * t))
    return k * k


def _z_sq(m: float, p1, v1, x):
    # on Z the squared gauge of the moved pair (|w1|, |what|), scaled by the power of two
    # ``_gauge`` takes; rows run pair by pair, on one pair's floats
    if not isinstance(x, float):
        return np.array([_z_sq(m, *pair) for pair in zip(p1.tolist(), v1.tolist(), x.tolist())])
    if max(v1 * v1, x) == math.inf:  # past the float range: the gauge is at least |w1|, sqrt(x)
        return math.inf
    e = int(_gauge_exponent(m, max(v1, math.sqrt(x))))
    k = math.ldexp(_pair_gauge(m, math.ldexp(v1, -e), math.ldexp(x, -2 * e)), e)
    return k * k


#: the squared metric on each branch, indexed as in ``_branches_sq``
_BRANCH_SQ = (_axis_sq, _lower_sq, _upper_sq, _z_sq)


def kobayashi_reference(domain: DomainParams, p1: float, v) -> float:
    """Kobayashi metric at the axis point (p1, 0, ..., 0)."""
    return math.sqrt(kobayashi_reference_sq(domain, p1, v))


def kobayashi_sq(domain: DomainParams, p, v):
    """Squared Kobayashi metric at interior points, from the moved vector's three reals.

    The branch formulas at the axis point p1_ref read w = D(p, p)v's p1_ref, |w1| and
    |what|^2; on Z (p1_ref <= 1e-150) K^2 is the squared gauge of (|w1|, |what|).
    p and v are one point and one vector, giving a float, or (N, n) arrays of
    N pairs, giving an (N,) float array. Any outside point or bad row raises
    ``DomainError`` for the whole call.
    """
    p = as_vector(p, domain.n, rows=True)
    v = as_vector(v, domain.n, rows=True)
    _same_rows(p, v)
    ref = _check_inside(domain, p)
    if p.ndim == 1:
        p1, w1, x = _moved_reals(domain, p[None], v[None], ref)
        if not math.isfinite(w1):  # D v overflows for v near the float limit
            raise DomainError("vector has non-finite entries")
        return float(_branches_sq(domain.m, p1, w1, x))
    p1, w1, x = _moved_reals(domain, p, v, ref)
    _check_finite(w1[:, None])
    return _branches_sq(domain.m, p1, w1, x)


def kobayashi(domain: DomainParams, p, v):
    """Kobayashi metric K(p, v); equals the Minkowski gauge of the moved vector on Z.

    Takes one pair (float result) or (N, n) rows of pairs ((N,) result).
    """
    k_sq = kobayashi_sq(domain, p, v)
    return math.sqrt(k_sq) if isinstance(k_sq, float) else np.sqrt(k_sq)


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
    xh = float(_hat_sq(v))
    if v1 == 0.0 or xh == 0.0:
        raise DomainError("alternate formula needs v1 != 0 and vhat != 0")
    if not _is_upper(m, p1, v1, xh):
        raise DomainError("alternate formula is defined on the u > p1 branch only")
    return float(_alt_upper(m, p1, v1, xh))


def _alt_upper(m: float, p1, v1, xh):
    # kobayashi_alt_upper from checked floats or rows: p1, |v1| and |vhat|^2;
    # disc cancels to 0 at the junction when m = 1/2, where (2m - 1)^2 = 0
    disc = np.maximum(v1 * v1 + 4.0 * (1.0 - 1.0 / m) * p1 * p1 * xh, 0.0)
    t2 = 2.0 * v1 * v1 / (v1 * v1 + 2.0 * (1.0 - 1.0 / m) * xh * p1 * p1
                          + v1 * np.sqrt(disc))
    # the gauge parameter scaled to y = |v1| x, the root of c y^2m + b y^2 = 1:
    # y stays below 1 where x runs to m/|vhat| (x^2m leaves the float range
    # there at m = 60), and c, which cancels to 0 at the junction u = p1, is
    # kept from rounding below 0 there
    b = t2 * xh / (v1 * v1)
    y = _two_term_root(np.maximum(1.0 - b * p1 * p1, 0.0), b, m)
    inner = y * y - p1 * p1 * (abs_pow(y, 2 * m) if isinstance(y, float) else y ** (2 * m))
    return np.sqrt(y * y * v1 * v1 / (t2 * inner * inner))
