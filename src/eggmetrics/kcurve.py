"""K-curves: the indicatrix boundary in square coordinates x = |vhat|^2, y = |v1|^2.

At an axis point the unit sphere of the Kobayashi metric splits into the
straight LOWER segment and the parametric UPPER arc; they join where the
branch parameter alpha reaches 1. The square transform turns minimal-volume
ellipsoid fitting into minimal-area line fitting against these curves.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .domain import DomainParams, _check_p1
from .errors import ConfigurationError, DomainError, NumericalError
from .kobayashi import Branch
from .numerics import _check_integer, abs_pow

_RANGE_SLACK = 1e-12
#: equally spaced parameters per branch in ``square_convexity_check``
_CONVEXITY_SAMPLES = 64


@dataclass(frozen=True)
class KCurveSample:
    alpha: float
    x: float
    y: float
    branch: Branch


@dataclass(frozen=True)
class JoiningPointDerivatives:
    """Second/third derivative diagnostics of y(x) where the two K-curves meet.

    ``d2_match`` is the UPPER curve's d2y/dx2 at the junction (the LOWER line
    contributes exactly 0, so this is the mismatch). ``d3_jump`` is the
    third derivative there, exact from the parametric pieces, and
    ``d3_expected`` its independent hand-derived closed form; the LOWER side
    is 0, so d3_jump is the full jump. ``d2_terms`` is the size of the two
    terms whose difference is d2_match, |xd1 yd2| + |yd1 xd2| over |xd1|^3:
    rounding leaves d2_match a few ulp of it. ``d3_terms`` is d3's analogue,
    |xd1| |yd3| + |yd1| |xd3| over xd1^4, |xd3| and |yd3| the sums of their
    pieces' magnitudes (which bound the cancellation in them as p1 -> 1):
    d3_jump lies a few ulp of it from its exact value at the computed p1^2m.
    """

    d2_match: float
    d3_jump: float
    d3_expected: float
    d2_terms: float
    d3_terms: float


class Convexity(enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"
    AFFINE = "affine"
    MIXED = "mixed"


@dataclass(frozen=True)
class ConvexityVerdict:
    verdict: Convexity
    margin: float


def kcurve_alpha_range(domain: DomainParams, p1: float, branch: Branch) -> tuple[float, float]:
    """Parameter interval of a branch: UPPER is [p1, 1], LOWER is [1, 1/(1-p1^2m)]."""
    _check_p1(p1)
    if branch == Branch.UPPER:
        return (p1, 1.0)
    if branch == Branch.LOWER:
        return (1.0, 1.0 / _x_intercept(domain.m, p1))
    raise DomainError(f"branch must be UPPER or LOWER, got {branch!r}")


def _x_intercept(m: float, p1: float) -> float:
    # the LOWER segment's x-intercept 1 - p1^2m, to full accuracy as p1 -> 1
    return -math.expm1(2.0 * m * math.log(p1))


def upper_xy(m: float, p1: float, alpha: float) -> tuple[float, float]:
    """UPPER arc coordinates, in the bounded form of ``_upper_xy_many``."""
    return tuple(_upper_xy_many(m, p1, (alpha,))[0].tolist())


def _upper_xy_many(m: float, p1: float, alphas) -> np.ndarray:
    """``upper_xy`` at each parameter as rows (..., 2): ``_upper_tangents``' (x, y)."""
    return np.stack(_upper_tangents(m, p1, alphas, xy=True), axis=-1)


def _upper_tangents(m: float, p1: float, alphas, xy: bool = False):
    """The UPPER arc in bounded form at each parameter, as columns (x, y, x', y', l, l').

    With t = (p1/alpha)^2m in [p1^2m, 1] on the arc alpha in [p1, 1], C = (1 - alpha^2) +
    alpha^2 (1 - t)/m and K = m (1 - alpha^2) + (2m-1) alpha^2 (1 - t): x = (1 - t alpha^2)
    (1 - t), y = (p1/alpha)^2 C^2, and in u = log alpha x' = 2 t K, y' = -2 (p1/alpha)^2 C K/m,
    l = log lambda of the tangent direction lambda = -y'/x' = (alpha/p1)^(2m-2) C/m and
    l' = (2m-2) (1 - alpha^2)/C. Powers are exps of nonpositive exponents, differences from
    1 go through expm1 and no term cancels for m >= 1/2: each column keeps its relative
    accuracy at m = 60 and small p1 and as p1 -> 1. With ``xy`` only (x, y).
    """
    a = np.asarray(alphas, dtype=float)
    la = np.log(a)
    with np.errstate(divide="ignore"):  # p1/alpha under eps/2: log t = -inf, t = 0
        q = 2.0 * m * np.log1p((p1 - a) / a)  # log t, to full relative accuracy near alpha = p1
    one_t, one_a, r = -np.expm1(q), -np.expm1(2.0 * la), p1 / a
    c = one_a + a * a * one_t / m
    x, y = one_t * -np.expm1(q + 2.0 * la), (r * c) ** 2
    if xy:
        return x, y
    k = m * one_a + (2.0 * m - 1.0) * a * a * one_t
    # t as r^2m for x': exp(q) loses t's relative accuracy far from alpha = p1
    return (x, y, 2.0 * r ** (2.0 * m) * k, -2.0 / m * r * r * c * k,
            np.log(c / m) - (2.0 * m - 2.0) * np.log(r), (2.0 * m - 2.0) * one_a / c)


def lower_xy(m: float, p1: float, alpha: float) -> tuple[float, float]:
    """LOWER segment coordinates; affine in the parameter.

    1 - alpha(1-P) is evaluated as (1-alpha) + alpha P: both terms are O(P)
    on the segment, so y keeps full relative accuracy as p1^2m -> 0, until
    m^2 p1^(2m-2) underflows and the range collapses to {1} (``NumericalError``).
    """
    return tuple(_lower_xy_many(m, p1, (alpha,))[0].tolist())


def _lower_xy_many(m: float, p1: float, alphas) -> np.ndarray:
    """``lower_xy`` at each parameter as (N, 2) rows, with the p1-only factors computed once."""
    P = abs_pow(p1, 2 * m)
    scale = (1.0 - P) ** 2
    den = m * m * abs_pow(p1, 2 * m - 2)
    if den == 0.0:
        raise NumericalError(f"LOWER range [1, 1/(1 - p1^2m)] has collapsed to {{1}} at p1={p1!r}")
    a = np.asarray(alphas, dtype=float)
    return np.stack([scale * a, scale * ((1.0 - a) + a * P) / den], axis=1)


def kcurve_sample(domain: DomainParams, p1: float, branch: Branch, alpha: float) -> KCurveSample:
    """One point of the chosen K-curve branch; the sample satisfies K^2 = 1.

    ``alpha`` must lie in ``kcurve_alpha_range``; the UPPER interval is
    restricted to [p1, 1], where both square coordinates are nonnegative and
    the reconstructed vector lies on the indicatrix boundary.
    """
    lo, hi = kcurve_alpha_range(domain, p1, branch)
    if not (lo - _RANGE_SLACK <= alpha <= hi + _RANGE_SLACK):
        raise DomainError(f"alpha={alpha!r} outside branch range [{lo}, {hi}]")
    alpha = min(max(alpha, lo), hi)
    if branch == Branch.UPPER:
        x, y = upper_xy(domain.m, p1, alpha)
    else:
        x, y = lower_xy(domain.m, p1, alpha)
    return KCurveSample(alpha=alpha, x=max(x, 0.0), y=max(y, 0.0), branch=branch)


def kcurve_alpha_grid(domain: DomainParams, p1: float, branch: Branch, count: int) -> np.ndarray:
    """Sorted parameter grid: uniform core with geometric refinement at both endpoints."""
    count = _check_integer(count, "grid count", 8)
    lo, hi = kcurve_alpha_range(domain, p1, branch)
    span = hi - lo
    n_tail = max(count // 4, 4)
    n_core = max(count - 2 * n_tail, 2)
    tail = span * 0.25 * 0.5 ** np.arange(n_tail)
    grid = np.concatenate([
        [lo, hi],
        lo + tail,
        hi - tail,
        np.linspace(lo, hi, n_core),
    ])
    return np.unique(np.clip(grid, lo, hi))


def joining_point(domain: DomainParams, p1: float) -> tuple[float, float]:
    """Square coordinates where the LOWER and UPPER curves meet (alpha = 1 on both)."""
    _check_p1(p1)
    x = _x_intercept(domain.m, p1) ** 2
    return (x, p1 * p1 * x / (domain.m * domain.m))


def third_derivative_reference(domain: DomainParams, p1: float) -> float:
    """Closed-form d3y/dx3 of the UPPER curve at the junction.

    Numerator 16 p1^(2m+2) (1-p1^2m)^2 (2m-1)^2 (m-1)/m over xdot(1)^4 with
    xdot(1) = (4m-2) p1^2m (1-p1^2m); vanishes at m = 1 (the ball) and
    degenerates at m = 1/2 where xdot(1) = 0; ``NumericalError`` past the float range.
    """
    m = domain.m
    if m == 0.5:
        raise ConfigurationError("third derivative at the junction degenerates at m = 1/2")
    _check_p1(p1)
    one_p = _x_intercept(m, p1)  # 1 - p1^2m without cancellation near p1 = 1
    numer = 16.0 * abs_pow(p1, 2 * m + 2) * one_p ** 2 * (2 * m - 1) ** 2 * (m - 1) / m
    xdot = (4 * m - 2) * abs_pow(p1, 2 * m) * one_p
    return _junction_quotient(numer, xdot ** 4, p1)


def _junction_quotient(numer: float, denom: float, p1: float) -> float:
    # a junction derivative numer/denom; denom, a power of xdot(1), underflows once p1^2m is
    # small, and below the normal floats the quotient has lost its digits or is inf
    if abs(denom) < sys.float_info.min or not math.isfinite(numer / denom):
        raise NumericalError(f"junction derivatives leave the float range at p1={p1!r}")
    return numer / denom


def _derivative_at_one(terms, k: int, size: bool = False) -> float:
    # k-th derivative at alpha = 1 of the sum of c * alpha^e over (c, e) in terms, each
    # power giving c e (e-1) ... (e-k+1); with ``size`` the sum of their magnitudes
    total = 0.0
    for c, e in terms:
        for j in range(k):
            c *= e - j
        total += abs(c) if size else c
    return total


def joining_point_derivatives(domain: DomainParams, p1: float) -> JoiningPointDerivatives:
    """Exact d2/d3 diagnostics of the UPPER curve at the junction alpha = 1.

    The curve is reassembled from rescaled pieces: x(alpha) = 1 - p1^2m g1 +
    p1^4m g2 and y(alpha) = (p1^2/m^2) yhat, with g1 = alpha^(-2m) +
    alpha^(2-2m), g2 = alpha^(2-4m) and yhat = (m/alpha - (m-1) alpha -
    p1^2m alpha^(1-2m))^2 expanded into six powers of alpha. Each piece is a
    finite sum of powers, so its parametric derivatives at alpha = 1 are exact
    sums of falling factorials. Reassembling the unit-scale pieces with the
    exact prefactors keeps the d2 cancellation (zero to machine accuracy
    relative to the curve, not to the tiny xdot^3 denominator) even when
    p1^2m is small. First derivatives at alpha = 1 are exact closed forms.
    ``NumericalError`` where a quotient leaves the float range.
    """
    m = domain.m
    if m == 0.5:
        raise ConfigurationError("junction derivatives are not defined at m = 1/2")
    _check_p1(p1)
    P = abs_pow(p1, 2 * m)
    g1 = ((1.0, -2 * m), (1.0, 2 - 2 * m))
    g2 = ((1.0, 2 - 4 * m),)
    yhat = ((m * m, -2.0), ((m - 1.0) ** 2, 2.0), (P * P, 2 - 4 * m),
            (-2 * m * (m - 1.0), 0.0), (-2 * m * P, -2 * m), (2 * (m - 1.0) * P, 2 - 2 * m))

    # exact first derivatives at alpha = 1
    xd1 = (4 * m - 2) * P * (1.0 - P)
    yd1 = -(4 * m - 2) * p1 * p1 * (1.0 - P) ** 2 / (m * m)
    xd2, xd3 = (-P * _derivative_at_one(g1, k) + P * P * _derivative_at_one(g2, k)
                for k in (2, 3))
    yd2, yd3 = (p1 * p1 / (m * m) * _derivative_at_one(yhat, k) for k in (2, 3))
    xd3_size = P * _derivative_at_one(g1, 3, True) + P * P * _derivative_at_one(g2, 3, True)
    yd3_size = p1 * p1 / (m * m) * _derivative_at_one(yhat, 3, True)
    cube, fourth = xd1 ** 3, xd1 ** 4
    return JoiningPointDerivatives(
        d2_match=_junction_quotient(xd1 * yd2 - yd1 * xd2, cube, p1),
        d3_jump=_junction_quotient(xd1 * yd3 - yd1 * xd3, fourth, p1),
        d3_expected=third_derivative_reference(domain, p1),
        d2_terms=_junction_quotient(abs(xd1 * yd2) + abs(yd1 * xd2), abs(cube), p1),
        d3_terms=_junction_quotient(abs(xd1) * yd3_size + abs(yd1) * xd3_size, fourth, p1),
    )


def square_convexity_check(domain: DomainParams, p1: float, branch: Branch) -> ConvexityVerdict:
    """Sign of the second divided differences of y(x) at 64 parameters along one branch.

    Divided differences are normalized by max|y|/span^2 so the margin is a
    dimensionless curvature measure; below 1e-9 in that scale the branch is
    reported affine. A branch too short in x for any divided difference
    raises ``NumericalError``.
    """
    lo, hi = kcurve_alpha_range(domain, p1, branch)
    xy_many = _upper_xy_many if branch == Branch.UPPER else _lower_xy_many
    pts = xy_many(domain.m, p1, np.linspace(lo, hi, _CONVEXITY_SAMPLES))
    pts = pts[np.argsort(pts[:, 0])]
    x, y = pts[:, 0], pts[:, 1]
    y_mag = max(float(np.max(np.abs(y))), 1e-300)
    eps = np.finfo(float).eps
    # every triple of neighbours wider than 1e-14 whose halves both have width
    x0, x1, x2 = x[:-2], x[1:-1], x[2:]
    keep = (x2 - x0 >= 1e-14) & (x1 > x0) & (x2 > x1)
    x0, x1, x2, y0, y1, y2 = (a[keep] for a in (x0, x1, x2, y[:-2], y[1:-1], y[2:]))
    if not x0.size:
        raise NumericalError(
            f"{branch.value} branch spans {x[-1] - x[0]:.1e} in x at p1={p1!r}, "
            "too little for any divided difference")
    s1 = (y1 - y0) / (x1 - x0)
    s2 = (y2 - y1) / (x2 - x1)
    dd = (s2 - s1) / (x2 - x0)
    # roundoff bound on a second divided difference of exact data; the slope
    # term carries the rounding of the abscissae themselves
    s_loc = np.maximum(np.abs(s1), np.abs(s2))
    x_mag = np.maximum(np.abs(x0), np.abs(x2))
    noise = (8.0 * eps * (y_mag + s_loc * x_mag)
             / (np.minimum(x1 - x0, x2 - x1) * (x2 - x0)))
    scale = y_mag / (x[-1] - x[0]) ** 2
    significant = np.abs(dd) > np.maximum(10.0 * noise, 1e-9 * scale)
    if not np.any(significant):
        return ConvexityVerdict(Convexity.AFFINE, float(np.max(np.abs(dd))) / scale)
    sig = dd[significant]
    if np.all(sig > 0):
        return ConvexityVerdict(Convexity.CONVEX, float(np.min(sig)) / scale)
    if np.all(sig < 0):
        return ConvexityVerdict(Convexity.CONCAVE, float(np.min(-sig)) / scale)
    return ConvexityVerdict(Convexity.MIXED, 0.0)
