"""K-curves: the indicatrix boundary in square coordinates x = |vhat|^2, y = |v1|^2.

At an axis point the unit sphere of the Kobayashi metric splits into the
straight LOWER segment and the parametric UPPER arc; they join where the
branch parameter alpha reaches 1. The square transform turns minimal-volume
ellipsoid fitting into minimal-area line fitting against these curves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainParams, _check_p1
from .errors import ConfigurationError, DomainError, NumericalError
from .kobayashi import Branch
from .numerics import abs_pow, derivative

_RANGE_SLACK = 1e-12


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
    numerically estimated third derivative there and ``d3_expected`` its
    closed-form value; the LOWER side is 0, so d3_jump is the full jump.
    """

    d2_match: float
    d3_jump: float
    d3_expected: float


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
    P = abs_pow(p1, 2 * domain.m)
    if branch == Branch.UPPER:
        return (p1, 1.0)
    if branch == Branch.LOWER:
        return (1.0, 1.0 / (1.0 - P))
    raise DomainError(f"branch must be UPPER or LOWER, got {branch!r}")


def upper_xy(m: float, p1: float, alpha: float) -> tuple[float, float]:
    """UPPER arc coordinates; x in factored form to avoid cancellation near x = 0."""
    return _upper_xy_many(m, p1, (alpha,))[0]


def _upper_xy_many(m: float, p1: float, alphas) -> list[tuple[float, float]]:
    """``upper_xy`` at each parameter, with one log per alpha.

    The four powers of alpha are exp(e * log|alpha|) through ``math``, which
    is bit-equal to ``abs_pow`` for alpha != 0; alpha = 0 goes through
    ``abs_pow`` itself. numpy's exp/log differ from libm in the last bit on a
    few percent of inputs, which moves the hull oracle's fit.
    """
    P = abs_pow(p1, 2 * m)
    e1, e2, e3, e4 = 2 * m - 2, 2 * m, 4 * m - 2, 2 * m - 1
    out = []
    for alpha in alphas:
        if alpha == 0.0:
            a1, a2, a3, a4 = (abs_pow(0.0, e) for e in (e1, e2, e3, e4))
        else:
            L = math.log(abs(alpha))
            a1, a2, a3, a4 = math.exp(e1 * L), math.exp(e2 * L), math.exp(e3 * L), math.exp(e4 * L)
        x = (a1 - P) * (a2 - P) / a3
        y = (p1 * (m * a1 - (m - 1.0) * a2 - P) / (m * a4)) ** 2
        out.append((x, y))
    return out


def lower_xy(m: float, p1: float, alpha: float) -> tuple[float, float]:
    """LOWER segment coordinates; affine in the parameter.

    1 - alpha(1-P) is evaluated as (1-alpha) + alpha P: both terms are O(P)
    on the segment, so y keeps full relative accuracy even when p1^2m is
    tiny and the segment nearly degenerates.
    """
    return _lower_xy_many(m, p1, (alpha,))[0]


def _lower_xy_many(m: float, p1: float, alphas) -> list[tuple[float, float]]:
    """``lower_xy`` at each parameter, with the p1-only factors computed once."""
    P = abs_pow(p1, 2 * m)
    scale = (1.0 - P) ** 2
    den = m * m * abs_pow(p1, 2 * m - 2)
    return [(scale * alpha, scale * ((1.0 - alpha) + alpha * P) / den) for alpha in alphas]


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
    if count < 8:
        raise DomainError("grid needs at least 8 points")
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
    P = abs_pow(p1, 2 * domain.m)
    return ((1.0 - P) ** 2, p1 * p1 * (1.0 - P) ** 2 / (domain.m * domain.m))


def third_derivative_reference(domain: DomainParams, p1: float) -> float:
    """Closed-form d3y/dx3 of the UPPER curve at the junction.

    Numerator 16 p1^(2m+2) (1-p1^2m)^2 (2m-1)^2 (m-1)/m over xdot(1)^4 with
    xdot(1) = (4m-2) p1^2m (1-p1^2m); vanishes at m = 1 (the ball) and
    degenerates at m = 1/2 where xdot(1) = 0.
    """
    m = domain.m
    if m == 0.5:
        raise ConfigurationError("third derivative at the junction degenerates at m = 1/2")
    _check_p1(p1)
    P = abs_pow(p1, 2 * m)
    numer = 16.0 * abs_pow(p1, 2 * m + 2) * (1.0 - P) ** 2 * (2 * m - 1) ** 2 * (m - 1) / m
    xdot = (4 * m - 2) * P * (1.0 - P)
    return numer / xdot ** 4


def joining_point_derivatives(domain: DomainParams, p1: float) -> JoiningPointDerivatives:
    """Numerical d2/d3 diagnostics of the UPPER curve at the junction alpha = 1.

    Parametric derivatives are taken by central differences with Richardson
    ladders, but on rescaled pieces: x(alpha) = 1 - p1^2m g1 + p1^4m g2 and
    y(alpha) = (p1^2/m^2) yhat with g1, g2, yhat of unit scale. Differencing
    the unit-scale pieces and reassembling with the exact prefactors keeps
    the d2 cancellation (zero to machine accuracy relative to the curve, not
    to the tiny xdot^3 denominator) even when p1^2m is small. First
    derivatives at alpha = 1 are exact closed forms.
    """
    m = domain.m
    if m == 0.5:
        raise ConfigurationError("junction derivatives are not defined at m = 1/2")
    _check_p1(p1)
    P = abs_pow(p1, 2 * m)

    def g1(a: float) -> float:
        return abs_pow(a, -2 * m) + abs_pow(a, 2 - 2 * m)

    def g2(a: float) -> float:
        return abs_pow(a, 2 - 4 * m)

    def yhat(a: float) -> float:
        numer = m * abs_pow(a, 2 * m - 2) - (m - 1.0) * abs_pow(a, 2 * m) - P
        return numer * numer / abs_pow(a, 4 * m - 2)

    # exact first derivatives at alpha = 1
    xd1 = (4 * m - 2) * P * (1.0 - P)
    yd1 = -(4 * m - 2) * p1 * p1 * (1.0 - P) ** 2 / (m * m)
    xd2 = float(-P * derivative(g1, 1.0, 2, h0=0.1, levels=6)
                + P * P * derivative(g2, 1.0, 2, h0=0.1, levels=6))
    yd2 = p1 * p1 / (m * m) * float(derivative(yhat, 1.0, 2, h0=0.1, levels=6))
    xd3 = float(-P * derivative(g1, 1.0, 3, h0=0.02, levels=4)
                + P * P * derivative(g2, 1.0, 3, h0=0.02, levels=4))
    yd3 = p1 * p1 / (m * m) * float(derivative(yhat, 1.0, 3, h0=0.02, levels=4))
    d2 = (xd1 * yd2 - yd1 * xd2) / xd1 ** 3
    d3 = (xd1 * yd3 - yd1 * xd3) / xd1 ** 4
    return JoiningPointDerivatives(
        d2_match=d2,
        d3_jump=d3,
        d3_expected=third_derivative_reference(domain, p1),
    )


def square_convexity_check(domain: DomainParams, p1: float, branch: Branch,
                           samples: int = 64) -> ConvexityVerdict:
    """Sign of the second divided differences of y(x) along one branch.

    Divided differences are normalized by max|y|/span^2 so the margin is a
    dimensionless curvature measure; below 1e-9 in that scale the branch is
    reported affine. A branch too short in x for any divided difference
    raises ``NumericalError``.
    """
    if samples < 8:
        raise DomainError("need at least 8 samples")
    lo, hi = kcurve_alpha_range(domain, p1, branch)
    alphas = np.linspace(lo, hi, samples)
    pts = np.array([
        (upper_xy(domain.m, p1, a) if branch == Branch.UPPER else lower_xy(domain.m, p1, a))
        for a in alphas
    ])
    pts = pts[np.argsort(pts[:, 0])]
    x, y = pts[:, 0], pts[:, 1]
    y_mag = max(float(np.max(np.abs(y))), 1e-300)
    eps = np.finfo(float).eps
    dd = []
    noise = []
    for i in range(len(x) - 2):
        x0, x1, x2 = x[i], x[i + 1], x[i + 2]
        if x2 - x0 < 1e-14:
            continue
        s1 = (y[i + 1] - y[i]) / (x1 - x0)
        s2 = (y[i + 2] - y[i + 1]) / (x2 - x1)
        dd.append((s2 - s1) / (x2 - x0))
        # roundoff bound on a second divided difference of exact data; the
        # slope term carries the rounding of the abscissae themselves
        s_loc = max(abs(s1), abs(s2))
        x_mag = max(abs(x0), abs(x2))
        noise.append(8.0 * eps * (y_mag + s_loc * x_mag)
                     / (min(x1 - x0, x2 - x1) * (x2 - x0)))
    if not dd:
        raise NumericalError(
            f"{branch.value} branch spans {x[-1] - x[0]:.1e} in x at p1={p1!r}, "
            "too little for any divided difference")
    dd = np.array(dd)
    noise = np.array(noise)
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
