"""Minimal-area line fitting in square coordinates: the Wu ellipsoid at axis points.

The Wu unit ball at (p1, 0, ..., 0) is the diagonal ellipsoid r1|v1|^2 +
r2|vhat|^2 < 1 of least volume containing the Kobayashi indicatrix; in square
coordinates it is the line r1 y + r2 x = 1 of least intercept area containing
both K-curves. Closed forms cover every regime; a hull-enumeration oracle
recomputes the fit from curve samples alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainParams, _check_p1
from .errors import ConfigurationError, DomainError
from .kobayashi import Branch
from .kcurve import _upper_xy_many, kcurve_alpha_grid, lower_xy, upper_xy
from .numerics import abs_pow, solve_bracketed

#: feasibility slack for the oracle's candidate lines (sample-set containment)
_ORACLE_FEAS_TOL = 1e-11


@dataclass(frozen=True)
class WuEllipsoidDiag:
    """Diagonal ellipsoid coefficients in a reference tangent space."""

    r1: float
    r2: float


@dataclass(frozen=True)
class ContactPoint:
    """Tangency of the Wu line with the UPPER K-curve (inner-region fits only)."""

    x_star: float
    y_star: float
    alpha_star: float


def solve_X(domain: DomainParams, p1: float, s: float = 1.0) -> float:
    """Square of the tangency parameter on the UPPER curve, for inner-region points.

    Solves s^4 X^(2m-1) - (m+1) p1^2m s^2 X^(m-1) + (m-2) p1^2m s^2 X^m
    + 2 p1^4m = 0 for the geometric root. The equation is solved in the
    rescaled variable tau = X/p1^2, whose coefficients stay O(1) as p1 -> 0,
    so the root keeps full relative accuracy near the Z stratum. The root is
    the unique one in (ref^2, 1] where ref = p1/s^(1/m); a missing sign
    change means the reference point is not in the inner region.
    """
    m = domain.m
    if m <= 1.0:
        raise ConfigurationError("the tangency equation applies to m > 1 only")
    if not (0.0 < s <= 1.0):
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    _check_p1(p1)
    s2 = s * s
    pm = p1 * p1  # p1^(2m) raised to 1/m
    if pm < 1e-300:
        # leading-order root; below this the rescaled bracket endpoint 1/pm
        # is not representable
        return abs_pow((m + 1.0) / s2, 1.0 / m) * pm
    P = abs_pow(p1, 2 * m)
    w = 2.0 * P - s2  # middle-stratum indicator at the reference point
    if w > 1e-12 * s2:
        raise ConfigurationError(
            f"no tangency root: reference point p1={p1!r}, s={s!r} is not in the inner region")
    if w >= -1e-9 * s2:
        # hugging the middle stratum: X = 1 + w/(2m-1) + O(w^2), and this
        # close the root sits inside the evaluation-noise band of the
        # rescaled equation, so the expansion beats the solver
        return 1.0 + w / ((2.0 * m - 1.0) * s2)

    def g(tau: float) -> float:
        return (s2 * s2 * abs_pow(tau, 2 * m - 1) - (m + 1.0) * s2 * abs_pow(tau, m - 1)
                + (m - 2.0) * s2 * pm * abs_pow(tau, m) + 2.0 * pm)

    def dg(tau: float) -> float:
        return ((2 * m - 1) * s2 * s2 * abs_pow(tau, 2 * m - 2)
                - (m + 1.0) * (m - 1.0) * s2 * abs_pow(tau, m - 2)
                + m * (m - 2.0) * s2 * pm * abs_pow(tau, m - 1))

    lo = abs_pow(s2, -1.0 / m)   # tau at X = (p1/s^(1/m))^2
    hi = 1.0 / pm                # tau at X = 1
    if g(hi) <= 0.0:
        return 1.0  # threshold roundoff: the root collapsed onto X = 1
    if g(lo) >= 0.0:
        raise ConfigurationError(
            f"no tangency root: reference point p1={p1!r}, s={s!r} is not in the inner region")
    tau = solve_bracketed(g, lo, hi, df=dg)
    return tau * pm


def fit_reference(domain: DomainParams, p1: float) -> WuEllipsoidDiag:
    """Wu ellipsoid coefficients (r1, r2) at the axis point (p1, 0, ..., 0).

    m <= 1: the chord through the two axis intercepts. m > 1 outside the
    2^(-1/2m) threshold: the LOWER line itself. m > 1 inside: the line
    tangent to the UPPER curve at the solved contact parameter.
    """
    _check_p1(p1)
    m = domain.m
    P = abs_pow(p1, 2 * m)
    if m <= 1.0:
        return WuEllipsoidDiag(r1=1.0 / (1.0 - p1 * p1) ** 2, r2=1.0 / (1.0 - P))
    if p1 >= domain.m0_radius:
        return WuEllipsoidDiag(r1=m * m * abs_pow(p1, 2 * m - 2) / (1.0 - P) ** 2,
                               r2=1.0 / (1.0 - P))
    if p1 < 1e-12:
        return fit_origin(domain)  # deviation from the limit is O(p1^2)
    X = solve_X(domain, p1)
    F = m * abs_pow(X, m - 1) - (m - 1.0) * abs_pow(X, m) - P
    return WuEllipsoidDiag(r1=m * m * abs_pow(X, 2 * m - 1) / (2.0 * p1 * p1 * F * F),
                           r2=abs_pow(X, 2 * m - 1) / (2.0 * P * F))


def fit_origin(domain: DomainParams) -> WuEllipsoidDiag:
    """Limit of the fit as p1 -> 0 (the value on the Z stratum)."""
    m = domain.m
    if m <= 1.0:
        return WuEllipsoidDiag(1.0, 1.0)
    return WuEllipsoidDiag(r1=abs_pow(m + 1.0, 1.0 / m) / 2.0, r2=(m + 1.0) / (2.0 * m))


def contact_point(domain: DomainParams, p1: float) -> ContactPoint:
    """Unique tangency of the Wu line with the UPPER curve (m > 1, inner region)."""
    if domain.m <= 1.0:
        raise ConfigurationError("for m <= 1 the fitted chord touches only the intercepts")
    _check_p1(p1)
    if p1 >= domain.m0_radius:
        raise ConfigurationError(
            f"p1={p1!r} is not inside the inner region (threshold {domain.m0_radius})")
    alpha_star = math.sqrt(solve_X(domain, p1))
    x_star, y_star = upper_xy(domain.m, p1, alpha_star)
    return ContactPoint(x_star=x_star, y_star=y_star, alpha_star=alpha_star)


def _upper_points(domain: DomainParams, p1: float, alphas) -> np.ndarray:
    return np.array(_upper_xy_many(domain.m, p1, alphas))


def _lower_points(domain: DomainParams, p1: float, count: int) -> np.ndarray:
    al = kcurve_alpha_grid(domain, p1, Branch.LOWER, count)
    return np.array([lower_xy(domain.m, p1, a) for a in al])


def _first_quadrant(*parts: np.ndarray) -> np.ndarray:
    arr = np.vstack(parts)
    return arr[(arr[:, 0] >= -1e-14) & (arr[:, 1] >= -1e-14)]


def _upper_hull(pts: np.ndarray) -> np.ndarray:
    # monotone chain, keeping only the outward (concave-from-origin) frontier
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    chain: list[tuple[float, float]] = []
    for xp, yp in pts[order].tolist():
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            if (x2 - x1) * (yp - y1) - (y2 - y1) * (xp - x1) >= 0.0:
                chain.pop()
            else:
                break
        chain.append((xp, yp))
    return np.array(chain).reshape(-1, 2)


def _enumerate_lines(pts: np.ndarray):
    """Best feasible line over the sampled hull: edge chords and vertex midpoint tangents.

    For a convex sample set in the first quadrant the minimal-area line either
    contains a hull edge or touches a hull vertex at the midpoint of its
    intercept segment; both candidate families are built at once. The hull is
    concave with x increasing, so r1 y + r2 x peaks over it where the edge
    slope first drops below -r2/r1; a bisection of the slopes finds that
    vertex, and a candidate survives when it holds at the vertex and its two
    neighbours. Hull vertices are samples, so this bound never exceeds the
    maximum over all samples and no line that contains every sample is
    dropped. Survivors are visited by area (ties in candidate order), and the
    first one whose maximum over every sample passes the containment
    tolerance is returned: the least-area line among those containing all
    samples, as an exhaustive check of each candidate would pick.
    """
    hull = _upper_hull(pts)
    hx, hy = hull[:, 0], hull[:, 1]
    x1, y1, x2, y2 = hx[:-1], hy[:-1], hx[1:], hy[1:]
    det = x1 * y2 - x2 * y1
    chord = np.abs(det) >= 1e-300
    x1, y1, x2, y2, det = x1[chord], y1[chord], x2[chord], y2[chord], det[chord]
    vertex = (hx > 1e-13) & (hy > 1e-13)
    r1 = np.concatenate([(x1 - x2) / det, 0.5 / hy[vertex]])
    r2 = np.concatenate([(y2 - y1) / det, 0.5 / hx[vertex]])
    contact_x = np.concatenate([0.5 * (x1 + x2), hx[vertex]])
    valid = np.flatnonzero((r1 > 0.0) & (r2 > 0.0) & np.isfinite(r1) & np.isfinite(r2))
    s1, s2 = r1[valid], r2[valid]
    # -slope of each hull edge, increasing along the hull; a vertical edge can
    # only be the first one (duplicate x, rising) and counts as -inf
    dx = np.diff(hx)
    neg_slope = np.full(len(dx), -np.inf)
    np.divide(-np.diff(hy), dx, out=neg_slope, where=dx > 0.0)
    peak = np.searchsorted(neg_slope, s2 / s1)
    bound = np.full(len(valid), -np.inf)
    for j in (peak - 1, peak, peak + 1):
        j = np.clip(j, 0, len(hull) - 1)
        bound = np.maximum(bound, s1 * hy[j] + s2 * hx[j])
    kept = valid[bound - 1.0 <= _ORACLE_FEAS_TOL]
    area = 1.0 / (r1[kept] * r2[kept])
    for i in np.argsort(area, kind="stable"):
        c = kept[i]
        violation = float(np.max(r1[c] * pts[:, 1] + r2[c] * pts[:, 0])) - 1.0
        if violation <= _ORACLE_FEAS_TOL:
            return (area[i], r1[c], r2[c], contact_x[c])
    return None


def fit_oracle(domain: DomainParams, p1: float, samples: int = 4096) -> WuEllipsoidDiag:
    """Brute-force minimal-area line from K-curve samples alone.

    Stage one sweeps candidate tangency configurations over a hull built from
    both branches; stage two re-sweeps with the UPPER grid zoomed around the
    stage-one contact abscissa, which restores the accuracy a single polygon
    pass loses to sample spacing. Derivative-free throughout. Each sweep
    prunes its candidates against the hull, but the line it returns is still
    checked against every sample of that stage.
    """
    _check_p1(p1)
    if samples < 64:
        raise DomainError("oracle needs at least 64 samples")
    n1 = max(samples // 2, 48)
    au = kcurve_alpha_grid(domain, p1, Branch.UPPER, n1)
    upper = _upper_points(domain, p1, au)
    pts1 = _first_quadrant(upper, _lower_points(domain, p1, max(samples // 4, 24)))
    stage1 = _enumerate_lines(pts1)
    if stage1 is None:
        raise ConfigurationError("oracle found no feasible line (degenerate sampling)")
    contact_x = stage1[3]
    idx = int(np.argmin(np.abs(upper[:, 0] - contact_x)))
    lo = au[max(0, idx - 4)]
    hi = au[min(len(au) - 1, idx + 4)]
    pts2 = _first_quadrant(_upper_points(domain, p1, np.linspace(lo, hi, max(samples - n1, 48))))
    refined = _enumerate_lines(np.vstack([pts1, pts2])) or stage1
    _, r1, r2, _ = refined
    return WuEllipsoidDiag(r1=r1, r2=r2)


def containment_violation(domain: DomainParams, p1: float, ellipsoid: WuEllipsoidDiag,
                          samples: int = 1024) -> float:
    """max(r1 y + r2 x - 1) over fresh samples of both K-curves; <= 0 means containment."""
    au = kcurve_alpha_grid(domain, p1, Branch.UPPER, samples)
    pts = _first_quadrant(_upper_points(domain, p1, au), _lower_points(domain, p1, samples // 2))
    return float(np.max(ellipsoid.r1 * pts[:, 1] + ellipsoid.r2 * pts[:, 0])) - 1.0
