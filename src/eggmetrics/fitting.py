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
from .kcurve import kcurve_alpha_grid, lower_xy, upper_xy
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


def _branch_points(domain: DomainParams, p1: float, n_upper: int, n_lower: int,
                   window: tuple[float, float] | None = None) -> np.ndarray:
    m = domain.m
    if window is None:
        au = kcurve_alpha_grid(domain, p1, Branch.UPPER, n_upper)
    else:
        au = np.linspace(window[0], window[1], n_upper)
    pts = [upper_xy(m, p1, a) for a in au]
    if n_lower:
        al = kcurve_alpha_grid(domain, p1, Branch.LOWER, n_lower)
        pts.extend(lower_xy(m, p1, a) for a in al)
    arr = np.array(pts)
    return arr[(arr[:, 0] >= -1e-14) & (arr[:, 1] >= -1e-14)]


def _upper_hull(pts: np.ndarray) -> np.ndarray:
    # monotone chain, keeping only the outward (concave-from-origin) frontier
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    chain: list[tuple[float, float]] = []
    for xp, yp in pts[order]:
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            if (x2 - x1) * (yp - y1) - (y2 - y1) * (xp - x1) >= 0.0:
                chain.pop()
            else:
                break
        chain.append((xp, yp))
    return np.array(chain)


def _enumerate_lines(pts: np.ndarray):
    """Best feasible line over the sampled hull: edge chords and vertex midpoint tangents.

    For a convex sample set in the first quadrant the minimal-area line either
    contains a hull edge or touches a hull vertex at the midpoint of its
    intercept segment; both candidate families are swept and checked for
    containment of every sample.
    """
    hull = _upper_hull(pts)
    best = None

    def consider(r1: float, r2: float, contact_x: float):
        nonlocal best
        if not (r1 > 0.0 and r2 > 0.0 and math.isfinite(r1) and math.isfinite(r2)):
            return
        violation = float(np.max(r1 * pts[:, 1] + r2 * pts[:, 0])) - 1.0
        if violation > _ORACLE_FEAS_TOL:
            return
        area = 1.0 / (r1 * r2)
        if best is None or area < best[0]:
            best = (area, r1, r2, contact_x)

    for i in range(len(hull) - 1):
        (x1, y1), (x2, y2) = hull[i], hull[i + 1]
        det = x1 * y2 - x2 * y1
        if abs(det) < 1e-300:
            continue
        consider((x1 - x2) / det, (y2 - y1) / det, 0.5 * (x1 + x2))
    for x0, y0 in hull:
        if x0 > 1e-13 and y0 > 1e-13:
            consider(0.5 / y0, 0.5 / x0, x0)
    return best


def fit_oracle(domain: DomainParams, p1: float, samples: int = 4096) -> WuEllipsoidDiag:
    """Brute-force minimal-area line from K-curve samples alone.

    Stage one sweeps candidate tangency configurations over a hull built from
    both branches; stage two re-sweeps with the UPPER grid zoomed around the
    stage-one contact abscissa, which restores the accuracy a single polygon
    pass loses to sample spacing. Derivative-free throughout.
    """
    _check_p1(p1)
    if samples < 64:
        raise DomainError("oracle needs at least 64 samples")
    n1 = max(samples // 2, 48)
    pts1 = _branch_points(domain, p1, n_upper=n1, n_lower=max(samples // 4, 24))
    stage1 = _enumerate_lines(pts1)
    if stage1 is None:
        raise ConfigurationError("oracle found no feasible line (degenerate sampling)")
    contact_x = stage1[3]
    au = kcurve_alpha_grid(domain, p1, Branch.UPPER, n1)
    xs = np.array([upper_xy(domain.m, p1, a)[0] for a in au])
    idx = int(np.argmin(np.abs(xs - contact_x)))
    lo = au[max(0, idx - 4)]
    hi = au[min(len(au) - 1, idx + 4)]
    pts2 = _branch_points(domain, p1, n_upper=max(samples - n1, 48), n_lower=0,
                          window=(lo, hi))
    refined = _enumerate_lines(np.vstack([pts1, pts2])) or stage1
    _, r1, r2, _ = refined
    return WuEllipsoidDiag(r1=r1, r2=r2)


def containment_violation(domain: DomainParams, p1: float, ellipsoid: WuEllipsoidDiag,
                          samples: int = 1024) -> float:
    """max(r1 y + r2 x - 1) over fresh samples of both K-curves; <= 0 means containment."""
    pts = _branch_points(domain, p1, n_upper=samples, n_lower=samples // 2)
    return float(np.max(ellipsoid.r1 * pts[:, 1] + ellipsoid.r2 * pts[:, 0])) - 1.0
