"""Minimal-area line fitting in square coordinates: the Wu ellipsoid at axis points.

The Wu unit ball at (p1, 0, ..., 0) is the diagonal ellipsoid r1|v1|^2 +
r2|vhat|^2 < 1 of least volume containing the Kobayashi indicatrix; in square
coordinates it is the line r1 y + r2 x = 1 of least intercept area containing
both K-curves. Closed forms cover every regime; a hull-enumeration oracle
recomputes the fit from curve samples alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .domain import DomainParams, _FIT_ORIGIN_TOL, _M0_WEIGHT, _check_p1
from .errors import ConfigurationError, DomainError
from .kobayashi import Branch
from .kcurve import _lower_xy_many, _upper_xy_many, kcurve_alpha_grid, upper_xy
from .numerics import Taylor2, _solve_bracketed_rows, abs_pow, solve_bracketed

#: feasibility slack for the oracle's candidate lines (sample-set containment)
_ORACLE_FEAS_TOL = 1e-11

#: largest log of a power the tangency solve evaluates, (2m - 1) log(1/p1^2)
#: at X = 1: the end of the float range, e^709.78
_EXP_ARG_MAX = math.log(sys.float_info.max)


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
    change means the reference point is not in the inner region. The
    one-pair case of ``_solve_X_many``.
    """
    if domain.m <= 1.0:
        raise ConfigurationError("the tangency equation applies to m > 1 only")
    if not (0.0 < s <= 1.0):
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    _check_p1(p1)
    return float(_solve_X_many(domain, [p1], [s])[0])


def _solve_X_many(domain: DomainParams, p1, s) -> np.ndarray:
    """``solve_X`` at each checked inner-region pair (p1, s); the one tangency solve.

    A row whose equation leaves the float range at X = 1 raises OverflowError.
    The first row left to solve runs the scalar ``solve_bracketed`` from the
    leading-order root tau = ((m+1)/s^2)^(1/m) of the p1 -> 0 limit; any others
    run ``_solve_bracketed_rows`` from its root scaled to each row's tau. The
    many-row callers are ``verify``'s sample sets and the regularity probes'
    paths, through the inner-region tensor form.
    """
    m = domain.m
    p1, s = np.asarray(p1, dtype=float), np.asarray(s, dtype=float)
    s2, pm = s * s, p1 * p1  # pm is p1^(2m) raised to 1/m
    w = _M0_WEIGHT * p1 ** (2 * m) - s2  # middle-stratum indicator at the reference point
    tiny = pm < 1e-300
    off = np.flatnonzero(~tiny & (w > 1e-12 * s2))
    if off.size:
        raise _no_root(p1[off[0]], s[off[0]])
    # the leading-order root where the bracket end 1/pm is not representable;
    # next to the middle stratum the root sits inside the evaluation noise of
    # the equation, and its expansion X = 1 + w/(2m-1) + O(w^2) is better
    X = np.where(tiny, ((m + 1.0) / s2) ** (1.0 / m) * pm, 1.0 + w / ((2.0 * m - 1.0) * s2))
    rows = np.flatnonzero(~tiny & (w < -1e-9 * s2))
    over = rows[(2 * m - 1) * -np.log(pm[rows]) > _EXP_ARG_MAX]
    if over.size:
        raise OverflowError(f"tangency equation overflows at p1={float(p1[over[0]])!r}, m={m!r}")
    if rows.size == 0:
        return X
    s2, pm = s2[rows], pm[rows]

    lo, hi = s2 ** (-1.0 / m), 1.0 / pm  # tau at X = (p1/s^(1/m))^2 and at X = 1
    off = rows[_tangency(m, lo, s2, pm) >= 0.0]
    if off.size:
        raise _no_root(p1[off[0]], s[off[0]])
    s2_0, pm_0 = float(s2[0]), float(pm[0])
    X[rows[0]] = X0 = pm_0 * solve_bracketed(
        lambda t: _tangency(m, t, s2_0, pm_0), float(lo[0]), float(hi[0]),
        df=lambda t: _tangency_slope(m, t, s2_0, pm_0), x0=((m + 1.0) / s2_0) ** (1.0 / m))
    if rows.size > 1:
        s2, pm = s2[1:], pm[1:]
        X[rows[1:]] = pm * _solve_bracketed_rows(
            lambda t, r: _tangency(m, t, s2[r], pm[r]),
            lambda t, r: _tangency_slope(m, t, s2[r], pm[r]),
            lo[1:], hi[1:], X0 / pm)
    return X


def _tangency(m: float, tau, s2, pm):
    # the tangency equation in tau = X/p1^2, with pm = p1^2 and s2 = s^2
    return (s2 * s2 * tau ** (2 * m - 1) - (m + 1.0) * s2 * tau ** (m - 1)
            + (m - 2.0) * s2 * pm * tau ** m + 2.0 * pm)


def _tangency_slope(m: float, tau, s2, pm):
    # d/dtau of ``_tangency``
    return ((2 * m - 1) * s2 * s2 * tau ** (2 * m - 2)
            - (m + 1.0) * (m - 1.0) * s2 * tau ** (m - 2)
            + m * (m - 2.0) * s2 * pm * tau ** (m - 1))


def _tangency_jet(domain: DomainParams, t: Taylor2, s2: Taylor2) -> Taylor2:
    # the tangency root X as a jet in (t, s2) = (p1^2, s^2): from the float
    # root as a constant jet, two Newton steps in jet arithmetic with the
    # slope frozen at the float root, each making the jet exact to one more
    # order (the implicit function theorem, order by order)
    m = domain.m
    tau = float(_solve_X_many(domain, np.sqrt([t.v]), np.sqrt([s2.v]))[0]) / t.v
    slope = _tangency_slope(m, tau, s2.v, t.v)
    tau = Taylor2(tau)
    for _ in range(2):
        tau = tau - _tangency(m, tau, s2, t) / slope
    return t * tau


def _no_root(p1: float, s: float) -> ConfigurationError:
    return ConfigurationError(
        f"no tangency root: reference point p1={float(p1)!r}, s={float(s)!r} "
        "is not in the inner region")


def fit_reference(domain: DomainParams, p1: float) -> WuEllipsoidDiag:
    """Wu ellipsoid coefficients (r1, r2) at the axis point (p1, 0, ..., 0).

    m <= 1: the chord through the two axis intercepts. m > 1 outside the
    2^(-1/2m) threshold: the LOWER line itself. m > 1 inside: the line
    tangent to the UPPER curve at the solved contact parameter. The one-row
    case of ``_fit_rows``.
    """
    _check_p1(p1)
    r1, r2 = _fit_rows(domain, np.array([float(p1)]))
    return WuEllipsoidDiag(r1=float(r1[0]), r2=float(r2[0]))


def _fit_rows(domain: DomainParams, p1: np.ndarray):
    # fit_reference's (r1, r2) at each checked axis coordinate p1 in [0, 1)
    m = domain.m
    P = p1 ** (2 * m)
    if m <= 1.0:
        return 1.0 / (1.0 - p1 * p1) ** 2, 1.0 / (1.0 - P)
    r1 = m * m * p1 ** (2 * m - 2) / (1.0 - P) ** 2
    r2 = 1.0 / (1.0 - P)
    origin = p1 < _FIT_ORIGIN_TOL
    ell = fit_origin(domain)
    r1[origin], r2[origin] = ell.r1, ell.r2
    inner = ~origin & (p1 < domain.m0_radius)
    if inner.any():
        pi = p1[inner]
        r1[inner], r2[inner] = _inner_fit(domain, pi, _solve_X_many(domain, pi, np.ones_like(pi)))
    return r1, r2


def _inner_fit(domain: DomainParams, p1, X):
    # inner-region line tangent to the UPPER curve at the contact parameter
    # sqrt(X): (r1, r2) for floats or rows
    m = domain.m
    P = p1 ** (2 * m)
    F = m * X ** (m - 1) - (m - 1.0) * X ** m - P
    return (m * m * X ** (2 * m - 1) / (2.0 * p1 * p1 * F * F),
            X ** (2 * m - 1) / (2.0 * P * F))


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


def _lower_points(domain: DomainParams, p1: float, count: int) -> np.ndarray:
    al = kcurve_alpha_grid(domain, p1, Branch.LOWER, count)
    return _lower_xy_many(domain.m, p1, al)


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
    upper = _upper_xy_many(domain.m, p1, au)
    pts1 = _first_quadrant(upper, _lower_points(domain, p1, max(samples // 4, 24)))
    stage1 = _enumerate_lines(pts1)
    if stage1 is None:
        raise ConfigurationError("oracle found no feasible line (degenerate sampling)")
    contact_x = stage1[3]
    idx = int(np.argmin(np.abs(upper[:, 0] - contact_x)))
    lo = au[max(0, idx - 4)]
    hi = au[min(len(au) - 1, idx + 4)]
    pts2 = _first_quadrant(_upper_xy_many(domain.m, p1, np.linspace(lo, hi, max(samples - n1, 48))))
    refined = _enumerate_lines(np.vstack([pts1, pts2])) or stage1
    _, r1, r2, _ = refined
    return WuEllipsoidDiag(r1=r1, r2=r2)


def containment_violation(domain: DomainParams, p1: float, ellipsoid: WuEllipsoidDiag,
                          samples: int = 1024) -> float:
    """max(r1 y + r2 x - 1) over fresh samples of both K-curves; <= 0 means containment."""
    au = kcurve_alpha_grid(domain, p1, Branch.UPPER, samples)
    pts = _first_quadrant(_upper_xy_many(domain.m, p1, au), _lower_points(domain, p1, samples // 2))
    return float(np.max(ellipsoid.r1 * pts[:, 1] + ellipsoid.r2 * pts[:, 0])) - 1.0
