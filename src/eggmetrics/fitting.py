"""Minimal-area line fitting in square coordinates: the Wu ellipsoid at axis points.

The Wu unit ball at (p1, 0, ..., 0) is the diagonal ellipsoid r1|v1|^2 +
r2|vhat|^2 < 1 of least volume containing the Kobayashi indicatrix; in square
coordinates it is the line r1 y + r2 x = 1 of least intercept area containing
both K-curves. Closed forms cover every regime; a hull-enumeration oracle
recomputes the fit from curve samples alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainParams, _FIT_ORIGIN_TOL, _M0_WEIGHT, _check_p1
from .errors import ConfigurationError, DomainError, NumericalError
from .kobayashi import Branch
from .kcurve import _lower_xy_many, _upper_xy_many, kcurve_alpha_grid, upper_xy
from .numerics import Taylor2, _power, _solve_bracketed_rows, abs_pow, solve_bracketed

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


def solve_X(domain: DomainParams, p1: float) -> float:
    """Square of the tangency parameter on the UPPER curve, for inner-region points.

    X is the geometric root of X^(2m-1) - (m+1) p1^2m X^(m-1) + (m-2) p1^2m
    X^m + 2 p1^4m = 0, the unique one in (p1^2, 1]; a point off the inner
    region has none. It is solved as tau = X/p1^2 in the bounded form
    ``_tangency``, the equation divided by p1^(4m-2) tau^(m-1), whose terms
    stay O(m) on its bracket: no power leaves the float range at any m or
    p1, and the root keeps full relative accuracy as p1 -> 0, where it
    tends to tau0 = (m+1)^(1/m). Off the axis, at a point whose reference
    coordinate is p1/s^(1/m), the equation multiplies its s-free terms by
    s^4 and the others by s^2, and dividing by s^4 gives the same root:
    X(p1, s) = X(p1/s^(1/m), 1). The one-point case of ``_solve_X_many``.
    """
    if domain.m <= 1.0:
        raise ConfigurationError("the tangency equation applies to m > 1 only")
    _check_p1(p1)
    p1 = float(p1)
    return p1 * p1 * _solve_tau(domain.m, p1)


def _solve_X_many(domain: DomainParams, p1) -> np.ndarray:
    """``solve_X`` at each checked inner-region axis coordinate p1: p1^2 times ``_solve_tau``.

    A row off the inner region raises ConfigurationError, and rows next to
    the middle stratum take a closed form. Every other row is solved on the
    certified bracket of ``_ends``, from its closed-form start, in a few
    Newton steps. One row, and the first solved row of several, run on
    floats through ``math`` and the scalar ``solve_bracketed``, so a single
    row costs about its scalar solve; the others run
    ``_solve_bracketed_rows``. p1^2m stays numpy's for one row too (libm's
    pow rounds apart from numpy's on a few percent of inputs), so a pair is
    classified and solved bit for bit as the first of several rows. The
    many-row callers are ``verify``'s sample sets and the regularity
    probes' paths, through the fit.
    """
    p1 = np.asarray(p1, dtype=float)
    return p1 * p1 * _solve_tau(domain.m, p1)


def _solve_tau(m: float, p1):
    # the tangency root tau = X/p1^2 of ``_solve_X_many``, of rows or of one
    # p1 as a float
    if np.ndim(p1) == 0:  # one point, on floats
        x = float(p1)
        w, solved = _strata(x, float(np.power(x, 2 * m)))
        return _solve_pair(m, x * x) if solved else _near_m0(m, x * x, w)
    w, solved = _strata(p1, np.power(p1, 2 * m))
    tau = np.empty_like(p1)
    tau[~solved] = _near_m0(m, p1[~solved] * p1[~solved], w[~solved])
    rows = np.flatnonzero(solved)
    if rows.size:  # the first solved row on floats, bit for bit as that pair alone
        tau[rows[0]] = _solve_pair(m, float(p1[rows[0]] * p1[rows[0]]))
    if rows.size > 1:
        rows = rows[1:]
        pm = p1[rows] * p1[rows]
        tau[rows] = _solve_bracketed_rows(
            lambda t, r: _tangency(m, t, pm[r]), lambda t, r: _tangency_slope(m, t, pm[r]),
            *_ends(m, pm, np.maximum))
    return tau


def _solve_pair(m: float, pm: float) -> float:
    # tau of one solved row on floats, with pm = p1^2
    lo, hi, x0 = _ends(m, pm, max)
    return solve_bracketed(lambda t: _tangency(m, t, pm), lo, hi,
                           df=lambda t: _tangency_slope(m, t, pm), x0=x0)


def _strata(p1, P):
    # w = 2 p1^2m - 1 (the middle-stratum indicator) and whether the row is
    # solved, i.e. not next to the middle stratum, for one row's floats or
    # for rows; raises at the first row that w puts off the inner region
    w = _M0_WEIGHT * P - 1.0
    off = w > 1e-12
    if off.any() if isinstance(off, np.ndarray) else off:
        bad = float(np.ravel(p1)[np.argmax(off)])
        raise ConfigurationError(
            f"no tangency root: axis coordinate p1={bad!r} is not in the inner region")
    return w, w < -1e-9


def _near_m0(m: float, pm, w):
    # tau next to the middle stratum, where the root sits inside the equation's
    # evaluation noise at the upper bracket end: X = 1 + w/(2m-1) + O(w^2), over pm
    return (1.0 + w / (2.0 * m - 1.0)) / pm


def _ends(m: float, pm, maximum):
    # lower end, upper end and start in tau of solved rows with pm = p1^2, for
    # one row's floats (maximum = max) or rows (np.maximum). The bracket
    # [1, min(1/pm, tau0 (1 + 1e-12))] is certified for every m > 1:
    # h(1) = -m (1 - pm) < 0 and h(tau0) = pm tau0 m (m-1)/(m+1) >= 0. Inside
    # M0 the root lies in [2^(1/m), tau0]; the start takes tau^m linear in
    # pm, exact at p1 = 0 (m+1) and on M0 (2), as h nearly is for large m
    tau0 = (m + 1.0) ** (1.0 / m)
    hi = 1.0 / maximum(pm, 1.0 / (tau0 * (1.0 + 1e-12)))
    return 1.0 + 0.0 * pm, hi, (m + 1.0 + (1.0 - m) * pm * 2.0 ** (1.0 / m)) ** (1.0 / m)


def _tangency(m: float, tau, pm):
    # the bounded tangency form h(tau) = tau^m - (m+1) + (m-2) pm tau
    # + 2 pm tau^(1-m), with pm = p1^2: the equation in tau = X/p1^2 divided
    # by tau^(m-1); tau^(1-m) = tau/tau^m
    q = tau ** m
    return q - (m + 1.0) + (m - 2.0) * pm * tau + 2.0 * pm * tau / q


def _tangency_slope(m: float, tau, pm):
    # d/dtau of ``_tangency``
    q = tau ** m
    return m * q / tau + (m - 2.0) * pm + 2.0 * (1.0 - m) * pm / q


def _tangency_jet(domain: DomainParams, u: Taylor2) -> Taylor2:
    # the tangency root tau as a jet of the jet u = p1^2: the float root and
    # its u-derivatives by implicit differentiation of h(tau, u) = 0, which
    # is linear in u: tau' = -h_u/h_tau, tau'' = -(h_tautau tau' + 2 h_tauu) tau'/h_tau
    m, v = domain.m, u.v
    tau = _solve_tau(m, math.sqrt(v))
    q = tau ** m
    h_tau = _tangency_slope(m, tau, v)
    d1 = -((m - 2.0) * tau + 2.0 * tau / q) / h_tau
    h_tautau = m * (m - 1.0) * (q / (tau * tau) + 2.0 * v / (q * tau))
    h_tauu = m - 2.0 + 2.0 * (1.0 - m) / q
    return u._compose(tau, d1, -(h_tautau * d1 + 2.0 * h_tauu) * d1 / h_tau)


def fit_reference(domain: DomainParams, p1: float) -> WuEllipsoidDiag:
    """Wu ellipsoid coefficients (r1, r2) at the axis point (p1, 0, ..., 0).

    m <= 1: the chord through the two axis intercepts. m > 1 outside the
    2^(-1/2m) threshold: the LOWER line itself. m > 1 inside: the line
    tangent to the UPPER curve at the solved contact parameter, and
    ``fit_origin`` below ``_FIT_ORIGIN_TOL``. The one-row case of
    ``_fit_rows``.
    """
    _check_p1(p1)
    r1, r2 = _fit_rows(domain, np.array([float(p1)]))
    return WuEllipsoidDiag(r1=float(r1[0]), r2=float(r2[0]))


#: the fit regimes at an axis coordinate p1: the chord through the two axis
#: intercepts (m <= 1), the LOWER line (m > 1 from M0 out), the line tangent
#: to the UPPER curve (m > 1 inside M0) and its p1 -> 0 limit, ``fit_origin``
_CHORD, _LOWER, _TANGENCY, _ORIGIN = range(4)


def _regimes(domain: DomainParams, p1: np.ndarray) -> np.ndarray:
    # the fit regime of each checked axis coordinate p1 in [0, 1)
    if domain.m <= 1.0:
        return np.full(len(p1), _CHORD)
    # the tangency inside M0, one less (the LOWER line) from M0 out and one
    # more (fit_origin) below the Z cut-off, which lies inside M0
    return _TANGENCY - (p1 >= domain.m0_radius) + (p1 < _FIT_ORIGIN_TOL)


def _fit_rows(domain: DomainParams, p1: np.ndarray, regime=None):
    # fit_reference's (r1, r2) at each checked axis coordinate p1 in [0, 1),
    # every row by its own regime (``regime`` when the caller has decided it)
    regime = _regimes(domain, p1) if regime is None else regime
    u = p1 * p1
    if len(p1) and (regime == regime[0]).all():  # a stencil in one regime
        return _fit(domain, regime[0], u)
    fit = np.empty((2, len(p1)))
    for k in np.unique(regime):
        rows = regime == k
        fit[:, rows] = _fit(domain, k, u[rows])
    return fit


def _fit(domain: DomainParams, regime: int, u):
    # (r1, r2) of one regime at u = p1^2: floats, rows or ``Taylor2`` jets;
    # ``_power`` squares floats as numpy squares rows and keeps the jets' **
    m = domain.m
    if regime == _TANGENCY:
        if isinstance(u, Taylor2):
            return _inner_fit(domain, u, _tangency_jet(domain, u))
        return _inner_fit(domain, u, _solve_tau(m, np.sqrt(u)))
    if regime == _ORIGIN:
        ell = fit_origin(domain)
        return 0.0 * u + ell.r1, 0.0 * u + ell.r2
    P = _power(u, m)
    r1 = (1.0 / _power(1.0 - u, 2) if regime == _CHORD
          else m * m * _power(u, m - 1.0) / _power(1.0 - P, 2))
    return r1, 1.0 / (1.0 - P)


def _inner_fit(domain: DomainParams, u, tau):
    # inner-region line tangent to the UPPER curve at the contact parameter
    # sqrt(u tau), at u = p1^2: r1 = m^2 tau/(2 f^2) and r2 = tau^m/(2 f) with
    # f = m - (m-1) u tau - u tau^(1-m), for floats, rows or jets; at u = 0
    # it is ``fit_origin``
    m = domain.m
    q = _power(tau, m)
    f = m - (m - 1.0) * u * tau - u * tau / q
    return m * m * tau / (2.0 * f * f), q / (2.0 * f)


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
    """Monotone chain over the points sorted by (x, y): the outward frontier.

    Keeps the concave-from-origin frontier by the chain's float orientation
    test. numpy computes that test once for each point against its two
    sorted predecessors, to the same bits; while these are the chain's top
    two (the last step popped nothing), a point the test pushes without a
    pop is appended after a flag check, so a run of pushes skips the test
    in Python. Every other step runs the sequential pop loop, which decides
    collinear runs, vertical pairs and equal points as the plain chain does.
    """
    x, y = pts[np.lexsort((pts[:, 1], pts[:, 0]))].T
    turn = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
    chain: list[tuple[float, float]] = []
    clean = True  # the chain's top two are the next point's sorted predecessors
    for xp, yp, push in zip(x.tolist(), y.tolist(), [True, True, *(~(turn >= 0.0)).tolist()]):
        if not (clean and push):
            clean = True
            while len(chain) >= 2:
                (x1, y1), (x2, y2) = chain[-2], chain[-1]
                if (x2 - x1) * (yp - y1) - (y2 - y1) * (xp - x1) >= 0.0:
                    chain.pop()
                    clean = False
                else:
                    break
        chain.append((xp, yp))
    return np.fromiter(itertools.chain.from_iterable(chain), float, 2 * len(chain)).reshape(-1, 2)


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
    checked against every sample of that stage. The zoom grid is sampled at
    its distinct parameters only: at outer p1 its window lies within a few
    ulps of alpha = 1, where the linspace holds a handful of floats, and a
    repeated sample changes neither the hull nor any sample maximum.
    """
    _check_p1(p1)
    if samples < 64:
        raise DomainError("oracle needs at least 64 samples")
    n1 = max(samples // 2, 48)
    au = kcurve_alpha_grid(domain, p1, Branch.UPPER, n1)
    try:
        upper = _upper_xy_many(domain.m, p1, au)
    except ZeroDivisionError as exc:  # alpha^(4m-2) underflows at alpha = p1
        raise NumericalError(f"UPPER arc samples underflow at p1={p1!r}, m={domain.m!r}") from exc
    pts1 = _first_quadrant(upper, _lower_points(domain, p1, max(samples // 4, 24)))
    stage1 = _enumerate_lines(pts1)
    if stage1 is None:
        raise ConfigurationError("oracle found no feasible line (degenerate sampling)")
    contact_x = stage1[3]
    idx = int(np.argmin(np.abs(upper[:, 0] - contact_x)))
    lo = au[max(0, idx - 4)]
    hi = au[min(len(au) - 1, idx + 4)]
    zoom = np.unique(np.linspace(lo, hi, max(samples - n1, 48)))
    pts2 = _first_quadrant(_upper_xy_many(domain.m, p1, zoom))
    refined = _enumerate_lines(np.vstack([pts1, pts2])) or stage1
    _, r1, r2, _ = refined
    return WuEllipsoidDiag(r1=r1, r2=r2)


def containment_violation(domain: DomainParams, p1: float, ellipsoid: WuEllipsoidDiag,
                          samples: int = 1024) -> float:
    """max(r1 y + r2 x - 1) over fresh samples of both K-curves; <= 0 means containment."""
    au = kcurve_alpha_grid(domain, p1, Branch.UPPER, samples)
    pts = _first_quadrant(_upper_xy_many(domain.m, p1, au), _lower_points(domain, p1, samples // 2))
    return float(np.max(ellipsoid.r1 * pts[:, 1] + ellipsoid.r2 * pts[:, 0])) - 1.0
