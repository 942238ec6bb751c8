"""Minimal-area line fitting in square coordinates: the Wu ellipsoid at axis points.

The Wu unit ball at (p1, 0, ..., 0) is the diagonal ellipsoid r1|v1|^2 +
r2|vhat|^2 < 1 of least volume containing the Kobayashi indicatrix; in square
coordinates it is the line r1 y + r2 x = 1 of least intercept area containing
both K-curves. Closed forms cover every regime; the curves' support function
recomputes the fit (``fit_oracle``) and decides containment.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .domain import DomainParams, _M0_WEIGHT, _check_p1
from .errors import ConfigurationError, DomainError, NumericalError
from .kcurve import _upper_xy_many, _x_intercept, upper_xy
from .numerics import (Taylor2, _power, _solve_bracketed_rows, abs_pow, onesided_weights,
                       solve_bracketed)


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
    region (2 p1^2m - 1 above 1e-12) has none. It is solved as tau = X/p1^2
    in the bounded form ``_tangency``, the equation divided by p1^(4m-2)
    tau^(m-1), whose terms stay O(m) on its bracket: no power leaves the
    float range at any m or p1, and the root keeps full relative accuracy
    as p1 -> 0, where it tends to tau0 = (m+1)^(1/m), and up to M0, where
    X -> 1. Off the axis, at a point whose reference coordinate is
    p1/s^(1/m), the equation multiplies its s-free terms by s^4 and the
    others by s^2, and dividing by s^4 gives the same root:
    X(p1, s) = X(p1/s^(1/m), 1).
    """
    if domain.m <= 1.0:
        raise ConfigurationError("the tangency equation applies to m > 1 only")
    _check_p1(p1)
    p1 = float(p1)
    if _M0_WEIGHT * p1 ** (2.0 * domain.m) - 1.0 > 1e-12:
        raise ConfigurationError(
            f"no tangency root: axis coordinate p1={p1!r} is not in the inner region")
    return p1 * p1 * _solve_tau(domain.m, p1)


def _solve_tau(m: float, p1):
    # the tangency root tau = X/p1^2 at inner-region axis coordinates p1: a
    # few Newton steps on the certified bracket of ``_ends``, for one p1 on
    # floats (``solve_bracketed``) or for rows (``_solve_bracketed_rows``)
    if np.ndim(p1) == 0:
        pm = float(p1) * float(p1)
        lo, hi, x0 = _ends(m, pm, max)
        return solve_bracketed(lambda t: _tangency(m, t, pm, t ** m), lo, hi,
                               df=lambda t: _tangency_slope(m, t, pm, t ** m), x0=x0)
    pm = p1 * p1

    def hdh(t, r):
        q, u = t ** m, pm[r]
        return _tangency(m, t, u, q), _tangency_slope(m, t, u, q)

    return _solve_bracketed_rows(hdh, *_ends(m, pm, np.maximum))


def _ends(m: float, pm, maximum):
    # lower end, upper end and start in tau at pm = p1^2, for one p1's floats
    # (maximum = max) or rows (np.maximum). The bracket [1, min((1 + 1e-12)/pm,
    # tau0 (1 + 1e-12))] is certified for every m > 1 up to M0:
    # h(1) = -m (1 - pm) < 0, h(tau0) = pm tau0 m (m-1)/(m+1) >= 0 and
    # h(1/pm) = (1 - P)(1 - 2P)/P >= 0 inside M0 (P = p1^2m), where widening
    # by 1e-12 lifts h by about (2m-1) 1e-12, above its evaluation noise.
    # Inside M0 the root lies in [2^(1/m), tau0]; the start takes tau^m
    # linear in pm, exact at p1 = 0 (m+1) and on M0 (2), as h nearly is for
    # large m
    tau0 = (m + 1.0) ** (1.0 / m)
    hi = (1.0 + 1e-12) / maximum(pm, 1.0 / tau0)  # pm may underflow to 0
    return 1.0 + 0.0 * pm, hi, (m + 1.0 + (1.0 - m) * pm * 2.0 ** (1.0 / m)) ** (1.0 / m)


def _tangency(m: float, tau, pm, q):
    # the bounded tangency form h(tau) = tau^m - (m+1) + (m-2) pm tau
    # + 2 pm tau^(1-m), with pm = p1^2 and q = tau^m: the equation in
    # tau = X/p1^2 divided by tau^(m-1); tau^(1-m) = tau/q
    return q - (m + 1.0) + (m - 2.0) * pm * tau + 2.0 * pm * tau / q


def _tangency_slope(m: float, tau, pm, q):
    # d/dtau of ``_tangency``, with q = tau^m
    return m * q / tau + (m - 2.0) * pm + 2.0 * (1.0 - m) * pm / q


def _tangency_jet(domain: DomainParams, u: Taylor2) -> Taylor2:
    # the tangency root tau as a jet of the jet u = p1^2: the float root and
    # its u-derivatives by implicit differentiation of h(tau, u) = 0, which
    # is linear in u: tau' = -h_u/h_tau, tau'' = -(h_tautau tau' + 2 h_tauu) tau'/h_tau
    m, v = domain.m, u.v
    tau = _solve_tau(m, math.sqrt(v))
    q = tau ** m
    h_tau = _tangency_slope(m, tau, v, q)
    d1 = -((m - 2.0) * tau + 2.0 * tau / q) / h_tau
    h_tautau = m * (m - 1.0) * (q / (tau * tau) + 2.0 * v / (q * tau))
    h_tauu = m - 2.0 + 2.0 * (1.0 - m) / q
    return u._compose(tau, d1, -(h_tautau * d1 + 2.0 * h_tauu) * d1 / h_tau)


def fit_reference(domain: DomainParams, p1: float) -> WuEllipsoidDiag:
    """Wu ellipsoid coefficients (r1, r2) at the axis point (p1, 0, ..., 0).

    m <= 1: the chord through the two axis intercepts. m > 1 outside the
    2^(-1/2m) threshold: the LOWER line itself. m > 1 inside: the line
    tangent to the UPPER curve at the solved contact parameter, which tends
    to ``fit_origin`` as p1 -> 0. ``_fit_rows``' row at p1, on floats.
    """
    _check_p1(p1)
    p1 = float(p1)
    r1, r2 = _fit(domain, int(_regimes(domain, np.array([p1]))[0]), p1 * p1)
    return WuEllipsoidDiag(r1=float(r1), r2=float(r2))


#: the fit regimes at an axis coordinate p1: the chord through the two axis
#: intercepts (m <= 1), the LOWER line (m > 1 from M0 out) and the line
#: tangent to the UPPER curve (m > 1 inside M0, Z included)
_CHORD, _LOWER, _TANGENCY = range(3)


def _regimes(domain: DomainParams, p1: np.ndarray) -> np.ndarray:
    # the fit regime of each checked axis coordinate p1 in [0, 1)
    if domain.m <= 1.0:
        return np.full(len(p1), _CHORD)
    # the tangency inside M0, one less (the LOWER line) from M0 out
    return _TANGENCY - (p1 >= domain.m0_radius)


def _fit_rows(domain: DomainParams, p1: np.ndarray, regime=None):
    # fit_reference's (r1, r2) at each checked axis coordinate p1 in [0, 1),
    # every row by its own regime (``regime`` when the caller has decided it)
    regime = _regimes(domain, p1) if regime is None else regime
    u = p1 * p1
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
    """Closed-form value of the fit on Z, its limit as p1 -> 0 (the tangency's for m > 1)."""
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


#: the oracle's search: _S_COUNT directions a pass, first over [-_S_SPAN,
#: _S_SPAN] (which holds log(r2/r1) for every p1 and m up to about 1e6), and
#: arc grids of _ARC_COUNT points; five-point first and second differences
#: for its Newton steps
_S_SPAN, _S_COUNT, _ARC_COUNT, _MAX_PASSES = 50.0, 16, 32, 40
_STENCIL = np.arange(-2.0, 3.0)
_STENCIL_WEIGHTS = np.array([onesided_weights(q, _STENCIL) for q in (1, 2)])


def fit_oracle(domain: DomainParams, p1: float) -> WuEllipsoidDiag:
    """Least-volume supporting line of the K-curves, by a search over its direction.

    The line of direction s = log(r2/r1) = log tan(theta) has r1 = 1/H(s),
    with H the support function max(y + e^s x) over the UPPER arc and the
    LOWER segment's end points, and the objective log r1 + (w-1) log r2 =
    (w-1) s - w log H(s), concave in s, with the weight w = ``_M0_WEIGHT``.
    Each pass finds the support of sampled directions by zooming a grid in
    log alpha and keeps the first sign change of r2 x* - (w-1)/w (the
    objective's slope over -w), with a neighbour on each side; the first pass
    also samples either side of the chords from the x-intercept to both arc
    ends. Where the final bracket's ends are supported by distinct points
    (the chord and LOWER-line regimes) the fit is the exact chord through
    them. Otherwise Newton steps on log y + (w-1) log x along the arc find
    the contact, where r2 x* = (w-1)/w: r1 = 1/(w y*) and r2 = (w-1)/(w x*).
    """
    _check_p1(p1)
    m, w, p1 = domain.m, _M0_WEIGHT, float(p1)
    lp = math.log(p1)
    scale = min(0.5 / m, -lp)  # the arc's length scale in log alpha
    h_max = 1e-4 * scale  # the support's resolution in log alpha
    ends = _upper_xy_many(m, p1, [p1, 1.0])  # the y-intercept and the junction
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = np.log(ends[:, 1] / (_x_intercept(m, p1) - ends[:, 0]))
    kinks = kinks[np.abs(kinks) < _S_SPAN]
    off = 2e-13 * (1.0 + np.abs(kinks))
    s = np.sort(np.concatenate([np.linspace(-_S_SPAN, _S_SPAN, _S_COUNT), kinks - off, kinks + off]))
    lo, hi = lp, 0.0
    for _ in range(_MAX_PASSES):
        lam = np.exp(s)
        u, x, y, on_x = _arc_support(m, p1, lam, lo, hi, h_max)
        up = w * lam * x >= (w - 1.0) * (y + lam * x)  # r2 x* >= (w-1)/w
        if up[0] or not up.any():
            raise NumericalError(f"fit oracle lost its bracket at p1={p1!r}, m={m!r}")
        i = int(np.argmax(up))
        distinct = on_x[i] or abs(u[i] - u[i - 1]) > 1e-3 * scale
        if not distinct or s[i] - s[i - 1] <= 1e-12 * (1.0 + abs(s[i])):
            break
        a, b = max(i - 2, 0), min(i + 1, len(s) - 1)
        lo, hi = max(lp, min(u[a], u[b]) - 2.0 * h_max), min(0.0, max(u[a], u[b]) + 2.0 * h_max)
        s = np.linspace(s[a], s[b], _S_COUNT)
    else:
        raise NumericalError(f"fit oracle did not converge at p1={p1!r}, m={m!r}")
    if distinct:
        # the left point moves to an arc end whose chord lies in the bracket
        left = np.vstack([[x[i - 1], y[i - 1]], ends])
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (left[:, 1] - y[i]) / (x[i] - left[:, 0])
        inside = (slope >= lam[i - 1] * (1.0 - 1e-12)) & (slope <= lam[i] * (1.0 + 1e-12))
        (xa, ya), xb, yb = left[np.argmax(np.where(inside, slope, -np.inf))], x[i], y[i]
        det = xb * ya - xa * yb
        return WuEllipsoidDiag(r1=float((xb - xa) / det), r2=float((ya - yb) / det))
    u, step = 0.5 * (u[i - 1] + u[i]), 1e-3 * scale
    for _ in range(2):
        xy = _upper_xy_many(m, p1, np.exp(u + step * _STENCIL))
        d1, d2 = _STENCIL_WEIGHTS @ (np.log(xy[:, 1]) + (w - 1.0) * np.log(xy[:, 0]))
        u -= step * d1 / d2
    if not lo - h_max <= u <= hi + h_max:  # also NaN
        raise NumericalError(f"fit oracle's contact left its window at p1={p1!r}, m={m!r}")
    x, y = _upper_xy_many(m, p1, math.exp(u)).tolist()
    return WuEllipsoidDiag(r1=1.0 / (w * y), r2=(w - 1.0) / (w * x))


def _arc_support(m: float, p1: float, lam: np.ndarray, lo, hi, h_max: float):
    # both K-curves' support point (x, y) in each direction lam, the log alpha
    # of the UPPER arc's best sample and whether the LOWER segment's far end
    # (1 - p1^2m, 0) beats it (the segment is straight, and its other end is
    # the arc's). y + lam x is unimodal along the arc for m > 1 and largest at
    # an end for m <= 1, so each window zooms onto its best sample down to h_max
    if p1 < sys.float_info.min:  # subnormal: the arc's parameters near p1 have a few bits
        raise NumericalError(f"the K-curves' support needs a normal float p1, got {p1!r}")
    rows, grid = np.arange(len(lam)), np.linspace(0.0, 1.0, _ARC_COUNT)
    lo, hi = np.broadcast_to(lo, lam.shape), np.broadcast_to(hi, lam.shape)
    while True:
        u = lo[:, None] + (hi - lo)[:, None] * grid
        xy = _upper_xy_many(m, p1, np.exp(u))
        g = xy[..., 1] + lam[:, None] * xy[..., 0]
        k = np.argmax(g, axis=1)
        if np.max(hi - lo) <= h_max * (_ARC_COUNT - 1):
            x, y = xy[rows, k].T
            x_int = _x_intercept(m, p1)
            on_x = lam * x_int > y + lam * x
            return u[rows, k], np.where(on_x, x_int, x), np.where(on_x, 0.0, y), on_x
        lo, hi = u[rows, np.maximum(k - 1, 0)], u[rows, np.minimum(k + 1, _ARC_COUNT - 1)]


def containment_violation(domain: DomainParams, p1: float, ellipsoid: WuEllipsoidDiag) -> float:
    """r1 y* + r2 x* - 1 at the K-curves' support point (x*, y*); <= 0 means containment.

    The line r1 y + r2 x = 1 contains both curves exactly when this is <= 0,
    with (x*, y*) their support point in the direction r2/r1, which
    ``_arc_support`` finds over the whole arc at ``fit_oracle``'s resolution:
    the value reads at most about 1e-10 below the exact one.
    """
    _check_p1(p1)
    m, p1, r1, r2 = domain.m, float(p1), ellipsoid.r1, ellipsoid.r2
    if not (r1 > 0.0 and r2 > 0.0):
        raise DomainError(f"containment needs r1 > 0 and r2 > 0, got r1={r1!r}, r2={r2!r}")
    lp = math.log(p1)
    _, x, y, _ = _arc_support(m, p1, np.array([r2 / r1]), lp, 0.0, 1e-4 * min(0.5 / m, -lp))
    return float(r1 * y[0] + r2 * x[0]) - 1.0
