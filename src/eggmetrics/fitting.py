"""Minimal-area line fitting in square coordinates: the Wu ellipsoid at axis points.

The Wu unit ball at (p1, 0, ..., 0) is the diagonal ellipsoid r1|v1|^2 +
r2|vhat|^2 < 1 of least volume containing the Kobayashi indicatrix; in square
coordinates it is the line r1 y + r2 x = 1 of least intercept area containing
both K-curves. Closed forms cover every regime; the curves' support function,
from one table of UPPER tangents, recomputes the fit and decides containment.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .domain import DomainParams, _check_p1
from .errors import ConfigurationError, DomainError, NumericalError
from .kcurve import _upper_tangents, _x_intercept, upper_xy
from .numerics import (ROOT_MAX_ITER, Taylor2, _power, _solve_bracketed_rows, abs_pow,
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

    With w = ``domain.m0_weight``, K = m (w-1) + 1 and P = p1^2m, X is the
    geometric root of X^(2m-1) - K P X^(m-1) + (m (w-1) - w) P X^m + w P^2 = 0,
    the unique one in (p1^2, 1]; a point off the inner region (w P - 1 above
    1e-12) has none. It is solved as tau = X/p1^2 in the bounded form
    ``_tangency``, the equation divided by p1^(4m-2) tau^(m-1), whose terms
    stay O(m) on its bracket: no power leaves the float range at any m or
    p1, and the root keeps full relative accuracy as p1 -> 0, where it tends
    to tau0 = K^(1/m), and up to M0, where X -> 1. Off the axis, at a point
    whose reference coordinate is p1/s^(1/m), the equation multiplies its
    s-free terms by s^4 and the others by s^2, and dividing by s^4 gives the
    same root: X(p1, s) = X(p1/s^(1/m), 1).
    """
    if domain.m <= 1.0:
        raise ConfigurationError("the tangency equation applies to m > 1 only")
    _check_p1(p1)
    p1 = float(p1)
    if domain.m0_weight * p1 ** (2.0 * domain.m) - 1.0 > 1e-12:
        raise ConfigurationError(
            f"no tangency root: axis coordinate p1={p1!r} is not in the inner region")
    return p1 * p1 * _solve_tau(domain.m, domain.m0_weight, p1)


def _solve_tau(m: float, w: float, p1):
    # the tangency root tau = X/p1^2 at inner-region axis coordinates p1, M0
    # weight w: a few Newton steps on the certified bracket of ``_ends``, for
    # one p1 on floats (``solve_bracketed``) or for rows
    # (``_solve_bracketed_rows``); K = tau0^m and the terms are formed once
    pm = float(p1) * float(p1) if np.ndim(p1) == 0 else p1 * p1
    K, k = m * (w - 1.0) + 1.0, _tangency_terms(m, w, pm)
    if isinstance(pm, float):
        return solve_bracketed(partial(_tangency, m, K, *k), *_ends(m, w, K, pm, max))
    return _solve_bracketed_rows(lambda t, r: _tangency(m, K, *[c[r] for c in k], t),
                                 *_ends(m, w, K, pm, np.maximum))


def _ends(m: float, w: float, K: float, pm, maximum):
    # lower end, upper end and start in tau at pm = p1^2, for one p1's floats
    # (maximum = max) or rows (np.maximum). The bracket [1, min((1 + 1e-12)/pm,
    # tau0 (1 + 1e-12))], tau0 = K^(1/m), is certified for every m > 1 up to
    # M0: h(1) = -m (w-1)(1 - pm) < 0, h(tau0) = pm tau0 m (m-1)(w-1)^2/K >= 0
    # and h(1/pm) = (1 - P)(1 - w P)/P >= 0 inside M0 (P = p1^2m), where
    # widening by 1e-12 lifts h by about (2m-1) 1e-12, above its evaluation
    # noise. Inside M0 the root lies in [w^(1/m), tau0]; the start takes
    # tau^m linear in pm, exact at p1 = 0 (K) and on M0 (w), as h nearly is
    # for large m
    tau0 = K ** (1.0 / m)
    hi = (1.0 + 1e-12) / maximum(pm, 1.0 / tau0)  # pm may underflow to 0
    return 1.0 + 0.0 * pm, hi, (K + (w - 1.0) * (1.0 - m) * pm * w ** (1.0 / m)) ** (1.0 / m)


def _tangency_terms(m: float, w: float, pm):
    # (m (w-1) - w) pm, w pm and w (1-m) pm at pm = p1^2, as ``_tangency`` groups them
    return (m * (w - 1.0) - w) * pm, w * pm, w * (1.0 - m) * pm


def _tangency(m: float, K: float, a, b, c, tau):
    # (h, dh/dtau) of the bounded tangency form h(tau) = tau^m - K + (m (w-1) - w) pm tau +
    # w pm tau^(1-m), with (a, b, c) = ``_tangency_terms``: the equation in tau = X/p1^2
    # divided by tau^(m-1); with q = tau^m, tau^(1-m) = tau/q. tau last, for ``partial``
    q = tau ** m
    return q - K + a * tau + b * tau / q, m * q / tau + a + c / q


def _tangency_jet(domain: DomainParams, u: Taylor2) -> Taylor2:
    # the tangency root tau as a jet of the jet u = p1^2: the float root and
    # its u-derivatives by implicit differentiation of h(tau, u) = 0, which
    # is linear in u: tau' = -h_u/h_tau, tau'' = -(h_tautau tau' + 2 h_tauu) tau'/h_tau
    m, w, v = domain.m, domain.m0_weight, u.v
    tau = _solve_tau(m, w, math.sqrt(v))
    q, a = tau ** m, m * (w - 1.0) - w
    h_tau = _tangency(m, m * (w - 1.0) + 1.0, *_tangency_terms(m, w, v), tau)[1]
    d1 = -(a * tau + w * tau / q) / h_tau
    h_tautau = m * (m - 1.0) * (q / (tau * tau) + w * v / (q * tau))
    h_tauu = a + w * (1.0 - m) / q
    return u._compose(tau, d1, -(h_tautau * d1 + 2.0 * h_tauu) * d1 / h_tau)


def fit_reference(domain: DomainParams, p1: float) -> WuEllipsoidDiag:
    """Wu ellipsoid coefficients (r1, r2) at the axis point (p1, 0, ..., 0).

    m <= 1: the chord through the two axis intercepts. m > 1 from M0
    (``m0_radius``) out: the LOWER line itself. m > 1 inside: the line
    tangent to the UPPER curve at the solved contact parameter, which tends
    to ``fit_origin`` as p1 -> 0. ``_fit_rows``' row at p1, on floats.
    """
    _check_p1(p1)
    p1 = float(p1)
    r1, r2 = _fit(domain, _regimes(domain, p1), p1 * p1)
    return WuEllipsoidDiag(r1=float(r1), r2=float(r2))


#: the fit regimes at an axis coordinate p1: the chord through the two axis
#: intercepts (m <= 1), the LOWER line (m > 1 from M0 out) and the line
#: tangent to the UPPER curve (m > 1 inside M0, Z included)
_CHORD, _LOWER, _TANGENCY = range(3)


def _regimes(domain: DomainParams, p1):
    # the fit regime of each checked axis coordinate p1 in [0, 1), or of one float p1 as an int
    if domain.m <= 1.0:
        return _CHORD if isinstance(p1, float) else np.full(len(p1), _CHORD)
    # the tangency inside M0, one less (the LOWER line) from M0 out
    return _TANGENCY - (p1 >= domain.m0_radius)


def _fit_rows(domain: DomainParams, p1: np.ndarray):
    # fit_reference's (r1, r2) at each checked axis coordinate p1 in [0, 1), by its own regime
    regime = _regimes(domain, p1)
    u = p1 * p1
    fit = np.empty((2, len(p1)))
    for k in (_CHORD,) if domain.m <= 1.0 else (_LOWER, _TANGENCY):
        rows = regime == k
        if rows.any():
            fit[:, rows] = _fit(domain, k, u[rows])
    return fit


def _fit(domain: DomainParams, regime: int, u, P=None):
    # (r1, r2) of one regime at u = p1^2: floats, rows or ``Taylor2`` jets; a
    # given P stands for u^m off the tangency. ``_power`` squares floats as
    # numpy squares rows and keeps the jets' **
    m = domain.m
    if regime == _TANGENCY:
        if isinstance(u, Taylor2):
            return _inner_fit(domain, u, _tangency_jet(domain, u))
        return _inner_fit(domain, u, _solve_tau(m, domain.m0_weight, np.sqrt(u)))
    P = _power(u, m) if P is None else P
    r1 = (1.0 / _power(1.0 - u, 2) if regime == _CHORD
          else m * m * _power(u, m - 1.0) / _power(1.0 - P, 2))
    return r1, 1.0 / (1.0 - P)


def _inner_fit(domain: DomainParams, u, tau):
    # inner-region line tangent to the UPPER curve at the contact parameter
    # sqrt(u tau), at u = p1^2: r1 = m^2 tau/(w f^2) and r2 = tau^m/(w f) with
    # f = m - (m-1) u tau - u tau^(1-m) and w the M0 weight, for floats, rows
    # or jets; at u = 0 it is ``fit_origin``
    m, w = domain.m, domain.m0_weight
    q = _power(tau, m)
    f = m - (m - 1.0) * u * tau - u * tau / q
    return m * m * tau / (w * f * f), q / (w * f)


def fit_origin(domain: DomainParams) -> WuEllipsoidDiag:
    """Closed-form value of the fit on Z, its limit as p1 -> 0 (the tangency's for m > 1)."""
    m, w = domain.m, domain.m0_weight
    if m <= 1.0:
        return WuEllipsoidDiag(1.0, 1.0)
    K = m * (w - 1.0) + 1.0  # tau0^m
    return WuEllipsoidDiag(r1=abs_pow(K, 1.0 / m) / w, r2=K / (w * m))


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


def fit_oracle(domain: DomainParams, p1: float) -> WuEllipsoidDiag:
    """Least-volume supporting line of the K-curves, from one table of UPPER tangents.

    In the direction lambda = r2/r1, r1 = 1/H(lambda) with H the curves' support
    function, and log r1 + (w-1) log r2 (w = ``m0_weight``) is concave in log
    lambda, largest where r2 x* - (w-1)/w changes sign at the support (x*, y*).
    For m > 1 each ``_arc_table`` sample supports its own tangent direction,
    where the sign is lambda x - (w-1) y's; Newton steps on log y + (w-1) log x
    inside its first change find the contact: r1 = 1/(w y*), r2 = (w-1)/(w x*).
    Otherwise (m <= 1, or past M0) it changes at a chord from the LOWER end
    (x_int, 0) to an arc end, the exact fit. The closed-form fit is not read.
    """
    _check_p1(p1)
    return _fit_oracle(domain, float(p1), *_arc_table(domain.m, float(p1)))


def _fit_oracle(domain: DomainParams, p1: float, a, tab) -> WuEllipsoidDiag:
    # fit_oracle at a checked p1 from its ``_arc_table`` (a, tab)
    m, w = domain.m, domain.m0_weight
    x, y, _, _, ll, _ = tab
    with np.errstate(divide="ignore"):  # x = 0 at alpha = p1; y may underflow
        up = ll + np.log(x) >= np.log((w - 1.0) * y)  # r2 x* >= (w-1)/w
    if m > 1.0 and up.any():
        # to a step below 1e-8 in log x (and log y), whose first order finishes it
        (x, y, dx, dy, _, _), du = _arc_root(
            m, p1, lambda x, y, dx, dy, l, dl: (l + np.log(x / ((w - 1.0) * y)),
                                                dl + dx / x - dy / y),
            a, tab, int(np.argmax(up)), lambda du, _, x, y, dx, *__: abs(du * dx / x) <= 1e-8)
        return WuEllipsoidDiag(r1=float(1.0 / (w * (y + dy * du))),
                               r2=float((w - 1.0) / (w * (x + dx * du))))
    # either side of each chord's direction the support maximises (y + lambda x)/(1 + lambda)
    x_int = _x_intercept(m, p1)
    px, py = np.append(x, x_int), np.append(y, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = py[[0, -2]] / (x_int - px[[0, -2]])  # the chords from (x_int, 0) to the arc ends
        kinks = kinks[(kinks > 0.0) & (kinks < np.inf)]
        lam = np.sort(np.concatenate([kinks * (1.0 - 1e-12), kinks * (1.0 + 1e-12)]))
        k = np.argmax(py / (1.0 + lam[:, None]) + px / (1.0 + 1.0 / lam[:, None]), axis=1)
    up = lam * px[k] >= (w - 1.0) * py[k]
    if up[0] or not up.any():
        raise NumericalError(f"fit oracle lost its bracket at p1={p1!r}, m={m!r}")
    i = int(np.argmax(up))
    (xa, xb), (ya, yb) = px[k[i - 1:i + 1]], py[k[i - 1:i + 1]]
    det = xb * ya - xa * yb
    return WuEllipsoidDiag(r1=float((xb - xa) / det), r2=float((ya - yb) / det))


def _arc_table(m: float, p1: float):
    # ``_upper_tangents`` at alpha = p1 e^d and e^-d: 40 distances d from each end, growing
    # geometrically from a fraction of the arc's scale s = min(0.5/m, -log p1) to half its length
    if p1 < sys.float_info.min:  # subnormal: the arc's parameters near p1 have a few bits
        raise NumericalError(f"the K-curves' support needs a normal float p1, got {p1!r}")
    s = min(0.5 / m, -math.log(p1))
    d = s * np.expm1(np.linspace(0.0, math.log1p(-0.5 * math.log(p1) / s), 40))
    a = np.sort(np.concatenate([p1 * np.exp(d), np.exp(-d)]))
    return a, _upper_tangents(m, p1, a)


def _arc_root(m: float, p1: float, g, a: np.ndarray, tab, i: int, done):
    # the root of g(*row) = (value, slope in log alpha), increasing, between samples i-1 and i:
    # Newton steps from the smaller |value|, bisecting out of the bracket, to done(du, width, *row)
    lo, hi = a[i - 1], a[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        v, dv = g(*(col[i - 1:i + 1] for col in tab))
    j = i - int(abs(v[0]) <= abs(v[1]))
    alpha, row, v, dv = a[j], tuple(col[j] for col in tab), v[j - i + 1], dv[j - i + 1]
    for _ in range(ROOT_MAX_ITER):
        width = math.log(hi / lo)
        with np.errstate(divide="ignore"):  # a zero slope bisects
            du = -v / dv if v else 0.0
        if done(du, width, *row):
            return row, du
        step = alpha * math.exp(du) if abs(du) < width else 0.0
        alpha = step if lo < step < hi else math.sqrt(lo * hi)
        row = _upper_tangents(m, p1, alpha)
        v, dv = g(*row)
        lo, hi = (alpha, hi) if v < 0.0 else (lo, alpha)
    raise NumericalError(f"the UPPER arc's root did not converge at p1={p1!r}, m={m!r}")


def containment_violation(domain: DomainParams, p1: float, ellipsoid: WuEllipsoidDiag) -> float:
    """r1 y* + r2 x* - 1 at the K-curves' support point (x*, y*); <= 0 means containment.

    (x*, y*) is the best of ``_arc_table``'s samples and (x_int, 0) in the direction
    r2/r1, for m > 1 refined by Newton steps on y' + lambda x' = 0 (log lambda = log r2 -
    log r1) to a deficit below 1e-13. On ``fit_reference``'s line it reads within 1e-10 of
    0 up to p1 = 1 - 1e-6; nearer the boundary that line's own error dominates: ``_fit``'s
    rounded 1 - P, amplified by the fit's conditioning to 2.2e-16 p1/(1 - p1).
    """
    _check_p1(p1)
    r1, r2 = ellipsoid.r1, ellipsoid.r2
    if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
        raise DomainError(f"containment needs finite r1 > 0 and r2 > 0, got r1={r1!r}, r2={r2!r}")
    return _containment_violation(domain, float(p1), ellipsoid, *_arc_table(domain.m, float(p1)))


def _containment_violation(domain: DomainParams, p1: float, ellipsoid, a, tab) -> float:
    # containment_violation at a checked p1 and ellipsoid from p1's ``_arc_table`` (a, tab)
    m, r1, r2 = domain.m, ellipsoid.r1, ellipsoid.r2
    x, y, _, _, ll, _ = tab
    best = max(float(np.max(r1 * y + r2 * x)), r2 * _x_intercept(m, p1))
    lr = math.log(r2) - math.log(r1)
    i = int(np.searchsorted(ll, lr))
    if m > 1.0 and 0 < i < len(a):
        # a row's deficit is about |F'| times its distance from the support
        (x, y, _, _, _, _), _ = _arc_root(
            m, p1, lambda x, y, dx, dy, l, dl: (l - lr, dl), a, tab, i,
            lambda du, width, x, y, dx, dy, *_: (abs(r1 * dy + r2 * dx) * min(abs(du), width)
                                                 <= 1e-13 * (r1 * y + r2 * x)))
        best = max(best, float(r1 * y + r2 * x))
    return best - 1.0
