"""Scalar numerics: stable powers, safeguarded root finding, order-2 jets, difference stencils."""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError

ROOT_MAX_ITER = 200


def abs_pow(x: float, exponent: float) -> float:
    """|x|**exponent evaluated as exp(exponent*log|x|), exact at x = 0.

    Non-integer exponents on tiny magnitudes stay accurate this way, and the
    x = 0 case never produces log-underflow artifacts: it is 0, except that
    0**0 is 1 (the power |z1|^(2m-2) of the ball's m = 1 formulas on Z).
    """
    if x == 0.0:
        return 1.0 if exponent == 0.0 else 0.0
    return math.exp(exponent * math.log(abs(x)))


def _power(x, p):
    """x ** p of rows and ``Taylor2`` jets; a float is raised by numpy's array power.

    libm's pow, which float ** calls, rounds apart from numpy's array power
    on a few percent of inputs (and squares apart from x * x), so one point
    carried on floats raises through numpy to keep its row's bits.
    """
    return float(np.power(x, p)) if isinstance(x, float) else x ** p


def _two_term_root(a, b, m: float):
    """Positive root x of a x^2m + b x^2 = 1 for a, b >= 0, not both zero, m >= 1/2.

    Each term c x^p alone reaches 1 at its single-term root c^(-1/p), and at
    the root the larger term is at least 1/2, so the root lies in [t/2, t]
    with t = min c^(-1/p) over the nonzero terms (p >= 1). t is taken
    through the logarithm, which stays finite for subnormal coefficients
    (clipped at e^700), and widened for its rounding. log(a x^2m + b x^2)
    is convex and nearly linear in log x, so two Newton steps on it from t
    give a start just above the root, from which Newton on the convex sum
    descends. Floats run the scalar ``solve_bracketed``; rows of a and b
    run ``_solve_bracketed_rows`` from the same start.
    """
    def g(x, a, b, pw):
        return a * pw(x, 2 * m) + b * x * x - 1.0

    def dg(x, a, b, pw):
        return 2 * m * a * pw(x, 2 * m - 1) + 2 * b * x

    if isinstance(a, float):
        ua, ub = (-math.log(c) / p if c else math.inf for c, p in ((a, 2 * m), (b, 2.0)))
        lo, hi, x0 = _two_term_ends(ua, ub, m, math, min)
        return solve_bracketed(lambda x: g(x, a, b, abs_pow), lo, hi,
                               df=lambda x: dg(x, a, b, abs_pow), x0=x0)
    with np.errstate(divide="ignore"):
        ua, ub = -np.log(a) / (2 * m), -np.log(b) / 2.0
    return _solve_bracketed_rows(
        lambda x, r: (g(x, a[r], b[r], np.power), dg(x, a[r], b[r], np.power)),
        *_two_term_ends(ua, ub, m, np, np.minimum))


def _two_term_ends(ua, ub, m: float, xp, minimum):
    # lower end, upper end and start of ``_two_term_root`` from the logs
    # ua = -log(a)/2m and ub = -log(b)/2 of its single-term roots (inf for a
    # zero term), for floats (xp = math, minimum = min) or rows (numpy)
    y = t = minimum(ua, ub)
    for _ in range(2):  # Newton on log(a x^2m + b x^2) in y = log x, from the right
        A, B = xp.exp(2 * m * (y - ua)), xp.exp(2.0 * (y - ub))
        y = y - xp.log(A + B) * (A + B) / (2 * m * A + 2.0 * B)
    t, y = (xp.exp(minimum(u, 700.0)) for u in (t, y))
    return (0.5 - 1e-9) * t, (1.0 + 1e-9) * t, y


def solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    df: Callable[[float], float] | None = None,
    rtol: float = 1e-15,
    max_iter: int = ROOT_MAX_ITER,
    x0: float | None = None,
) -> float:
    """Root of f on [lo, hi] with f(lo) <= 0 <= f(hi): safeguarded Newton, bisection fallback.

    The iteration stops at an exact zero, at a bracket narrower than rtol
    relative, or at a Newton step below rtol relative to its candidate, which
    is then clamped into the current bracket. Other Newton steps are taken
    only strictly inside the bracket and when they at least halve the
    previous step; every iteration shrinks the bracket, so convergence is
    guaranteed for continuous f. The iteration starts at ``x0`` when it lies
    strictly inside the bracket, else at the midpoint.
    ``_solve_bracketed_rows`` runs the same rule row by row. Raises NumericalError (carrying the last bracket) if the
    input is not a sign-change interval or the iteration budget runs out.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo > 0.0 or fhi < 0.0:
        raise NumericalError(
            f"no sign change on bracket [{lo!r}, {hi!r}]: f={flo!r}, {fhi!r}",
            bracket=(lo, hi),
        )
    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    dx_old = hi - lo
    for _ in range(max_iter):
        fx = f(x)
        if fx == 0.0:
            return x
        lo, hi = (x, hi) if fx < 0.0 else (lo, x)
        width = hi - lo
        # relative to the bracket location, so roots far below the initial
        # bracket scale are still resolved to full relative accuracy
        if width <= rtol * max(abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        d = df(x) if df is not None else 0.0
        if d != 0.0 and math.isfinite(d):
            step = fx / d
            cand = x - step
            # a vanishing Newton step means x has converged, even where x
            # sits on its own bracket end (cand == x == lo) or the far end is
            # still distant; relative to the iterate so tiny roots keep full
            # relative accuracy
            if abs(step) <= rtol * abs(cand):
                return min(max(cand, lo), hi)
            # otherwise accept Newton only inside the bracket and when the
            # step at least halves the previous one, else bisect. This keeps
            # the worst case at bisection speed (slowly contracting Newton
            # tails would otherwise starve the bracket).
            if lo < cand < hi and abs(step) <= 0.5 * dx_old:
                dx_old, x = abs(step), cand
                continue
        dx_old = 0.5 * width
        x = 0.5 * (lo + hi)
    raise NumericalError(
        f"root solve did not converge in {max_iter} iterations", bracket=(lo, hi)
    )


def _solve_bracketed_rows(fdf, lo: np.ndarray, hi: np.ndarray, x0: np.ndarray,
                          rtol: float = 1e-15, max_iter: int = ROOT_MAX_ITER) -> np.ndarray:
    """``solve_bracketed`` on independent rows side by side, each started at x0.

    fdf(x, rows) returns (f, f') of the still open rows ``rows`` at x, so
    that the two can share their work; the caller guarantees f(lo) <= 0 <=
    f(hi) on every row. A start outside its open bracket begins at the midpoint.
    """
    out = np.empty_like(lo)
    rows = np.arange(lo.size)
    x = np.where((lo < x0) & (x0 < hi), x0, 0.5 * (lo + hi))
    dx_old = hi - lo
    for _ in range(max_iter):
        fx, d = fdf(x, rows)
        lo = np.where(fx < 0.0, x, lo)
        hi = np.where(fx > 0.0, x, hi)
        step = np.divide(fx, d, out=np.full_like(fx, np.nan), where=(d != 0.0) & np.isfinite(d))
        cand = x - step
        root = np.where(fx == 0.0, x, np.where(
            hi - lo <= rtol * np.maximum(np.abs(lo), np.abs(hi)), 0.5 * (lo + hi),
            np.where(np.abs(step) <= rtol * np.abs(cand), np.clip(cand, lo, hi), np.nan)))
        done = ~np.isnan(root)
        out[rows[done]] = root[done]
        if np.all(done):
            return out
        newton = (lo < cand) & (cand < hi) & (np.abs(step) <= 0.5 * dx_old)
        dx_old = np.where(newton, np.abs(step), 0.5 * (hi - lo))
        x = np.where(newton, cand, 0.5 * (lo + hi))
        rows, lo, hi, x, dx_old = (a[~done] for a in (rows, lo, hi, x, dx_old))
    raise NumericalError(f"root solve did not converge in {max_iter} iterations",
                         bracket=(float(lo[0]), float(hi[0])))


def richardson(values: Sequence, order: int = 2):
    """Richardson ladder for approximations at steps h, h/2, h/4, ...

    ``order`` is the leading error exponent of the base rule (central
    differences: 2). Returns the highest-order extrapolant.
    """
    vals = [np.asarray(v, dtype=complex) if np.iscomplexobj(v) else np.asarray(v, dtype=float)
            for v in values]
    n = len(vals)
    if n == 1:
        return vals[0]
    for j in range(1, n):
        fac = 2.0 ** (order * j)
        for k in range(n - 1, j - 1, -1):
            vals[k] = (fac * vals[k] - vals[k - 1]) / (fac - 1.0)
    return vals[-1]


def _check_step(step: float) -> None:
    # a differencing step: finite and positive (NaN fails both tests)
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"differencing step must be finite and positive, got {step!r}")


def _check_integer(value, name: str, minimum: int) -> int:
    # a count, seed or order: an integer (Python's or numpy's) of at least
    # ``minimum``; a float, even an integral one, is refused
    try:
        k = operator.index(value)
    except TypeError:
        k = None
    if k is None or k < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return k


def wirtinger_jet(f: Callable[[np.ndarray], np.ndarray], z, step: float):
    """Wirtinger derivatives of f at the complex point z by real central differences.

    f maps an (M, n) array of complex points to an (M, ...) array of values
    and is called once, on the whole stencil. The stencil runs in the 2n real
    coordinates u = (Re z, Im z) at steps h and h/2 with one Richardson level
    on top; the centre enters only the Hessian diagonal. Returns (f0, dz,
    ddbar) with f0 = f(z), dz[k] = df/dz_k and ddbar[k, l] = d2f/dz_k dzbar_l.
    A (P, n) stack of points gives their jets stacked, from one call of f on
    the P stencils in turn: each is its point's own jet when f's rows are independent.
    The package differentiates the metric exactly (``Taylor2``); this is the
    independent oracle the tests and ``verify`` hold it against.
    """
    _check_step(step)
    z = np.asarray(z, dtype=complex)
    one, z = z.ndim == 1, z.reshape(-1, z.shape[-1])
    P, n = z.shape
    d = 2 * n
    u0 = np.concatenate([z.real, z.imag], axis=1)[:, None]
    a, b = np.triu_indices(d, 1)
    blocks = [u0]
    for h in (step, step / 2.0):
        e = h * np.eye(d)  # row a is the step along real coordinate a
        plus, minus = u0 + e, u0 - e
        blocks += [plus, minus, plus[:, a] + e[b], plus[:, a] - e[b], minus[:, a] + e[b],
                   minus[:, a] - e[b]]
    u = np.concatenate(blocks, axis=1).reshape(-1, d)
    values = f(u[:, :n] + 1j * u[:, n:])
    values = values.reshape((P, -1) + values.shape[1:])
    p = len(a)
    center = values[:, 0]
    i = 1
    grads, hessians = [], []
    for h in (step, step / 2.0):
        plus, minus, pp, pm, mp, mm = np.split(values[:, i:i + 2 * d + 4 * p],
                                               np.cumsum([d, d, p, p, p]), axis=1)
        i += 2 * d + 4 * p
        grads.append((plus - minus) / (2.0 * h))
        H = np.empty((P, d, d) + center.shape[1:], dtype=values.dtype)
        H[:, np.arange(d), np.arange(d)] = (plus - 2.0 * center[:, None] + minus) / h ** 2
        H[:, a, b] = H[:, b, a] = (pp - pm - mp + mm) / (4.0 * h ** 2)
        hessians.append(H)
    G = richardson(grads, order=2)
    dz = 0.5 * (G[:, :n] - 1j * G[:, n:])
    HH = richardson(hessians, order=2)
    ddbar = 0.25 * ((HH[:, :n, :n] + HH[:, n:, n:]) + 1j * (HH[:, :n, n:] - HH[:, n:, :n]))
    return (center[0], dz[0], ddbar[0]) if one else (center, dz, ddbar)


class Taylor2:
    """Truncated Taylor polynomial of order 2 in two real variables (t, s).

    Parts: the value ``v``, the partials ``t``, ``s`` and ``tt``, ``ts``,
    ``ss``, each a float or a numpy row. +, -, *, /, real ** and ``log`` on
    jets and numbers carry all six, so a float formula fed ``variables``
    gives its exact second-order jet, its value computed as the float code
    computes it (Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13).
    """

    __slots__ = ("v", "t", "s", "tt", "ts", "ss")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, v, t=0.0, s=0.0, tt=0.0, ts=0.0, ss=0.0):
        self.v, self.t, self.s, self.tt, self.ts, self.ss = v, t, s, tt, ts, ss

    @classmethod
    def variables(cls, t, s):
        return cls(t, 1.0), cls(s, 0.0, 1.0)  # the coordinate jets at (t, s)

    def _compose(self, f0, f1, f2):
        # phi(self) from phi, phi' and phi'' at the value
        t, s = self.t, self.s
        return Taylor2(f0, f1 * t, f1 * s, f2 * t * t + f1 * self.tt,
                       f2 * t * s + f1 * self.ts, f2 * s * s + f1 * self.ss)

    def __add__(self, o):
        if type(o) is not Taylor2:
            return Taylor2(self.v + o, self.t, self.s, self.tt, self.ts, self.ss)
        return Taylor2(self.v + o.v, self.t + o.t, self.s + o.s,
                       self.tt + o.tt, self.ts + o.ts, self.ss + o.ss)

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if type(o) is not Taylor2:
            return Taylor2(self.v * o, self.t * o, self.s * o,
                           self.tt * o, self.ts * o, self.ss * o)
        a, at, as_, b, bt, bs = self.v, self.t, self.s, o.v, o.t, o.s
        return Taylor2(a * b, a * bt + at * b, a * bs + as_ * b,
                       a * o.tt + 2.0 * at * bt + self.tt * b,
                       a * o.ts + at * bs + as_ * bt + self.ts * b,
                       a * o.ss + 2.0 * as_ * bs + self.ss * b)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not Taylor2:
            return Taylor2(self.v / o, self.t / o, self.s / o,
                           self.tt / o, self.ts / o, self.ss / o)
        # q = self / o solves q o = self order by order
        b, bt, bs = o.v, o.t, o.s
        q = self.v / b
        qt, qs = (self.t - q * bt) / b, (self.s - q * bs) / b
        return Taylor2(q, qt, qs, (self.tt - 2.0 * qt * bt - q * o.tt) / b,
                       (self.ts - qt * bs - qs * bt - q * o.ts) / b,
                       (self.ss - 2.0 * qs * bs - q * o.ss) / b)

    def __rtruediv__(self, o):
        return Taylor2(o) / self

    def __pow__(self, p):
        x = self.v
        f1 = p * x ** (p - 1.0)
        return self._compose(x ** p, f1, (p - 1.0) * f1 / x)

    def log(self):
        x = self.v
        return self._compose(np.log(x), 1.0 / x, -1.0 / (x * x))


def onesided_weights(q: int, nodes: np.ndarray) -> np.ndarray:
    """Finite-difference weights for the q-th derivative at 0 from the given nodes."""
    npts = len(nodes)
    V = np.vander(nodes, npts, increasing=True).T
    rhs = np.zeros(npts)
    rhs[q] = math.factorial(q)
    return np.linalg.solve(V, rhs)
