"""The Wu tensor at 50 digits, from the definitions, with mpmath.

Nothing here calls the package; the M0 weight w is an argument. At the
axis point (p1, 0, ..., 0) the Wu unit ball is the line r1 y + r2 x = 1
with the largest r1 r2^(w-1) that contains both K-curves, in the square
coordinates x = |vhat|^2, y = |v1|^2:

- m <= 1: the chord through the two axis intercepts, the UPPER arc's at
  alpha = p1 and the LOWER segment's at alpha = 1/(1 - p1^2m);
- m > 1 from M0 out (p1 >= w^(-1/2m)): the line of the LOWER segment,
  through its ends alpha = 1 and 1/(1 - p1^2m);
- m > 1 inside M0: the line tangent to the UPPER arc where x^(w-1) y is
  largest on the arc (for w = 2 the midpoint of its intercepts); the
  contact parameter is found by ``mp.findroot`` on d(x^(w-1) y)/d alpha,
  and then r1 = 1/(w y), r2 = (w-1)/(w x).

At p1 = 0 the UPPER arc degenerates, so the fit there is taken at
p1 = 1e-25, where it differs from its limit by O(p1^2m) (m <= 1) or O(p1^2).
The contact search brackets the root and narrows the bracket by the Illinois
rule; it converges for m up to 200 at every p1 down to 1e-300.

At z the fit is moved by the automorphism that takes z to the axis: with
D = D(z, z) from ``automorphism_jacobian``'s formula, H = D^T R conj(D) and
R = diag(r1, r2, ..., r2). ``curvature`` differentiates that tensor by
central differences at a step of 1e-15 in the 2n real coordinates, whose
O(h^2) error is far below double precision at 50 digits.

``kobayashi`` works at ``K_DIGITS`` = 60 digits and shares no formula with
the package's metric: the moved vector w = D(p, p)v is the derivative of
the automorphism along v, by a central difference of the map itself, and K
is the gauge of the indicatrix at the axis point, whose boundary in
(x, y) = (|what|^2, |w1|^2) is the UPPER arc above the junction slope
y/x = p1^2/m^2 and the LOWER segment below it. On the arc, the alpha where
it meets the ray through (x, y) is found by bisection. On Z, at p1 <= 1e-150,
K is the gauge of the egg at w: the root of |w1|^2m a^2m + |what|^2 a^2 = 1 is
1/K, by the same bisection. The metric at the axis point p1 meets that
gauge to O(p1^2) (1e-20 relative at p1 = 1e-10), far below 60 digits at 1e-150.
"""

import mpmath as mp

DIGITS = 50
#: digits of ``kobayashi``
K_DIGITS = 60
#: where the fit at p1 = 0 is evaluated
_ORIGIN_P1 = "1e-25"


def _upper(m, p1, a):
    # UPPER arc (x, y) at the parameter a
    P = p1 ** (2 * m)
    x = (a ** (2 * m - 2) - P) * (a ** (2 * m) - P) / a ** (4 * m - 2)
    y = (p1 * (m * a ** (2 * m - 2) - (m - 1) * a ** (2 * m) - P) / (m * a ** (2 * m - 1))) ** 2
    return x, y


def _lower(m, p1, a):
    # LOWER segment (x, y) at the parameter a
    P = p1 ** (2 * m)
    scale = (1 - P) ** 2
    return scale * a, scale * ((1 - a) + a * P) / (m * m * p1 ** (2 * m - 2))


def _line(p, q):
    # (r1, r2) of the line r1 y + r2 x = 1 through the points p and q
    (x1, y1), (x2, y2) = p, q
    det = x1 * y2 - x2 * y1
    return (x1 - x2) / det, (y2 - y1) / det


def _contact(m, w, p1):
    # the parameter a in (p1, 1) where x^(w-1) y is largest on the UPPER arc: the
    # root of d log(x^(w-1) y)/d log a, solved in k with a = p1^(1 - k), which
    # keeps the root at unit scale and the grid near p1, where the contact
    # goes as p1 -> 0. The grid's last k, just past 1, brackets the root's
    # analytic continuation past a = 1 for p1 up to about 1e-6 beyond M0,
    # where a float M0 radius may round
    P = p1 ** (2 * m)

    def slope(a):
        # d log(x^(w-1) y)/d log a, from the logarithmic derivatives of the factors
        A, B = a ** (2 * m - 2), a ** (2 * m)
        N = m * A - (m - 1) * B - P
        return ((w - 1) * ((2 * m - 2) * A / (A - P) + 2 * m * B / (B - P) - (4 * m - 2))
                + 2 * (m * (2 * m - 2) * A - (m - 1) * 2 * m * B) / N - 2 * (2 * m - 1))

    ks = [(mp.mpf(i) / 24) ** 3 for i in range(1, 25)] + [1 + mp.mpf("1e-6")]
    i = next(i for i, k in enumerate(ks) if slope(p1 ** (1 - k)) <= 0)
    lo = ks[i - 1] if i else ks[0]
    while slope(p1 ** (1 - lo)) <= 0:  # the contact lies below the grid
        lo /= 64
    k = mp.findroot(lambda k: slope(p1 ** (1 - k)), (lo, ks[i]), solver="illinois")
    return p1 ** (1 - k)


def tangency_root(m, w, p1):
    """The tangency root X = a^2 of the UPPER contact at the axis point p1 (m > 1, inside M0).

    Just past M0 it is the root's continuation, X slightly above 1.
    """
    with mp.workdps(DIGITS + 10):
        return _contact(mp.mpf(m), mp.mpf(w), mp.mpf(p1)) ** 2


def fit(m, w, p1):
    """(r1, r2, regime) at the axis point p1 for the M0 weight w, at ``DIGITS`` digits."""
    with mp.workdps(DIGITS + 10):
        m, w, p1 = mp.mpf(m), mp.mpf(w), mp.mpf(p1)
        origin = p1 == 0
        if origin:
            p1 = mp.mpf(_ORIGIN_P1)
        if m <= 1:
            P = p1 ** (2 * m)
            r1, _ = _line(_upper(m, p1, p1), (1 - P, 0))
            return r1, 1 / (1 - P), "chord"
        if p1 >= w ** (-1 / (2 * m)):
            P = p1 ** (2 * m)
            r1, r2 = _line(_lower(m, p1, mp.mpf(1)), _lower(m, p1, 1 / (1 - P)))
            return r1, r2, "lower"
        x, y = _upper(m, p1, _contact(m, w, p1))
        return 1 / (w * y), (w - 1) / (w * x), "origin" if origin else "tangency"


def wu_tensor(m, w, z):
    """(H, regime) at the point z (complex floats or mpc) of the egg with exponent m, M0 weight w."""
    with mp.workdps(DIGITS + 10):
        m = mp.mpf(m)
        z = [mp.mpc(c) for c in z]
        n = len(z)
        z1, zhat = z[0], z[1:]
        q = mp.fsum(abs(c) ** 2 for c in zhat)
        s = mp.sqrt(1 - q)
        r1, r2, regime = fit(m, w, abs(z1) / s ** (1 / m))
        c = abs(z1) / z1 if z1 != 0 else mp.mpf(1)
        D = mp.zeros(n, n)
        D[0, 0] = c * s ** (-1 / m)
        for j in range(1, n):
            D[0, j] = c * s ** (1 / m) * z1 / m * (s * s) ** (-1 / m - 1) * mp.conj(zhat[j - 1])
        for i in range(1, n):
            for j in range(1, n):
                d_num = -(1 - s) * zhat[i - 1] * mp.conj(zhat[j - 1]) / q if q else 0
                D[i, j] = (d_num - (s if i == j else 0)) / (s * s)
        R = mp.diag([r1] + [r2] * (n - 1))
        Dc = D.apply(mp.conj)
        return D.T * R * Dc, regime


def curvature(m, w, z, step="1e-15"):
    """Chern curvature R[i, j, k, l] at z, in ``tensor``'s convention, as nested lists.

    R[i, j, k, l] = (dH/dz_k H^-1 dH/dzbar_l)[i, j] - d2 H[i, j]/dz_k dzbar_l,
    with d/dz_k = (d/dx_k - i d/dy_k)/2 in z_k = x_k + i y_k.
    """
    with mp.workdps(DIGITS + 10):
        n = len(z)
        h = mp.mpf(step)
        z0 = [mp.mpc(complex(c)) for c in z]
        # real direction a: x_a for a < n, y_(a - n) otherwise
        unit = [mp.mpc(1) if a < n else mp.mpc(0, 1) for a in range(2 * n)]
        cache = {}

        def H(*steps):
            key = tuple(sorted(steps))
            if key not in cache:
                z_step = list(z0)
                for a, sign in steps:
                    z_step[a % n] += sign * h * unit[a]
                cache[key] = wu_tensor(m, w, z_step)[0]
            return cache[key]

        first = [(H((a, 1)) - H((a, -1))) / (2 * h) for a in range(2 * n)]
        second = {}
        for a in range(2 * n):
            second[a, a] = (H((a, 1)) - 2 * H() + H((a, -1))) / (h * h)
            for b in range(a + 1, 2 * n):
                second[a, b] = second[b, a] = (
                    H((a, 1), (b, 1)) - H((a, 1), (b, -1)) - H((a, -1), (b, 1))
                    + H((a, -1), (b, -1))) / (4 * h * h)
        dz = [(first[k] - 1j * first[k + n]) / 2 for k in range(n)]
        inv = H() ** -1
        R = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for l in range(n):
                ddbar = (second[k, l] + second[k + n, l + n]
                         + 1j * (second[k, l + n] - second[k + n, l])) / 4
                prod = dz[k] * inv * dz[l].H
                for i in range(n):
                    for j in range(n):
                        R[i][j][k][l] = prod[i, j] - ddbar[i, j]
        return R


def _egg_map(m, p, z):
    # the automorphism of the egg taking p to (|p1|/s^(1/m), 0, ..., 0): the
    # ball automorphism of zhat that takes phat to 0, and z1 scaled by
    # (s^2/(1 - <zhat, phat>)^2)^(1/2m) |p1|/p1
    phat, zhat = p[1:], z[1:]
    q = mp.fsum(abs(c) ** 2 for c in phat)
    s = mp.sqrt(1 - q)
    w = mp.fsum(a * mp.conj(b) for a, b in zip(zhat, phat))
    proj = [w / q * c if q else mp.mpc(0) for c in phat]
    psi = [(a - pr - s * (b - pr)) / (1 - w) for a, b, pr in zip(phat, zhat, proj)]
    c = abs(p[0]) / p[0] if p[0] != 0 else mp.mpf(1)
    return [c * s ** (1 / m) * (1 - w) ** (-1 / m) * z[0]] + psi


def kobayashi(m, p, v):
    """The Kobayashi metric K(p, v) of the egg with exponent m at p, at ``K_DIGITS`` digits."""
    with mp.workdps(K_DIGITS + 40):  # O(h^2) and the rounding over h far below 60 digits
        m = mp.mpf(m)
        p, v = [mp.mpc(complex(c)) for c in p], [mp.mpc(complex(c)) for c in v]
        h = mp.mpf("1e-35")
        ahead = _egg_map(m, p, [a + h * b for a, b in zip(p, v)])
        behind = _egg_map(m, p, [a - h * b for a, b in zip(p, v)])
        w = [(a - b) / (2 * h) for a, b in zip(ahead, behind)]
        p1 = _egg_map(m, p, p)[0].real
        x, y = mp.fsum(abs(c) ** 2 for c in w[1:]), abs(w[0]) ** 2
    with mp.workdps(K_DIGITS + 10):
        m, p1, x, y = +m, +p1, +x, +y
        if p1 <= mp.mpf("1e-150"):
            return _gauge(m, x, y)
        P = p1 ** (2 * m)
        if x == 0:
            return mp.sqrt(y) / (1 - p1 * p1)
        if m * m * y <= p1 * p1 * x:  # LOWER: x = S a, y = S ((1 - a) + a P)/(m^2 p1^(2m-2))
            S, r = (1 - P) ** 2, y / x * m * m * p1 ** (2 * m - 2)
            return mp.sqrt(x * (1 - P + r) / S)

        my, px, e = m * m * y, p1 * p1 * x, 2 * m - 2

        def side(a):
            # m^2 a^(4m-2) (x(a) y - y(a) x) on the UPPER arc, with A = a^(2m-2)
            A = a ** e
            B = A * a * a
            return my * (A - P) * (B - P) - px * (m * A - (m - 1) * B - P) ** 2

        a = _bisect(side, p1, mp.mpf(1))
        A = a ** (2 * m - 2)
        return mp.sqrt(x * A * A * a * a / ((A - P) * (A * a * a - P)))


def _gauge(m, x, y):
    # the egg's gauge at (x, y) = (|what|^2, |w1|^2): 1/a at the root of y^m a^2m + x a^2 = 1,
    # which lies below the smaller single-term root 1/sqrt(max(x, y))
    if x == 0 and y == 0:
        return mp.mpf(0)
    return 1 / _bisect(lambda a: y ** m * a ** (2 * m) + x * a * a - 1, mp.mpf(0),
                       2 / mp.sqrt(max(x, y)))


def _bisect(f, lo, hi):
    # the root of f between lo and hi, f(lo) < 0 < f(hi), to the working precision:
    # bisection in the distance from lo, by geometric midpoints while the
    # bracket spans more than a factor 2, so that a root near lo keeps its
    # relative digits
    d_lo, d_hi = (hi - lo) * mp.mpf(2) ** -600, hi - lo
    assert f(lo + d_lo) < 0 < f(hi)
    tol = mp.mpf(10) ** -(K_DIGITS + 5)
    while d_hi - d_lo > d_hi * tol:
        mid = mp.sqrt(d_lo * d_hi) if d_hi > 2 * d_lo else (d_lo + d_hi) / 2
        if f(lo + mid) < 0:
            d_lo = mid
        else:
            d_hi = mid
    return lo + d_hi
