"""Self-verification suite: every structural claim the package relies on, per (m, n).

Each check is independent and returns a CheckResult; the CLI ``verify``
subcommand runs all applicable checks for the configured domain and reports
a pass/fail table. Seeded sampling makes runs reproducible.
"""

from __future__ import annotations

import itertools
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .curvature import _curvature, _sectional_values, direction_sample
from .domain import (
    DomainParams,
    RegionLabel,
    _automorphism,
    _axis_point,
    _defining,
    _gauge,
    _hat_sq,
    _seam_distance,
    _stratum_points,
    _unit_rows,
)
from .errors import ConfigurationError, NumericalError
from .fitting import (_CHORD, _LOWER, _TANGENCY, _arc_table, _containment_violation, _fit,
                      _fit_oracle, contact_point, fit_reference)
from .kcurve import (
    Branch,
    Convexity,
    _lower_xy_many,
    _upper_xy_many,
    joining_point,
    joining_point_derivatives,
    kcurve_alpha_grid,
    kcurve_alpha_range,
    kcurve_sample,
    square_convexity_check,
)
from .kobayashi import _alt_upper, branch_params, kobayashi
from .numerics import Taylor2, _check_integer, wirtinger_jet
from .tensor import (_chain, _jet_region, _moved, _norm_sq, _wu_jet, _wu_matrices,
                     kahler_defect, pullback_tensor, wu_norm, wu_tensor)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _rel(a, b):
    # relative gap of floats, or of arrays element by element
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def _rel_max(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # max |A - B| / max |A| of each matrix of two (N, n, n) stacks
    return np.max(np.abs(A - B), axis=(1, 2)) / np.max(np.abs(A), axis=(1, 2))


def check_gauge(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    # per sample a direction, its length and lam, each column drawn as one block
    g = rng.normal(size=(50, 2, domain.n))
    length, lam = rng.uniform(0.1, 2.0, 50), rng.uniform(0.1, 5.0, 50)
    v = _unit_rows(g) * length[:, None]
    gauge, scaled = _gauge(domain, np.concatenate([v, lam[:, None] * v])).reshape(2, -1)
    mismatch = np.flatnonzero((gauge < 1.0) != (_defining(domain, v) < 0.0))
    if mismatch.size:
        return False, f"gauge/membership mismatch at {v[mismatch[0]]!r}"
    worst_h = float(np.max(_rel(scaled, lam * gauge)))
    return worst_h < 1e-12, f"homogeneity worst rel err {worst_h:.2e}"


def check_automorphism(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    n = domain.n
    ps, zs = (_stratum_points(domain, rng, 25, "interior") for _ in range(2))
    vs = _unit_rows(rng.normal(size=(25, 2, n)))
    zb = vs / np.maximum(_gauge(domain, vs), 1e-300)[:, None]
    # per sample p, a boundary point, z and the central differences in each
    # z_j, all moved by the map at p in one call
    steps = 1e-6 * np.eye(n)
    z = np.concatenate([ps[:, None], zb[:, None], zs[:, None], zs[:, None] + steps,
                        zs[:, None] - steps], axis=1)
    img, D = _automorphism(domain, np.repeat(ps, 3 + 2 * n, axis=0), z.reshape(-1, n))
    img, D = img.reshape(z.shape), D[2::3 + 2 * n]
    s = np.sqrt(1.0 - _hat_sq(ps))
    worst_ref = float(max(np.max(np.abs(img[:, 0, 0] - np.abs(ps[:, 0]) / s ** (1.0 / domain.m))),
                          np.max(np.abs(img[:, 0, 1:]))))
    worst_bdry = float(np.max(np.abs(_defining(domain, img[:, 1]))))
    fd = (img[:, 3:3 + n] - img[:, 3 + n:]).transpose(0, 2, 1) / 2e-6  # column j: d/dz_j
    worst_jac = float(np.max(_rel_max(D, fd)))
    ok = worst_ref < 1e-12 and worst_bdry < 1e-9 and worst_jac < 1e-6
    return ok, (f"reference {worst_ref:.1e}, boundary {worst_bdry:.1e}, "
                f"jacobian-vs-fd {worst_jac:.1e}")


def check_branch_junction(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    m = domain.m
    p1s = (0.25, 0.5, 0.8)
    h = 1e-4
    vhat = np.zeros(domain.n - 1, dtype=complex)
    vhat[0] = 1.0
    for p1 in p1s:
        bp = branch_params(domain, p1, np.concatenate(([p1 * (1 + 1e-13) / m], vhat)))
        if bp.branch is not Branch.UPPER:
            return False, f"tie-breaking failed just above the junction at p1={p1}"
    # per p1, K at v = (u/m, vhat) for u at the junction, just above it (must
    # agree with the LOWER value) and on one-sided stencils either side;
    # kobayashi at the axis points (p1, 0, ..., 0) is kobayashi_reference
    u = np.array([(p1, p1 * (1 + 1e-12), p1 - h, p1 - 2 * h, p1 + h, p1 + 2 * h)
                  for p1 in p1s]).ravel()
    axis = _axis_point(domain, np.repeat(p1s, 6))
    vecs = np.zeros((len(u), domain.n), dtype=complex)
    vecs[:, 0], vecs[:, 1:] = u / m, vhat
    k0, k_up, k_m1, k_m2, k_p1, k_p2 = kobayashi(domain, axis, vecs).reshape(len(p1s), -1).T
    worst_val = float(np.max(_rel(k0, k_up)))
    d_minus = (3 * k0 - 4 * k_m1 + k_m2) / (2 * h)
    d_plus = (-3 * k0 + 4 * k_p1 - k_p2) / (2 * h)
    worst_d1 = float(np.max(np.abs(d_plus - d_minus)))
    ok = worst_val < 1e-10 and worst_d1 < 1e-6
    return ok, f"junction value gap {worst_val:.1e}, one-sided d1 gap {worst_d1:.1e}"


def check_alt_upper(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    m = domain.m
    # per sample p1, a unit vhat from the zhat part of n normal pairs, and u/p1
    # in the UPPER branch, each column drawn as one block
    p1, g = rng.uniform(0.1, 0.9, 100), rng.normal(size=(100, 2, domain.n))
    ratio = rng.uniform(1.05, 40.0, 100)
    vs = np.concatenate([(p1 * ratio / m)[:, None], _unit_rows(g[:, :, 1:])], axis=1)
    # at the axis points (p1, 0, ..., 0) kobayashi is the branch formula of
    # kobayashi_reference: the reduction leaves p1 and |v1|, |vhat| as they are
    K = kobayashi(domain, _axis_point(domain, p1), vs)
    alt = _alt_upper(m, p1, np.abs(vs[:, 0]), _hat_sq(vs))
    worst = float(np.max(_rel(K, alt)))
    return worst < 1e-10, f"worst rel gap {worst:.2e}"


def check_kcurves(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    p1s, vs = [], []
    for p1 in (0.3, 0.6, 0.85):
        for branch, xy_many in ((Branch.UPPER, _upper_xy_many), (Branch.LOWER, _lower_xy_many)):
            # the grid lies in the branch range; clamped at 0 as kcurve_sample clamps
            xy = np.maximum(xy_many(domain.m, p1, kcurve_alpha_grid(domain, p1, branch, 48)), 0.0)
            v = np.zeros((len(xy), domain.n), dtype=complex)
            v[:, 0], v[:, 1] = np.sqrt(xy[:, 1]), np.sqrt(xy[:, 0])
            p1s.extend([p1] * len(xy))
            vs.append(v)
        up = kcurve_sample(domain, p1, Branch.UPPER, 1.0)
        lo = kcurve_sample(domain, p1, Branch.LOWER, 1.0)
        jp = joining_point(domain, p1)
        worst = max(worst, abs(up.x - lo.x), abs(up.y - lo.y),
                    abs(up.x - jp[0]), abs(up.y - jp[1]))
    # kobayashi at the axis points (p1, 0, ..., 0) is kobayashi_reference
    K = kobayashi(domain, _axis_point(domain, p1s), np.concatenate(vs))
    worst = max(worst, float(np.max(np.abs(K ** 2 - 1.0))))
    return worst < 1e-10, f"worst indicatrix residual {worst:.2e}"


def check_convexity(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    m = domain.m
    msgs = []
    ok = True
    for p1 in (0.4, 0.7):
        try:
            low = square_convexity_check(domain, p1, Branch.LOWER)
            ok &= low.verdict is Convexity.AFFINE
            lower = low.verdict.value
        except NumericalError:
            # the LOWER branch is a straight segment by construction
            # (``_lower_xy_many`` is affine in alpha); too short in x for a
            # divided difference, it takes that exact verdict
            x = _lower_xy_many(m, p1, kcurve_alpha_range(domain, p1, Branch.LOWER))[:, 0]
            lower = f"{Convexity.AFFINE.value} (exact, x-span {x[1] - x[0]:.1e})"
        up = square_convexity_check(domain, p1, Branch.UPPER)
        # the UPPER arc is convex for m < 1, a line on the ball and concave for m > 1
        ok &= up.verdict is (Convexity.CONVEX if m < 1.0 else
                             Convexity.AFFINE if m == 1.0 else Convexity.CONCAVE)
        msgs.append(f"p1={p1}: lower={lower}, upper={up.verdict.value}")
    return ok, "; ".join(msgs)


def _fit_test_points(domain: DomainParams) -> list[float]:
    if domain.m > 1.0:
        thr = domain.m0_radius
        return [0.5 * thr, 0.95 * thr, min(0.999, 1.05 * thr), 0.9]
    return [0.2, 0.5, 0.8]


def check_fit_oracle(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    worst = rel = 0.0
    for p1 in _fit_test_points(domain):
        ref, table = fit_reference(domain, p1), _arc_table(domain.m, p1)
        orc = _fit_oracle(domain, p1, *table)
        rel = max(rel, _rel(ref.r1, orc.r1), _rel(ref.r2, orc.r2))
        worst = max(worst, _containment_violation(domain, p1, ref, *table))
    # a tenfold margin on 1e-9; the tangent-table oracle reaches about 3e-14 here
    ok = rel < 1e-8 and worst <= 1e-9
    return ok, f"worst fit-vs-oracle rel {rel:.2e}, containment violation {worst:.2e}"


def check_domination(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    z = _stratum_points(domain, rng, 300, "interior")
    v = _unit_rows(rng.normal(size=(300, 2, domain.n)))
    worst = float(np.max(wu_norm(domain, z, v) - kobayashi(domain, z, v)))
    return worst <= 1e-9, f"max(wu - kobayashi) = {worst:.2e}"


def check_invariance(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    # the pairs (p, v) and their images (pq, D v) under the automorphism
    # moving q to the axis, one batch of rows
    count = 40
    ps, qs = (_stratum_points(domain, rng, count, "interior") for _ in range(2))
    vs = _unit_rows(rng.normal(size=(count, 2, domain.n)))
    pqs, D = _automorphism(domain, qs, ps)
    pts, vecs = np.concatenate([ps, pqs]), np.concatenate([vs, (D @ vs[..., None])[..., 0]])
    K = kobayashi(domain, pts, vecs)
    H = wu_tensor(domain, pts)
    W = np.sqrt(np.maximum(_norm_sq(H, vecs), 0.0))  # from the tensors, not wu_norm's reals
    worst_k = float(np.max(_rel(K[:count], K[count:])))
    worst_w = float(np.max(_rel(W[:count], W[count:])))
    pulled = D.transpose(0, 2, 1) @ H[count:] @ np.conj(D)
    worst_t = float(np.max(_rel_max(H[:count], pulled)))
    ok = worst_k < 1e-8 and worst_w < 1e-8 and worst_t < 1e-7
    return ok, f"K {worst_k:.1e}, wu {worst_w:.1e}, tensor {worst_t:.1e}"


def check_tensor_consistency(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    z = _stratum_points(domain, rng, 60, "interior")
    a = wu_tensor(domain, z)
    b = pullback_tensor(domain, z)
    herm = np.max(np.abs(a - np.conj(a).transpose(0, 2, 1)), axis=(1, 2))
    worst = float(np.max(np.maximum(_rel_max(a, b), herm)))
    min_eig = float(np.min(np.linalg.eigvalsh(a)[:, 0]))
    ok = worst < 1e-7 and min_eig > 0.0
    return ok, f"closed-vs-pullback worst {worst:.1e}, min eigenvalue {min_eig:.3f}"


def check_potential_identity(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    # outer-region tensor equals the exact complex Hessian of
    # -log(1 - |z1|^2m - |zhat|^2), from its jet in (|z1|^2, 1 - |zhat|^2), at the
    # first six rows of one M+ block 1e-3 from every seam; the block holds at least
    # 26 of them up to m = 160 (n <= 4, seeds 0-3), and none from m = 180, where
    # M+ is too thin on the axis
    rows = _stratum_points(domain, rng, 1024, "M+")
    zs = list(itertools.islice((z for z in rows if _seam_distance(domain, z) > 1e-3), 6))
    if len(zs) < 6:
        raise NumericalError(
            f"no M+ point 1e-3 from every seam for {6 - len(zs)} of 6 samples in {len(rows)} rows "
            f"(M+ is {1.0 - domain.m0_radius:.1e} wide on the axis)")
    worst = 0.0
    for z, H in zip(zs, wu_tensor(domain, np.array(zs))):
        t, s2 = Taylor2.variables(abs(z[0]) ** 2, 1.0 - float(np.sum(np.abs(z[1:]) ** 2)))
        complex_hess = _chain(z, [-(s2 - t ** domain.m).log()])[2][0]
        worst = max(worst, float(np.max(np.abs(complex_hess - H))))
    return worst < 1e-6, f"worst |hessian - tensor| {worst:.2e}"


def _m0_gaps(domain: DomainParams) -> tuple[float, float, float]:
    # relative gaps of the value, first and second u-derivative of the LOWER
    # and the tangency fit at u = m0_radius^2, each the larger of r1's and
    # r2's, from both closed forms' exact jets. The tensor is ``_moved`` of
    # the fit at u = |z1|^2 sigma, analytic inside the egg, and du/dz1 is
    # nonzero off Z: its one-sided jets at M0 differ only as the fit's do
    u = Taylor2.variables(domain.m0_radius ** 2, 0.0)[0]
    pairs = list(zip(_fit(domain, _LOWER, u), _fit(domain, _TANGENCY, u)))
    return tuple(max(float(_rel(getattr(a, k), getattr(b, k))) for a, b in pairs)
                 for k in ("v", "t", "tt"))


def check_seam_continuity(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    gap = _m0_gaps(domain)[0]
    # tensor continuity across Z, a step of 1e-7 in z1 off it
    zh = np.full(domain.n - 1, 0.3, dtype=complex)
    z0 = wu_tensor(domain, np.concatenate(([0.0], zh))).matrix
    z1 = wu_tensor(domain, np.concatenate(([1e-7], zh))).matrix
    gap_z = float(np.max(np.abs(z0 - z1))) / float(np.max(np.abs(z0)))
    return gap < 1e-12 and gap_z < 1e-5, f"M0 fit jet value gap {gap:.1e}, Z gap {gap_z:.1e}"


def check_kahler(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    # (label, p1, z2, Kahler there) per axis point (p1, z2, 0, ...): either side
    # of M0 for m > 1, one point for m < 1 and on the ball
    m, r0 = domain.m, domain.m0_radius
    if m > 1.0:
        cases = [("outer defect", 0.5 * (r0 + 1.0), 0.05, True),
                 ("inner defect", 0.5 * r0, 0.1, False)]
    else:
        cases = [("defect", 0.5, 0.2, False) if m < 1.0 else ("ball defect", 0.4, 0.2, True)]
    ok, msgs = True, []
    for label, p1, z2, kahler in cases:
        d = kahler_defect(domain, _axis_point(domain, p1, z2))
        ok &= d < 1e-6 if kahler else d > 1e-3
        msgs.append(f"{label} {d:.1e}")
    return ok, "; ".join(msgs)


def check_curvature(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    m = domain.m
    dirs = direction_sample(domain.n, seed=7, count=8)
    if m == 1.0:
        pts = _stratum_points(domain, rng, 3, "interior")
    elif m > 1.0:
        thr = domain.m0_radius
        pts = [_axis_point(domain, p1) for p1 in np.linspace(0.55 * thr, 0.9 * thr, 2)]
        pts += [_axis_point(domain, thr + frac * (0.985 - thr)) for frac in (0.35, 0.85)]
    else:
        pts = [_axis_point(domain, p1) for p1 in (0.2, 0.5, 0.8)]
    ok, values, gap = True, [], 0.0
    # the exact second derivatives against the difference oracle on all stencils at once
    fds = wirtinger_jet(lambda w: _wu_matrices(domain, w), np.array(pts), 1e-4)[2]
    for z, fd in zip(pts, fds):
        region, ref = _jet_region(domain, z)
        jet = _wu_jet(domain, z, region, ref)
        tensor = _curvature(z, *jet)
        exact = jet[2]
        gap = max(gap, float(np.max(np.abs(exact - fd)) / np.max(np.abs(exact))))
        vals = _sectional_values(tensor.components, tensor.metric.matrix, dirs).tolist()
        values.extend(vals)
        if m == 1.0 or region is RegionLabel.M_PLUS:
            ok &= all(abs(v + 2.0) < 1e-3 for v in vals)
    ok &= all(v < -0.1 for v in values) and gap <= 1e-6
    return ok, (f"sectional range [{min(values):.4f}, {max(values):.4f}]; "
                f"exact-vs-difference ddbar gap {gap:.1e}")


def check_joining_derivatives(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    # p1 with p1^2m = 0.3: keeps the 1/xdot^3 conditioning uniform across m
    p1 = 0.3 ** (1.0 / (2.0 * domain.m))
    d = joining_point_derivatives(domain, p1)
    rel = (abs(d.d3_jump - d.d3_expected) / abs(d.d3_expected)
           if d.d3_expected != 0 else abs(d.d3_jump))
    ok = abs(d.d2_match) < 1e-8 and rel < 1e-6
    return ok, f"p1={p1:.3f}: d2 {d.d2_match:.1e}, d3 rel gap {rel:.1e}"


def check_contact(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for p1 in (0.4 * domain.m0_radius, 0.8 * domain.m0_radius):
        c = contact_point(domain, p1)
        ell = fit_reference(domain, p1)
        worst = max(worst, abs(ell.r1 * c.y_star + ell.r2 * c.x_star - 1.0))
        if c.x_star <= 0.0:
            return False, f"contact x* = {c.x_star} at p1={p1}"
    return worst < 1e-9, f"worst line residual at contact {worst:.1e}"


def check_smoothness(domain: DomainParams, rng: np.random.Generator) -> tuple[bool, str]:
    m = domain.m
    if m > 1.0:
        # C1 across M0: the one-sided fit jets' first derivatives agree; not
        # C2: their second derivatives jump
        _, d1, d2 = _m0_gaps(domain)
        return d1 < 1e-12 and d2 > 1e-10, (f"M0 first-derivative gap {d1:.1e}, "
                                          f"second-derivative jump {d2:.1e}")
    # h22's |z1|^2m term across Z at zhat = (0.3, ..., 0.3). Of the chord fit
    # only r2 = 1/(1 - P) is not analytic in |z1|^2: P = u^m = |z1|^2m/s2, as
    # sigma^m = 1/s2. ``_moved`` of the fit with r2 a jet in P (u's analytic
    # terms left out) gives dh22/dP at z1 = 0, which over s2 is that term's amplitude
    s2 = 1.0 - 0.09 * (domain.n - 1)
    fit = _fit(domain, _CHORD, Taylor2(0.0), Taylor2(0.0, 1.0))
    _, _, c, e = _moved(domain, 0.0, s2, s2 ** (-1.0 / m), *fit)
    amp = (c + 0.09 * e).t / s2
    kind = {0.5: "continuous, not C1", 1.0: "analytic"}.get(
        m, f"first derivative Holder with exponent {2 * m - 1:.8g}")
    return amp > 0.0, f"Z |z1|^{2 * m:.8g} term of h22 from r2: amplitude {amp:.5f}, {kind}"


_CHECKS: list[tuple[str, Callable, Callable[[DomainParams], bool]]] = [
    ("gauge-membership", check_gauge, lambda d: True),
    ("automorphism-geometry", check_automorphism, lambda d: True),
    ("branch-junction", check_branch_junction, lambda d: d.m != 0.5),
    ("alternate-upper-formula", check_alt_upper, lambda d: True),
    ("kcurves-on-indicatrix", check_kcurves, lambda d: True),
    ("square-convexity", check_convexity, lambda d: True),
    ("fit-vs-oracle", check_fit_oracle, lambda d: True),
    ("containment-domination", check_domination, lambda d: True),
    ("invariance", check_invariance, lambda d: True),
    ("tensor-consistency", check_tensor_consistency, lambda d: True),
    ("kahler-potential", check_potential_identity, lambda d: d.m > 1.0),
    ("seam-continuity", check_seam_continuity, lambda d: d.m > 1.0),
    ("kahler-classification", check_kahler, lambda d: True),
    ("curvature", check_curvature, lambda d: True),
    ("joining-derivatives", check_joining_derivatives, lambda d: d.m != 0.5),
    ("contact-point", check_contact, lambda d: d.m > 1.0),
    ("smoothness", check_smoothness, lambda d: True),
]


def run_checks(domain: DomainParams, seed: int = 0,
               names: Iterable[str] | None = None) -> list[CheckResult]:
    """Run the applicable checks for this domain; each gets its own seeded stream.

    ``seed`` is an integer >= 0. ``names`` restricts the run; a name that is
    no check raises ``ConfigurationError``.
    """
    seed = _check_integer(seed, "check seed", 0)
    wanted = set(names) if names is not None else None
    if wanted is not None and (unknown := wanted - {name for name, _, _ in _CHECKS}):
        raise ConfigurationError(f"unknown check name(s): {', '.join(sorted(unknown))}")
    results = []
    for name, fn, applies in _CHECKS:
        if wanted is not None and name not in wanted:
            continue
        if not applies(domain):
            continue
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        t0 = time.perf_counter()
        try:
            passed, detail = fn(domain, rng)
        except Exception as exc:  # a crashing check is that check's FAIL row
            passed, detail = False, f"error: {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))
    return results
