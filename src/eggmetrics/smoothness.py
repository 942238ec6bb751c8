"""Regularity probes: Hölder exponents and derivative jumps across the thin strata.

A probe examines one scalar function along a path crossing a seam at t = 0.
Centered differences of order q scale like h^(k+beta) when the k-th
derivative is beta-Hölder at the crossing, so a log-log fit of increment
magnitude against step recovers the exponent. Even and odd singular parts
are only visible to stencils of matching parity, so each probed order uses
the two stencils q = order+1 and order+2. Finite jumps in the next
derivative are measured by one-sided stencils at shrinking steps; a genuine
jump is scale-stable while truncation and roundoff artifacts are not, which
supplies the noise estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .domain import DomainParams, _reference_rows
from .errors import ConfigurationError
from .kcurve import joining_point_derivatives
from .kobayashi import kobayashi_sq
from .numerics import _check_integer, onesided_weights
from .tensor import wu_tensor

#: geometric step scales, 1e-2 down to 1e-5 (7 scales, half-decade ratio)
STEP_SCALES: tuple[float, ...] = tuple(1e-2 * 10 ** (-0.5 * j) for j in range(7))

#: base step for one-sided jump stencils
JUMP_STEP = 1e-3

#: rounding of the junction's d2, in ulps of the size of its two terms
_JUNCTION_D2_ULPS = 8.0

_MIN_FIT_POINTS = 4
_SLOPE_DEFECT_MARGIN = 0.15
_R2_FLOOR = 0.9


@dataclass(frozen=True)
class SmoothnessReport:
    """Outcome of probing derivative ``order`` of one path function.

    ``exponent`` is the Hölder exponent of the order-th derivative (1.0 when
    no fractional defect is detectable, NaN when inconclusive); ``jump`` is
    the one-sided jump statistic of derivative order+1 with its noise scale.
    """

    path: str
    order: int
    exponent: float
    jump: float
    jump_noise: float
    r_squared: float
    step_range: tuple[float, float]
    n_scales: int
    verdict: str  # "holder" | "jump" | "smooth" | "inconclusive"

    @property
    def jump_detected(self) -> bool:
        return bool(abs(self.jump) > 10.0 * self.jump_noise)


def _centered(q: int) -> tuple[np.ndarray, list[int]]:
    # nodes (q/2 - i) h of the centered q-th difference about 0, one row per
    # step h of ``STEP_SCALES``, and its weights (-1)^i C(q, i)
    nodes = (q / 2 - np.arange(q + 1)) * np.asarray(STEP_SCALES)[:, None]
    return nodes, [(-1) ** i * math.comb(q, i) for i in range(q + 1)]


def _on_nodes(f: Callable[[np.ndarray], np.ndarray], *nodes: np.ndarray) -> list[np.ndarray]:
    # f once on all node arrays; its values split back into their shapes
    values = np.asarray(f(np.concatenate([x.ravel() for x in nodes])), dtype=float)
    cuts = np.cumsum([x.size for x in nodes])[:-1]
    return [v.reshape(x.shape) for v, x in zip(np.split(values, cuts), nodes)]


def _loglog_fit(vals: np.ndarray, floor: float):
    mask = vals > floor
    n_used = int(mask.sum())
    if n_used < _MIN_FIT_POINTS:
        return None, 0.0, n_used
    x = np.log(np.asarray(STEP_SCALES)[mask])
    y = np.log(vals[mask])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    total = np.sum((y - np.mean(y)) ** 2)
    r2 = 1.0 - float(np.sum(resid ** 2)) / max(float(total), 1e-300)
    return float(coef[0]), r2, n_used


def _jump_nodes(q: int) -> np.ndarray:
    # one-sided nodes 0, h, ..., (q+2) h for h = h0, h0/2, h0/4 (h0 = ``JUMP_STEP``), one row each
    return (JUMP_STEP / np.array([1.0, 2.0, 4.0]))[:, None] * np.arange(q + 3, dtype=float)


def _jump_weights(q: int) -> np.ndarray:
    # the one-sided weights of ``_jump_nodes(q)`` (row 0) and of their
    # negatives (row 1), one row per step
    nodes = _jump_nodes(q)
    return np.array([[onesided_weights(q, x) for x in side] for side in (nodes, -nodes)])


def _jump(q: int, f_plus: np.ndarray, f_minus: np.ndarray) -> tuple[float, float]:
    # ``derivative_jump`` from the values of f at ``_jump_nodes(q)`` and at their negatives
    plus, minus = _jump_weights(q)
    jumps = [float(np.dot(w, fp) - np.dot(wm, fm))
             for w, wm, fp, fm in zip(plus, minus, f_plus, f_minus)]
    scale = float(np.max(np.abs([f_plus, f_minus])))
    roundoff = 64.0 * np.finfo(float).eps * scale * float(np.sum(np.abs(plus[-1])))
    noise = max(abs(jumps[0] - jumps[1]), abs(jumps[1] - jumps[2])) + roundoff
    return jumps[2], noise


def derivative_jump(f: Callable[[np.ndarray], np.ndarray], q: int) -> tuple[float, float]:
    """One-sided jump of the q-th derivative at 0 and its empirical noise scale.

    ``f`` maps an array of t to the array of its values; it is called once,
    on every node. Jump estimates at steps h0, h0/2, h0/4 (h0 = ``JUMP_STEP``)
    from both sides; the returned noise is the largest inter-level change
    plus the roundoff amplification of the finest stencil, so artifacts of
    smooth functions self-identify.
    """
    q = _check_integer(q, "derivative order", 0)
    nodes = _jump_nodes(q)
    return _jump(q, *_on_nodes(f, nodes, -nodes))


def holder_exponent(f: Callable[[np.ndarray], np.ndarray], order: int,
                    path: str = "path") -> SmoothnessReport:
    """Probe derivative ``order`` of f at the crossing t = 0.

    ``f`` maps an array of t to the array of its values; it is called once,
    on ``_holder_nodes``: the nodes of every stencil and t = 0. Both stencil
    parities (q = order+1, order+2) are fitted by ``_holder_report``; a slope
    k+beta with beta strictly inside (0, 1) on a stencil of order q > k+beta
    flags a Hölder defect. Increments below the roundoff floor are excluded
    from the regression, which must keep at least four of the ``STEP_SCALES``.
    """
    order = _check_integer(order, "derivative order", 0)
    return _holder_report(order, path, _on_nodes(f, *_holder_nodes(order)))


def _holder_nodes(order: int) -> list[np.ndarray]:
    # ``holder_exponent``'s nodes: both centered stencils, the jump nodes, their negatives and 0
    jump = _jump_nodes(order + 1)
    return [_centered(q)[0] for q in (order + 1, order + 2)] + [jump, -jump, np.zeros(1)]


def _holder_report(order: int, path: str, values) -> SmoothnessReport:
    # ``holder_exponent``'s report from f's values on ``_holder_nodes``
    candidates, best_r2, saw_signal, degenerate = [], 0.0, False, False
    *diffs, f_plus, f_minus, f0 = values
    for q, fv in zip((order + 1, order + 2), diffs):
        # summed node by node in stencil order; a matrix product may reassociate
        vals = np.abs(sum(w * col for w, col in zip(_centered(q)[1], fv.T)))
        scale = max(float(np.max(vals)), abs(float(f0[0])), 1e-300)
        floor = 128.0 * 2 ** q * np.finfo(float).eps * scale
        slope, r2, n_used = _loglog_fit(vals, floor)
        if slope is None:
            continue
        saw_signal = True
        best_r2 = max(best_r2, r2)
        beta = slope - order
        if slope < q - _SLOPE_DEFECT_MARGIN and 0.02 < beta < 0.98:
            if r2 >= _R2_FLOOR:
                candidates.append((r2, beta, n_used))
            else:
                degenerate = True
    jump, noise = _jump(order + 1, f_plus, f_minus)
    step_range, n_scales = (min(STEP_SCALES), max(STEP_SCALES)), len(STEP_SCALES)
    if candidates:
        r2, beta, n_used = max(candidates)
        return SmoothnessReport(path, order, beta, jump, noise, r2,
                                step_range, n_used, "holder")
    if degenerate:
        return SmoothnessReport(path, order, math.nan, jump, noise, best_r2,
                                step_range, n_scales, "inconclusive")
    if abs(jump) > 10.0 * noise:
        return SmoothnessReport(path, order, 1.0, jump, noise, best_r2,
                                step_range, n_scales, "jump")
    verdict = "smooth" if (saw_signal or noise > 0) else "inconclusive"
    return SmoothnessReport(path, order, 1.0 if verdict == "smooth" else math.nan,
                            jump, noise, best_r2, step_range, n_scales, verdict)


# ---------------------------------------------------------------------------
# seam path construction


def _random_hat(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    w = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    return radius * w / np.linalg.norm(w)


def _line(z0: np.ndarray, axis: int, rate: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    # the path t -> z0 + rate t e_axis, as (N, n) rows for an array of t
    def path(t: np.ndarray) -> np.ndarray:
        z = np.tile(z0, (len(t), 1))
        z[:, axis] += rate * t
        return z

    return path


def _seam_lines(domain: DomainParams, seam: str, component: str, seed: int, n_paths: int):
    # (label, path, control path, K2 vector or None) of each seeded path across the seam; a
    # path maps an array of t to (N, n) rows
    rng = np.random.default_rng(seed)
    for k in range(n_paths):
        zhat = _random_hat(rng, domain.n, radius=rng.uniform(0.25, 0.5))
        if seam == "Z":
            path = _line(np.concatenate(([0.0], zhat)), 0)
            # tangential control: same component along a zhat direction at fixed z1
            ctrl_path = _line(np.concatenate(([0.4 * domain.m0_radius], zhat)), 1)
        elif seam == "M0":
            if domain.m <= 1.0:
                raise ConfigurationError("the middle stratum exists only for m > 1")
            s = math.sqrt(1.0 - float(np.sum(np.abs(zhat) ** 2)))
            z1c = domain.m0_radius * s ** (1.0 / domain.m)
            path = _line(np.concatenate(([z1c], zhat)), 0)
            ctrl_path = _line(np.concatenate(([0.75 * z1c], zhat)), 0, rate=0.5)
        else:
            raise ConfigurationError(f"unknown seam {seam!r}")
        v = np.concatenate(([0.0], _random_hat(rng, domain.n, 1.0))) if component == "K2" else None
        yield f"{seam}:{component}:base{k}", path, ctrl_path, v


def seam_paths(domain: DomainParams, seam: str, component: str,
               seed: int, n_paths: int):
    """Build (label, probe, control) triples for a seam; controls never cross it.

    Probe and control map an array of t to the array of the component's values.
    ``seed`` is an integer >= 0 and ``n_paths`` one >= 1.
    """
    seed = _check_integer(seed, "path seed", 0)
    n_paths = _check_integer(n_paths, "path count", 1)
    idx = {"h11": (0, 0), "h22": (1, 1), "h12": (0, 1)}

    def on(path, v):  # the component along one path; v is bound here, per path
        if v is not None:
            return lambda t: kobayashi_sq(domain, path(t), np.tile(v, (len(t), 1)))
        if component not in idx:
            raise ConfigurationError(f"unknown tensor component {component!r}")
        i, j = idx[component]
        return lambda t: np.real(wu_tensor(domain, path(t))[:, i, j])

    return [(label, on(path, v), on(ctrl, v))
            for label, path, ctrl, v in _seam_lines(domain, seam, component, seed, n_paths)]


def regularity_scan(domain: DomainParams, seam: str, component: str | None = None,
                    seed: int = 0, orders: Sequence[int] = (1, 2, 3),
                    n_paths: int = 2) -> list[SmoothnessReport]:
    """Probe Wu tensor components or K^2 along seeded paths crossing a seam.

    ``seam`` is "Z", "M0", or "JUNCTION". The default component is "h22"
    (Wu) across Z for m < 1, "K2" across Z for m > 1 (the fractional
    behaviour there lives in the Kobayashi metric; the Wu closed form is
    smooth in the crossing variable), and "h11" across M0. JUNCTION reports
    come from the indicatrix derivative diagnostics at a fixed p1 grid.
    Control-path jumps are pooled into the noise so a drifting baseline can
    not fake a detection. Each path function is called once, on every order's
    nodes: the reports are ``holder_exponent``'s and ``derivative_jump``'s.
    A probe path whose farthest node would leave the egg is refused before
    any evaluation: the default orders reach 2.5e-2, and from m = 14 on M0
    lies nearer the boundary than that. ``seed`` (>= 0) and ``n_paths`` (>= 1)
    are checked where there are paths; JUNCTION reads neither.
    """
    if seam == "JUNCTION":
        reports = []
        for p1 in (0.3, 0.5, 0.7):
            d = joining_point_derivatives(domain, p1)
            # d2 is the difference of two terms; its rounding is ulps of them
            noise = _JUNCTION_D2_ULPS * np.finfo(float).eps * d.d2_terms
            reports.append(SmoothnessReport(
                path=f"JUNCTION:p1={p1}", order=2, exponent=1.0,
                jump=d.d2_match, jump_noise=noise, r_squared=1.0,
                step_range=(0.0, 0.0), n_scales=0,
                verdict="jump" if abs(d.d2_match) > 10.0 * noise else "smooth"))
            # d3 against its independent closed form: their gap is the noise,
            # which stays finite where the expected jump is 0 (the ball)
            reports.append(SmoothnessReport(
                path=f"JUNCTION:p1={p1}", order=3, exponent=1.0,
                jump=d.d3_jump,
                jump_noise=max(abs(d.d3_jump - d.d3_expected), 1e-12 * abs(d.d3_jump)),
                r_squared=1.0, step_range=(0.0, 0.0), n_scales=0,
                verdict="jump" if d.d3_expected != 0 else "smooth"))
        return reports
    if component is None:
        if seam == "Z":
            component = "h22" if domain.m < 1.0 else "K2"
        else:
            component = "h11"
    paths = seam_paths(domain, seam, component, seed, n_paths)
    orders = [_check_integer(order, "derivative order", 0) for order in orders]
    if not orders:
        return []
    probe_nodes = [x for order in orders for x in _holder_nodes(order)]
    control_nodes = [s * _jump_nodes(order + 1) for order in orders for s in (1.0, -1.0)]
    reach = max(float(np.max(np.abs(x))) for x in probe_nodes)
    for label, path, _, _ in _seam_lines(domain, seam, component, seed, n_paths):
        # the membership test of every evaluation, at the probe's farthest nodes; a probe runs
        # along z1, sm - r1 from the boundary. Controls reach under a third as far (jump nodes
        # only) and stay inside wherever their probes do
        r1, _, sm = _reference_rows(domain, path(np.array([0.0, -reach, reach])))
        if not (r1[1:] < sm[1:]).all():
            gap = float(sm[0] - r1[0])
            # order k's farthest node is that of its centered stencil q = k + 2
            fits = [k for k in range(max(orders)) if _centered(k + 2)[0].max() < gap]
            raise ConfigurationError(
                f"path {label} crosses the seam {gap:.3g} from the egg's boundary, but the "
                f"probe's nodes reach {reach:.3g} along it: "
                + (f"orders up to {fits[-1]} fit" if fits else "no order fits"))
    reports = []
    for label, probe, control in paths:
        values, ctrl = _on_nodes(probe, *probe_nodes), _on_nodes(control, *control_nodes)
        for i, order in enumerate(orders):
            rep = _holder_report(order, label, values[5 * i:5 * i + 5])
            ctrl_jump, ctrl_noise = _jump(order + 1, *ctrl[2 * i:2 * i + 2])
            pooled = max(rep.jump_noise, abs(ctrl_jump) + ctrl_noise)
            if pooled != rep.jump_noise:
                shared = rep.verdict == "jump" and abs(rep.jump) <= 10.0 * pooled
                rep = replace(rep, jump_noise=pooled, verdict="smooth" if shared else rep.verdict)
            reports.append(rep)
    return reports
