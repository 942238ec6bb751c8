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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import DomainParams, as_vector
from .errors import ConfigurationError, DomainError
from .kcurve import joining_point_derivatives
from .kobayashi import kobayashi_sq
from .numerics import centered_difference_sum, onesided_weights
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
        return abs(self.jump) > 10.0 * self.jump_noise


def difference_magnitudes(f: Callable[[float], float], q: int,
                          steps: Sequence[float]) -> np.ndarray:
    """|centered q-th difference of f about 0| at each step."""
    return np.array([abs(centered_difference_sum(f, q, h)) for h in steps])


def _loglog_fit(steps: Sequence[float], vals: np.ndarray, floor: float):
    mask = vals > floor
    n_used = int(mask.sum())
    if n_used < _MIN_FIT_POINTS:
        return None, 0.0, n_used
    x = np.log(np.asarray(steps)[mask])
    y = np.log(vals[mask])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    total = np.sum((y - np.mean(y)) ** 2)
    r2 = 1.0 - float(np.sum(resid ** 2)) / max(float(total), 1e-300)
    return float(coef[0]), r2, n_used


def derivative_jump(f: Callable[[float], float], q: int,
                    h0: float = JUMP_STEP) -> tuple[float, float]:
    """One-sided jump of the q-th derivative at 0 and its empirical noise scale.

    Jump estimates at steps h0, h0/2, h0/4 from both sides; the returned
    noise is the largest inter-level change plus the roundoff amplification
    of the finest stencil, so artifacts of smooth functions self-identify.
    """
    jumps = []
    scale = 0.0
    weight_mag = 0.0
    for h in (h0, h0 / 2.0, h0 / 4.0):
        nodes = h * np.arange(q + 3, dtype=float)
        w = onesided_weights(q, nodes)
        f_plus = [f(x) for x in nodes]
        f_minus = [f(-x) for x in nodes]
        scale = max(scale, max(abs(v) for v in f_plus + f_minus))
        weight_mag = float(np.sum(np.abs(w)))
        wm = onesided_weights(q, -nodes)
        jumps.append(float(np.dot(w, f_plus) - np.dot(wm, f_minus)))
    roundoff = 64.0 * np.finfo(float).eps * scale * weight_mag
    noise = max(abs(jumps[0] - jumps[1]), abs(jumps[1] - jumps[2])) + roundoff
    return jumps[2], noise


def holder_exponent(f: Callable[[float], float], order: int,
                    steps: Sequence[float] = STEP_SCALES,
                    path: str = "path") -> SmoothnessReport:
    """Probe derivative ``order`` of f at the crossing t = 0.

    Both stencil parities (q = order+1, order+2) are fitted; a slope k+beta
    with beta strictly inside (0, 1) on a stencil of order q > k+beta flags a
    Hölder defect. Increments below the roundoff floor are excluded from the
    regression, which must keep at least four of the supplied scales.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    if len(steps) < 6:
        raise DomainError("need at least 6 step scales")
    candidates = []
    best_r2 = 0.0
    saw_signal = False
    degenerate = False
    for q in (order + 1, order + 2):
        vals = difference_magnitudes(f, q, steps)
        scale = max(float(np.max(vals)), abs(f(0.0)), 1e-300)
        floor = 128.0 * 2 ** q * np.finfo(float).eps * scale
        slope, r2, n_used = _loglog_fit(steps, vals, floor)
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
    jump, noise = derivative_jump(f, order + 1)
    step_range = (min(steps), max(steps))
    if candidates:
        r2, beta, n_used = max(candidates)
        return SmoothnessReport(path, order, beta, jump, noise, r2,
                                step_range, n_used, "holder")
    if degenerate:
        return SmoothnessReport(path, order, math.nan, jump, noise, best_r2,
                                step_range, len(steps), "inconclusive")
    if abs(jump) > 10.0 * noise:
        return SmoothnessReport(path, order, 1.0, jump, noise, best_r2,
                                step_range, len(steps), "jump")
    verdict = "smooth" if (saw_signal or noise > 0) else "inconclusive"
    return SmoothnessReport(path, order, 1.0 if verdict == "smooth" else math.nan,
                            jump, noise, best_r2, step_range, len(steps), verdict)


# ---------------------------------------------------------------------------
# seam path construction


def _random_hat(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    w = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    return radius * w / np.linalg.norm(w)


def wu_component_on_path(domain: DomainParams, component: str,
                         path: Callable[[float], np.ndarray]) -> Callable[[float], float]:
    idx = {"h11": (0, 0), "h22": (1, 1), "h12": (0, 1)}
    if component not in idx:
        raise ConfigurationError(f"unknown tensor component {component!r}")
    i, j = idx[component]

    def f(t: float) -> float:
        return float(np.real(wu_tensor(domain, path(t)).matrix[i, j]))

    return f


def kobayashi_sq_on_path(domain: DomainParams, v,
                         path: Callable[[float], np.ndarray]) -> Callable[[float], float]:
    v = as_vector(v, domain.n)

    def f(t: float) -> float:
        return kobayashi_sq(domain, path(t), v)

    return f


def seam_paths(domain: DomainParams, seam: str, component: str,
               seed: int, n_paths: int):
    """Build (label, probe, control) triples for a seam; controls never cross it."""
    rng = np.random.default_rng(seed)
    n = domain.n
    out = []
    for k in range(n_paths):
        zhat = _random_hat(rng, n, radius=rng.uniform(0.25, 0.5))
        if seam == "Z":
            def path(t: float, zh=zhat) -> np.ndarray:
                return np.concatenate(([t], zh))

            # tangential control: same component along a zhat direction at fixed z1
            z1c = 0.4 * domain.m0_radius

            def ctrl_path(t: float, zh=zhat) -> np.ndarray:
                q = np.concatenate(([z1c], zh))
                q[1] += t
                return q
        elif seam == "M0":
            if domain.m <= 1.0:
                raise ConfigurationError("the middle stratum exists only for m > 1")
            s = math.sqrt(1.0 - float(np.sum(np.abs(zhat) ** 2)))
            z1c = domain.m0_radius * s ** (1.0 / domain.m)

            def path(t: float, zh=zhat, c=z1c) -> np.ndarray:
                return np.concatenate(([c + t], zh))

            def ctrl_path(t: float, zh=zhat, c=z1c) -> np.ndarray:
                return np.concatenate(([0.75 * c + 0.5 * t], zh))
        else:
            raise ConfigurationError(f"unknown seam {seam!r}")
        if component == "K2":
            vhat = _random_hat(rng, n, radius=1.0)
            v = np.concatenate(([0.0], vhat))
            probe = kobayashi_sq_on_path(domain, v, path)
            control = kobayashi_sq_on_path(domain, v, ctrl_path)
        else:
            probe = wu_component_on_path(domain, component, path)
            control = wu_component_on_path(domain, component, ctrl_path)
        out.append((f"{seam}:{component}:base{k}", probe, control))
    return out


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
    not fake a detection.
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
    reports = []
    for label, probe, control in seam_paths(domain, seam, component, seed, n_paths):
        for order in orders:
            rep = holder_exponent(probe, order, path=label)
            ctrl_jump, ctrl_noise = derivative_jump(control, order + 1)
            pooled = max(rep.jump_noise, abs(ctrl_jump) + ctrl_noise)
            if pooled != rep.jump_noise:
                verdict = rep.verdict
                if verdict == "jump" and abs(rep.jump) <= 10.0 * pooled:
                    verdict = "smooth"
                rep = SmoothnessReport(rep.path, rep.order, rep.exponent, rep.jump,
                                       pooled, rep.r_squared, rep.step_range,
                                       rep.n_scales, verdict)
            reports.append(rep)
    return reports
