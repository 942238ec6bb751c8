"""The Wu metric tensor h_ij on the egg, region by region, plus the pullback cross-check.

Matrix convention: ``H[i, j]`` holds the coefficient of dz_i (x) dzbar_j, so
the squared norm of v is sum_ij H[i, j] v_i conj(v_j) and H is Hermitian in
the ordinary sense. The pullback of a diagonal reference form R along a map
with holomorphic Jacobian D is then D^T R conj(D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    DomainParams,
    RegionLabel,
    as_vector,
    automorphism_jacobian,
    classify_region,
    defining_function,
    reference_coordinate,
    seam_distance,
)
from .errors import DomainError, SeamProximityError
from .fitting import fit_origin, fit_reference, solve_X
from .numerics import abs_pow, wirtinger_jet

#: |z1| below which the z1 = 0 limiting tensor is evaluated directly (the
#: limit deviates by O(|z1|), far under every tolerance in use)
_Z_FORMULA_TOL = 1e-12

#: default holomorphic-differencing step for the Kahler defect
KAHLER_STEP = 1e-5


@dataclass(frozen=True)
class HermitianForm:
    """Hermitian metric coefficients at a point, with region provenance.

    ``source`` records which regional closed form produced the entries; on
    the thin strata it carries a limit tag (the adjacent region whose formula
    was evaluated in the limit).
    """

    matrix: np.ndarray
    region: RegionLabel
    source: str

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def norm_sq(self, v) -> float:
        v = np.asarray(v, dtype=complex)
        return float(np.real(np.dot(v, self.matrix @ np.conj(v))))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _chord_tensor(domain: DomainParams, z: np.ndarray) -> np.ndarray:
    # closed form for m <= 1 (and directly on Z there): pullback of the
    # two-intercept chord fit, written out entrywise
    m = domain.m
    n = domain.n
    z1 = z[0]
    s2 = 1.0 - float(np.sum(np.abs(z[1:]) ** 2))
    a = abs_pow(s2, 1.0 / m)
    d = (a - abs(z1) ** 2) ** 2
    r = s2 - abs_pow(abs(z1), 2 * m)
    H = np.zeros((n, n), dtype=complex)
    H[0, 0] = a / d
    for j in range(1, n):
        H[0, j] = abs_pow(s2, 1.0 / m - 1.0) * np.conj(z1) * z[j] / (m * d)
        H[j, 0] = np.conj(H[0, j])
    for i in range(1, n):
        for j in range(1, n):
            cross = (abs_pow(s2, 1.0 / m - 2.0) * abs(z1) ** 2
                     * np.conj(z[i]) * z[j] / (m * m * d))
            if i == j:
                H[i, j] = cross + (s2 + abs(z[i]) ** 2) / (s2 * r)
            else:
                H[i, j] = cross + np.conj(z[i]) * z[j] / (s2 * r)
    return H


def _outer_tensor(domain: DomainParams, z: np.ndarray) -> np.ndarray:
    # outer region (and ball m = 1): complex Hessian of -log(1 - |z1|^2m - |zhat|^2)
    m = domain.m
    n = domain.n
    z1 = z[0]
    s2 = 1.0 - float(np.sum(np.abs(z[1:]) ** 2))
    r = s2 - abs_pow(abs(z1), 2 * m)
    H = np.zeros((n, n), dtype=complex)
    H[0, 0] = m * m * s2 * abs_pow(abs(z1), 2 * m - 2) / r ** 2
    for j in range(1, n):
        H[0, j] = m * abs_pow(abs(z1), 2 * m - 2) * np.conj(z1) * z[j] / r ** 2
        H[j, 0] = np.conj(H[0, j])
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                H[i, j] = (s2 + abs(z[i]) ** 2 - abs_pow(abs(z1), 2 * m)) / r ** 2
            else:
                H[i, j] = np.conj(z[i]) * z[j] / r ** 2
    return H


def _inner_tensor(domain: DomainParams, z: np.ndarray) -> np.ndarray:
    # inner region, m > 1: diagonal-plus-rank-structure form driven by the
    # tangency root X at (|z1|, s)
    m = domain.m
    n = domain.n
    z1 = z[0]
    s2 = 1.0 - float(np.sum(np.abs(z[1:]) ** 2))
    P = abs_pow(abs(z1), 2 * m)
    X = solve_X(domain, abs(z1), math.sqrt(s2))
    Fs = m * s2 * abs_pow(X, m - 1) - (m - 1.0) * s2 * abs_pow(X, m) - P
    c0 = s2 * abs_pow(X, 2 * m - 1) / (2.0 * Fs * Fs)
    g = (m * abs_pow(X, m - 1) - (m - 1.0) * abs_pow(X, m)) / P
    H = np.zeros((n, n), dtype=complex)
    H[0, 0] = c0 * m * m * s2 / abs(z1) ** 2
    for j in range(1, n):
        H[j, 0] = c0 * m * np.conj(z[j]) / np.conj(z1)
        H[0, j] = np.conj(H[j, 0])
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                sj2 = s2 + abs(z[i]) ** 2
                H[i, j] = c0 * ((m * sj2 * abs_pow(X, m - 1)
                                 - (m - 1.0) * sj2 * abs_pow(X, m)) / P - 1.0)
            else:
                H[i, j] = c0 * g * np.conj(z[i]) * z[j]
    return H


def _z_limit_tensor(domain: DomainParams, z: np.ndarray) -> np.ndarray:
    # z1 = 0 limit of the inner-region form (m > 1)
    m = domain.m
    n = domain.n
    s2 = 1.0 - float(np.sum(np.abs(z[1:]) ** 2))
    H = np.zeros((n, n), dtype=complex)
    H[0, 0] = abs_pow(m + 1.0, 1.0 / m) / (2.0 * abs_pow(s2, 1.0 / m))
    for i in range(1, n):
        for j in range(1, n):
            H[i, j] = (m + 1.0) * ((s2 if i == j else 0.0)
                                   + np.conj(z[i]) * z[j]) / (2.0 * m * s2 * s2)
    return H


def wu_tensor(domain: DomainParams, z, tol: float = 1e-10) -> HermitianForm:
    """Wu metric coefficients at an interior point, by the regional closed forms.

    For m <= 1 one closed form covers the whole egg (its direct evaluation at
    z1 = 0 is the continuity limit). For m > 1 the outer form applies on and
    outside the middle stratum, the inner form inside it, and the z1 = 0
    limit on Z; the ``source`` tag names the formula used.
    """
    z = as_vector(z, domain.n)
    if defining_function(domain, z) >= 0.0:
        raise DomainError("point lies outside the egg")
    region = classify_region(domain, z, tol=tol)
    m = domain.m
    if m < 1.0:
        source = "chord-form" if abs(z[0]) > tol else "chord-form (z1=0 limit)"
        return HermitianForm(_chord_tensor(domain, z), region, source)
    if m == 1.0:
        return HermitianForm(_outer_tensor(domain, z), region, "ball")
    if abs(z[0]) < _Z_FORMULA_TOL:
        return HermitianForm(_z_limit_tensor(domain, z), region, "inner-form (Z limit)")
    w = 2.0 * abs_pow(abs(z[0]), 2 * m) + float(np.sum(np.abs(z[1:]) ** 2)) - 1.0
    if w >= 0.0:
        source = "outer-form" if region is not RegionLabel.M_ZERO else "outer-form (on M0)"
        return HermitianForm(_outer_tensor(domain, z), region, source)
    source = "inner-form"
    if region is RegionLabel.Z:
        source = "inner-form (near Z)"
    elif region is RegionLabel.M_ZERO:
        source = "inner-form (on M0)"
    return HermitianForm(_inner_tensor(domain, z), region, source)


def pullback_tensor(domain: DomainParams, z, tol: float = 1e-10) -> HermitianForm:
    """Wu tensor transported from the reference axis point through the automorphism.

    Independent of the regional closed forms: only the diagonal fit at the
    reference coordinate and the automorphism Jacobian enter.
    """
    z = as_vector(z, domain.n)
    if defining_function(domain, z) >= 0.0:
        raise DomainError("point lies outside the egg")
    p1_ref = reference_coordinate(domain, z)
    if p1_ref < 1e-15:
        ell = fit_origin(domain)
        source = "pullback (origin fit)"
    else:
        ell = fit_reference(domain, p1_ref)
        source = "pullback"
    D = automorphism_jacobian(domain, z, z)
    R = np.diag([ell.r1] + [ell.r2] * (domain.n - 1)).astype(complex)
    H = D.T @ R @ np.conj(D)
    H = 0.5 * (H + H.conj().T)  # exact Hermitian symmetry
    return HermitianForm(H, classify_region(domain, z, tol=tol), source)


def wu_norm(domain: DomainParams, z, v) -> float:
    """Length of a tangent vector in the Wu metric."""
    v = as_vector(v, domain.n)
    form = wu_tensor(domain, z)
    return math.sqrt(max(form.norm_sq(v), 0.0))


def kahler_defect(domain: DomainParams, z, step: float = KAHLER_STEP) -> float:
    """max_ijk |d h_ij / dz_k - d h_kj / dz_i|, the first-order Kahler obstruction.

    Differencing steps shrink to an eighth of the distance to the nearest
    seam so stencils never mix regional formulas; on a seam the probe is
    refused outright.
    """
    z = as_vector(z, domain.n)
    if defining_function(domain, z) >= 0.0:
        raise DomainError("point lies outside the egg")
    dist = seam_distance(domain, z)
    h = min(step, dist / 8.0)
    if h < 1e-9:
        raise SeamProximityError(
            f"point is {dist:.2e} from a seam; differencing step would collapse")
    # looked up at call time, so a rebound ``wu_tensor`` sees every evaluation
    dz, _ = wirtinger_jet(lambda w: wu_tensor(domain, w).matrix, z, h, hessian=False)
    n = domain.n
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                worst = max(worst, abs(dz[k][i, j] - dz[i][k, j]))
    return worst
