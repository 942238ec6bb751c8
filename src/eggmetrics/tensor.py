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
    REGION_TOL,
    DomainParams,
    RegionLabel,
    _defining,
    _jacobian,
    _reference_coordinate,
    _region_of,
    _seam_distance,
    as_vector,
)
from .errors import DomainError, SeamProximityError
from .fitting import _solve_X_many, fit_origin, fit_reference
from .numerics import wirtinger_jet

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
        return _norm_sq(self.matrix, np.asarray(v, dtype=complex))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _norm_sq(matrix: np.ndarray, v: np.ndarray) -> float:
    # sum_ij H[i, j] v_i conj(v_j) for a complex vector v
    return float(np.real(np.dot(v, matrix @ np.conj(v))))


# Every regional form is invariant under phase rotation of z1 and unitary
# rotation of zhat, so at each point it has the shape
#   H[0, 0] = a,  H[0, j] = b conj(z1) z_j,  H[i, j] = c delta_ij + e conj(z_i) z_j
# for i, j >= 1. Each closed form below maps rows of t = |z1|^2 and
# s2 = 1 - |zhat|^2 to its coefficients (a, b, c, e). Squared moduli are
# summed from real and imaginary parts: numpy's complex abs is a few ulp
# off, which a differencing stencil amplifies.


def _chord_form(domain: DomainParams, t: np.ndarray, s2: np.ndarray):
    # m < 1 (and directly on Z there): pullback of the two-intercept chord fit
    m = domain.m
    a = s2 ** (1.0 / m)
    d = (a - t) ** 2
    rr = s2 - t ** m
    return (a / d, s2 ** (1.0 / m - 1.0) / (m * d), 1.0 / rr,
            s2 ** (1.0 / m - 2.0) * t / (m * m * d) + 1.0 / (s2 * rr))


def _outer_form(domain: DomainParams, t: np.ndarray, s2: np.ndarray):
    # outer region and the ball m = 1: complex Hessian of -log(1 - |z1|^2m - |zhat|^2)
    m = domain.m
    tp = t ** (m - 1.0)
    rr = s2 - t ** m
    return m * m * s2 * tp / rr ** 2, m * tp / rr ** 2, 1.0 / rr, 1.0 / rr ** 2


def _inner_form(domain: DomainParams, t: np.ndarray, s2: np.ndarray):
    # inner region, m > 1: driven by the tangency root X at (|z1|, sqrt(s2))
    m = domain.m
    P = t ** m
    X = _solve_X_many(domain, np.sqrt(t), np.sqrt(s2))
    G = m * X ** (m - 1) - (m - 1.0) * X ** m
    Fs = s2 * G - P
    c0 = s2 * X ** (2 * m - 1) / (2.0 * Fs * Fs)
    return c0 * m * m * s2 / t, c0 * m / t, c0 * Fs / P, c0 * G / P


def _z_limit_form(domain: DomainParams, t: np.ndarray, s2: np.ndarray):
    # z1 = 0 limit of the inner-region form (m > 1)
    m = domain.m
    return ((m + 1.0) ** (1.0 / m) / (2.0 * s2 ** (1.0 / m)), np.zeros_like(s2),
            (m + 1.0) / (2.0 * m * s2), (m + 1.0) / (2.0 * m * s2 * s2))


_FORMS = (_chord_form, _outer_form, _inner_form, _z_limit_form)
_SOURCES = ("chord-form", "outer-form", "inner-form", "inner-form (Z limit)")
_CHORD, _OUTER, _INNER, _Z_LIMIT = range(4)


def _moduli(z: np.ndarray):
    # |z1|^2 and |zhat|^2 of each row
    sq = z.real ** 2 + z.imag ** 2
    return sq[:, 0], sq[:, 1:].sum(axis=1)


def _formula_kind(domain: DomainParams, t: np.ndarray, q: np.ndarray) -> np.ndarray:
    # per row with |z1|^2 = t and |zhat|^2 = q: one closed form covers m < 1,
    # the outer form the ball; for m > 1 the z1 = 0 limit for |z1| below
    # _Z_FORMULA_TOL, else the outer form on and outside the middle stratum
    # 2|z1|^2m + |zhat|^2 = 1 and the inner form inside it
    m = domain.m
    if m < 1.0:
        return np.full(len(t), _CHORD)
    if m == 1.0:
        return np.full(len(t), _OUTER)
    kind = np.where(2.0 * t ** m + q - 1.0 >= 0.0, _OUTER, _INNER)
    kind[t < _Z_FORMULA_TOL ** 2] = _Z_LIMIT
    return kind


def _coefficients(domain: DomainParams, z: np.ndarray):
    # (a, b, c, e) of each row, every row by its own regional form
    t, q = _moduli(z)
    kind = _formula_kind(domain, t, q)
    if len(z) == 1 or (kind == kind[0]).all():  # a stencil inside one region
        return _FORMS[kind[0]](domain, t, 1.0 - q)
    coef = np.empty((4, len(z)))
    for k in np.unique(kind):
        rows = kind == k
        coef[:, rows] = _FORMS[k](domain, t[rows], 1.0 - q[rows])
    return coef


def _wu_matrices(domain: DomainParams, z: np.ndarray) -> np.ndarray:
    """Wu tensors at checked interior points: (N, n) complex -> (N, n, n)."""
    a, b, c, e = _coefficients(domain, z)
    n = domain.n
    H = np.conj(z)[:, :, None] * z[:, None, :]  # conj(z_i) z_j
    H[:, 1:, 1:] *= e[:, None, None]
    H[:, 0, 1:] *= b[:, None]
    H[:, 1:, 0] *= b[:, None]
    diag = H.reshape(len(z), n * n)[:, n + 1::n + 1]
    diag += c[:, None]
    H[:, 0, 0] = a
    return H


def _hermitian_form(domain: DomainParams, z: np.ndarray, matrix: np.ndarray,
                    region: RegionLabel) -> HermitianForm:
    # the Wu tensor ``matrix`` at z with its region and the source tag of
    # the closed form ``_wu_matrices`` chose there
    kind = _formula_kind(domain, *_moduli(z[None]))[0]
    source = _SOURCES[kind]
    if domain.m == 1.0:
        source = "ball"
    elif region is RegionLabel.Z and kind == _CHORD:
        source += " (z1=0 limit)"
    elif region is RegionLabel.Z and kind == _INNER:
        source += " (near Z)"
    elif region is RegionLabel.M_ZERO and kind != _Z_LIMIT:
        source += " (on M0)"
    return HermitianForm(matrix, region, source)


def wu_tensor(domain: DomainParams, z, tol: float = REGION_TOL) -> HermitianForm:
    """Wu metric coefficients at an interior point, by the regional closed forms.

    For m <= 1 one closed form covers the whole egg (its direct evaluation at
    z1 = 0 is the continuity limit). For m > 1 the outer form applies on and
    outside the middle stratum, the inner form inside it, and the z1 = 0
    limit on Z; the ``source`` tag names the formula used.
    """
    z = as_vector(z, domain.n)
    region = _region_of(domain, z, tol)
    if region is RegionLabel.OUTSIDE:
        raise DomainError("point lies outside the egg")
    return _hermitian_form(domain, z, _wu_matrices(domain, z[None])[0], region)


def pullback_tensor(domain: DomainParams, z, tol: float = 1e-10) -> HermitianForm:
    """Wu tensor transported from the reference axis point through the automorphism.

    Independent of the regional closed forms: only the diagonal fit at the
    reference coordinate and the automorphism Jacobian enter.
    """
    z = as_vector(z, domain.n)
    if _defining(domain, z) >= 0.0:
        raise DomainError("point lies outside the egg")
    p1_ref = _reference_coordinate(domain, z)
    if p1_ref < 1e-15:
        ell = fit_origin(domain)
        source = "pullback (origin fit)"
    else:
        ell = fit_reference(domain, p1_ref)
        source = "pullback"
    D = _jacobian(domain, z, z)
    R = np.diag([ell.r1] + [ell.r2] * (domain.n - 1)).astype(complex)
    H = D.T @ R @ np.conj(D)
    H = 0.5 * (H + H.conj().T)  # exact Hermitian symmetry
    return HermitianForm(H, _region_of(domain, z, tol), source)


def wu_norm(domain: DomainParams, z, v) -> float:
    """Length of a tangent vector in the Wu metric."""
    v = as_vector(v, domain.n)
    z = as_vector(z, domain.n)
    if _region_of(domain, z, REGION_TOL) is RegionLabel.OUTSIDE:
        raise DomainError("point lies outside the egg")
    return math.sqrt(max(_norm_sq(_wu_matrices(domain, z[None])[0], v), 0.0))


def kahler_defect(domain: DomainParams, z, step: float = KAHLER_STEP) -> float:
    """max_ijk |d h_ij / dz_k - d h_kj / dz_i|, the first-order Kahler obstruction.

    Differencing steps shrink to an eighth of the distance to the nearest
    seam so stencils never mix regional formulas; on a seam the probe is
    refused outright.
    """
    z = as_vector(z, domain.n)
    if _defining(domain, z) >= 0.0:
        raise DomainError("point lies outside the egg")
    dist = _seam_distance(domain, z)
    h = min(step, dist / 8.0)
    if h < 1e-9:
        raise SeamProximityError(
            f"point is {dist:.2e} from a seam; differencing step would collapse")
    # looked up at call time, so a rebound ``_wu_matrices`` sees every stencil
    _, dz, _ = wirtinger_jet(lambda w: _wu_matrices(domain, w), z, h, hessian=False)
    return float(np.max(np.abs(dz - np.swapaxes(dz, 0, 1))))
