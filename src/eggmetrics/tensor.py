"""The Wu metric tensor h_ij on the egg, region by region, plus the pullback cross-check.

Matrix convention: ``H[i, j]`` holds the coefficient of dz_i (x) dzbar_j, so
the squared norm of v is sum_ij H[i, j] v_i conj(v_j) and H is Hermitian in
the ordinary sense. The pullback of a diagonal reference form R along a map
with holomorphic Jacobian D is then D^T R conj(D).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    REGION_TOL,
    DomainParams,
    RegionLabel,
    _FIT_ORIGIN_TOL,
    _M0_WEIGHT,
    _Z_FORMULA_TOL,
    _check_inside,
    _check_tol,
    _region_of,
    _same_rows,
    _to_axis,
    as_vector,
)
from .errors import DomainError, SeamProximityError
from .fitting import _fit_rows, _solve_X_many, _tangency_jet
from .numerics import Taylor2


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
        v = as_vector(v, len(self.matrix))
        return float(_norm_sq(self.matrix[None], v[None])[0])

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _norm_sq(H: np.ndarray, v: np.ndarray) -> np.ndarray:
    # sum_ij H[k, i, j] v[k, i] conj(v[k, j]) of each row k; einsum would sum
    # in an order that depends on the number of rows, these sums do not
    Hv = (H * np.conj(v)[..., None, :]).sum(axis=-1)
    return (v * Hv).sum(axis=-1).real


# Every regional form is invariant under phase rotation of z1 and unitary
# rotation of zhat, so at each point it has the shape
#   H[0, 0] = a,  H[0, j] = b conj(z1) z_j,  H[i, j] = c delta_ij + e conj(z_i) z_j
# for i, j >= 1. Each closed form below maps rows of t = |z1|^2 and
# s2 = 1 - |zhat|^2 to its coefficients (a, b, c, e); fed ``Taylor2`` jets
# of t and s2 instead, the same code gives the coefficients' exact jets.
# Squared moduli are summed from real and imaginary parts: numpy's complex
# abs is a few ulp off.


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
    if isinstance(t, Taylor2):
        X = _tangency_jet(domain, t, s2)
    else:
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
    # M0 and the inner form inside it
    m = domain.m
    if m < 1.0:
        return np.full(len(t), _CHORD)
    if m == 1.0:
        return np.full(len(t), _OUTER)
    kind = np.where(_M0_WEIGHT * t ** m + q - 1.0 >= 0.0, _OUTER, _INNER)
    kind[t < _Z_FORMULA_TOL ** 2] = _Z_LIMIT
    return kind


def _coefficients(domain: DomainParams, z: np.ndarray, kind=None):
    # (a, b, c, e) of each row, every row by its own regional form (``kind``
    # when the caller has classified the rows)
    t, q = _moduli(z)
    kind = _formula_kind(domain, t, q) if kind is None else kind
    if len(z) and (kind == kind[0]).all():  # one point, or a stencil inside one region
        return _FORMS[kind[0]](domain, t, 1.0 - q)
    coef = np.empty((4, len(z)))
    for k in np.unique(kind):
        rows = kind == k
        coef[:, rows] = _FORMS[k](domain, t[rows], 1.0 - q[rows])
    return coef


def _wu_matrices(domain: DomainParams, z: np.ndarray, kind=None) -> np.ndarray:
    """Wu tensors at checked interior points: (N, n) complex -> (N, n, n)."""
    a, b, c, e = _coefficients(domain, z, kind)
    n = domain.n
    H = np.conj(z)[:, :, None] * z[:, None, :]  # conj(z_i) z_j
    H[:, 1:, 1:] *= e[:, None, None]
    H[:, 0, 1:] *= b[:, None]
    H[:, 1:, 0] *= b[:, None]
    diag = H.reshape(len(z), n * n)[:, n + 1::n + 1]
    diag += c[:, None]
    H[:, 0, 0] = a
    return H


def _hermitian_form(domain: DomainParams, matrix: np.ndarray, region: RegionLabel,
                    kind: int) -> HermitianForm:
    # the Wu tensor ``matrix`` at a point with its region and the source tag
    # of the closed form ``kind`` that gave it
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


def wu_tensor(domain: DomainParams, z, tol: float = REGION_TOL):
    """Wu metric coefficients at interior points, by the regional closed forms.

    For m <= 1 one closed form covers the whole egg (its direct evaluation at
    z1 = 0 is the continuity limit). For m > 1 the outer form applies on and
    outside the middle stratum, the inner form inside it, and the z1 = 0
    limit on Z; the ``source`` tag names the formula used.

    One point gives a ``HermitianForm``; (N, n) rows give the read-only
    (N, n, n) stack of the matrices. Any outside point or bad row raises
    ``DomainError`` for the whole call.
    """
    _check_tol(tol)
    z = as_vector(z, domain.n, rows=True)
    if z.ndim == 2:
        _check_inside(domain, z)
        return _read_only(_wu_matrices(domain, z))
    region = _region_of(domain, z, tol)
    if region is RegionLabel.OUTSIDE:
        raise DomainError("point lies outside the egg")
    kind = _formula_kind(domain, *_moduli(z[None]))
    return _hermitian_form(domain, _wu_matrices(domain, z[None], kind)[0], region, kind[0])


def _read_only(H: np.ndarray) -> np.ndarray:
    H.setflags(write=False)
    return H


def pullback_tensor(domain: DomainParams, z, tol: float = 1e-10):
    """Wu tensor transported from the reference axis point through the automorphism.

    Independent of the regional closed forms: only the diagonal fit at the
    reference coordinate and the differential D(z, z) of the automorphism
    enter, as D^T R conj(D) with R = diag(r1, r2, ..., r2). One point gives a
    ``HermitianForm``; (N, n) rows give the read-only (N, n, n) stack.
    """
    _check_tol(tol)
    z = as_vector(z, domain.n, rows=True)
    rows = np.atleast_2d(z)
    # row j of W[k] is D e_j at the k-th point, so W[k] is D^T
    n = domain.n
    p1_ref, W = _to_axis(domain, np.repeat(rows, n, axis=0),
                         np.tile(np.eye(n, dtype=complex), (len(rows), 1)))
    p1_ref, W = p1_ref[::n], W.reshape(-1, n, n)
    r1, r2 = _fit_rows(domain, p1_ref)
    R = np.empty(rows.shape)
    R[:, 0], R[:, 1:] = r1, r2[:, None]
    H = (W * R[:, None, :]) @ np.conj(W).transpose(0, 2, 1)
    H = 0.5 * (H + np.conj(H).transpose(0, 2, 1))  # exact Hermitian symmetry
    if z.ndim == 2:
        return _read_only(H)
    origin = domain.m > 1.0 and p1_ref[0] < _FIT_ORIGIN_TOL
    source = "pullback (origin fit)" if origin else "pullback"
    return HermitianForm(H[0], _region_of(domain, z, tol), source)


def wu_norm(domain: DomainParams, z, v):
    """Length of a tangent vector in the Wu metric.

    One point and vector give a float; (N, n) rows of points and vectors give
    an (N,) array, each vector measured by its own point's Wu tensor. Any
    outside point or bad row raises ``DomainError`` for the whole call.
    """
    v = as_vector(v, domain.n, rows=True)
    z = as_vector(z, domain.n, rows=True)
    _same_rows(z, v)
    zs = np.atleast_2d(z)
    _check_inside(domain, zs)
    norm_sq = _norm_sq(_wu_matrices(domain, zs), np.atleast_2d(v))
    if z.ndim == 1:
        return math.sqrt(max(float(norm_sq[0]), 0.0))  # rounds as np.sqrt does
    return np.sqrt(np.maximum(norm_sq, 0.0))


def kahler_defect(domain: DomainParams, z) -> float:
    """max_ijk |d h_ij / dz_k - d h_kj / dz_i|, the first-order Kahler obstruction.

    Exact, from the metric's jet (``_wu_jet``); refused with
    ``SeamProximityError`` on Z and M0, where the metric is not C2.
    """
    z = as_vector(z, domain.n)
    return _jet_defect(_wu_jet(domain, z, _jet_region(domain, z))[1])


def _jet_region(domain: DomainParams, z: np.ndarray) -> RegionLabel:
    # the region of a checked point that has a jet: not outside, and not on
    # Z or M0, where the Wu metric is not C2
    region = _region_of(domain, z, REGION_TOL)
    if region is RegionLabel.OUTSIDE:
        raise DomainError("point lies outside the egg")
    if region in (RegionLabel.Z, RegionLabel.M_ZERO):
        raise SeamProximityError(
            f"point lies on the stratum {region.value}, where the Wu metric is not C2")
    return region


@functools.lru_cache(maxsize=None)
def _blocks(n: int):
    # constant arrays at dimension n: per index 0 for z1 and 1 for zhat; per
    # index pair 0 on (z1, z1), 1 on the mixed pairs and 2 on the zhat block;
    # each entry's coefficient row in (a, b, c, e); the identity; the
    # diagonal of the zhat block; and delta_il delta_jk as [i, j, k, l]
    side = np.minimum(np.arange(n), 1)
    pair = side[:, None] + side[None, :]
    eye = np.eye(n)
    arrays = (side, pair, np.array([0, 1, 3])[pair], eye, np.diag(side.astype(float)),
              eye[:, None, None, :] * eye[None, :, :, None])
    for a in arrays:
        a.setflags(write=False)  # shared by every caller
    return arrays


def _chain(z: np.ndarray, jets):
    """Values, Wirtinger gradients and complex Hessians at z of jets in (t, s2).

    With t = |z1|^2 and s2 = 1 - |zhat|^2, dt/dz_k = conj(z1) delta_k1 and
    ds2/dz_k = -conj(z_k) for k >= 2, so by the chain rule df/dz_k is conj(z_k)
    times a first partial and d2f/dz_k dzbar_l is conj(z_k) z_l times a second
    partial, plus a first partial on the diagonal; the blocks of k and l pick
    the partials. Returns the (Q,) values and the (Q, n) and (Q, n, n) rows.
    """
    side, pair, _, eye, _, _ = _blocks(z.size)
    parts = np.array([(f.v, f.t, -f.s, f.tt, -f.ts, f.ss) for f in jets])
    zc = np.conj(z)
    first = parts[:, 1:3][:, side]
    dd = parts[:, 3:][:, pair] * (zc[:, None] * z) + first[:, :, None] * eye
    return parts[:, 0], first * zc, dd


def _wu_jet(domain: DomainParams, z: np.ndarray, region: RegionLabel):
    """(form, dH/dz, d2H/dz dzbar) at a checked point of ``region`` off the seams.

    ``form`` is the ``HermitianForm`` of H at z; the derivatives are in
    ``wirtinger_jet``'s layout. The regional form runs on ``Taylor2`` jets of
    (t, s2); the product rule then differentiates the monomials conj(z_i) z_j
    (none on H[0, 0]): d/dz_k gives conj(z_i) delta_jk, d/dzbar_l delta_il
    z_j, both delta_il delta_jk.
    """
    _, _, coef, eye, hat, swap = _blocks(z.size)
    t, q = _moduli(z[None])
    kind = _formula_kind(domain, t, q)[0]
    value, d, dd = _chain(z, _FORMS[kind](domain, *Taylor2.variables(float(t[0]),
                                                                      1.0 - float(q[0]))))
    zc = np.conj(z)
    mono = zc[:, None] * z
    mono[0, 0] = 1.0
    A, dA = value[coef], d[coef]
    H = A * mono + value[2] * hat
    A[0, 0] = 0.0  # H[0, 0] = a carries no monomial
    grad = dA * z[:, None]  # dA_ij/dz_k z_j as [i, j, k], met by d/dzbar_i of the monomial
    grad[0, 0] = 0.0
    # built as [i, j, k] and [i, j, k, l], transposed on return
    dH = dA * mono[:, :, None] + (A * zc[:, None])[:, :, None] * eye + hat[:, :, None] * d[2]
    ddH = (dd[coef] * mono[:, :, None, None] + grad[:, :, :, None] * eye[:, None, None, :]
           + np.conj(grad).transpose(1, 0, 2)[:, :, None, :] * eye[None, :, :, None]
           + A[:, :, None, None] * swap + hat[:, :, None, None] * dd[2])
    return _hermitian_form(domain, H, region, kind), dH.transpose(2, 0, 1), ddH.transpose(2, 3, 0, 1)


def _jet_defect(dz: np.ndarray) -> float:
    # the Kahler defect from a jet's dz[k] = dH/dz_k
    return float(np.max(np.abs(dz - np.swapaxes(dz, 0, 1))))
