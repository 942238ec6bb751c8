"""The Wu metric tensor h_ij on the egg: the axis fit moved to z, plus the pullback cross-check.

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
    _check_inside,
    _check_tol,
    _reference_point,
    _reference_rows,
    _region_of,
    _same_rows,
    _to_axis,
    as_vector,
)
from .errors import DomainError, SeamProximityError
from .fitting import _CHORD, _TANGENCY, _fit, _fit_rows, _regimes
from .numerics import Taylor2


@dataclass(frozen=True)
class HermitianForm:
    """Hermitian metric coefficients at a point, with region provenance.

    ``source`` names the fit regime that produced the entries ("chord-form",
    "outer-form" for the LOWER line, "inner-form" for the tangency, "ball"
    at m = 1); on the thin strata it adds the stratum ("(z1=0 limit)",
    "(near Z)", "(on M0)").
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


# The Wu unit ball at z is the fit (r1, r2) at the axis point p1_ref moved
# to z by the egg's automorphism, so H = D^T diag(r1, r2, ..., r2) conj(D)
# with D = D(z, z). With t = |z1|^2, s2 = 1 - |zhat|^2 and
# sigma = s2^(-1/m) = 1/sm^2, ``_to_axis``'s closed form of D(z, z)v gives
# |what|^2 = |vhat|^2/s2 + |<vhat, zhat>|^2/s2^2, and H has the shape
#   H[0, 0] = a,  H[0, j] = b conj(z1) z_j,  H[i, j] = c delta_ij + e conj(z_i) z_j
# for i, j >= 1, with (a, b, c, e) below. ``_moved`` maps (t, s2, sigma)
# and the fit to (a, b, c, e) as floats, rows or ``Taylor2`` jets.


def _moved(domain: DomainParams, t, s2, sigma, r1, r2):
    # (a, b, c, e) = (r1 sigma, r1 sigma/(m s2), r2/s2,
    #                 r1 sigma t/(m^2 s2^2) + r2/s2^2)
    a = r1 * sigma
    b = a / (domain.m * s2)
    c = r2 / s2
    return a, b, c, (b * t / domain.m + c) / s2


def _wu_matrices(domain: DomainParams, z: np.ndarray, rows=None, regime=None) -> np.ndarray:
    """Wu tensors at checked interior points: (N, n) complex -> (N, n, n).

    ``rows`` are the points' membership rows (r1, q, sm) and ``regime``
    their fit regimes when the caller has them. The fit is taken at
    p1_ref = r1/sm with sigma = 1/sm^2, so that the only denominators of the
    form are s2 and those of the fit, 1 - p1_ref^2 and 1 - p1_ref^2m, which
    the membership test keeps positive.
    """
    r1, q, sm = _reference_rows(domain, z) if rows is None else rows
    return _assemble(z, np.stack(_moved(domain, r1 * r1, 1.0 - q, 1.0 / (sm * sm),
                                        *_fit_rows(domain, r1 / sm, regime)), axis=-1))


def _point_matrix(domain: DomainParams, z: np.ndarray, ref):
    """(H, fit regime) at one checked interior point z (n,), as ``_wu_matrices`` gives its row.

    ``ref`` is the point's membership (r1, q, sm) as floats. The fit and
    ``_moved`` run on floats, with every power on numpy (``_power``); the
    complex matrix is assembled on the point's one row.
    """
    r1, q, sm = ref
    p1 = r1 / sm
    regime = int(_regimes(domain, np.array([p1]))[0])
    coef = _moved(domain, r1 * r1, 1.0 - q, 1.0 / (sm * sm), *_fit(domain, regime, p1 * p1))
    return _assemble(z[None], np.array([coef]))[0], regime


def _assemble(z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    # the (N, n, n) matrices of checked (N, n) points from the (N, 4) rows of
    # their (a, b, c, e): conj(z_i) z_j times b or e, which a real factor
    # scales part by part, then c added on the zhat diagonal and a set at [0, 0]
    n = z.shape[1]
    H = np.conj(z)[:, :, None] * z[:, None, :] * coef[:, _blocks(n)[2]]
    H.reshape(len(z), n * n)[:, n + 1::n + 1] += coef[:, 2:3]
    H[:, 0, 0] = coef[:, 0]
    return H


#: the ``source`` tag of each fit regime
_TAGS = ("chord-form", "outer-form", "inner-form")


def _hermitian_form(domain: DomainParams, matrix: np.ndarray, region: RegionLabel,
                    regime: int) -> HermitianForm:
    # the Wu tensor ``matrix`` at a point with its region and the source tag
    # of the fit regime that gave it
    source = _TAGS[regime]
    if domain.m == 1.0:
        source = "ball"
    elif region is RegionLabel.Z and regime == _CHORD:
        source += " (z1=0 limit)"
    elif region is RegionLabel.Z and regime == _TANGENCY:
        source += " (near Z)"
    elif region is RegionLabel.M_ZERO:
        source += " (on M0)"
    return HermitianForm(matrix, region, source)


def wu_tensor(domain: DomainParams, z, tol: float = REGION_TOL):
    """Wu metric coefficients at interior points: the axis fit moved to z.

    The fit (r1, r2) at the reference coordinate p1_ref of z is carried to z
    by the automorphism in closed form. Its regime (the chord for m <= 1;
    for m > 1 the LOWER line from M0 out and the tangency inside) names the
    ``source`` tag, with the stratum the point lies on.

    One point gives a ``HermitianForm``; (N, n) rows give the read-only
    (N, n, n) stack of the matrices. Any outside point or bad row raises
    ``DomainError`` for the whole call.
    """
    _check_tol(tol)
    z = as_vector(z, domain.n, rows=True)
    if z.ndim == 2:
        return _read_only(_wu_matrices(domain, z, _check_inside(domain, z)))
    ref = _reference_point(domain, z)
    region = _region_of(domain, z, tol, ref)
    if region is RegionLabel.OUTSIDE:
        raise DomainError("point lies outside the egg")
    H, regime = _point_matrix(domain, z, ref)
    return _hermitian_form(domain, H, region, regime)


def _read_only(H: np.ndarray) -> np.ndarray:
    H.setflags(write=False)
    return H


def pullback_tensor(domain: DomainParams, z):
    """Wu tensor transported from the reference axis point through the automorphism.

    The same fit as ``wu_tensor``, moved numerically instead of in closed
    form: ``_to_axis`` applies D(z, z) to the basis vectors, and
    D^T R conj(D) with R = diag(r1, r2, ..., r2) is formed as a matrix
    product. So it checks the transport algebra of ``wu_tensor``; the fit
    itself is checked by ``fit_oracle``. One point gives a
    ``HermitianForm``, labelled at ``REGION_TOL``; (N, n) rows give the
    read-only (N, n, n) stack.
    """
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
    return HermitianForm(H[0], _region_of(domain, z, REGION_TOL), "pullback")


def wu_norm(domain: DomainParams, z, v):
    """Length of a tangent vector in the Wu metric.

    One point and vector give a float; (N, n) rows of points and vectors give
    an (N,) array, each vector measured by its own point's Wu tensor. Any
    outside point or bad row raises ``DomainError`` for the whole call.
    """
    v = as_vector(v, domain.n, rows=True)
    z = as_vector(z, domain.n, rows=True)
    _same_rows(z, v)
    if z.ndim == 1:
        H = _point_matrix(domain, z, _check_inside(domain, z))[0]
        return math.sqrt(max(float(_norm_sq(H[None], v[None])[0]), 0.0))  # rounds as np.sqrt does
    return np.sqrt(np.maximum(_norm_sq(_wu_matrices(domain, z, _check_inside(domain, z)), v), 0.0))


def kahler_defect(domain: DomainParams, z) -> float:
    """max_ijk |d h_ij / dz_k - d h_kj / dz_i|, the first-order Kahler obstruction.

    Exact, from the metric's jet (``_wu_jet``); refused with
    ``SeamProximityError`` on Z and M0, where the metric is not C2.
    """
    z = as_vector(z, domain.n)
    return _jet_defect(_wu_jet(domain, z, *_jet_region(domain, z))[1])


def _jet_region(domain: DomainParams, z: np.ndarray):
    # the region and membership floats of a checked point that has a jet: not
    # outside, and not on Z or M0, where the Wu metric is not C2
    ref = _reference_point(domain, z)
    region = _region_of(domain, z, REGION_TOL, ref)
    if region is RegionLabel.OUTSIDE:
        raise DomainError("point lies outside the egg")
    if region in (RegionLabel.Z, RegionLabel.M_ZERO):
        raise SeamProximityError(
            f"point lies on the stratum {region.value}, where the Wu metric is not C2")
    return region, ref


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


def _wu_jet(domain: DomainParams, z: np.ndarray, region: RegionLabel, ref):
    """(form, dH/dz, d2H/dz dzbar) at a checked point of ``region`` off the seams.

    ``ref`` is the point's membership as floats, as ``_jet_region`` gives it
    with the region. ``form`` is the ``HermitianForm`` of H at z; the
    derivatives are in ``wirtinger_jet``'s layout. The fit of the point's
    regime and ``_moved`` run on ``Taylor2`` jets of (t, s2), with the fit
    at the jet u = t sigma (the values of sigma and u are those of the
    membership rows, 1/sm^2 and p1_ref^2); the product rule then differentiates the
    monomials conj(z_i) z_j (none on H[0, 0]): d/dz_k gives conj(z_i)
    delta_jk, d/dzbar_l delta_il z_j, both delta_il delta_jk.
    """
    _, _, coef, eye, hat, swap = _blocks(z.size)
    r1, q, sm = ref
    p1 = r1 / sm
    regime = int(_regimes(domain, np.array([p1]))[0])
    t, s2 = Taylor2.variables(r1 * r1, 1.0 - q)
    sigma = s2 ** (-1.0 / domain.m)
    u = t * sigma
    sigma.v, u.v = 1.0 / (sm * sm), p1 * p1  # the values as ``_wu_matrices`` takes them
    value, d, dd = _chain(z, _moved(domain, t, s2, sigma, *_fit(domain, regime, u)))
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
    return (_hermitian_form(domain, H, region, regime), dH.transpose(2, 0, 1),
            ddH.transpose(2, 3, 0, 1))


def _jet_defect(dz: np.ndarray) -> float:
    # the Kahler defect from a jet's dz[k] = dH/dz_k
    return float(np.max(np.abs(dz - np.swapaxes(dz, 0, 1))))
