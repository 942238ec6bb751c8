"""Chern-connection curvature of the Wu metric by numerical differentiation.

The components are R[i, j, k, l] = -d2 H[i,j] / dz_k dzbar_l
+ (dH/dz_k . H^-1 . dH/dzbar_l)[i, j] in the matrix convention of
``tensor``. Differentiation is ``numerics.wirtinger_jet``: real coordinates
with Wirtinger recombination (the metric is not holomorphic in z, so
complex-step tricks do not apply), one Richardson level on top of central
differences.

Holomorphic sectional curvature is R(v, vbar, v, vbar) / h(v, vbar)^2 times
``CURVATURE_NORMALIZATION``; the constant is pinned once by the m = 1 ball,
which must come out at -2, and is never tuned per region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import REGION_TOL, DomainParams, RegionLabel, _region_of, _seam_distance, as_vector
from .errors import DomainError, NumericalError, SeamProximityError
from .tensor import HermitianForm, _hermitian_form, _wu_matrices, kahler_defect
from .numerics import wirtinger_jet

#: pinned so the unit ball (m = 1) has holomorphic sectional curvature -2
CURVATURE_NORMALIZATION = 1.0

#: default differencing step for curvature stencils
CURVATURE_STEP = 1e-4


@dataclass(frozen=True)
class CurvatureTensor:
    """Curvature components with the metric and point they belong to."""

    components: np.ndarray  # shape (n, n, n, n), R[i, jbar, k, lbar]
    metric: HermitianForm
    point: np.ndarray

    def __post_init__(self):
        self.components.setflags(write=False)

    def holomorphic(self, v) -> float:
        """Holomorphic sectional curvature in direction v (scale invariant)."""
        v = np.asarray(v, dtype=complex)
        if not np.any(v):
            raise DomainError("direction must be nonzero")
        return float(_sectional_values(self.components, self.metric.matrix, v[None])[0])

    def kahler_symmetry_defect(self) -> float:
        """max |R[i,j,k,l] - R[k,j,i,l]|; zero for a Kahler metric."""
        swapped = np.swapaxes(self.components, 0, 2)
        return float(np.max(np.abs(self.components - swapped)))


def _sectional_values(components: np.ndarray, metric: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    # holomorphic sectional curvature along each nonzero row of dirs:
    # R(v, vbar, v, vbar) / h(v, vbar)^2 with A = v (x) vbar flattened
    n = metric.shape[0]
    A = (dirs[:, :, None] * np.conj(dirs)[:, None, :]).reshape(len(dirs), n * n)
    num = np.einsum("kp,pq,kq->k", A, components.reshape(n * n, n * n), A)
    den = np.real(A @ metric.reshape(n * n))
    return CURVATURE_NORMALIZATION * np.real(num) / den ** 2


def curvature_tensor(domain: DomainParams, z, step: float = CURVATURE_STEP) -> CurvatureTensor:
    """Full curvature tensor at an interior point at least 8 steps from any seam."""
    z = as_vector(z, domain.n)
    region = _region_of(domain, z, REGION_TOL)
    if region is RegionLabel.OUTSIDE:
        raise DomainError("point lies outside the egg")
    if _seam_distance(domain, z) < 8.0 * step:
        raise SeamProximityError(
            f"point is within 8 steps ({8 * step:.1e}) of a seam or the boundary")
    # looked up at call time, so a rebound ``_wu_matrices`` sees every stencil
    H, dz, ddbar = wirtinger_jet(lambda w: _wu_matrices(domain, w), z, step)
    form = _hermitian_form(domain, z, H, region)
    try:
        inv = np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - interior metric is PD
        raise NumericalError("metric matrix is singular") from exc
    # dH/dzbar_l = (dH/dz_l)^* since H is Hermitian
    R = (np.einsum("kia,ab,ljb->ijkl", dz, inv, np.conj(dz))
         - np.transpose(ddbar, (2, 3, 0, 1)))
    return CurvatureTensor(components=R, metric=form, point=z)


def holomorphic_curvature(domain: DomainParams, z, v, step: float = CURVATURE_STEP) -> float:
    """Holomorphic sectional curvature of the Wu metric at z in direction v."""
    return curvature_tensor(domain, z, step=step).holomorphic(v)


def direction_sample(n: int, seed: int, count: int | None = None) -> np.ndarray:
    """Deterministic direction set: coordinate axes, pairwise combinations, seeded fill.

    Default count is 2 n^2 + 16.
    """
    if count is None:
        count = 2 * n * n + 16
    dirs: list[np.ndarray] = []
    eye = np.eye(n, dtype=complex)
    dirs.extend(eye)
    for i in range(n):
        for j in range(i + 1, n):
            dirs.append(eye[i] + eye[j])
            dirs.append(eye[i] - eye[j])
            dirs.append(eye[i] + 1j * eye[j])
            dirs.append(eye[i] - 1j * eye[j])
    rng = np.random.default_rng(seed)
    while len(dirs) < count:
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        dirs.append(w / np.linalg.norm(w))
    return np.array(dirs[:count])


@dataclass(frozen=True)
class GridSpec:
    """Axis-grid scan specification: p1 range, count, and stencil controls."""

    p1_min: float
    p1_max: float
    count: int
    phat_abs: float = 0.0
    step: float = CURVATURE_STEP
    seed: int = 0
    directions: int | None = None

    def __post_init__(self):
        if not (0.0 < self.p1_min <= self.p1_max < 1.0):
            raise DomainError("p1 range must satisfy 0 < min <= max < 1")
        if self.count < 1:
            raise DomainError("grid count must be positive")


@dataclass(frozen=True)
class CurvatureScanRecord:
    point: np.ndarray
    region: RegionLabel
    min_sectional: float
    max_sectional: float
    kahler_defect: float
    symmetry_defect: float
    axis_cross_gap: float = field(default=math.nan)  # R[1,1,g,g] - R[g,1,1,g] spread


def curvature_scan(domain: DomainParams, grid: GridSpec):
    """Directional curvature extrema over an axis grid; seam-adjacent points are skipped.

    Returns (records, skipped) where ``skipped`` lists the grid points whose
    seam distance ruled out the stencil.
    """
    dirs = direction_sample(domain.n, grid.seed, grid.directions)
    p1s = np.linspace(grid.p1_min, grid.p1_max, grid.count)
    records: list[CurvatureScanRecord] = []
    skipped: list[np.ndarray] = []
    for p1 in p1s:
        z = np.zeros(domain.n, dtype=complex)
        z[0] = p1
        if domain.n > 1 and grid.phat_abs:
            z[1] = grid.phat_abs
        if _seam_distance(domain, z) < 8.0 * grid.step:
            skipped.append(z)
            continue
        tensor = curvature_tensor(domain, z, step=grid.step)
        values = _sectional_values(tensor.components, tensor.metric.matrix, dirs)
        gap = math.nan
        if abs(z[0]) > 0 and np.all(z[1:] == 0):
            R = tensor.components
            gaps = [abs(R[0, 0, g, g] - R[g, 0, 0, g]) for g in range(1, domain.n)]
            gap = float(max(gaps))
        records.append(CurvatureScanRecord(
            point=z,
            region=tensor.metric.region,
            min_sectional=float(min(values)),
            max_sectional=float(max(values)),
            kahler_defect=kahler_defect(domain, z),
            symmetry_defect=tensor.kahler_symmetry_defect(),
            axis_cross_gap=gap,
        ))
    return records, skipped
