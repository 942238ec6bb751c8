"""Chern-connection curvature of the Wu metric from its exact second-order jet.

The components are R[i, j, k, l] = -d2 H[i,j] / dz_k dzbar_l
+ (dH/dz_k . H^-1 . dH/dzbar_l)[i, j] in the matrix convention of
``tensor``. The derivatives are exact (``tensor._wu_jet``): the moved fit
runs on second-order Taylor jets in (|z1|^2, 1 - |zhat|^2) and the chain
rule carries them to z, at one point evaluation and no step. On
the strata Z and M0, where the metric is not C2, curvature is refused.

Holomorphic sectional curvature is R(v, vbar, v, vbar) / h(v, vbar)^2, with
no normalising factor: the m = 1 ball comes out at -2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import DomainParams, RegionLabel, _axis_point, _unit_rows, as_vector
from .errors import DomainError, NumericalError, SeamProximityError
from .numerics import _check_integer
from .tensor import HermitianForm, _jet_defect, _jet_region, _wu_jet


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
        v = as_vector(v, len(self.point))
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
    num = ((A @ components.reshape(n * n, n * n)) * A).sum(axis=1)
    den = np.real(A @ metric.reshape(n * n))
    return np.real(num) / den ** 2


def curvature_tensor(domain: DomainParams, z) -> CurvatureTensor:
    """Full curvature tensor at an interior point off the strata Z and M0."""
    z = as_vector(z, domain.n)
    return _curvature(z, *_wu_jet(domain, z, *_jet_region(domain, z)))


def _curvature(z: np.ndarray, form: HermitianForm, dz: np.ndarray,
               ddbar: np.ndarray) -> CurvatureTensor:
    # the curvature tensor at z from the Wirtinger jet (form.matrix, dH/dz, d2H/dz dzbar)
    try:
        inv = np.linalg.inv(form.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - interior metric is PD
        raise NumericalError("metric matrix is singular") from exc
    # dH/dzbar_l = (dH/dz_l)^* since H is Hermitian; the products
    # (dH/dz_k H^-1 dH/dzbar_l)[i, j] of all k, l come out as [k, i, l, j]
    n = len(z)
    P = (dz @ inv).reshape(n * n, n) @ np.conj(dz).reshape(n * n, n).T
    R = P.reshape(n, n, n, n).transpose(1, 3, 0, 2) - np.transpose(ddbar, (2, 3, 0, 1))
    return CurvatureTensor(components=R, metric=form, point=z)


def holomorphic_curvature(domain: DomainParams, z, v) -> float:
    """Holomorphic sectional curvature of the Wu metric at z in direction v."""
    return curvature_tensor(domain, z).holomorphic(v)


def direction_sample(n: int, seed: int, count: int | None = None) -> np.ndarray:
    """Deterministic direction set: coordinate axes, pairwise combinations, seeded fill.

    Default count is 2 n^2 + 16; an explicit count must be at least 1.
    """
    return _direction_set(n, seed, count).copy()


def _direction_set(n: int, seed: int, count: int | None) -> np.ndarray:
    # direction_sample as a shared read-only array, built once per key
    n = _check_integer(n, "dimension n", 1)
    count = _check_integer(2 * n * n + 16 if count is None else count, "direction count", 1)
    return _build_directions(n, _check_integer(seed, "direction seed", 0), count)


@functools.lru_cache(maxsize=128)
def _build_directions(n: int, seed: int, count: int) -> np.ndarray:
    dirs: list[np.ndarray] = []
    eye = np.eye(n, dtype=complex)
    dirs.extend(eye)
    for i in range(n):
        for j in range(i + 1, n):
            dirs.extend(eye[i] + c * eye[j] for c in (1, -1, 1j, -1j))
    # the seeded fill: one normal block, each direction's n real and then n imaginary draws
    fill = np.random.default_rng(seed).normal(size=(max(count - len(dirs), 0), 2, n))
    out = np.concatenate((dirs, _unit_rows(fill)))[:count]
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridSpec:
    """Axis-grid scan specification: p1 range, count, offset and direction controls."""

    p1_min: float
    p1_max: float
    count: int
    phat_abs: float = 0.0
    seed: int = 0
    directions: int | None = None

    def __post_init__(self):
        if not (0.0 < self.p1_min <= self.p1_max < 1.0):
            raise DomainError("p1 range must satisfy 0 < min <= max < 1")
        _check_integer(self.count, "grid count", 1)
        _check_integer(self.seed, "direction seed", 0)
        if not math.isfinite(self.phat_abs):
            raise DomainError(f"phat_abs must be finite, got {self.phat_abs!r}")
        if self.directions is not None:
            _check_integer(self.directions, "directions", 1)


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
    """Directional curvature extrema over an axis grid; points on Z or M0 are skipped.

    Returns (records, skipped) where ``skipped`` lists the grid points on
    the strata Z and M0, where the metric is not C2.
    """
    dirs = _direction_set(domain.n, grid.seed, grid.directions)
    p1s = np.linspace(grid.p1_min, grid.p1_max, grid.count)
    records: list[CurvatureScanRecord] = []
    skipped: list[np.ndarray] = []
    for p1 in p1s:
        z = _axis_point(domain, p1, grid.phat_abs)
        try:
            place = _jet_region(domain, z)
        except SeamProximityError:
            skipped.append(z)
            continue
        jet = _wu_jet(domain, z, *place)
        tensor = _curvature(z, *jet)
        values = _sectional_values(tensor.components, tensor.metric.matrix, dirs)
        gap = math.nan
        if abs(z[0]) > 0 and np.all(z[1:] == 0):
            R = tensor.components
            gaps = [abs(R[0, 0, g, g] - R[g, 0, 0, g]) for g in range(1, domain.n)]
            gap = float(max(gaps))
        records.append(CurvatureScanRecord(
            point=z,
            region=tensor.metric.region,
            min_sectional=float(values.min()),
            max_sectional=float(values.max()),
            kahler_defect=_jet_defect(jet[1]),
            symmetry_defect=tensor.kahler_symmetry_defect(),
            axis_cross_gap=gap,
        ))
    return records, skipped
