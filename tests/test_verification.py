"""The verify suite's sample sets: row samplers, row regularity probes, the bench's cells."""

import numpy as np
import pytest

from eggmetrics import DomainParams, kobayashi_sq, regularity_scan, wu_tensor
from eggmetrics import smoothness
from eggmetrics.domain import _defining
from eggmetrics.verification import (
    _SAMPLE_MARGIN,
    _sample_directions,
    _sample_interior,
    run_checks,
)


def _one_point_interior(domain, rng, scale):
    # the sampler as it was, one rejection attempt at a time
    while True:
        z = (rng.uniform(-1, 1, domain.n) + 1j * rng.uniform(-1, 1, domain.n)) * scale
        if _defining(domain, z) < _SAMPLE_MARGIN - 1.0:
            return z


def _one_point_direction(domain, rng):
    v = rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n)
    return v / np.linalg.norm(v)


class TestRowSamplers:
    @pytest.mark.parametrize("scale", [0.5, 0.75, 0.95])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0.5, 0.75, 2.0, 5.0, 20.0])
    def test_interior_rows_are_the_one_point_draws(self, m, n, scale):
        d = DomainParams(m=m, n=n)
        for count in (1, 7, 60):
            rows = _sample_interior(d, np.random.default_rng([count, n]), count, scale)
            rng = np.random.default_rng([count, n])
            want = np.array([_one_point_interior(d, rng, scale) for _ in range(count)])
            assert rows.shape == (count, n)
            assert np.array_equal(rows, want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_direction_rows_are_unit_one_point_draws(self, n):
        d = DomainParams(m=2.0, n=n)
        for count in (1, 300):
            rows = _sample_directions(d, np.random.default_rng(count), count)
            rng = np.random.default_rng(count)
            want = np.array([_one_point_direction(d, rng) for _ in range(count)])
            assert rows.shape == (count, n)
            assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 4e-16
            assert np.max(np.abs(rows - want)) <= 4e-16


def _one_point_api(monkeypatch):
    # the probes' two evaluations, one public one-point call per row
    monkeypatch.setattr(smoothness, "wu_tensor", lambda d, z: np.array(
        [wu_tensor(d, p).matrix for p in z]))
    monkeypatch.setattr(smoothness, "kobayashi_sq", lambda d, z, v: np.array(
        [kobayashi_sq(d, p, w) for p, w in zip(z, v)]))


class TestRowProbes:
    # the middle stratum exists only for m > 1
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m,seam", [(0.75, "Z"), (2.0, "Z"), (2.0, "M0"),
                                        (5.0, "Z"), (5.0, "M0")])
    def test_rows_match_one_point_evaluation(self, monkeypatch, m, seam, n):
        d = DomainParams(m=m, n=n)
        for seed in range(4):
            rows = regularity_scan(d, seam, seed=seed, orders=(0, 1, 2, 3), n_paths=1)
            with monkeypatch.context() as mp:
                _one_point_api(mp)
                points = regularity_scan(d, seam, seed=seed, orders=(0, 1, 2, 3), n_paths=1)
            for a, b in zip(rows, points, strict=True):
                assert (a.path, a.order, a.verdict) == (b.path, b.order, b.verdict)
                assert a.jump_detected == b.jump_detected
                if a.order > 1:
                    # at M0 the order-2 and -3 fits run on differences near the
                    # roundoff of the M- tangency solves, whose row and one-point
                    # forms differ in the last bits: only the verdicts are stable
                    continue
                assert a.exponent == pytest.approx(b.exponent, abs=1e-9, nan_ok=True)
                assert abs(a.jump - b.jump) <= 1e-5 * max(abs(a.jump), abs(b.jump))


class TestBenchCells:
    # the (m, n) cells of the benchmark's verify workload: every check passes,
    # so a change of draws that breaks one fails here first
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0, 5.0])
    def test_every_check_passes(self, m, n):
        for seed in range(3):
            failed = [(r.name, r.detail) for r in run_checks(DomainParams(m=m, n=n), seed=seed)
                      if not r.passed]
            assert failed == [], (m, n, seed)
