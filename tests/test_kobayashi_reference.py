"""The Kobayashi metric against the 60-digit reference of ``wu_reference.kobayashi``.

Each stratum holds one seeded point and vector per m and n in {2, 3, 4},
placed as the point pins place them (``test_point_pins._point``). The error
of a pair is |K - K_ref| / K_ref, for the one-pair call and for the rows
call. Each bound is the stratum's worst error over both calls (CHANGES.md)
times the headroom 1.5, rounded up. The worst errors sit at m = 60, where
they are what the conditioning in p1_ref costs: M0 lies at p1 = 0.994 there
and 1 - p1^2m amplifies a rounding of p1 about 120-fold; at gauge 1 - 1e-6
K's condition number in p1 is about 1e6 (ROADMAP item 10). On Z, at the
reference coordinates 0, 1e-200 and 1e-151, K is the gauge of the moved
vector; its worst errors come from 1 - |zhat|^2, whose rounding is amplified
up to 50-fold at the sampled 1 - |zhat|^2 >= 0.02.
"""

import numpy as np
import pytest

from eggmetrics import DomainParams, kobayashi
from test_point_pins import _point, _unit

pytest.importorskip("mpmath")
import wu_reference  # noqa: E402  (needs mpmath)

M_VALUES = (0.5, 0.75, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0)

#: stratum -> bound on the relative error of K
BOUNDS = {
    "generic": 1e-14,
    "z1=1e-8": 2e-15,
    "on-M0": 2e-13,
    "M0+1e-9": 4e-13,
    "M0-1e-9": 3.5e-13,
    "gauge=1-1e-6": 2.5e-9,
}


def errors(stratum):
    """The relative errors of the one-pair and the rows calls over the stratum's pairs."""
    rng = np.random.default_rng(list(BOUNDS).index(stratum))
    errs = []
    for m in M_VALUES:
        for n in (2, 3, 4):
            d = DomainParams(m=m, n=n)
            z = _point(rng, m, n, stratum)
            v = _unit(rng, n) * rng.uniform(0.1, 3.0)
            ref = wu_reference.kobayashi(m, z, v)
            for k in (kobayashi(d, z, v), kobayashi(d, z[None], v[None])[0]):
                errs.append(float(abs((k - ref) / ref)))
    return errs


@pytest.mark.parametrize("stratum", list(BOUNDS))
def test_kobayashi_meets_the_60_digit_reference(stratum):
    assert max(errors(stratum)) <= BOUNDS[stratum]


#: reference coordinates on Z, where K is the gauge of the moved vector
Z_P1 = (0.0, 1e-200, 1e-151)
Z_M = (0.5, 0.75, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 20.0, 60.0)
#: pairs per (m, n, p1_ref) on Z
Z_PAIRS = 4
#: Z_P1 -> bound on the relative error of K on Z: the measured worst (CHANGES.md)
#: times 1.5, rounded up
Z_BOUNDS = {0.0: 2.5e-15, 1e-200: 6e-15, 1e-151: 1e-14}


def _on_z(rng, m, n, p1):
    # a point whose reference coordinate is p1, with 1 - |zhat|^2 = s2 and random phases:
    # |z1| = p1 s2^(1/2m)
    s2 = rng.uniform(0.02, 1.0)
    z = np.empty(n, dtype=complex)
    z[0] = p1 * s2 ** (0.5 / m) * np.exp(2j * np.pi * rng.uniform())
    z[1:] = np.sqrt(1.0 - s2) * _unit(rng, n - 1)
    return z


def z_errors(p1):
    """The relative errors on Z of the one-pair calls and of each cell's rows call."""
    errs = []
    for m in Z_M:
        for n in (2, 3, 4):
            rng = np.random.default_rng([int(1e9 * m), n, Z_P1.index(p1)])
            d = DomainParams(m=m, n=n)
            z = np.array([_on_z(rng, m, n, p1) for _ in range(Z_PAIRS)])
            v = np.array([_unit(rng, n) * rng.uniform(0.1, 3.0) for _ in z])
            refs = [wu_reference.kobayashi(m, a, b) for a, b in zip(z, v)]
            for k, ref, rows in zip((kobayashi(d, a, b) for a, b in zip(z, v)),
                                    refs, kobayashi(d, z, v)):
                errs += [float(abs((k - ref) / ref)), float(abs((rows - ref) / ref))]
    return errs


@pytest.mark.parametrize("p1", Z_P1)
def test_kobayashi_on_z_meets_the_60_digit_gauge(p1):
    assert max(z_errors(p1)) <= Z_BOUNDS[p1]


def test_reference_is_the_ball_metric_at_m_1():
    # the unit ball: K^2 = |v|^2/(1 - |p|^2) + |<v, p>|^2/(1 - |p|^2)^2
    rng = np.random.default_rng(3)
    for n in (2, 3):
        p, v = _unit(rng, n) * rng.uniform(0.1, 0.9), _unit(rng, n)
        q, d = np.vdot(p, p).real, np.vdot(p, v)
        ball = np.sqrt(1.0 / (1.0 - q) + abs(d) ** 2 / (1.0 - q) ** 2)
        assert float(wu_reference.kobayashi(1.0, p, v)) == pytest.approx(ball, rel=1e-15)
