"""The Kobayashi metric against the 60-digit reference of ``wu_reference.kobayashi``.

Each stratum holds one seeded point and vector per m and n in {2, 3, 4},
placed as the point pins place them (``test_point_pins._point``). The error
of a pair is |K - K_ref| / K_ref, for the one-pair call and for the rows
call. Each bound is the stratum's worst error over both calls (CHANGES.md)
times the headroom 1.5, rounded up. The worst errors sit at m = 60, where
they are what the conditioning in p1_ref costs: M0 lies at p1 = 0.994 there
and 1 - p1^2m amplifies a rounding of p1 about 120-fold; at gauge 1 - 1e-6
K's condition number in p1 is about 1e6 (ROADMAP item 10).
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


def test_reference_is_the_ball_metric_at_m_1():
    # the unit ball: K^2 = |v|^2/(1 - |p|^2) + |<v, p>|^2/(1 - |p|^2)^2
    rng = np.random.default_rng(3)
    for n in (2, 3):
        p, v = _unit(rng, n) * rng.uniform(0.1, 0.9), _unit(rng, n)
        q, d = np.vdot(p, p).real, np.vdot(p, v)
        ball = np.sqrt(1.0 / (1.0 - q) + abs(d) ** 2 / (1.0 - q) ** 2)
        assert float(wu_reference.kobayashi(1.0, p, v)) == pytest.approx(ball, rel=1e-15)
