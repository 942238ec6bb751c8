"""The Wu norm against the norm of the 50-digit tensor of ``wu_reference.wu_tensor``.

``wu_norm`` reads the moved vector's three reals and the fit at p1_ref; the
reference moves the 50-digit fit by the 50-digit D(z, z) and contracts the
tensor, so the two share no formula past the definitions. Each stratum holds
two seeded points and vectors per m and n in {2, 3, 4}, placed as the point
pins place them (``test_point_pins._point``); the error of a pair is
|w - w_ref| / w_ref, for the one-pair call and for the rows call. Each bound
is the stratum's measured worst (CHANGES.md) times 1.5, rounded up. At gauge
1 - 1e-6 the fit's conditioning sets the error, as it does for K.
"""

import numpy as np
import pytest

from eggmetrics import DomainParams, wu_norm
from test_point_pins import _point, _unit

mp = pytest.importorskip("mpmath")
import wu_reference  # noqa: E402  (needs mpmath)

M_VALUES = (0.5, 0.75, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0)
#: pairs per (m, n) in each stratum
PAIRS = 2

#: stratum -> bound on the relative error of the Wu norm
BOUNDS = {
    "generic": 3e-15,
    "on-Z": 1.1e-15,
    "z1=1e-8": 2.4e-15,
    "on-M0": 3.4e-14,
    "M0+1e-9": 4.6e-14,
    "M0-1e-9": 3.2e-14,
    "gauge=1-1e-6": 3.3e-10,
}


def _reference_norm(m, z, v):
    # sqrt(sum_ij H[i, j] v_i conj(v_j)) of the 50-digit tensor
    H = wu_reference.wu_tensor(m, 2, z)[0]
    with mp.workdps(wu_reference.DIGITS + 10):
        w = [mp.mpc(complex(c)) for c in v]
        n = len(w)
        return mp.sqrt(mp.re(mp.fsum(H[i, j] * w[i] * mp.conj(w[j])
                                     for i in range(n) for j in range(n))))


def errors(stratum):
    """The relative errors of the one-pair calls and of each cell's rows call."""
    errs = []
    for m in M_VALUES:
        for n in (2, 3, 4):
            rng = np.random.default_rng([int(1e9 * m), n, list(BOUNDS).index(stratum)])
            d = DomainParams(m=m, n=n)
            z = np.array([_point(rng, m, n, stratum) for _ in range(PAIRS)])
            v = np.array([_unit(rng, n) * rng.uniform(0.1, 3.0) for _ in z])
            for a, b, rows in zip(z, v, wu_norm(d, z, v)):
                ref = _reference_norm(m, a, b)
                errs += [float(abs((wu_norm(d, a, b) - ref) / ref)),
                         float(abs((rows - ref) / ref))]
    return errs


@pytest.mark.parametrize("stratum", list(BOUNDS))
def test_wu_norm_meets_the_50_digit_tensor_norm(stratum):
    assert max(errors(stratum)) <= BOUNDS[stratum]
