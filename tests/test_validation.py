"""The validation boundary: each public function checks its vectors once, up front."""

import math
import sys

import numpy as np
import pytest

from eggmetrics import (
    DomainError,
    DomainParams,
    RegionLabel,
    automorphism_jacobian,
    branch_params,
    classify_region,
    curvature_tensor,
    defining_function,
    egg_automorphism,
    kahler_defect,
    kobayashi,
    kobayashi_alt_upper,
    kobayashi_reference_sq,
    kobayashi_sq,
    minkowski_gauge,
    pullback_tensor,
    reference_coordinate,
    seam_distance,
    wu_norm,
    wu_tensor,
)
from eggmetrics import domain as domain_module

D = DomainParams(m=2.0, n=3)
Z = np.array([0.3, 0.2j, -0.1])          # inner region, far from every seam
V = np.array([0.6, 0.8j, 0.1])
V_UPPER = np.array([1.0, 0.1, 0.1j])     # u > p1 at p1 = 0.5

#: every public entry that takes a vector: (function, valid arguments after
#: the domain, positions of the vector arguments among them)
ENTRIES = [
    (kobayashi, (Z, V), (0, 1)),
    (kobayashi_sq, (Z, V), (0, 1)),
    (kobayashi_reference_sq, (0.5, V), (1,)),
    (branch_params, (0.5, V), (1,)),
    (kobayashi_alt_upper, (0.5, V_UPPER), (1,)),
    (wu_tensor, (Z,), (0,)),
    (wu_norm, (Z, V), (0, 1)),
    (pullback_tensor, (Z,), (0,)),
    (kahler_defect, (Z,), (0,)),
    (curvature_tensor, (Z,), (0,)),
    (egg_automorphism, (Z, 0.5 * Z), (0, 1)),
    (automorphism_jacobian, (Z, 0.5 * Z), (0, 1)),
    (minkowski_gauge, (V,), (0,)),
    (reference_coordinate, (Z,), (0,)),
    (defining_function, (Z,), (0,)),
    (classify_region, (Z,), (0,)),
    (seam_distance, (Z,), (0,)),
]

CASES = [pytest.param(fn, args, pos, id=f"{fn.__name__}-arg{pos}")
         for fn, args, positions in ENTRIES for pos in positions]


def _bad_vectors(good):
    good = np.asarray(good, dtype=complex)
    # NaN and inf in the real and in the imaginary part, and both wrong lengths
    for entry in (complex(math.nan, 0.0), complex(0.1, math.nan),
                  complex(math.inf, 0.0), complex(0.1, -math.inf)):
        bad = good.copy()
        bad[1] = entry
        yield bad, "non-finite entries"
    yield good[:-1], "length-3 vector"
    yield np.append(good, 0.1), "length-3 vector"


class TestBoundary:
    @pytest.mark.parametrize("fn,args,pos", CASES)
    def test_bad_vector_is_a_domain_error(self, fn, args, pos):
        fn(D, *args)  # the valid call goes through
        for bad, message in _bad_vectors(args[pos]):
            call = list(args)
            call[pos] = bad
            with pytest.raises(DomainError, match=message):
                fn(D, *call)

    def test_first_bad_argument_is_reported(self):
        short, nan = Z[:-1], np.array([0.1, math.nan, 0.0])
        # kobayashi checks p before v; wu_norm checks v before z
        with pytest.raises(DomainError, match="non-finite"):
            kobayashi(D, nan, short)
        with pytest.raises(DomainError, match="length-3"):
            kobayashi(D, short, nan)
        with pytest.raises(DomainError, match="non-finite"):
            wu_norm(D, short, nan)
        with pytest.raises(DomainError, match="length-3"):
            wu_norm(D, nan, short)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_moved_vector_is_still_checked(self):
        # v is finite but D v overflows: both Kobayashi paths refuse it
        d = DomainParams(m=2.0, n=2)
        v = np.array([1.7e308, 1.7e308])
        for p in ([0.5, 0.5], [0.0, 0.5]):
            with pytest.raises(DomainError, match="non-finite entries"):
                kobayashi(d, np.array(p, dtype=complex), v)

    def test_rounded_reference_coordinate_is_still_checked(self):
        # inside the egg in floating point, yet the reference coordinate
        # rounds to 1
        d = DomainParams(m=0.5, n=2)
        z = np.array([0.6278999999999999, 0.61])
        assert defining_function(d, z) < 0.0 and reference_coordinate(d, z) == 1.0
        with pytest.raises(DomainError, match="axis coordinate p1"):
            kobayashi(d, z, np.array([0.01, 1.0]))


@pytest.fixture
def as_vector_calls(monkeypatch):
    """Counts ``as_vector`` calls in every module of the package that binds it."""
    calls = []
    original = domain_module.as_vector

    def counted(v, n):
        calls.append(n)
        return original(v, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("eggmetrics") and getattr(module, "as_vector", None) is original:
            monkeypatch.setattr(module, "as_vector", counted)
    return calls


class TestChecksOnce:
    POINTS = [
        pytest.param(DomainParams(m=2.0, n=3), Z, id="inner"),
        pytest.param(DomainParams(m=2.0, n=3), np.array([0.95, 0.1j, 0.0]), id="outer"),
        pytest.param(DomainParams(m=2.0, n=3), np.array([0.0, 0.3, 0.2j]), id="on-Z"),
        pytest.param(DomainParams(m=0.75, n=2), np.array([0.2j, 0.5]), id="chord"),
    ]

    @pytest.mark.parametrize("domain,z", POINTS)
    def test_one_check_per_vector_argument(self, as_vector_calls, domain, z):
        v = V[:domain.n]
        for fn, args, expected in ((kobayashi, (z, v), 2), (kobayashi_sq, (z, v), 2),
                                   (wu_tensor, (z,), 1), (wu_norm, (z, v), 2),
                                   (pullback_tensor, (z,), 1)):
            as_vector_calls.clear()
            fn(domain, *args)
            assert len(as_vector_calls) == expected, fn.__name__

    def test_stencil_consumers_check_once(self, as_vector_calls):
        for fn in (kahler_defect, curvature_tensor):
            as_vector_calls.clear()
            fn(D, Z)
            assert len(as_vector_calls) == 1, fn.__name__


def _strata_point(rng, m, n, stratum):
    # a seeded point of the stratum, with random phases and zhat direction
    w = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    zhat = w / np.linalg.norm(w)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if stratum == "generic":
        t = rng.uniform(0.05, 0.95)
        g = rng.uniform(0.2, 0.9)
        r1, rhat = g * t ** (1.0 / (2.0 * m)), g * math.sqrt(1.0 - t)
    elif stratum == "outer":
        r1, rhat = rng.uniform(0.92, 0.97), rng.uniform(0.0, 0.1)
    elif stratum == "inner":
        r1, rhat = rng.uniform(0.1, 0.5), rng.uniform(0.0, 0.5)
    elif stratum == "on-Z":
        r1, rhat = 0.0, rng.uniform(0.05, 0.95)
    elif stratum == "on-M0":
        t = rng.uniform(0.02, 0.48)
        r1, rhat = t ** (1.0 / (2.0 * m)), math.sqrt(1.0 - 2.0 * t)
    else:  # |z1| = 1e-11
        r1, rhat = 1e-11, rng.uniform(0.05, 0.95)
    return np.concatenate(([r1 * phase], rhat * zhat))


class TestWuNormIsTheTensorNorm:
    @pytest.mark.parametrize("m,stratum,region", [
        (0.75, "generic", RegionLabel.GENERIC),    # chord form
        (1.0, "generic", RegionLabel.GENERIC),     # ball
        (2.0, "outer", RegionLabel.M_PLUS),
        (2.0, "inner", RegionLabel.M_MINUS),
        (0.75, "on-Z", RegionLabel.Z),
        (2.0, "on-Z", RegionLabel.Z),
        (2.0, "on-M0", RegionLabel.M_ZERO),
        (5.0, "on-M0", RegionLabel.M_ZERO),
        (0.75, "z1=1e-11", RegionLabel.Z),
        (2.0, "z1=1e-11", RegionLabel.Z),
    ])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bit_identical(self, m, stratum, region, n):
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([n, int(100 * m), len(stratum)])
        for _ in range(8):
            z = _strata_point(rng, m, n, stratum)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            form = wu_tensor(d, z)
            assert form.region is region
            assert wu_norm(d, z, v) == math.sqrt(max(form.norm_sq(v), 0.0))

    def test_outside_point_is_refused(self):
        with pytest.raises(DomainError, match="outside the egg"):
            wu_norm(D, np.array([0.5, 0.9, 0.5]), V)
