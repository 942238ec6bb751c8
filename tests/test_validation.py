"""The validation boundary: each public function checks its vectors once, up front."""

import math
import sys

import numpy as np
import pytest

from eggmetrics import (
    Branch,
    DomainError,
    DomainParams,
    GridSpec,
    RegionLabel,
    automorphism_jacobian,
    branch_params,
    classify_region,
    curvature_scan,
    curvature_tensor,
    defining_function,
    direction_sample,
    egg_automorphism,
    holomorphic_curvature,
    kahler_defect,
    kcurve_alpha_grid,
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
from eggmetrics.numerics import wirtinger_jet
from test_domain import m0_split

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
    (holomorphic_curvature, (Z, V), (0, 1)),
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

#: the one-point evaluations, each called as fn(domain, point, vector); one
#: point carries its real scalars on floats, so each must refuse a bad input
#: with the same typed error and message as its rows
ONE_POINT = [pytest.param(kobayashi, id="kobayashi"),
             pytest.param(kobayashi_sq, id="kobayashi_sq"),
             pytest.param(lambda d, z, v: wu_tensor(d, z), id="wu_tensor"),
             pytest.param(wu_norm, id="wu_norm")]


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

    def test_curvature_direction_is_checked_once(self, as_vector_calls):
        # a NaN or inf direction read NaN, a wrong length a bare ValueError
        tensor = curvature_tensor(D, Z)
        for bad, message in _bad_vectors(V):
            with pytest.raises(DomainError, match=message):
                tensor.holomorphic(bad)
        as_vector_calls.clear()
        holomorphic_curvature(D, Z, V)
        assert len(as_vector_calls) == 2  # the point and the direction

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

    @pytest.mark.parametrize("imag", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_imaginary_part_alone_is_refused(self, imag):
        # one point's entries are checked as Python complex numbers, its rows
        # by numpy: a finite real part does not hide a bad imaginary one
        for k in range(3):
            z = Z.astype(complex)
            z[k] = complex(0.1, imag)
            with pytest.raises(DomainError, match="^vector has non-finite entries$"):
                domain_module.as_vector(z, 3)
            with pytest.raises(DomainError, match="^row 1 has non-finite entries$"):
                domain_module.as_vector(np.array([Z, z]), 3, rows=True)
            with pytest.raises(DomainError, match="^vector has non-finite entries$"):
                wu_tensor(D, z)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("fn", [kobayashi, kobayashi_sq])
    def test_moved_vector_is_still_checked(self, fn):
        # v is finite but D v overflows: both Kobayashi paths refuse it
        d = DomainParams(m=2.0, n=2)
        v = np.array([1.7e308, 1.7e308])
        for p in ([0.5, 0.5], [0.0, 0.5]):
            with pytest.raises(DomainError, match="^vector has non-finite entries$"):
                fn(d, np.array(p, dtype=complex), v)
            with pytest.raises(DomainError, match="^row 1 has non-finite entries$"):
                fn(d, np.array([[0.1, 0.1], p], dtype=complex), np.array([[1.0, 0.0], v]))

    @pytest.mark.parametrize("fn", ONE_POINT)
    def test_rounded_reference_coordinate_is_still_checked(self, fn):
        # the defining function puts it inside, yet the reference coordinate
        # rounds to 1: the one membership test refuses it
        d = DomainParams(m=0.5, n=2)
        z = np.array([0.6278999999999999, 0.61])
        assert defining_function(d, z) < 0.0 and reference_coordinate(d, z) == 1.0
        with pytest.raises(DomainError, match="^point lies outside the egg$"):
            fn(d, z, np.array([0.01, 1.0]))

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0])
    def test_float_path_raises_only_typed_errors(self, m):
        # points 0 to 3 ulp inside the boundary, on Z and at |z1| = 1e-300,
        # with vectors from 1e-300 to 1e100: a one-point call returns a
        # number or refuses the point as outside, and never lets a bare
        # ZeroDivisionError, OverflowError or ValueError out of its float
        # math (pytest.ini makes numpy's RuntimeWarnings errors as well)
        rng = np.random.default_rng(int(1e7 * m))
        d = DomainParams(m=m, n=3)
        for k in range(40):
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            zhat = rng.uniform(0.05, 0.95) * w / np.linalg.norm(w)
            r1 = math.sqrt(1.0 - float(np.vdot(zhat, zhat).real)) ** (1.0 / m)
            for _ in range(k % 4):
                r1 = math.nextafter(r1, 0.0)
            for z1 in (r1, 0.0, 1e-300):
                z = np.concatenate(([z1 * np.exp(1j * rng.uniform(0.0, 6.3))], zhat))
                v = rng.normal(size=3) + 1j * rng.normal(size=3)
                for scale in (1e-300, 1e-160, 1.0, 1e100):
                    for fn in (kobayashi, kobayashi_sq, wu_norm):
                        try:
                            assert not math.isnan(fn(d, z, scale * v))
                        except DomainError as exc:
                            assert str(exc) == "point lies outside the egg"


class TestRegionTolerance:
    # checked once, by the public function, for rows too, which carry no
    # region label; pullback_tensor labels at REGION_TOL and takes no tol
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("fn", [classify_region, wu_tensor])
    def test_bad_tol_is_refused_for_one_point_and_for_rows(self, fn, tol):
        for z in (Z, np.array([Z, 0.5 * Z])):
            with pytest.raises(DomainError, match="tol must be finite and positive"):
                fn(D, z, tol=tol)

    def test_nan_tol_does_not_label_an_interior_point(self):
        # NaN passed ``tol <= 0`` and labelled this interior point OUTSIDE
        d = DomainParams(2.0, 2)
        assert classify_region(d, [0.1, 0.1]) is RegionLabel.M_MINUS
        with pytest.raises(DomainError, match="got nan"):
            classify_region(d, [0.1, 0.1], tol=math.nan)


@pytest.fixture
def as_vector_calls(monkeypatch):
    """Counts ``as_vector`` calls in every module of the package that binds it."""
    calls = []
    original = domain_module.as_vector

    def counted(v, n, **kwargs):
        calls.append(n)
        return original(v, n, **kwargs)

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

    @pytest.mark.parametrize("domain,z", POINTS)
    def test_rows_check_once_per_vector_argument(self, as_vector_calls, domain, z):
        # three rows: the point, a quarter of it and the origin
        rows = np.array([z, 0.25 * z, 0.0 * z])
        vs = np.tile(V[:domain.n], (3, 1))
        for fn, args, expected in ((kobayashi, (rows, vs), 2), (kobayashi_sq, (rows, vs), 2),
                                   (wu_tensor, (rows,), 1), (wu_norm, (rows, vs), 2),
                                   (pullback_tensor, (rows,), 1)):
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
        t, q = m0_split(DomainParams(m=m, n=n), rng.uniform(0.04, 0.96))
        r1, rhat = t ** (1.0 / (2.0 * m)), math.sqrt(q)
    else:  # |z1| = 1e-11
        r1, rhat = 1e-11, rng.uniform(0.05, 0.95)
    return np.concatenate(([r1 * phase], rhat * zhat))


#: wu_norm against the norms of wu_tensor and pullback_tensor: twice the worst
#: measured difference, 6.3e-16, rounded up
WU_NORM_RTOL = 1.3e-15


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
    def test_within_rounding_of_both_tensor_norms(self, m, stratum, region, n):
        # wu_norm reads the moved vector's three reals, the tensors' norms contract H:
        # over 4 800 pairs of these cells (240 per test) they differ by at
        # most 5.9e-16 relative for wu_tensor and 6.3e-16 for pullback_tensor
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([n, int(100 * m), len(stratum)])
        for _ in range(8):
            z = _strata_point(rng, m, n, stratum)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            form = wu_tensor(d, z)
            assert form.region is region
            w = wu_norm(d, z, v)
            for tensor in (form, pullback_tensor(d, z)):
                assert abs(math.sqrt(tensor.norm_sq(v)) - w) <= WU_NORM_RTOL * w

    @pytest.mark.parametrize("fn", ONE_POINT)
    def test_outside_point_is_refused(self, fn):
        with pytest.raises(DomainError, match="^point lies outside the egg$"):
            fn(D, np.array([0.5, 0.9, 0.5]), V)

    @pytest.mark.parametrize("bad,message", list(_bad_vectors(V)))
    def test_form_norm_refuses_bad_vectors_as_wu_norm(self, bad, message):
        # a wrong length must not reach numpy's broadcasting, nor a NaN entry
        # the sum
        form = wu_tensor(D, Z)
        for norm in (form.norm_sq, lambda v: wu_norm(D, Z, v)):
            with pytest.raises(DomainError, match=message):
                norm(bad)


BAD_STEPS = [0.0, -1e-4, math.nan, math.inf, -math.inf]


class TestStencilControls:
    """Grid and direction controls are checked before any jet is taken.

    The curvature and the Kahler defect are exact and take no step; only the
    difference oracle ``wirtinger_jet`` has one.
    """

    @pytest.mark.parametrize("step", BAD_STEPS)
    def test_grid_step_must_be_finite_and_positive(self, step):
        # the grid has no step any more: one passed, bad or good, is an
        # error, not a control that is silently ignored
        for value in (step, 1e-4):
            with pytest.raises(TypeError, match="step"):
                GridSpec(p1_min=0.3, p1_max=0.6, count=2, step=value)

    @pytest.mark.parametrize("directions", [0, -3, 2.5])
    def test_grid_directions_must_be_a_positive_integer(self, directions):
        with pytest.raises(DomainError, match="directions"):
            GridSpec(p1_min=0.3, p1_max=0.6, count=2, directions=directions)

    @pytest.mark.parametrize("field,value", [("count", 2.5), ("count", 2.0), ("count", 0),
                                             ("seed", 0.5), ("seed", -1)])
    def test_grid_count_and_seed_must_be_integers(self, field, value):
        # a fractional count leaked TypeError from np.linspace in the scan
        grid = {"p1_min": 0.1, "p1_max": 0.5, "count": 2, field: value}
        with pytest.raises(DomainError, match="grid count" if field == "count" else "seed"):
            GridSpec(**grid)

    @pytest.mark.parametrize("count", [8.5, 8.0, 7, -1, "8"])
    def test_kcurve_grid_count_must_be_an_integer_of_at_least_8(self, count):
        # a count of 8.5 passed silently; the rule is the other counts' (``_check_integer``)
        d = DomainParams(m=2.0, n=2)
        with pytest.raises(DomainError, match=r"^grid count must be an integer >= 8, got "):
            kcurve_alpha_grid(d, 0.5, Branch.UPPER, count)

    def test_kcurve_grid_takes_numpy_integers(self):
        d = DomainParams(m=2.0, n=2)
        grid = kcurve_alpha_grid(d, 0.5, Branch.UPPER, np.int64(8))
        assert np.array_equal(grid, kcurve_alpha_grid(d, 0.5, Branch.UPPER, 8))

    def test_integer_grid_controls_scan(self):
        # the one-point grids the bench times, and numpy integers
        d = DomainParams(m=2.0, n=2)
        records, skipped = curvature_scan(d, GridSpec(p1_min=0.4, p1_max=0.4, count=1,
                                                      phat_abs=0.1))
        assert len(records) == 1 and not skipped
        grid = GridSpec(p1_min=0.3, p1_max=0.6, count=np.int64(2), seed=np.int64(1))
        assert len(curvature_scan(d, grid)[0]) == 2

    @pytest.mark.parametrize("phat_abs", [math.nan, math.inf])
    def test_grid_offset_must_be_finite(self, phat_abs):
        # the scan builds its points itself, past the vector check
        with pytest.raises(DomainError, match="phat_abs"):
            GridSpec(p1_min=0.3, p1_max=0.6, count=2, phat_abs=phat_abs)

    def test_valid_grid_controls(self):
        assert GridSpec(p1_min=0.3, p1_max=0.6, count=2, directions=1).directions == 1

    @pytest.mark.parametrize("step", BAD_STEPS)
    def test_stencil_consumers_refuse_the_step(self, step):
        # the exact consumers take no step at all; the difference oracle
        # refuses a bad one before it evaluates anything
        with pytest.raises(TypeError, match="step"):
            curvature_tensor(D, Z, step=step)
        with pytest.raises(TypeError, match="step"):
            holomorphic_curvature(D, Z, V, step=step)
        with pytest.raises(TypeError, match="step"):
            kahler_defect(D, Z, step=step)
        calls = []
        with pytest.raises(DomainError, match="differencing step"):
            wirtinger_jet(lambda w: calls.append(w) or np.zeros(len(w)), Z, step)
        assert calls == []

    @pytest.mark.parametrize("count", [0, -1])
    def test_direction_count_must_be_positive(self, count):
        with pytest.raises(DomainError, match="direction count"):
            direction_sample(3, seed=0, count=count)
        assert direction_sample(3, seed=0, count=1).shape == (1, 3)

    @pytest.mark.parametrize("n,seed,count,name", [(2, 1.5, None, "direction seed"),
                                                   (2, -1, None, "direction seed"),
                                                   (2, 0, 1.5, "direction count"),
                                                   (2.0, 0, None, "dimension n")])
    def test_direction_sample_inputs_must_be_integers(self, n, seed, count, name):
        # a fractional seed leaked TypeError from operator.index
        with pytest.raises(DomainError, match=name):
            direction_sample(n, seed, count)
