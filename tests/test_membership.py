"""One verdict per fact: inside the egg or not, and which Kobayashi branch.

Points within a few ulp of the boundary and vectors within a few ulp of the
branch junction u = p1 are where formulas that agree in exact arithmetic
round apart; every function must still give the same answer there.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eggmetrics import (
    Branch,
    DomainError,
    DomainParams,
    NumericalError,
    RegionLabel,
    branch_params,
    classify_region,
    defining_function,
    egg_automorphism,
    fit_reference,
    kobayashi,
    kobayashi_alt_upper,
    kobayashi_reference,
    pullback_tensor,
    reference_coordinate,
    wu_norm,
    wu_tensor,
)

# the package binds the function ``kobayashi`` over the submodule's name
kobayashi_module = sys.modules["eggmetrics.kobayashi"]

M_VALUES = [0.5, 0.75, 1.0, 2.0, 5.0, 20.0, 60.0]


def _unit(rng, k):
    w = rng.normal(size=k) + 1j * rng.normal(size=k)
    return w / np.linalg.norm(w)


def _boundary_step(r: float, ulps: int) -> float:
    for _ in range(ulps):
        r = math.nextafter(r, 0.0)
    return r


def _thin_points(m, n, count, seed):
    # |z1| 0 to 3 ulp below the boundary radius (1 - |zhat|^2)^(1/2m), half of
    # them with z1 real and half with a random phase
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        zhat = rng.uniform(0.05, 0.95) * _unit(rng, n - 1)
        s = math.sqrt(1.0 - float(np.vdot(zhat, zhat).real))
        r = _boundary_step(s ** (1.0 / m), int(rng.integers(0, 4)))
        phase = 1.0 if i % 2 else complex(np.exp(2j * math.pi * rng.uniform()))
        points.append(np.concatenate(([r * phase], zhat)))
    return points


def _verdict(fn):
    # True when fn accepts its point, False when it refuses it as outside
    try:
        fn()
    except DomainError as exc:
        assert str(exc) == "point lies outside the egg"
        return False
    return True


class TestOneMembership:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", M_VALUES)
    def test_every_function_gives_the_same_verdict(self, m, n):
        d = DomainParams(m=m, n=n)
        v = np.zeros(n, dtype=complex)
        v[0], v[1] = 0.01, 1.0
        verdicts = set()
        for z in _thin_points(m, n, 60, seed=int(100 * m) + n):
            got = [classify_region(d, z) is not RegionLabel.OUTSIDE,
                   _verdict(lambda: wu_tensor(d, z)),
                   _verdict(lambda: wu_norm(d, z, v)),
                   _verdict(lambda: kobayashi(d, z, v)),
                   _verdict(lambda: pullback_tensor(d, z)),
                   _verdict(lambda: egg_automorphism(d, z, z))]
            assert len(set(got)) == 1, (z, got)
            assert got[0] == (reference_coordinate(d, z) < 1.0)
            verdicts.add(got[0])
        assert verdicts == {True, False}  # the sample straddles the boundary

    @pytest.mark.parametrize("z1", [5e-324, 5e-324j, 1e-310])
    def test_a_subnormal_z1_is_evaluated_as_z1_0(self, z1):
        # |z1|/z1 divides by z1, which overflowed: kobayashi refused this
        # interior point and pullback_tensor returned NaN
        d = DomainParams(m=2.0, n=2)
        z, z0, v = np.array([z1, 0.3]), np.array([0.0, 0.3]), np.array([1.0, 0.5])
        assert kobayashi(d, z, v) == kobayashi(d, z0, v)
        np.testing.assert_allclose(pullback_tensor(d, z).matrix, pullback_tensor(d, z0).matrix,
                                   rtol=1e-15, atol=1e-300)


class TestFiniteAtTheBoundary:
    # the tensor divides only by s2 = 1 - |zhat|^2 and by the fit's
    # 1 - p1_ref^2 and 1 - p1_ref^2m, which the membership test keeps
    # positive; a denominator taken in its own rounding, such as
    # 1 - |z1|^2m - |zhat|^2, rounds to 0 at some of these points
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0, 5.0, 20.0])
    def test_every_accepted_point_has_a_finite_tensor(self, m, n):
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([n, int(100 * m), 17])
        points = [z for z in _thin_points(m, n, 400, seed=[n, int(100 * m), 16])
                  if reference_coordinate(d, z) < 1.0]
        vectors = np.array([_unit(rng, n) for _ in points])
        assert len(points) > 200
        for z, v in zip(points, vectors):
            assert np.all(np.isfinite(wu_tensor(d, z).matrix)), z
            assert math.isfinite(wu_norm(d, z, v)), z
            ell = fit_reference(d, reference_coordinate(d, z))
            assert ell.r1 > 0.0 and ell.r2 > 0.0, z
        assert np.all(np.isfinite(wu_tensor(d, np.array(points))))
        assert np.all(np.isfinite(wu_norm(d, np.array(points), vectors)))


class _PastTheBranchTest(Exception):
    pass


def _junction_vectors(m, n, count, seed):
    # (p1, v) with m|v1| within 2 ulp of p1|vhat|
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p1 = rng.uniform(0.02, 0.98)
        vhat = rng.uniform(0.1, 2.0) * _unit(rng, n - 1)
        v1 = p1 * math.sqrt(float(np.vdot(vhat, vhat).real)) / m
        k = int(rng.integers(-2, 3))
        for _ in range(abs(k)):
            v1 = math.nextafter(v1, math.copysign(math.inf, k))
        yield p1, np.concatenate(([v1], vhat))


class TestOneBranchTest:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", M_VALUES)
    def test_branch_params_kobayashi_and_the_alternate_formula_agree(self, monkeypatch, m, n):
        formulas = []

        def recorded(name, formula):
            def run(*args):
                formulas.append(name)
                return formula(*args)
            return run

        axis_sq, lower_sq, upper_sq, z_sq = kobayashi_module._BRANCH_SQ
        monkeypatch.setattr(kobayashi_module, "_BRANCH_SQ", (
            recorded(Branch.AXIS, axis_sq), recorded(Branch.LOWER, lower_sq),
            recorded(Branch.UPPER, upper_sq), recorded("Z", z_sq)))

        # past its branch test the alternate formula solves its root; stop it
        # there, so only the branch decision is observed
        def past(*args):
            raise _PastTheBranchTest

        monkeypatch.setattr(kobayashi_module, "_two_term_root", past)
        d = DomainParams(m=m, n=n)
        branches = set()
        for p1, v in _junction_vectors(m, n, 200, seed=int(100 * m) + n):
            formulas.clear()
            kobayashi_reference(d, p1, v)
            upper = branch_params(d, p1, v).branch is Branch.UPPER
            assert formulas == [Branch.UPPER if upper else Branch.LOWER], (p1, v)
            try:
                kobayashi_alt_upper(d, p1, v)
            except _PastTheBranchTest:
                refused = False
            except DomainError as exc:
                assert "branch only" in str(exc)
                refused = True
            assert refused is not upper, (p1, v)
            branches.add(upper)
        assert branches == {True, False}  # the sample straddles the junction
        formulas.clear()
        kobayashi_reference(d, 1e-160, v)  # on Z, past the UPPER root's float range
        assert formulas == ["Z"]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0.5, 0.75, 2.0, 5.0, 20.0, 60.0])
    def test_the_alternate_formula_just_above_the_junction(self, m, n):
        # 1 to 4 ulp of |v1| past the branch test: 1 - t2|vhat|^2 p1^2/|v1|^2
        # cancels to 0 and can round negative (a log of it raises ValueError),
        # and at m = 60 the unscaled root x ~ m/|vhat| takes x^2m past the
        # float range (OverflowError) though the metric is in range
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng([int(m), n, 15])
        p1s, vs = [], []
        for _ in range(400):
            p1 = rng.uniform(0.02, 0.98)
            v = np.concatenate(([0.0], 10.0 ** rng.uniform(-3.0, 0.3) * _unit(rng, n - 1)))
            v[0] = p1 * math.sqrt(float(np.vdot(v[1:], v[1:]).real)) / m
            while branch_params(d, p1, v).branch is not Branch.UPPER:
                v[0] = math.nextafter(v[0].real, math.inf)
            for _ in range(int(rng.integers(0, 4))):
                v[0] = math.nextafter(v[0].real, math.inf)
            p1s.append(p1)
            vs.append(v)
        axis = np.zeros((len(p1s), n))
        axis[:, 0] = p1s
        expected = kobayashi(d, axis, np.array(vs))
        for p1, v, k in zip(p1s, vs, expected):
            try:
                got = kobayashi_alt_upper(d, p1, v)
            except NumericalError:
                continue
            assert abs(got - k) <= 1e-10 * k, (p1, v)

    def test_the_alternate_formula_where_its_discriminant_cancels(self):
        # m = 1/2 just above the junction: |v1|^2 - 4 p1^2 |vhat|^2 cancels to
        # 0 and rounds negative for this vector (a sqrt of it raises ValueError)
        d = DomainParams(m=0.5, n=2)
        p1, v = 0.06913737495957609, np.array([0.028107976310200497, 0.20327627659160433])
        assert branch_params(d, p1, v).branch is Branch.UPPER
        k = kobayashi(d, np.array([p1, 0.0]), v)
        assert abs(kobayashi_alt_upper(d, p1, v) - k) <= 1e-10 * k


# a point |z1| = r e^(i phi), |zhat| = rho, and whether it is thin: then |z1|
# is 1 to 3 ulp below the boundary radius (1 - rho^2)^(1/2m), else a fraction
# at most 1 - 1e-6 of it
@st.composite
def _egg_points(draw, m, n):
    rho = draw(st.floats(0.0, 0.99))
    a = draw(st.floats(0.0, math.pi / 2)) if n > 2 else 0.0
    zhat = np.zeros(n - 1, dtype=complex)
    zhat[0] = rho * math.cos(a) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    if n > 2:
        zhat[1] = 1j * rho * math.sin(a)
    ulps = draw(st.integers(0, 3))
    r = math.sqrt(1.0 - rho * rho) ** (1.0 / m)
    r = _boundary_step(r, ulps) if ulps else r * draw(st.floats(0.0, 1.0 - 1e-6))
    z1 = r * np.exp(1j * draw(st.sampled_from([0.0, 0.3, 2.0])))
    return np.concatenate(([z1], zhat)), ulps > 0


@st.composite
def _automorphism_cases(draw):
    m, n = draw(st.sampled_from([0.5, 2.0, 60.0])), draw(st.sampled_from([2, 3]))
    p, _ = draw(_egg_points(m, n))
    return m, n, p, draw(st.lists(_egg_points(m, n), min_size=1, max_size=4))


class TestAutomorphismKeepsTheInterior:
    # For z 1 to 3 ulp inside the boundary the map's own rounding can land the
    # image a few thousand ulp of p1_ref past 1 (measured at m = 0.5), so
    # those images are held to the closed egg egg_automorphism accepts; the
    # other z, at least a 1e-6 fraction inside, must map inside.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_automorphism_cases())
    @example(case=(0.5, 2, np.array([0.6278999999999999, 0.61]),
                   [(np.array([0.3, 0.2j]), False)]))
    def test_base_point_goes_to_the_axis_and_inside_stays_inside(self, case):
        m, n, p, zs = case
        d = DomainParams(m=m, n=n)
        points = np.array([p] + [z for z, _ in zs])
        p1_ref = reference_coordinate(d, p)
        if p1_ref >= 1.0:
            with pytest.raises(DomainError, match="point lies outside the egg"):
                egg_automorphism(d, p, points)
            return
        image = egg_automorphism(d, p, points)
        assert abs(image[0, 0] - p1_ref) <= 1e-13 and np.max(np.abs(image[0, 1:])) <= 1e-13
        for (z, thin), w in zip(zs, image[1:]):
            if classify_region(d, z) is RegionLabel.OUTSIDE:
                continue
            if thin:
                assert defining_function(d, w) <= 1e-9, (p, z)
            else:
                assert classify_region(d, w) is not RegionLabel.OUTSIDE, (p, z)
