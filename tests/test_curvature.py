import math

import numpy as np
import pytest

from eggmetrics import (
    DomainParams,
    GridSpec,
    RegionLabel,
    SeamProximityError,
    automorphism_jacobian,
    classify_region,
    curvature_scan,
    curvature_tensor,
    direction_sample,
    egg_automorphism,
    holomorphic_curvature,
    kahler_defect,
    wu_tensor,
)
from eggmetrics import fitting
from eggmetrics import curvature as curvature_module
from eggmetrics import tensor as tensor_module
from eggmetrics.domain import _axis_point
from eggmetrics.numerics import richardson, wirtinger_jet

from test_domain import interior_point
from test_jets import _region_points


class TestBallNormalization:
    def test_constant_minus_two(self):
        # pins the sectional-curvature normalization once and for all
        rng = np.random.default_rng(21)
        d = DomainParams(m=1.0, n=3)
        for _ in range(4):
            z = interior_point(rng, d, scale=0.45)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert holomorphic_curvature(d, z, v) == pytest.approx(-2.0, abs=1e-3)

    def test_dimension_two(self):
        d = DomainParams(m=1.0, n=2)
        assert holomorphic_curvature(d, [0.3, 0.2j], [1.0, 0.5]) == pytest.approx(
            -2.0, abs=1e-3)


class TestOuterRegion:
    def test_constant_minus_two_on_outer(self):
        d = DomainParams(m=2.0, n=2)
        dirs = direction_sample(2, seed=3, count=8)
        for p1 in (0.87, 0.92):
            tensor = curvature_tensor(d, [p1, 0.0])
            for v in dirs:
                assert tensor.holomorphic(v) == pytest.approx(-2.0, abs=1e-3)

    def test_kahler_symmetry_on_outer(self):
        d = DomainParams(m=2.0, n=2)
        tensor = curvature_tensor(d, [0.9, 0.05])
        assert tensor.kahler_symmetry_defect() < 1e-4


class TestInnerRegion:
    def test_component_pattern_at_reference_point(self):
        # nonzero families at (p1, 0, 0): all-equal pairs of 1/gamma blocks,
        # (i,i,k,k) with i,k > 1, and (i,j,j,i) with i != j > 1; rest vanish
        d = DomainParams(m=2.0, n=3)
        tensor = curvature_tensor(d, [0.4, 0.0, 0.0])
        R = tensor.components
        n = 3
        allowed = set()
        for g in range(1, n):
            allowed |= {(g, g, g, g), (g, g, 0, 0), (g, 0, 0, g),
                        (0, g, g, 0), (0, 0, g, g), (0, 0, 0, 0)}
        for i in range(1, n):
            for k in range(1, n):
                allowed.add((i, i, k, k))
        for i in range(1, n):
            for j in range(1, n):
                if i != j:
                    allowed.add((i, j, j, i))
        scale = np.max(np.abs(R))
        for idx in np.ndindex(3, 3, 3, 3):
            if idx in allowed:
                assert R[idx].real < 0, f"component {idx} should be negative"
                assert abs(R[idx].imag) < 1e-5 * scale
            else:
                assert abs(R[idx]) < 1e-5 * scale, f"component {idx} should vanish"

    def test_cross_component_asymmetry(self):
        # R[1,1,g,g] != R[g,1,1,g] at inner reference points: non-Kahler signature
        d = DomainParams(m=2.0, n=2)
        R = curvature_tensor(d, [0.4, 0.0]).components
        assert abs(R[0, 0, 1, 1] - R[1, 0, 0, 1]) > 1e-4

    def test_axis_direction_strictly_negative(self):
        d = DomainParams(m=2.0, n=2)
        assert holomorphic_curvature(d, [0.3, 0.0], [1.0, 0.0]) < 0.0


class TestInvariances:
    def test_direction_scaling(self):
        d = DomainParams(m=2.0, n=2)
        tensor = curvature_tensor(d, [0.4, 0.1])
        v = np.array([1.0, 0.5 - 0.2j])
        assert tensor.holomorphic(v) == pytest.approx(tensor.holomorphic(3.0 * v),
                                                      abs=1e-10)

    def test_step_robustness(self):
        # the exact curvature against the difference oracle at two steps
        d = DomainParams(m=2.0, n=2)
        z, v = np.array([0.9, 0.0]), np.array([1.0, 0.3])
        exact = holomorphic_curvature(d, z, v)
        for step in (1e-4, 5e-5):
            H, dz, ddbar = wirtinger_jet(lambda w: tensor_module._wu_matrices(d, w), z, step)
            form = tensor_module.HermitianForm(H, classify_region(d, z), "difference")
            fd = curvature_module._curvature(z, form, dz, ddbar).holomorphic(v)
            assert abs(exact - fd) < 1e-4

    @pytest.mark.parametrize("m", [0.75, 2.0])
    def test_automorphism_invariance(self, m):
        rng = np.random.default_rng(22)
        d = DomainParams(m=m, n=2)
        hits = 0
        while hits < 5:
            z = interior_point(rng, d, scale=0.5)
            q = interior_point(rng, d, scale=0.4)
            zq = egg_automorphism(d, q, z)
            from eggmetrics import seam_distance
            if seam_distance(d, z) < 1e-3 or seam_distance(d, zq) < 1e-3:
                continue
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            a = holomorphic_curvature(d, z, v)
            b = holomorphic_curvature(d, zq, automorphism_jacobian(d, q, z) @ v)
            assert abs(a - b) < 1e-4
            hits += 1


class TestNegativity:
    @pytest.mark.parametrize("m", [0.5, 0.75, 2.0, 2.5])
    def test_sampled_sectional_values_negative(self, m):
        d = DomainParams(m=m, n=2)
        grid = GridSpec(p1_min=0.15, p1_max=0.9, count=6, seed=5)
        records, _ = curvature_scan(d, grid)
        assert records, "scan produced no records"
        for rec in records:
            assert rec.max_sectional < 0.0


class TestScan:
    def test_seam_points_skipped(self):
        d = DomainParams(m=2.0, n=2)
        thr = d.m0_radius
        grid = GridSpec(p1_min=thr, p1_max=thr, count=1, seed=1)
        records, skipped = curvature_scan(d, grid)
        assert not records and len(skipped) == 1

    def test_record_fields(self):
        d = DomainParams(m=2.0, n=2)
        grid = GridSpec(p1_min=0.3, p1_max=0.9, count=3, seed=1)
        records, skipped = curvature_scan(d, grid)
        assert len(records) + len(skipped) == 3
        regions = {r.region for r in records}
        assert RegionLabel.M_MINUS in regions and RegionLabel.M_PLUS in regions
        for rec in records:
            assert rec.min_sectional <= rec.max_sectional < 0
            assert rec.kahler_defect >= 0
            assert math.isfinite(rec.axis_cross_gap)
            if rec.region is RegionLabel.M_PLUS:
                assert rec.symmetry_defect < 1e-4
                assert rec.kahler_defect < 1e-6
            if rec.region is RegionLabel.M_MINUS:
                assert rec.axis_cross_gap > 1e-4

    def test_direction_sample_size_and_determinism(self):
        a = direction_sample(3, seed=9)
        b = direction_sample(3, seed=9)
        assert a.shape == (2 * 9 + 16, 3)
        assert np.array_equal(a, b)

    def test_conjugate_pair_symmetry(self):
        # R[i,j,k,l] = conj(R[j,i,l,k]) within differencing tolerance
        d = DomainParams(m=2.0, n=2)
        for z in ([0.4, 0.1], [0.9, 0.05]):
            R = curvature_tensor(d, z).components
            swapped = np.conj(np.transpose(R, (1, 0, 3, 2)))
            assert np.max(np.abs(R - swapped)) < 1e-6 * np.max(np.abs(R))

    def test_seam_proximity_raises(self):
        # only the strata themselves are refused: a point 1e-6 off M0 has
        # its exact jet, points on M0 and on Z have none
        d = DomainParams(m=2.0, n=2)
        near = curvature_tensor(d, [d.m0_radius + 1e-6, 0.0])
        assert np.all(np.isfinite(near.components))
        for z in ([d.m0_radius, 0.0], [0.0, 0.5], [1e-11, 0.5]):
            with pytest.raises(SeamProximityError):
                curvature_tensor(d, z)


def _reference_direction_sample(n, seed, count=None):
    # reference: the direction set built one direction at a time, uncached
    if count is None:
        count = 2 * n * n + 16
    dirs = []
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


def _reference_wirtinger_jet(f, z, step):
    # reference: the jet with its index bookkeeping rebuilt on every call
    # (triu_indices, np.split)
    z = np.asarray(z, dtype=complex)
    n = z.size
    d = 2 * n
    u0 = np.concatenate([z.real, z.imag])
    a, b = np.triu_indices(d, 1)
    blocks = [u0[None]]
    for h in (step, step / 2.0):
        e = h * np.eye(d)
        plus, minus = u0 + e, u0 - e
        blocks += [plus, minus, plus[a] + e[b], plus[a] - e[b], minus[a] + e[b], minus[a] - e[b]]
    u = np.concatenate(blocks)
    values = f(u[:, :n] + 1j * u[:, n:])
    parts = iter(np.split(values, np.cumsum([len(x) for x in blocks])[:-1]))
    center = next(parts)[0]
    grads, hessians = [], []
    for h in (step, step / 2.0):
        plus, minus = next(parts), next(parts)
        grads.append((plus - minus) / (2.0 * h))
        pp, pm, mp, mm = (next(parts) for _ in range(4))
        H = np.empty((d, d) + center.shape, dtype=values.dtype)
        H[np.arange(d), np.arange(d)] = (plus - 2.0 * center + minus) / h ** 2
        H[a, b] = H[b, a] = (pp - pm - mp + mm) / (4.0 * h ** 2)
        hessians.append(H)
    G = richardson(grads, order=2)
    dz = 0.5 * (G[:n] - 1j * G[n:])
    HH = richardson(hessians, order=2)
    ddbar = 0.25 * ((HH[:n, :n] + HH[n:, n:]) + 1j * (HH[:n, n:] - HH[n:, :n]))
    return center, dz, ddbar


def _counted_batches(monkeypatch):
    # sizes of the ``_wu_matrices`` batches and the points of the exact jets
    # made from curvature and tensor
    original, original_jet = tensor_module._wu_matrices, tensor_module._wu_jet
    batches, jets = [], []

    def counted(domain, z, *args):
        batches.append(len(z))
        return original(domain, z, *args)

    def counted_jet(domain, z, *args):
        jets.append(z)
        return original_jet(domain, z, *args)

    for module in (curvature_module, tensor_module):
        monkeypatch.setattr(module, "_wu_matrices", counted, raising=False)
        monkeypatch.setattr(module, "_wu_jet", counted_jet)
    return batches, jets


class TestOneBatchPerGridPoint:
    @pytest.mark.parametrize("n", [2, 4])
    def test_one_batch_per_grid_point(self, monkeypatch, n):
        # each grid point is one exact jet evaluation at the point itself,
        # shared by the curvature and the Kahler defect; no stencil batch
        batches, jets = _counted_batches(monkeypatch)
        d = DomainParams(m=2.0, n=n)
        curvature_scan(d, GridSpec(p1_min=0.9, p1_max=0.9, count=1, phat_abs=0.05))
        assert batches == [] and len(jets) == 1
        assert jets[0][0] == 0.9 and jets[0][1] == 0.05
        jets.clear()
        records, skipped = curvature_scan(d, GridSpec(p1_min=0.3, p1_max=0.9, count=3))
        assert len(records) == 3 and not skipped
        assert batches == [] and [z[0] for z in jets] == list(np.linspace(0.3, 0.9, 3))

    def test_skipped_point_makes_no_batch(self, monkeypatch):
        batches, jets = _counted_batches(monkeypatch)
        d = DomainParams(m=2.0, n=2)
        thr = d.m0_radius
        records, skipped = curvature_scan(d, GridSpec(p1_min=thr, p1_max=thr, count=1))
        assert not records and len(skipped) == 1 and batches == [] and jets == []

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_defect_is_kahler_defect(self, m, n):
        d = DomainParams(m=m, n=n)
        for ph in (0.0, 0.1):
            grid = GridSpec(p1_min=0.2, p1_max=0.95, count=4, phat_abs=ph)
            records, _ = curvature_scan(d, grid)
            assert records
            for rec in records:
                # the same jet, so the same number
                assert rec.kahler_defect == kahler_defect(d, rec.point)

    def test_scan_fields_match_curvature_tensor(self):
        d = DomainParams(m=2.0, n=3)
        grid = GridSpec(p1_min=0.4, p1_max=0.4, count=1, phat_abs=0.1, seed=3)
        (rec,), _ = curvature_scan(d, grid)
        tensor = curvature_tensor(d, rec.point)
        values = [tensor.holomorphic(v) for v in direction_sample(3, seed=3)]
        assert rec.min_sectional == pytest.approx(min(values), rel=1e-12)
        assert rec.max_sectional == pytest.approx(max(values), rel=1e-12)
        assert rec.symmetry_defect == tensor.kahler_symmetry_defect()
        assert rec.region is tensor.metric.region


class TestDirectionSample:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_reference_bit_for_bit(self, n):
        for seed in (0, 1, 9, 12345):
            for count in (None, 1, n, 2 * n * n, 2 * n * n + 16, 3 * n * n + 40):
                got = direction_sample(n, seed, count)
                expected = _reference_direction_sample(n, seed, count)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_returned_array_is_a_private_copy(self):
        first = direction_sample(3, seed=4)
        assert first.flags.writeable
        first[:] = 0.0
        second = direction_sample(3, seed=4)
        assert second.tobytes() == _reference_direction_sample(3, 4).tobytes()
        assert not np.shares_memory(first, second)


class TestWirtingerJet:
    @pytest.mark.parametrize("n", [2, 3])
    def test_ball_potential_closed_form(self, n):
        # rho = -log(1 - |z|^2): drho/dz_k = zbar_k / q and
        # d2rho/dz_k dzbar_l = delta_kl / q + zbar_k z_l / q^2, q = 1 - |z|^2
        z = np.array([0.3 - 0.1j, 0.2j, -0.15 + 0.25j][:n])
        q = 1.0 - float(np.sum(np.abs(z) ** 2))

        def rho(w):
            return -np.log(1.0 - np.sum(np.abs(w) ** 2, axis=1))

        value, dz, ddbar = wirtinger_jet(rho, z, 1e-3)
        assert value == pytest.approx(-math.log(q), rel=1e-15)
        assert np.max(np.abs(dz - np.conj(z) / q)) < 1e-8
        expected = np.eye(n) / q + np.outer(np.conj(z), z) / q ** 2
        assert np.max(np.abs(ddbar - expected)) < 1e-8

    @pytest.mark.parametrize("n,per_curvature", [(2, 65), (4, 257)])
    def test_wu_tensor_calls_per_stencil(self, monkeypatch, n, per_curvature):
        # the difference oracle sends its whole stencil to the regional
        # tensors in one batch: the 1 + 16 n^2 jet points (the centre gives
        # the metric at z); the exact curvature and Kahler defect send none
        batches, jets = _counted_batches(monkeypatch)
        d = DomainParams(m=2.0, n=n)
        z = np.zeros(n, dtype=complex)
        z[0] = 0.9
        z[1] = 0.05
        curvature_tensor(d, z)
        kahler_defect(d, z)
        assert batches == [] and len(jets) == 2

        def f(w):
            return tensor_module._wu_matrices(d, w)

        wirtinger_jet(f, z, 1e-4)
        assert batches == [per_curvature]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reference_bit_for_bit(self, n):
        def rho(w):
            return -np.log(1.0 - np.sum(np.abs(w) ** 2, axis=1))

        z = np.array([0.3 - 0.1j, 0.2j, -0.15 + 0.25j, 0.1][:n])
        cases = [(rho, z, 1e-3)]
        for m, p1 in ((0.75, 0.4), (2.0, 0.4), (2.0, 0.9), (5.0, 0.5)):
            d = DomainParams(m=m, n=n)
            w = np.zeros(n, dtype=complex)
            w[0], w[1] = p1, 0.1j
            cases.append((lambda pts, d=d: tensor_module._wu_matrices(d, pts), w, 1e-4))
        for f, point, step in cases:
            got = wirtinger_jet(f, point, step)
            expected = _reference_wirtinger_jet(f, point, step)
            for g, e in zip(got, expected):
                assert g.shape == e.shape and g.tobytes() == e.tobytes()

    @pytest.mark.parametrize("m,n", [(0.75, 2), (1.0, 3), (2.0, 2), (2.0, 3), (5.0, 2)])
    def test_stack_equals_one_point_calls_bit_for_bit(self, m, n):
        # a (P, n) stack is one call of f on the P stencils in turn, and
        # each point's jet keeps its one-point bits; the axis points put
        # both fit regimes in the stack at m > 1
        d = DomainParams(m=m, n=n)
        rng = np.random.default_rng(8)
        pts = 0.3 * (rng.uniform(-1, 1, (4, n)) + 1j * rng.uniform(-1, 1, (4, n)))
        pts = np.vstack([pts, [_axis_point(d, p1, 0.1) for p1 in (0.5, 0.95)]])
        sizes = []

        def f(w):
            sizes.append(len(w))
            return tensor_module._wu_matrices(d, w)

        stacked = wirtinger_jet(f, pts, 1e-4)
        assert sizes == [len(pts) * (1 + 16 * n * n)]
        for k, z in enumerate(pts):
            for s, one in zip(stacked, wirtinger_jet(f, z, 1e-4)):
                assert s[k].shape == one.shape and s[k].tobytes() == one.tobytes()


class TestSectionalValues:
    @pytest.mark.parametrize("m,n", [(0.75, 3), (2.0, 2), (2.0, 4)])
    def test_sweep_equals_per_direction_values(self, m, n):
        d = DomainParams(m=m, n=n)
        z = np.zeros(n, dtype=complex)
        z[0], z[1] = 0.4, 0.1j
        tensor = curvature_tensor(d, z)
        dirs = direction_sample(n, seed=4) * np.linspace(0.5, 3.0, 2 * n * n + 16)[:, None]
        swept = curvature_module._sectional_values(tensor.components, tensor.metric.matrix, dirs)
        for v, value in zip(dirs, swept):
            assert value == pytest.approx(tensor.holomorphic(v), rel=1e-12)
            # the contraction written out index by index
            num = np.einsum("abcd,a,b,c,d->", tensor.components, v, np.conj(v), v, np.conj(v))
            den = np.real(np.vdot(np.conj(v), tensor.metric.matrix @ np.conj(v)))
            assert value == pytest.approx(np.real(num) / den ** 2, rel=1e-12)


#: reference values from the stencil evaluated one wu_tensor call per point,
#: at (m, n, p1, |zhat|):
#: R[i, j, k, l] for i, j, k, l in {0, 1} (the whole tensor when n = 2; every
#: component is real at these real points), min and max sectional curvature
#: and Kahler defect of the one-point ``curvature_scan``
CURVATURE_PINS = [
    ((1.0, 2, 0.5, 0.1), -2.0000000197717114, -1.9999999999910152, 1.4648282586904315e-11,
     [-6.536925062, -0.3301477194, -0.3301477194, -2.484445023, -0.3301477342, -0.01667412713,
      -2.484445039, -0.2501119168, -0.3301477342, -2.484445039, -0.01667412713, -0.2501119168,
      -2.48444506, -0.2501119039, -0.2501119039, -3.751678786]),
    ((0.75, 3, 0.4, 0.2), -2.117912787542053, -1.972361576939557, 0.1036702304486603,
     [-4.675178468, -0.5194642968, -0.5194642968, -2.637718578, -0.5194642753, -0.05771825545,
      -2.57546058, -0.5728289757, -0.5194642753, -2.57546058, -0.05771825545, -0.5728289757,
      -2.574244563, -0.5657763424, -0.5657763424, -4.407175077]),
    ((0.5, 2, 0.3, 0.0), -2.3848560916747523, -1.9130177761154479, 0.29585798817179865,
     [-2.916516517, 0.0, 0.0, -2.525411597, 0.0, 0.0, -2.375356801, 0.0, 0.0, -2.375356801,
      0.0, 0.0, -2.429543187, 0.0, 0.0, -3.90411791]),
    ((2.0, 2, 0.9, 0.05), -2.000000073287963, -2.000000003379202, 2.5860025232304906e-10,
     [-1537.771325, -34.6865712, -34.6865712, -82.20678981, -34.68657122, -0.7824038685,
      -82.20678378, -3.690928646, -34.68657122, -82.20678378, -0.7824038685, -3.690928646,
      -82.20678394, -3.690928518, -3.690928518, -17.41166473]),
    ((2.0, 3, 0.4, 0.1), -2.483488850775207, -1.9892936805225752, 0.0692947675098965,
     [-3.78339628, -0.07643229666, -0.07643229666, -0.8291546283, -0.07643224667,
      -0.001544086253, -0.8088136451, -0.03305907501, -0.07643224667, -0.8088136451,
      -0.001544086253, -0.03305907501, -0.9836582776, -0.03618039814, -0.03618039814,
      -1.908930874]),
    ((5.0, 2, 0.5, 0.1), -3.01990025196527, -1.9905330900217533, 0.07392973603631356,
     [-5.271727448, -0.05324971479, -0.05324971479, -0.4534156977, -0.05324977155,
      -0.0005378757431, -0.438637158, -0.009005201124, -0.05324977155, -0.438637158,
      -0.0005378757431, -0.009005201124, -0.6316930916, -0.0108059062, -0.0108059062,
      -1.449430139]),
]


class TestCurvaturePins:
    @pytest.mark.parametrize("point,min_s,max_s,defect,block", CURVATURE_PINS,
                             ids=[str(p[0]) for p in CURVATURE_PINS])
    def test_matches_parent_values(self, point, min_s, max_s, defect, block):
        m, n, p1, ph = point
        d = DomainParams(m=m, n=n)
        z = np.zeros(n, dtype=complex)
        z[0], z[1] = p1, ph
        R = curvature_tensor(d, z).components
        expected = np.array(block).reshape(2, 2, 2, 2)
        assert np.max(np.abs(R[:2, :2, :2, :2] - expected)) <= 1e-5 * np.max(np.abs(expected))
        grid = GridSpec(p1_min=p1, p1_max=p1, count=1, phat_abs=ph)
        (record,), skipped = curvature_scan(d, grid)
        assert not skipped
        assert record.min_sectional == pytest.approx(min_s, abs=1e-5)
        assert record.max_sectional == pytest.approx(max_s, abs=1e-5)
        assert abs(record.kahler_defect - defect) <= 1e-6 * max(1.0, defect)


def _three_operand_components(H, dz, ddbar):
    # the curvature components as one three-operand contraction, as written
    # before the two-operand form
    return (np.einsum("kia,ab,ljb->ijkl", dz, np.linalg.inv(H), np.conj(dz))
            - np.transpose(ddbar, (2, 3, 0, 1)))


def _three_operand_sectional(components, H, dirs):
    # the sectional sweep as one three-operand contraction, likewise
    n = H.shape[0]
    A = (dirs[:, :, None] * np.conj(dirs)[:, None, :]).reshape(len(dirs), n * n)
    num = np.einsum("kp,pq,kq->k", A, components.reshape(n * n, n * n), A)
    return np.real(num) / np.real(A @ H.reshape(n * n)) ** 2


class TestTwoOperandContractions:
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_match_the_three_operand_forms(self, m, n):
        # points of every region 0.02 from every seam; the components
        # relative to their largest, each sectional value relative to itself
        d, points = _region_points(m, n, np.random.default_rng([n, int(1e8 * m), 3]))
        dirs = direction_sample(n, seed=5)
        for z in points:
            form, dz, ddbar = tensor_module._wu_jet(d, z, *tensor_module._jet_region(d, z))
            R = curvature_module._curvature(z, form, dz, ddbar).components
            expected = _three_operand_components(form.matrix, dz, ddbar)
            assert np.max(np.abs(R - expected)) <= 1e-13 * np.max(np.abs(expected))
            swept = curvature_module._sectional_values(expected, form.matrix, dirs)
            reference = _three_operand_sectional(expected, form.matrix, dirs)
            assert np.all(np.abs(swept - reference) <= 1e-13 * np.abs(reference))


class TestOneClassificationPerPoint:
    def _counted(self, monkeypatch):
        # the fit regime decisions, by the tensor or by the fit itself
        calls = []
        original = fitting._regimes

        def counted(*args):
            calls.append(len(args[1]))
            return original(*args)

        for module in (tensor_module, fitting):
            monkeypatch.setattr(module, "_regimes", counted)
        return calls

    @pytest.mark.parametrize("m,p1", [(0.75, 0.5), (1.0, 0.5), (2.0, 0.4), (2.0, 0.95)])
    def test_one_formula_choice_per_grid_point(self, monkeypatch, m, p1):
        calls = self._counted(monkeypatch)
        d = DomainParams(m=m, n=3)
        records, skipped = curvature_scan(d, GridSpec(p1_min=p1, p1_max=p1, count=1,
                                                      phat_abs=0.1))
        assert len(records) == 1 and not skipped
        assert calls == [1]

    @pytest.mark.parametrize("m", [0.75, 1.0, 2.0])
    def test_one_formula_choice_per_wu_tensor_point(self, monkeypatch, m):
        calls = self._counted(monkeypatch)
        d = DomainParams(m=m, n=2)
        for z in ([0.3, 0.2j], [0.0, 0.3], [d.m0_radius, 0.0], [0.95, 0.1]):
            calls.clear()
            wu_tensor(d, z)
            assert calls == [1]

    @pytest.mark.parametrize("m,z,source", [
        (0.75, [0.3, 0.2j], "chord-form"),
        (0.75, [0.0, 0.3], "chord-form (z1=0 limit)"),
        (1.0, [0.3, 0.2j], "ball"),
        (2.0, [0.3, 0.2j], "inner-form"),
        (2.0, [0.95, 0.1], "outer-form"),
        (2.0, [0.0, 0.3], "inner-form (near Z)"),
        (2.0, [1e-11, 0.3], "inner-form (near Z)"),
        (2.0, [2.0 ** -0.25, 0.0], "outer-form (on M0)"),  # p1_ref is m0_radius: LOWER
        (2.0, [2.0 ** -0.25 + 1e-12, 0.0], "outer-form (on M0)"),
    ])
    def test_source_tags_are_unchanged(self, m, z, source):
        d = DomainParams(m=m, n=2)
        assert wu_tensor(d, z).source == source
        if classify_region(d, z) not in (RegionLabel.Z, RegionLabel.M_ZERO):
            assert curvature_tensor(d, z).metric.source == source
