import dataclasses
import math

import numpy as np
import pytest

from eggmetrics import (
    ConfigurationError,
    DomainError,
    DomainParams,
    derivative_jump,
    holder_exponent,
    regularity_scan,
)
from eggmetrics import smoothness
from eggmetrics.fitting import _LOWER, _TANGENCY, _fit
from eggmetrics.numerics import Taylor2, onesided_weights


class TestCalibration:
    def test_abs_power_three_halves(self):
        rep = holder_exponent(lambda t: abs(t) ** 1.5, order=1)
        assert rep.verdict == "holder"
        assert rep.exponent == pytest.approx(0.5, abs=0.05)
        assert rep.r_squared > 0.99

    def test_quadratic_is_smooth_through_order_three(self):
        f = lambda t: t * t
        for order in (1, 2, 3):
            rep = holder_exponent(f, order=order)
            assert rep.verdict == "smooth"
            assert not rep.jump_detected

    def test_abs_power_five_halves(self):
        # |t|^(2m) with m = 1.25: two continuous derivatives, 0.5-Hoelder second
        rep = holder_exponent(lambda t: abs(t) ** 2.5, order=2)
        assert rep.verdict == "holder"
        assert rep.exponent == pytest.approx(0.5, abs=0.05)
        # and no defect at order one
        rep1 = holder_exponent(lambda t: abs(t) ** 2.5, order=1)
        assert rep1.verdict == "smooth"

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_exponent_recovery(self, alpha):
        rep = holder_exponent(lambda t: abs(t) ** (1 + alpha), order=1)
        assert rep.verdict == "holder"
        assert rep.exponent == pytest.approx(alpha, abs=0.05)

    def test_signed_power_visible_to_odd_stencil(self):
        # sign(t)|t|^2.3: odd singular part, picked up by the q = 3 stencil
        f = lambda t: np.copysign(np.abs(t) ** 2.3, t)
        rep = holder_exponent(f, order=2)
        assert rep.verdict == "holder"
        assert rep.exponent == pytest.approx(0.3, abs=0.05)

    def test_second_derivative_jump_detection(self):
        f = lambda t: np.where(t < 0, t * t, 2.0 * t * t)
        jump, noise = derivative_jump(f, 2)
        assert jump == pytest.approx(2.0, abs=1e-6)
        assert abs(jump) > 10 * noise
        # the order-1 report carries the next-derivative (second) jump
        rep = holder_exponent(f, order=1)
        assert rep.jump_detected
        assert rep.verdict == "jump"

    def test_no_false_jump_on_analytic_function(self):
        f = lambda t: np.sin(1.3 * t) + t ** 3
        for order in (1, 2, 3):
            rep = holder_exponent(f, order=order)
            assert not rep.jump_detected

    def test_inconclusive_on_log_periodic_wobble(self):
        def f(t):
            a = np.abs(t)
            safe = np.where(t == 0, 1.0, a)  # f(0) = 0: the factor a^1.5 vanishes there
            return a ** 1.5 * (1.0 + 0.8 * np.sin(3.0 * np.log(safe)))

        rep = holder_exponent(f, order=1)
        assert rep.verdict in ("inconclusive", "holder")
        if rep.verdict == "holder":
            assert rep.r_squared >= 0.9


class TestSeamScans:
    def test_small_m_across_z(self):
        d = DomainParams(m=0.75, n=2)
        reps = regularity_scan(d, "Z", component="h22", seed=3, orders=(1,), n_paths=2)
        for rep in reps:
            assert rep.verdict == "holder"
            assert rep.exponent == pytest.approx(0.5, abs=0.1)

    def test_middle_stratum_is_c1_not_c2(self):
        d = DomainParams(m=2.0, n=2)
        reps = regularity_scan(d, "M0", component="h11", seed=3, orders=(0, 1),
                               n_paths=2)
        for rep in reps:
            if rep.order == 0:
                # first derivative continuous across the stratum
                assert not rep.jump_detected
            else:
                # second-derivative jump well above the pooled noise
                assert rep.jump_detected
                assert abs(rep.jump) > 10 * rep.jump_noise

    def test_integer_m_analytic_across_z(self):
        d = DomainParams(m=2.0, n=2)
        for comp in ("K2", "h22"):
            reps = regularity_scan(d, "Z", component=comp, seed=3,
                                   orders=(0, 1, 2), n_paths=1)
            for rep in reps:
                assert rep.verdict == "smooth", (comp, rep)
                assert not rep.jump_detected

    def test_fractional_m_kobayashi_defect_across_z(self):
        d = DomainParams(m=1.25, n=2)
        reps = regularity_scan(d, "Z", component="K2", seed=3, orders=(2,), n_paths=2)
        for rep in reps:
            assert rep.verdict == "holder"
            assert rep.exponent == pytest.approx(0.5, abs=0.15)

    def test_wu_tensor_is_smooth_across_z_for_large_m(self):
        # the inner-region closed form depends on z1 only through |z1|^2:
        # Wu components carry no fractional defect at Z (the Kobayashi metric does)
        d = DomainParams(m=1.25, n=2)
        reps = regularity_scan(d, "Z", component="h22", seed=3, orders=(1, 2),
                               n_paths=1)
        for rep in reps:
            assert rep.verdict == "smooth"

    def test_default_component_selection(self):
        d = DomainParams(m=1.25, n=2)
        reps = regularity_scan(d, "Z", seed=1, orders=(2,), n_paths=1)
        assert reps[0].path.startswith("Z:K2")
        d75 = DomainParams(m=0.75, n=2)
        reps = regularity_scan(d75, "Z", seed=1, orders=(1,), n_paths=1)
        assert reps[0].path.startswith("Z:h22")

    def test_junction_reports(self):
        d = DomainParams(m=2.0, n=2)
        reps = regularity_scan(d, "JUNCTION")
        orders = {(r.order, r.verdict) for r in reps}
        assert (2, "smooth") in orders
        assert (3, "jump") in orders

    @pytest.mark.parametrize("m", [0.75, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0])
    def test_junction_d2_is_judged_against_its_terms(self, m):
        # the junction is C2 at every m; at m = 5, p1 = 0.3 d2 reads 1.1e-8
        # from terms near 6e7, which an absolute 1e-8 bar called a jump
        reps = [r for r in regularity_scan(DomainParams(m=m, n=2), "JUNCTION") if r.order == 2]
        assert [r.path for r in reps] == ["JUNCTION:p1=0.3", "JUNCTION:p1=0.5", "JUNCTION:p1=0.7"]
        for r in reps:
            assert r.verdict == "smooth" and not r.jump_detected
            assert math.isfinite(r.jump_noise)
        if m == 5.0:
            assert abs(reps[0].jump) > 1e-8

    def test_junction_d3_noise_is_finite_on_the_ball(self):
        # on the ball the expected jump is 0: the noise is the gap between
        # the exact d3 and its closed form, a rounding-level number
        for r in regularity_scan(DomainParams(m=1.0, n=2), "JUNCTION"):
            if r.order == 3:
                assert r.verdict == "smooth" and not r.jump_detected
                assert r.jump_noise <= 1e-12
        for r in regularity_scan(DomainParams(m=1.0 + 1e-7, n=2), "JUNCTION"):
            if r.order == 3:
                assert r.verdict == "jump" and r.jump_detected

    def test_a_jump_the_control_shares_is_smooth(self, monkeypatch):
        # the probe's second-derivative jump is a "jump" on its own; the
        # control carries the same jump, which joins the noise, so the scan
        # reports it smooth
        f = lambda t: np.where(t < 0, t * t, 2.0 * t * t)
        monkeypatch.setattr(smoothness, "seam_paths",
                            lambda domain, seam, component, seed, n_paths: [("shared", f, f)])
        (rep,) = regularity_scan(DomainParams(m=2.0, n=2), "M0", orders=(1,))
        assert holder_exponent(f, order=1, path="shared").verdict == "jump"
        assert rep.verdict == "smooth"
        assert rep.jump == pytest.approx(2.0, abs=1e-6) and rep.jump_noise >= 2.0

    def test_m0_scan_requires_large_m(self):
        with pytest.raises(ConfigurationError):
            regularity_scan(DomainParams(m=0.75, n=2), "M0", component="h11")

    def test_unknown_seam_rejected(self):
        with pytest.raises(ConfigurationError):
            regularity_scan(DomainParams(m=2.0, n=2), "W", component="h11")

    @pytest.mark.parametrize("m, gap, fits", [(15.0, "0.0227", "orders up to 2 fit"),
                                              (20.0, "0.0171", "orders up to 1 fit"),
                                              (60.0, "0.00575", "no order fits")])
    def test_m0_nearer_the_boundary_than_the_nodes_is_refused(self, monkeypatch, m, gap, fits):
        # along z1, M0 lies s^(1/m) (1 - 2^(-1/2m)) from the boundary; the
        # default orders' centered nodes reach 2.5e-2. The refusal names the
        # gap, the reach and the largest order that fits, before any tensor
        # evaluation (a point outside the egg was reported before)
        calls = []
        monkeypatch.setattr(smoothness, "wu_tensor", lambda *args: calls.append(args))
        with pytest.raises(ConfigurationError) as info:
            regularity_scan(DomainParams(m=m, n=2), "M0")
        assert f"{gap} from the egg's boundary" in str(info.value)
        assert "reach 0.025" in str(info.value) and str(info.value).endswith(fits)
        assert calls == []

    def test_orders_within_the_gap_still_run(self):
        # at m = 20 order 1's nodes reach 1.5e-2, inside the gap of 1.7e-2
        reps = regularity_scan(DomainParams(m=20.0, n=2), "M0", orders=(1,))
        assert [r.path for r in reps] == ["M0:h11:base0", "M0:h11:base1"]


class TestProbeInputs:
    """Orders are checked before f is called.

    A negative or fractional order leaked ValueError or TypeError from the
    stencil weights.
    """

    @staticmethod
    def _f(t):
        raise AssertionError("f was called")

    @pytest.mark.parametrize("order", [-1, 1.5, 2.0, "1", None])
    def test_orders_must_be_non_negative_integers(self, order):
        with pytest.raises(DomainError, match="derivative order"):
            holder_exponent(self._f, order)
        with pytest.raises(DomainError, match="derivative order"):
            derivative_jump(self._f, order)

    def test_numpy_integer_orders_are_accepted(self):
        rep = holder_exponent(lambda t: np.abs(t) ** 1.5, np.int64(1))
        assert rep.order == 1 and type(rep.order) is int and rep.verdict == "holder"
        assert derivative_jump(lambda t: t * t, np.int64(2)) == derivative_jump(lambda t: t * t, 2)


class TestJumpWeights:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_table_is_bit_equal(self, q):
        # the weights of the nodes (row 0) and of their negatives (row 1),
        # as onesided_weights solves them
        table = smoothness._jump_weights(q)
        nodes = smoothness._jump_nodes(q)
        for side, side_nodes in zip(table, (nodes, -nodes)):
            for w, x in zip(side, side_nodes):
                assert w.tobytes() == onesided_weights(q, x).tobytes()


def test_half_m_wu_metric_continuous_with_first_derivative_break_at_z():
    # at m = 1/2 the tensor carries an |z1| term: continuous, but the
    # first derivative jumps across Z (no C^1 claim at this exponent)
    d = DomainParams(m=0.5, n=2)
    reps = regularity_scan(d, "Z", component="h22", seed=2, orders=(0,), n_paths=1)
    rep = reps[0]
    assert rep.jump_detected  # jump statistic of the first derivative
    assert rep.verdict == "jump"


def _composed_scan(domain, seam, component, seed, orders, n_paths):
    # the scan composed from the public probes, one evaluation of each path
    # function per order: holder_exponent on the probe, derivative_jump on
    # the control, the control's jump pooled into the noise
    reports = []
    for label, probe, control in smoothness.seam_paths(domain, seam, component, seed, n_paths):
        for order in orders:
            rep = holder_exponent(probe, order, path=label)
            ctrl_jump, ctrl_noise = derivative_jump(control, order + 1)
            pooled = max(rep.jump_noise, abs(ctrl_jump) + ctrl_noise)
            if pooled != rep.jump_noise:
                shared = rep.verdict == "jump" and abs(rep.jump) <= 10.0 * pooled
                rep = dataclasses.replace(rep, jump_noise=pooled,
                                          verdict="smooth" if shared else rep.verdict)
            reports.append(rep)
    return reports


def _scan_grid():
    for m in (0.75, 2.0, 5.0):
        for n in (2, 3):
            for seam, component in (("Z", "h22"), ("Z", "K2"), ("M0", "h11"), ("M0", "h12")):
                if seam == "Z" or m > 1.0:
                    yield m, n, seam, component


class TestOneEvaluationPerScan:
    @pytest.mark.parametrize("m, n, seam, component", list(_scan_grid()))
    def test_reports_equal_the_composed_probes(self, monkeypatch, m, n, seam, component):
        # field for field, by repr: a NaN exponent equals itself, 0.0 and
        # -0.0 differ; the scan evaluates each path function once, on the
        # rows of every order
        d = DomainParams(m=m, n=n)
        want = _composed_scan(d, seam, component, 0, (0, 1, 2, 3), 2)
        calls = []

        def counted(fn):
            def run(domain, z, *args):
                calls.append(len(z))
                return fn(domain, z, *args)
            return run

        monkeypatch.setattr(smoothness, "wu_tensor", counted(smoothness.wu_tensor))
        monkeypatch.setattr(smoothness, "kobayashi_sq", counted(smoothness.kobayashi_sq))
        got = regularity_scan(d, seam, component=component, seed=0, orders=(0, 1, 2, 3))
        assert len(got) == len(want) == 8
        for a, b in zip(got, want):
            for field in dataclasses.fields(a):
                assert repr(getattr(a, field.name)) == repr(getattr(b, field.name)), field.name
        assert len(calls) == 2 * 2

    def test_no_orders_give_no_reports(self):
        assert regularity_scan(DomainParams(m=2.0, n=2), "M0", orders=()) == []

    def test_a_bad_order_is_refused(self):
        with pytest.raises(DomainError):
            regularity_scan(DomainParams(m=2.0, n=2), "M0", orders=(1, -1))


class TestPathInputs:
    """The path count and seed are checked as orders are, before any evaluation.

    A count of 0 or -2 gave no reports, 1.5 leaked TypeError and a seed of -1
    numpy's ValueError.
    """

    @pytest.mark.parametrize("seam", ["Z", "M0"])
    @pytest.mark.parametrize("n_paths", [0, -2, 1.5, 2.0])
    def test_path_count_must_be_a_positive_integer(self, seam, n_paths):
        d = DomainParams(m=2.0, n=2)
        with pytest.raises(DomainError, match="path count must be an integer >= 1"):
            regularity_scan(d, seam, n_paths=n_paths)
        with pytest.raises(DomainError, match="path count must be an integer >= 1"):
            smoothness.seam_paths(d, seam, "h11", 0, n_paths)

    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        d = DomainParams(m=0.75, n=2)
        with pytest.raises(DomainError, match="path seed must be an integer >= 0"):
            regularity_scan(d, "Z", seed=seed)
        with pytest.raises(DomainError, match="path seed must be an integer >= 0"):
            smoothness.seam_paths(d, "Z", "h22", seed, 1)

    def test_numpy_integers_are_accepted(self):
        d = DomainParams(m=0.75, n=2)
        got = regularity_scan(d, "Z", seed=np.int64(3), orders=(1,), n_paths=np.int32(1))
        assert got == regularity_scan(d, "Z", seed=3, orders=(1,), n_paths=1)


class TestM0JumpAgainstFitJets:
    # along seam_paths' M0 path z1 = x0 + t, zhat fixed, h11 = sigma r1(u)
    # with u = |z1|^2 sigma and sigma = (1 - |zhat|^2)^(-1/m). Both fits'
    # values and first u-derivatives agree at M0, so d2h11/dx2 jumps by
    # sigma (r1_uu(LOWER) - r1_uu(tangency)) (2 x0 sigma)^2, read off the
    # fits' exact jets. The difference probe resolves it within its noise up
    # to m = 5: -23.5006 against -23.5011 at m = 1.5 (noise 2.5e-2), -66.3673
    # against -66.3698 at m = 2 (0.14), -1731.7 against -1732.6 at m = 5 (51),
    # all at seed 1. At m = 20 its noise, 8.3e5, exceeds the jump, 3.5e5: the
    # fixed steps leave the M+ stratum. verify's M0 smoothness reads the jets
    @pytest.mark.parametrize("m", [1.5, 2.0, 5.0])
    def test_probe_jump_is_the_exact_jump(self, m):
        d = DomainParams(m=m, n=2)
        u = Taylor2.variables(d.m0_radius ** 2, 0.0)[0]
        d_r1 = _fit(d, _LOWER, u)[0].tt - _fit(d, _TANGENCY, u)[0].tt
        for seed in range(3):
            rep, = regularity_scan(d, "M0", component="h11", seed=seed, orders=(1,),
                                   n_paths=1)
            # the path's first draw is |zhat|; its z1 lies on M0 at t = 0
            s2 = 1.0 - np.random.default_rng(seed).uniform(0.25, 0.5) ** 2
            sigma, x0 = s2 ** (-1.0 / m), d.m0_radius * s2 ** (0.5 / m)
            exact = sigma * d_r1 * (2.0 * x0 * sigma) ** 2
            assert rep.jump_detected
            assert abs(rep.jump - exact) <= rep.jump_noise


class TestZTermAgainstDifferences:
    # along seam_paths' Z path z1 = t, zhat fixed, the chord's r2 = 1/(1 - P)
    # with P = |t|^2m/s2 gives h22 the term A |t|^2m, A = 1/s2^2 + |z2|^2/s2^3
    # (s2 = 1 - |zhat|^2); the next term is of order t^2. So dh22/dt is
    # Holder with exponent 2m - 1, which the probe reads within 0.02 (0.2006
    # to 0.2021 at m = 0.6, 0.5003 to 0.5041 at m = 0.75, 0.8004 to 0.8086 at
    # m = 0.9), and (h22(t) - h22(0))/t^2m meets A within twice t^(2-2m)
    # (at most 1.04 t^(2-2m) here). verify's smoothness row reads A exactly
    @pytest.mark.parametrize("m", [0.6, 0.75, 0.9])
    def test_probe_exponent_and_difference_amplitude(self, m):
        t = np.array([1e-3, 1e-5, 1e-7])
        for n in (2, 3, 4):
            d = DomainParams(m=m, n=n)
            for seed in range(4):
                (label, probe, _), = smoothness.seam_paths(d, "Z", "h22", seed, 1)
                rep = holder_exponent(probe, 1, path=label)
                assert rep.verdict == "holder"
                assert abs(rep.exponent - (2.0 * m - 1.0)) <= 0.02
                # the path's draws: |zhat|, then its direction
                rng = np.random.default_rng(seed)
                zhat = smoothness._random_hat(rng, n, rng.uniform(0.25, 0.5))
                s2 = 1.0 - float(np.sum(np.abs(zhat) ** 2))
                exact = 1.0 / s2 ** 2 + abs(zhat[0]) ** 2 / s2 ** 3
                amp = (probe(t) - probe(np.zeros(1))) / t ** (2.0 * m)
                assert np.all(np.abs(amp - exact) <= 2.0 * t ** (2.0 - 2.0 * m))
