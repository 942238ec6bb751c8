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
from eggmetrics.numerics import onesided_weights


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


class TestProbeInputs:
    """Steps and orders are checked before f is called.

    A NaN step gave the verdict "smooth" (holder_exponent) or (nan, nan)
    (derivative_jump); a negative or fractional order leaked ValueError or
    TypeError from the stencil weights.
    """

    @staticmethod
    def _f(t):
        raise AssertionError("f was called")

    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1e-3])
    def test_bad_steps_are_refused(self, step):
        with pytest.raises(DomainError, match="differencing step"):
            holder_exponent(self._f, 1, steps=[step] * 6)
        with pytest.raises(DomainError, match="differencing step"):
            holder_exponent(self._f, 1, steps=list(smoothness.STEP_SCALES[:-1]) + [step])
        with pytest.raises(DomainError, match="differencing step"):
            derivative_jump(self._f, 1, h0=step)

    def test_steps_must_be_six_distinct_scales(self):
        # six equal steps fitted |t|^1.5 as "holder" with beta = 0.371 and
        # r^2 = 1: the log-log fit had no spread in log h
        for steps in ([1e-3] * 6, list(smoothness.STEP_SCALES[:5]) * 2):
            with pytest.raises(DomainError, match="6 distinct step scales"):
                holder_exponent(self._f, 1, steps=steps)

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
    @pytest.mark.parametrize("q,h0", [(1, smoothness.JUMP_STEP), (2, smoothness.JUMP_STEP),
                                      (3, 3e-3), (4, 1e-2)])
    def test_cached_table_is_read_only_and_bit_equal(self, q, h0):
        # one table per (q, h0): the weights of the nodes (row 0) and of
        # their negatives (row 1), as onesided_weights solves them
        table = smoothness._jump_weights(q, h0)
        assert table is smoothness._jump_weights(q, h0)
        assert not table.flags.writeable
        nodes = smoothness._jump_nodes(q, h0)
        for side, side_nodes in zip(table, (nodes, -nodes)):
            for w, x in zip(side, side_nodes):
                assert w.tobytes() == onesided_weights(q, x).tobytes()
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0


def test_half_m_wu_metric_continuous_with_first_derivative_break_at_z():
    # at m = 1/2 the tensor carries an |z1| term: continuous, but the
    # first derivative jumps across Z (no C^1 claim at this exponent)
    d = DomainParams(m=0.5, n=2)
    reps = regularity_scan(d, "Z", component="h22", seed=2, orders=(0,), n_paths=1)
    rep = reps[0]
    assert rep.jump_detected  # jump statistic of the first derivative
    assert rep.verdict == "jump"
