"""The row root solve against its first form, bit for bit.

``row_solve_reference.solve_bracketed_rows`` is the loop the package's
``_solve_bracketed_rows`` replaced: one ``np.where`` per quantity on every
row. The package's loop updates the bracket in place and assembles roots
only in a step where a row finished; neither may move a root by one bit.
"""

import functools
import sys

import numpy as np
import pytest

from eggmetrics import DomainParams, NumericalError
from eggmetrics import fitting, numerics
from eggmetrics.numerics import _solve_bracketed_rows
from row_solve_reference import solve_bracketed_rows

kobayashi_module = sys.modules["eggmetrics.kobayashi"]

M_VALUES = (0.5, 0.75, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0)


def _both(fdf, lo, hi, x0, **kwargs):
    # the reference's roots and the package's, from the same arguments, which
    # neither may change
    args = [np.copy(a) for a in (lo, hi, x0)]
    want = solve_bracketed_rows(fdf, lo, hi, x0, **kwargs)
    got = _solve_bracketed_rows(fdf, lo, hi, x0, **kwargs)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(args, (lo, hi, x0)))
    return got, want


def _checked_solves(monkeypatch, module):
    # every row solve of ``module`` run by both loops, which must agree bit
    # for bit; returns each solve's row count
    sizes = []

    def both(fdf, lo, hi, x0, **kwargs):
        got, want = _both(fdf, lo, hi, x0, **kwargs)
        assert got.tobytes() == want.tobytes()
        sizes.append(lo.size)
        return got

    monkeypatch.setattr(module, "_solve_bracketed_rows", both)
    return sizes


class TestSameBitsOnTheEquations:
    @pytest.mark.parametrize("m", [1.0 + 1e-7, 1.5, 2.0, 5.0, 20.0, 60.0])
    def test_tangency_rows(self, monkeypatch, m):
        sizes = _checked_solves(monkeypatch, fitting)
        rng = np.random.default_rng([int(m), 27])
        d = DomainParams(m=m, n=2)
        thr = d.m0_radius
        p1 = np.concatenate([thr * rng.uniform(0.0, 1.0, 200),
                             thr * 10.0 ** -rng.uniform(1.0, 12.0, 20),
                             thr * (1.0 - 10.0 ** -rng.uniform(2.0, 16.0, 20)),
                             [thr, 0.0, 1e-200]])
        fitting._solve_tau(m, d.m0_weight, p1)
        assert sizes == [len(p1)]

    @pytest.mark.parametrize("m", M_VALUES)
    def test_alpha_rows(self, monkeypatch, m):
        sizes = _checked_solves(monkeypatch, kobayashi_module)
        rng = np.random.default_rng([int(m), 28])
        t = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, 1.0 - 1e-12, 0.5, 1e-300]])
        p1 = np.concatenate([rng.uniform(0.01, 0.99, 200), [0.3, 0.7, 1e-100, 1.0 - 1e-9]])
        kobayashi_module._solve_alpha(m, t, p1)
        assert sizes == [len(t)]

    @pytest.mark.parametrize("m", M_VALUES)
    def test_two_term_rows(self, monkeypatch, m):
        sizes = _checked_solves(monkeypatch, numerics)
        rng = np.random.default_rng([int(m), 29])
        a = np.concatenate([10.0 ** rng.uniform(-300.0, 5.0, 200), [0.0, 1.0, 5e-324, 1.0]])
        b = np.concatenate([10.0 ** rng.uniform(-300.0, 5.0, 200), [1.0, 0.0, 1.0, 1e300]])
        numerics._two_term_root(a, b, m)
        assert sizes == [len(a)]


def _cubic(c, slope=None):
    # (f, f') of the open rows: f = x^3 - c and f' = 3 x^2, or the rows'
    # fixed ``slope`` at every x
    def fdf(x, rows):
        d = 3.0 * x * x if slope is None else slope[rows] + 0.0 * x
        return x ** 3 - c[rows], d

    return fdf


class TestSameBitsOnEdgeCases:
    def test_rows_finishing_at_different_steps(self):
        # row 0 starts on its root (f = 0 on the first step); the others take
        # from a few Newton steps to a long bisection
        c = np.array([8.0, 2.0, 1000.0, 1e-30, 7.0, 26.0])
        lo, hi = np.zeros(6), np.array([3.0, 3.0, 20.0, 1.0, 3.0, 1e6])
        x0 = np.array([2.0, 1.3, 15.0, 0.5, 1.9, 3.0])
        seen = []

        def fdf(x, rows):
            seen.append(rows)
            return _cubic(c)(x, rows)

        got = _solve_bracketed_rows(fdf, lo, hi, x0)
        assert got.tobytes() == solve_bracketed_rows(_cubic(c), lo, hi, x0).tobytes()
        assert got[0] == 2.0
        # all rows as a slice until the first one finishes, then fewer and fewer
        assert seen[0] == slice(None)
        sizes = [len(rows) for rows in seen[1:]]
        assert sizes[0] == 5 and len(set(sizes)) >= 3 and sizes == sorted(sizes, reverse=True)

    def test_zero_at_the_start(self):
        # every row's f vanishes at its start, given or the midpoint
        c = np.array([8.0, 1.0, 0.125])
        lo, hi = np.array([0.0, 0.0, 0.0]), np.array([3.0, 2.0, 1.0])
        x0 = np.array([2.0, 5.0, 0.5])
        got, want = _both(_cubic(c), lo, hi, x0)
        assert got.tobytes() == want.tobytes() and got.tolist() == [2.0, 1.0, 0.5]

    def test_zero_and_infinite_slopes_bisect(self):
        # a slope of 0, -0, +-inf or NaN gives no Newton step: these rows
        # bisect to a narrow bracket, as a NaN step does, on positive and
        # on negative brackets
        slope = np.tile([0.0, -0.0, np.inf, -np.inf, np.nan, 12.0], 2)
        c = np.repeat([2.0, -2.0], 6)
        lo, hi = np.repeat([0.0, -3.0], 6), np.repeat([3.0, 0.0], 6)
        got, want = _both(_cubic(c, slope), lo, hi, lo + 2.5)
        assert got.tobytes() == want.tobytes()
        assert np.all(np.abs(np.abs(got) - 2.0 ** (1.0 / 3.0)) <= 1e-14)

    def test_starts_outside_the_open_bracket(self):
        # on a bracket end, beyond either end or NaN: the midpoint
        c = np.full(5, 2.0)
        lo, hi = np.ones(5), np.full(5, 2.0)
        x0 = np.array([1.0, 2.0, 0.5, 7.0, np.nan])
        got, want = _both(_cubic(c), lo, hi, x0)
        assert got.tobytes() == want.tobytes()
        assert np.all(got == got[0])

    def test_exhausted_budget_raises_with_a_bracket(self, monkeypatch):
        monkeypatch.setattr(numerics, "ROOT_MAX_ITER", 3)
        c = np.array([8.0, 2.0, 1000.0])
        lo, hi = np.zeros(3), np.array([3.0, 3.0, 20.0])
        brackets = []
        for solve in (functools.partial(solve_bracketed_rows, max_iter=3), _solve_bracketed_rows):
            with pytest.raises(NumericalError, match="did not converge in 3 iterations") as info:
                solve(_cubic(c), lo, hi, 0.5 * hi)
            brackets.append(info.value.bracket)
        assert brackets[0] == brackets[1] and brackets[0][0] < brackets[0][1]

    def test_no_rows(self):
        empty = np.empty(0)
        assert _solve_bracketed_rows(_cubic(empty), empty, empty, empty).shape == (0,)
