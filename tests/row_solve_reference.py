"""The row root solve as first written: one ``np.where`` per quantity on every row.

``solve_bracketed_rows`` is the loop ``eggmetrics.numerics._solve_bracketed_rows``
replaced. It runs ``solve_bracketed``'s rule on independent rows side by side:
each step updates the bracket, takes the Newton step where f' is finite and
nonzero (NaN otherwise), assembles a candidate root for every row, gathers
the finished ones and compacts the rest. The package's loop makes fewer numpy
calls per step; its roots must be these bits, row by row.
"""

import numpy as np

from eggmetrics.errors import NumericalError
from eggmetrics.numerics import ROOT_MAX_ITER


def solve_bracketed_rows(fdf, lo, hi, x0, rtol=1e-15, max_iter=ROOT_MAX_ITER):
    out = np.empty_like(lo)
    rows = np.arange(lo.size)
    x = np.where((lo < x0) & (x0 < hi), x0, 0.5 * (lo + hi))
    dx_old = hi - lo
    for _ in range(max_iter):
        fx, d = fdf(x, rows)
        lo = np.where(fx < 0.0, x, lo)
        hi = np.where(fx > 0.0, x, hi)
        step = np.divide(fx, d, out=np.full_like(fx, np.nan), where=(d != 0.0) & np.isfinite(d))
        cand = x - step
        root = np.where(fx == 0.0, x, np.where(
            hi - lo <= rtol * np.maximum(np.abs(lo), np.abs(hi)), 0.5 * (lo + hi),
            np.where(np.abs(step) <= rtol * np.abs(cand), np.clip(cand, lo, hi), np.nan)))
        done = ~np.isnan(root)
        out[rows[done]] = root[done]
        if np.all(done):
            return out
        newton = (lo < cand) & (cand < hi) & (np.abs(step) <= 0.5 * dx_old)
        dx_old = np.where(newton, np.abs(step), 0.5 * (hi - lo))
        x = np.where(newton, cand, 0.5 * (lo + hi))
        rows, lo, hi, x, dx_old = (a[~done] for a in (rows, lo, hi, x, dx_old))
    raise NumericalError(f"root solve did not converge in {max_iter} iterations",
                         bracket=(float(lo[0]), float(hi[0])))
