"""Per-module tracing from outside the package, by rebinding module attributes.

``Tracer.install`` replaces every public function of every loaded
``eggmetrics`` module with a wrapper, in each module that binds it (so names
imported with ``from .x import f`` are covered too), plus the
``CurvatureTensor.holomorphic`` method and the check functions that
``verification`` keeps in its check table. ``uninstall`` puts the originals
back. The wrappers return exactly what the wrapped function returns.

Hot scalar kernels (``COUNT_ONLY``) only count calls. Every other wrapper
records a span (key, parent span, start, end, item) in memory; durations and
self times (span duration minus the time covered by its child spans) are
computed from the spans after the traced pass, never while it runs.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass

#: called so often that a span per call would distort the run: counts only
COUNT_ONLY = frozenset({
    "numerics.abs_pow",
    "numerics.single_term_root",
    "domain.as_vector",
    "kcurve.upper_xy",
    "kcurve.lower_xy",
    "kobayashi.branch_ratio",
})

#: the root solver's callbacks are counted as well (f and df evaluations)
_SOLVER = "numerics.solve_bracketed"


@dataclass
class LayerStats:
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps the package's functions; collects spans and counts while installed."""

    def __init__(self, package: str = "eggmetrics"):
        self.package = package
        self.item: int = -1          # index of the item being run, set by the caller
        self.spans: list = []        # (key, parent index, t0, t1, item)
        self.raised: dict[str, int] = defaultdict(int)
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._check_table: list | None = None
        self._check_table_saved: list | None = None

    # -- wrappers ---------------------------------------------------------

    def _counter(self, key: str):
        return self.counts.setdefault(key, [0])

    def _count_wrapper(self, fn, key: str):
        cell = self._counter(key)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _span_wrapper(self, fn, key: str):
        spans = self.spans
        stack = self._stack
        raised = self.raised
        clock = time.perf_counter
        tracer = self
        f_cell = self._counter(key + ".f_evals") if key == _SOLVER else None
        df_cell = self._counter(key + ".df_evals") if key == _SOLVER else None

        def wrapper(*args, **kwargs):
            if f_cell is not None:
                args, kwargs = _count_callbacks(args, kwargs, f_cell, df_cell)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[key] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (key, parent, t0, t1, tracer.item)

        return functools.update_wrapper(wrapper, fn)

    def _wrap(self, fn, key: str):
        if key in COUNT_ONLY:
            return self._count_wrapper(fn, key)
        return self._span_wrapper(fn, key)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        prefix = self.package + "."
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == self.package or name.startswith(prefix))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith(prefix)):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    key = f"{value.__module__[len(prefix):]}.{value.__name__}"
                    wrapper = wrappers[id(value)] = self._wrap(value, key)
                self._patch(mod, attr, wrapper)
        curvature = sys.modules.get(prefix + "curvature")
        if curvature is not None and hasattr(curvature, "CurvatureTensor"):
            cls = curvature.CurvatureTensor
            self._patch(cls, "holomorphic",
                        self._wrap(cls.__dict__["holomorphic"], "curvature.holomorphic"))
        verification = sys.modules.get(prefix + "verification")
        table = getattr(verification, "_CHECKS", None)
        if isinstance(table, list):
            # run_checks reads the functions from this table, not from the
            # module attributes; each check gets its own span key
            self._check_table = table
            self._check_table_saved = list(table)
            table[:] = [(name, self._wrap(fn, f"verification.{name}"), *rest)
                        for name, fn, *rest in table]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._check_table is not None:
            self._check_table[:] = self._check_table_saved
            self._check_table = self._check_table_saved = None

    # -- results ----------------------------------------------------------

    def take(self) -> "Recording":
        """Everything recorded since the last ``take``; recording starts afresh."""
        rec = Recording(list(self.spans), dict(self.raised),
                        {key: cell[0] for key, cell in self.counts.items()})
        self.spans.clear()
        self.raised.clear()
        for cell in self.counts.values():
            cell[0] = 0
        return rec


@dataclass
class Recording:
    """Spans, raised counts and call counts of one traced stretch."""

    spans: list
    raised: dict[str, int]
    counts: dict[str, int]

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)

    def layer_stats(self) -> dict[str, LayerStats]:
        """Calls, total and self time per span key."""
        child_s = [0.0] * len(self.spans)
        for key, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        stats: dict[str, LayerStats] = defaultdict(LayerStats)
        for i, (key, _, t0, t1, _) in enumerate(self.spans):
            s = stats[key]
            s.calls += 1
            s.total_s += t1 - t0
            s.self_s += (t1 - t0) - child_s[i]
        for key, n in self.raised.items():
            stats[key].raised = n
        return dict(stats)

    def calls_under(self, key: str, ancestor: str) -> dict[int, tuple[int, int]]:
        """Per item: (``key`` spans enclosed by an ``ancestor`` span, ``ancestor`` spans)."""
        out: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        spans = self.spans
        for k, parent, _, _, item in spans:
            if k == ancestor:
                out[item][1] += 1
            elif k == key:
                p = parent
                while p >= 0 and spans[p][0] != ancestor:
                    p = spans[p][1]
                if p >= 0:
                    out[item][0] += 1
        return {item: (a, b) for item, (a, b) in out.items()}


def _counted(fn, cell):
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return counted


def _count_callbacks(args, kwargs, f_cell, df_cell):
    # solve_bracketed(f, lo, hi, df=None, ...): count every f and df call
    if args and callable(args[0]):
        args = (_counted(args[0], f_cell),) + tuple(args[1:])
    if callable(kwargs.get("df")):
        kwargs = dict(kwargs, df=_counted(kwargs["df"], df_cell))
    elif len(args) > 3 and callable(args[3]):
        args = args[:3] + (_counted(args[3], df_cell),) + tuple(args[4:])
    return args, kwargs
