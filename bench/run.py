"""Benchmark of the eggmetrics package: three closed-loop workloads, one caller, no threads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload points|stencil|verify --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout; without it the
run stops with exit code 2 and prints no result. Set-up (a fresh import of
the package, input generation and one untimed warm-up item) is repeated and
its median reported. The timed loop repeats whole passes over the generated
items until ``--seconds`` have gone by; every output is then checked against
its oracle. With ``--trace 1`` the loop runs for half the time untraced, then
the tracer is installed: the first traced pass gives the per-layer counts and
self times, and the traced passes together give the tracing overhead.
Afterwards the workload's probe items, if it has any, are run once untimed:
they sample the strata of known defects, whose failures are printed and
attributed but not counted in ``attempted`` or ``failed``.

Times are host-speed normalised (see ``SpeedProbe``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

if __name__ == "__main__":
    # one process and no extra threads: pin the native thread pools before
    # numpy loads, and drop the package's own worker-pool setting
    for _var in THREAD_ENV:
        os.environ[_var] = "1"
    os.environ.pop("EGG_METRICS_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Item, Raised  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
PACKAGE = "eggmetrics"

#: set-ups per run; the median is reported
SETUP_REPEATS = 9

#: wall time between two speed probes inside a timed loop
PROBE_EVERY_S = 0.2

#: tail percentile per workload: the highest of 99/95/90/75/50 that keeps at
#: least 10 samples beyond it at the configured run length, fixed so that the
#: percentile does not flip between runs (it drops down the ladder only when
#: a run has too few samples)
TAIL_PERCENTILE = {"points": 99.0, "stencil": 95.0, "verify": 75.0}
_TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

MODULES = ("numerics", "domain", "kobayashi", "kcurve", "fitting", "tensor",
           "curvature", "smoothness", "verification", "cli")

VERIFY_CHECKS = (
    "gauge-membership", "automorphism-geometry", "branch-junction",
    "alternate-upper-formula", "kcurves-on-indicatrix", "square-convexity",
    "fit-vs-oracle", "containment-domination", "invariance", "tensor-consistency",
    "kahler-potential", "seam-continuity", "kahler-classification", "curvature",
    "joining-derivatives", "contact-point", "smoothness",
)


def _overflow_in_solve_x(cause: str) -> bool:
    return cause.startswith("raised OverflowError") and "solve_X" in cause


#: known defects, met by the points probe: (label, test on the item and its
#: failure cause); README.md explains each. A failure in a timed pass is
#: never known: the timed passes hold only inputs the code should get right.
KNOWN_FAILURES = (
    ("ball (m = 1) on Z: wu_tensor has H[0,0] = abs_pow(0, 0) = 0",
     lambda item, cause: (item.m == 1.0 and item.category == "on-Z"
                          and cause == "tensor disagrees with pullback")),
    ("m >= 20 at small |z1|: OverflowError in solve_X (kobayashi gives NaN at m = 60)",
     lambda item, cause: item.m >= 20.0 and (
         _overflow_in_solve_x(cause)
         or (item.category == "z1=1e-8" and cause == "non-finite output"))),
    ("gauge 1 - 1e-6: Wu above Kobayashi by more than 1e-9",
     lambda item, cause: item.category == "gauge=1-1e-6" and cause == "wu above kobayashi"),
    ("gauge 1 - 1e-6: UPPER-branch and alternate formulas differ by more than 1e-10",
     lambda item, cause: (item.category == "gauge=1-1e-6"
                          and cause == "alternate upper formula disagrees")),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# timing


class SpeedProbe:
    """Fixed reference work, timed next to the measured work to track host speed.

    On a shared host the same code runs up to a third slower for seconds at a
    time, and the probe slows with it (their ratio stays within a few percent
    while either alone swings by 30%). Measured times are therefore divided
    by the probe time measured around them and multiplied by ``NOMINAL_S``:
    they read as times on a host where the probe takes ``NOMINAL_S``. The
    probe touches nothing of the package, so no change to it can move the probe.
    """

    NOMINAL_S = 2.0e-3

    def __init__(self):
        self._a = np.arange(9.0).reshape(3, 3) + 1j

    def _once(self) -> float:
        # interpreter, libm and small-array numpy work, like the workloads
        t0 = time.perf_counter()
        s = 0.0
        for i in range(3000):
            s += math.exp(-i * 1e-3) * math.log(i + 1.0)
            if i % 10 == 0:
                s += float(np.abs(self._a @ np.conj(self._a).T).max())
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Probe time: median of three, so one interrupted probe does not count."""
        return statistics.median(self._once() for _ in range(3))

    def scale(self, before: float, after: float) -> float:
        return self.NOMINAL_S / (0.5 * (before + after))


#: stands in for an output identical, bit for bit, to the first pass's output
REPEAT = "same as the first pass"


@dataclass
class Pass:
    """One pass over the items: normalised and raw seconds, and the outputs.

    An output is the value returned, a ``Raised``, or ``REPEAT``; the latter
    keeps memory flat however many passes a run makes.
    """

    seconds: array
    raw_seconds: array
    outs: list


# ---------------------------------------------------------------------------
# set-up and the timed loop


def fresh_import(with_cli: bool):
    """Import the package from scratch (numpy stays loaded) and return it."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    em = importlib.import_module(PACKAGE)
    if with_cli:
        importlib.import_module(PACKAGE + ".cli")
    if Path(em.__file__).resolve().parent != SRC / PACKAGE:
        raise BenchError(f"imported {PACKAGE} from {em.__file__}, not from {SRC}")
    return em


class Session:
    """Imported package, generated pass and domains for one workload and seed."""

    def __init__(self, spec, seed: int):
        self.spec = spec
        self.seed = seed
        self.probe = SpeedProbe()
        self.em = None
        self.items: list[Item] = []
        self.probe_items: list[Item] = []
        self.domains: dict = {}
        self.tracer: tracing.Tracer | None = None
        # fingerprints and causes of the first pass, for workloads whose
        # items repeat exactly from pass to pass
        self.reference: list[bytes] | None = None
        self.first_causes: list[str | None] | None = None
        # peak RSS once the first pass is done; later passes only add the
        # benchmark's own per-item bookkeeping
        self.peak_rss_mb: float | None = None

    def setup(self) -> tuple[float, float]:
        """One set-up; returns (normalised, raw) seconds."""
        before = self.probe.measure()
        t0 = time.perf_counter()
        self.em = fresh_import(with_cli=self.spec.name == "verify")
        rng = np.random.default_rng([self.seed, zlib.crc32(self.spec.name.encode())])
        self.items = self.spec.make_pass(rng)
        make_probe = getattr(self.spec, "make_probe", None)
        self.probe_items = make_probe(rng) if make_probe else []
        warm = self.spec.warmup_item()
        self.domains = {}
        for item in [warm, *self.items, *self.probe_items]:
            key = self.spec.domain_key(item)
            if key is not None and key not in self.domains:
                self.domains[key] = self.em.DomainParams(m=key[0], n=key[1])
        _, out = self.call(warm, -1)
        raw = time.perf_counter() - t0
        if isinstance(out, Raised):
            raise BenchError(f"warm-up item raised {out.type}: {out.message}")
        return raw * self.probe.scale(before, self.probe.measure()), raw

    def call(self, item: Item, pass_index: int):
        """Run one item; returns (raw seconds, output or Raised)."""
        domain = self.domains.get(self.spec.domain_key(item))
        if self.tracer is not None:
            self.tracer.item = item.index
        t0 = time.perf_counter()
        try:
            out = self.spec.run(self.em, domain, item, pass_index)
        except Exception as exc:  # an item failing is data, not a crash
            dt = time.perf_counter() - t0
            return dt, Raised(type(exc).__name__, str(exc), _raising_path(exc))
        dt = time.perf_counter() - t0
        collect = getattr(self.spec, "collect", None)
        return dt, (collect(out) if collect else out)

    def timed_passes(self, seconds: float, min_passes: int = 1, after_pass=None) -> list[Pass]:
        """Whole passes over the items until ``seconds`` of wall time have gone by."""
        repeats = self.spec.repeats
        first = self.reference is None
        probes = [self.probe.measure()]
        passes: list[tuple[Pass, array]] = []
        start = last_probe = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            k = len(passes)
            this = Pass(array("d"), array("d"), [])
            segment = array("l")
            for item in self.items:
                if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                    probes.append(self.probe.measure())
                    last_probe = time.perf_counter()
                dt, out = self.call(item, k)
                if repeats and not (first and k == 0):
                    if _fingerprint(self.spec, out) == self.reference[item.index]:
                        out = REPEAT
                this.raw_seconds.append(dt)
                this.outs.append(out)
                segment.append(len(probes) - 1)
            passes.append((this, segment))
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if repeats and first and k == 0:
                self.reference = [_fingerprint(self.spec, out) for out in this.outs]
            if after_pass is not None:
                after_pass(k)
        probes.append(self.probe.measure())
        # an item between probes s and s + 1 is scaled by their mean
        for this, segment in passes:
            this.seconds.extend(dt * self.probe.scale(probes[s], probes[s + 1])
                                for dt, s in zip(this.raw_seconds, segment))
        return [this for this, _ in passes]


    def run_probe(self) -> list[str | None]:
        """Failure cause (or None) of every probe item, each run once, untimed."""
        return [_check_one(self, item, self.call(item, 0)[1]) for item in self.probe_items]


def _raising_path(exc: BaseException) -> str:
    # the package functions on the stack where the exception was raised
    frames = traceback.extract_tb(exc.__traceback__)
    inside = [f.name for f in frames if f"{os.sep}{PACKAGE}{os.sep}" in f.filename]
    return ">".join(inside) or "?"


# ---------------------------------------------------------------------------
# checks


def check_passes(session: Session, passes: list[Pass],
                 differs: str = "output differs between passes") -> list[list[str | None]]:
    """Failure cause (or None) for every item of every pass.

    Outputs that repeat the first pass bit for bit take its cause; an output
    of a repeating workload that does not is a failure (``differs``).
    """
    causes: list[list[str | None]] = []
    for this in passes:
        row = []
        for item, out in zip(session.items, this.outs):
            if out is REPEAT:
                row.append(session.first_causes[item.index])
            elif session.spec.repeats and session.first_causes is not None:
                row.append(differs)
            else:
                row.append(_check_one(session, item, out))
        if session.spec.repeats and session.first_causes is None:
            session.first_causes = row
        causes.append(row)
    return causes


def _check_one(session: Session, item: Item, out) -> str | None:
    if isinstance(out, Raised):
        return f"raised {out.type} at {out.where}"
    domain = session.domains.get(session.spec.domain_key(item))
    return session.spec.check(session.em, domain, item, out)


def _fingerprint(spec, out) -> bytes:
    if isinstance(out, Raised):
        return f"raised {out.type}: {out.message}".encode()
    return spec.fingerprint(out)


def known_cause(item: Item, cause: str) -> str | None:
    for label, matches in KNOWN_FAILURES:
        if matches(item, cause):
            return label
    return None


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float], workload: str) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the workload's tail percentile."""
    cap = TAIL_PERCENTILE[workload]
    n = len(values)
    for p in _TAIL_LADDER:
        if p <= cap and n * (100.0 - p) / 100.0 >= 10.0:
            break
    beyond = n - int(math.ceil(n * p / 100.0))
    return p, float(np.percentile(values, p)), beyond


def _rate(passes: list[Pass], causes, raw: bool = False) -> float:
    ok = sum(c is None for row in causes for c in row)
    return ok / sum(sum(p.raw_seconds if raw else p.seconds) for p in passes)


def end_to_end(workload: str, setup_s: float, peak_rss_mb: float, passes,
               causes) -> tuple[dict, list[str]]:
    ok = [dt for this, row in zip(passes, causes)
          for dt, cause in zip(this.seconds, row) if cause is None]
    if not ok:
        raise BenchError("no item passed its check")
    attempted = sum(len(this.outs) for this in passes)
    p, tail_s, beyond = tail(ok, workload)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (_rate(passes, causes), "1/s"),
        "item_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "success_ratio": (len(ok) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    failed = attempted - len(ok)
    notes = [f"item_tail_ms is p{p:g} of {len(ok)} successful items ({beyond} beyond it)",
             f"error_rate = {failed}/{attempted} = {failed / attempted:.6g}",
             f"raw (not normalised) items_per_s {_rate(passes, causes, raw=True):.6g}"]
    return metrics, notes


def per_layer(session: Session, rec: tracing.Recording, traced: Pass, untraced: Pass,
              overhead: float) -> dict:
    """Per-layer metrics from the recording of one traced pass."""
    stats = rec.layer_stats()
    items = len(session.items)
    # self times are normalised like every other time in the run
    scale = sum(traced.seconds) / sum(traced.raw_seconds)

    def st(key):
        return stats.get(key, tracing.LayerStats())

    def self_s(key):
        return st(key).self_s * scale, "s"

    solver = st("numerics.solve_bracketed")
    m = {
        "numerics.abs_pow.calls": (rec.count("numerics.abs_pow"), "count"),
        "numerics.solve_bracketed.calls": (solver.calls, "count"),
        "numerics.solve_bracketed.self_s": self_s("numerics.solve_bracketed"),
        "numerics.solve_bracketed.f_evals_per_call": (
            _ratio(rec.count("numerics.solve_bracketed.f_evals"), solver.calls), "count"),
        "numerics.solve_bracketed.df_evals_per_call": (
            _ratio(rec.count("numerics.solve_bracketed.df_evals"), solver.calls), "count"),
        "numerics.solve_bracketed.failed": (solver.raised, "count"),
        "numerics.richardson.self_s": self_s("numerics.richardson"),
        "domain.as_vector.calls_per_item": (rec.count("domain.as_vector") / items, "count"),
        "domain.automorphism_jacobian.self_s": self_s("domain.automorphism_jacobian"),
        "domain.classify_region.calls": (st("domain.classify_region").calls, "count"),
        "domain.minkowski_gauge.self_s": self_s("domain.minkowski_gauge"),
        "kobayashi.kobayashi.self_s": self_s("kobayashi.kobayashi"),
        "kobayashi.solve_alpha.calls": (st("kobayashi.solve_alpha").calls, "count"),
        "tensor.wu_tensor.calls": (st("tensor.wu_tensor").calls, "count"),
        "tensor.wu_tensor.self_s": self_s("tensor.wu_tensor"),
        "tensor.kahler_defect.self_s": self_s("tensor.kahler_defect"),
        "tensor.pullback_tensor.self_s": self_s("tensor.pullback_tensor"),
        "fitting.solve_X.calls": (st("fitting.solve_X").calls, "count"),
        "fitting.solve_X.self_s": self_s("fitting.solve_X"),
        "fitting.fit_oracle.self_s": self_s("fitting.fit_oracle"),
        "fitting.containment_violation.self_s": self_s("fitting.containment_violation"),
        "curvature.curvature_tensor.self_s": self_s("curvature.curvature_tensor"),
        "curvature.holomorphic.self_s": self_s("curvature.holomorphic"),
        "curvature.skipped_ratio": (_skipped_ratio(session, untraced), "ratio"),
        "kcurve.upper_xy.calls": (rec.count("kcurve.upper_xy"), "count"),
        "kcurve.kcurve_alpha_grid.self_s": self_s("kcurve.kcurve_alpha_grid"),
        "smoothness.regularity_scan.self_s": self_s("smoothness.regularity_scan"),
        "cli.main.self_s": self_s("cli.main"),
    }
    n_of = {item.index: item.n for item in session.items}
    for consumer, ancestor in (("curvature_tensor", "curvature.curvature_tensor"),
                               ("kahler_defect", "tensor.kahler_defect")):
        inner, calls = Counter(), Counter()
        for item, (a, b) in rec.calls_under("tensor.wu_tensor", ancestor).items():
            inner[n_of.get(item)] += a
            calls[n_of.get(item)] += b
        for n in (2, 3, 4):
            m[f"tensor.wu_tensor_per_{consumer}.n{n}"] = (_ratio(inner[n], calls[n]), "count")
    for check in VERIFY_CHECKS:
        m[f"verification.{check}.self_s"] = self_s(f"verification.{check}")
    for module in MODULES:
        total = sum(s.self_s for key, s in stats.items() if key.startswith(module + "."))
        m[f"{module}.self_s"] = (total * scale, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _skipped_ratio(session: Session, first_pass: Pass) -> float:
    if session.spec.name != "stencil":
        return 0.0
    outs = [out for out in first_pass.outs if not isinstance(out, Raised)]
    skipped = sum(len(skip) for _, skip in outs)
    return _ratio(skipped, sum(len(recs) + len(skip) for recs, skip in outs))


# ---------------------------------------------------------------------------
# run


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "EGG_METRICS_THREADS": os.environ.get("EGG_METRICS_THREADS"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    spec = workloads.make(workload, work_dir)
    session = Session(spec, seed)
    setups = [session.setup() for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s for s, _ in setups)
    print(f"workload {workload}, seed {seed}: {len(session.items)} items per pass; "
          f"set-up median of {SETUP_REPEATS}: {setup_s:.4f} s normalised, "
          f"{statistics.median(raw for _, raw in setups):.4f} s raw")

    # the trace run's untraced half only serves the overhead ratio
    untraced = session.timed_passes(seconds / 2.0 if trace else seconds,
                                    min_passes=1 if trace else spec.min_passes)
    causes = check_passes(session, untraced)
    all_passes, all_causes = list(untraced), list(causes)
    layer = None
    if trace:
        tr = tracing.Tracer(PACKAGE)
        recordings = []

        def after_pass(k):
            # keep the first pass; later passes only measure the overhead
            rec = tr.take()
            if k == 0:
                recordings.append(rec)

        session.tracer = tr
        tr.install()
        try:
            traced = session.timed_passes(seconds / 2.0, after_pass=after_pass)
        finally:
            tr.uninstall()
            session.tracer = None
        # tracing must not change a single bit of any output
        traced_causes = check_passes(session, traced, differs="output differs with tracing")
        if not spec.repeats:
            for item, a, b in zip(session.items, untraced[0].outs, traced[0].outs):
                if _fingerprint(spec, a) != _fingerprint(spec, b):
                    traced_causes[0][item.index] = "output differs with tracing"
        overhead = _rate(traced, traced_causes) / _rate(untraced, causes)
        layer = per_layer(session, recordings[0], traced[0], untraced[0], overhead)
        all_passes += traced
        all_causes += traced_causes

    metrics, notes = end_to_end(workload, setup_s, session.peak_rss_mb, untraced, causes)
    unexpected = Counter((item.category, item.m, item.n, cause)
                         for row in all_causes
                         for item, cause in zip(session.items, row) if cause is not None)
    failed = sum(unexpected.values())
    known = Counter()
    for item, cause in zip(session.probe_items, session.run_probe()):
        if cause is not None:
            key = (item.category, item.m, item.n, cause)
            (known if known_cause(item, cause) else unexpected)[key] += 1
    attempted = sum(len(this.outs) for this in all_passes)

    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"passes: {len(untraced)} untraced"
          + (f", {len(all_passes) - len(untraced)} traced" if trace else ""))
    for note in notes:
        print(note)
    if session.probe_items:
        print(f"defect probe (untimed, not in attempted or failed): {sum(known.values())} of "
              f"{len(session.probe_items)} items fail with a known defect")
    for title, table in (("known defect", known), ("UNEXPECTED failure", unexpected)):
        for (category, m, n, cause), count in sorted(table.items(), key=str):
            print(f"{title}: {count} x {category} m={m!r} n={n}: {cause}")
    shown = layer if trace else metrics
    for name, (value, unit) in shown.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in shown.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"bench: no {PACKAGE} sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_DIR)  # private to this run
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # unless another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
