"""The three benchmark workloads: seeded inputs, the timed item, and its oracle check.

Every workload is a closed loop driven by one caller. One *pass* is a fixed
list of items whose composition (the share of each parameter cell and point
category) does not depend on the seed; the seed only draws the coordinates
and shuffles the order. The runner repeats whole passes, so the mix is the
same for every run of a seed. A timed pass holds only inputs on which the
code is expected to pass every check; ``points`` also has a *probe*, the
strata where the code is known to fail, which the runner evaluates and checks
once per run outside the timed loop.

The library only ever receives the generated arrays and scalars. Checks run
after the timed loop and use the verify suite's own tolerances.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Any

import numpy as np

#: tolerances copied from ``eggmetrics.verification`` (do not loosen)
PULLBACK_TOL = 1e-7        # check_tensor_consistency: closed form vs pullback
DOMINATION_TOL = 1e-9      # check_domination: wu - kobayashi
ALT_UPPER_TOL = 1e-10      # check_alt_upper: branch formula vs alternate form
BALL_SECTIONAL_TOL = 1e-3  # check_curvature: |sectional + 2| on the ball and M+
SECTIONAL_CEILING = -0.1   # check_curvature: every sectional value below this
KAHLER_FLAT_TOL = 1e-6     # check_kahler: defect on Kahler regions
KAHLER_DEFECT_MIN = 1e-3   # check_kahler: defect on non-Kahler regions

#: kobayashi.REFERENCE_AXIS_TOL: below it the library takes its Z branch
_AXIS_TOL = 1e-13


@dataclass(frozen=True)
class Item:
    """One unit of work. ``args`` are the generated inputs handed to the library."""

    index: int
    category: str
    m: float
    n: int
    args: tuple


@dataclass(frozen=True)
class Raised:
    """Stands in for the output of an item whose call raised."""

    type: str
    message: str
    where: str  # package functions on the stack, outermost first


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _unit(rng: np.random.Generator, k: int) -> np.ndarray:
    w = rng.normal(size=k) + 1j * rng.normal(size=k)
    return w / np.linalg.norm(w)


def _phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _point(rng: np.random.Generator, n: int, r1: float, rhat: float) -> np.ndarray:
    return np.concatenate(([r1 * _phase(rng)], rhat * _unit(rng, n - 1)))


# ---------------------------------------------------------------------------
# points: kobayashi, wu_tensor and wu_norm at one point


class Points:
    """Scalar point evaluations over every m of interest, with the thin strata sampled."""

    name = "points"
    #: items give the same output in every pass
    repeats = True
    min_passes = 1
    M_VALUES = (0.5, 0.75, 1.0, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0)
    N_VALUES = (2, 3, 4)
    #: items per (m, n) cell and pass; fixed, so the mix is seed independent
    CATEGORIES = (
        ("generic", 32),
        ("on-Z", 1),
        ("z1=1e-8", 1),
        ("on-M0", 1),
        ("near-M0", 1),
        ("gauge=1-1e-6", 1),
    )
    #: (category, m) strata on which the parent code fails (README.md, "Known
    #: defects"). They are left out of the timed pass, whose items must all
    #: pass, and probed once per run outside the timed loop instead.
    #: "gauge=0.05" at m = 60 puts p1 on the solve_X overflow threshold,
    #: just below the generic points' lowest gauge.
    DEFECT_STRATA = tuple(sorted(
        {("on-Z", 1.0), ("z1=1e-8", 20.0), ("z1=1e-8", 60.0), ("gauge=0.05", 60.0)}
        | {("gauge=1-1e-6", m) for m in M_VALUES}))
    #: probe items per defect stratum and n
    PROBE_COPIES = 4

    def make_pass(self, rng: np.random.Generator) -> list[Item]:
        defects = set(self.DEFECT_STRATA)
        return self._items(rng, [(category, m, n, count)
                                 for m in self.M_VALUES for n in self.N_VALUES
                                 for category, count in self.CATEGORIES
                                 if (category, m) not in defects])

    def make_probe(self, rng: np.random.Generator) -> list[Item]:
        """Items of the defect strata; drawn after ``make_pass`` from the same generator."""
        return self._items(rng, [(category, m, n, self.PROBE_COPIES)
                                 for category, m in self.DEFECT_STRATA for n in self.N_VALUES])

    def _items(self, rng: np.random.Generator, cells) -> list[Item]:
        items = []
        for category, m, n, count in cells:
            for _ in range(count):
                z = self._sample_point(rng, m, n, category)
                v = _unit(rng, n)
                items.append((category, m, n, (z, v)))
        order = rng.permutation(len(items))
        return [Item(i, *items[j]) for i, j in enumerate(order)]

    @staticmethod
    def _sample_point(rng, m: float, n: int, category: str) -> np.ndarray:
        # the egg is |z1|^2m + |zhat|^2 < 1; boundary points are
        # (t^(1/2m), sqrt(1 - t)) in (|z1|, |zhat|), and the gauge is
        # homogeneous, so g * boundary point has gauge exactly g
        if category == "generic":
            t = rng.uniform(0.02, 0.98)
            g = rng.uniform(0.1, 0.95)
            return g * _point(rng, n, t ** (1.0 / (2.0 * m)), math.sqrt(1.0 - t))
        if category == "gauge=0.05":
            t = rng.uniform(0.02, 0.98)
            return 0.05 * _point(rng, n, t ** (1.0 / (2.0 * m)), math.sqrt(1.0 - t))
        if category == "on-Z":
            return _point(rng, n, 0.0, rng.uniform(0.05, 0.95))
        if category == "z1=1e-8":
            return _point(rng, n, 1e-8, rng.uniform(0.05, 0.95))
        if category in ("on-M0", "near-M0"):
            # M0 is 2|z1|^2m + |zhat|^2 = 1; near-M0 moves 1e-9 off it
            t = rng.uniform(0.02, 0.48)
            if category == "near-M0":
                t *= 1.0 + (1e-9 if rng.uniform() < 0.5 else -1e-9)
            return _point(rng, n, t ** (1.0 / (2.0 * m)), math.sqrt(1.0 - 2.0 * t))
        if category == "gauge=1-1e-6":
            t = rng.uniform(0.02, 0.98)
            return (1.0 - 1e-6) * _point(rng, n, t ** (1.0 / (2.0 * m)), math.sqrt(1.0 - t))
        raise ValueError(category)

    def warmup_item(self) -> Item:
        return Item(-1, "warm-up", 2.0, 3,
                    (np.array([0.3 + 0.1j, 0.2, -0.1j]), np.array([1.0, 0.5j, 0.25])))

    def domain_key(self, item: Item):
        return (item.m, item.n)

    def run(self, em, domain, item: Item, pass_index: int):
        z, v = item.args
        k = em.kobayashi(domain, z, v)
        form = em.wu_tensor(domain, z)
        w = em.wu_norm(domain, z, v)
        return k, form.matrix, w

    def fingerprint(self, out) -> bytes:
        k, H, w = out
        return repr(k).encode() + H.tobytes() + repr(w).encode()

    def check(self, em, domain, item: Item, out) -> str | None:
        """None when the output passes every oracle, else the failed check."""
        z, v = item.args
        k, H, w = out
        if not (math.isfinite(k) and math.isfinite(w) and np.all(np.isfinite(H))):
            return "non-finite output"
        try:
            pb = em.pullback_tensor(domain, z).matrix
        except Exception as exc:  # the oracle failing is a failure of the item
            return f"pullback oracle raised {type(exc).__name__}"
        # verify sees O(1) values only; near the boundary H reaches 1e11 and K
        # 1e5, so its absolute tolerances scale with values above 1
        scale = float(np.max(np.abs(H)))
        if not (float(np.max(np.abs(H - pb))) < PULLBACK_TOL * scale
                and float(np.max(np.abs(H - H.conj().T))) < PULLBACK_TOL * max(1.0, scale)):
            return "tensor disagrees with pullback"
        if w - k > DOMINATION_TOL * max(1.0, k):
            return "wu above kobayashi"
        if not np.linalg.eigvalsh(H)[0] > 0.0:
            return "tensor not positive definite"
        return self._check_alt_upper(em, domain, z, v, k)

    @staticmethod
    def _check_alt_upper(em, domain, z, v, k) -> str | None:
        # the alternate expression is defined at axis points on the UPPER
        # branch; reduce (z, v) to the axis the same way the library does
        try:
            p1 = em.reference_coordinate(domain, z)
            if not _AXIS_TOL <= p1 < 1.0:
                return None
            w = em.automorphism_jacobian(domain, z, z) @ v
            if em.branch_params(domain, p1, w).branch is not em.Branch.UPPER:
                return None
            alt = em.kobayashi_alt_upper(domain, p1, w)
        except Exception as exc:
            return f"alternate upper oracle raised {type(exc).__name__}"
        if not _rel(k, alt) < ALT_UPPER_TOL:
            return "alternate upper formula disagrees"
        return None


# ---------------------------------------------------------------------------
# stencil: one curvature_scan grid point


class Stencil:
    """One ``curvature_scan`` grid point: curvature tensor, sectional sweep, Kahler defect."""

    name = "stencil"
    #: items give the same output in every pass
    repeats = True
    min_passes = 1
    M_VALUES = (0.75, 1.0, 2.0, 5.0)
    N_VALUES = (2, 4)
    PHAT_ABS = (0.0, 0.1)
    PER_CELL = 8
    #: distance to every seam, far beyond the 8 steps (8e-4) the stencil needs
    SEAM_MARGIN = 0.02

    def make_pass(self, rng: np.random.Generator) -> list[Item]:
        items = []
        for m in self.M_VALUES:
            thr = 2.0 ** (-1.0 / (2.0 * m))
            for n in self.N_VALUES:
                for region, (lo, hi) in (("inner", (0.1, thr)), ("outer", (thr, 0.99))):
                    for ph in self.PHAT_ABS:
                        for _ in range(self.PER_CELL):
                            p1 = self._sample_p1(rng, m, lo, hi, ph)
                            items.append((region, m, n, (p1, ph)))
        order = rng.permutation(len(items))
        return [Item(i, *items[j]) for i, j in enumerate(order)]

    def _sample_p1(self, rng, m: float, lo: float, hi: float, ph: float) -> float:
        while True:
            p1 = float(rng.uniform(lo, hi))
            if _seam_distance(m, p1, ph) >= self.SEAM_MARGIN:
                return p1

    def warmup_item(self) -> Item:
        return Item(-1, "warm-up", 2.0, 2, (0.9, 0.1))

    def domain_key(self, item: Item):
        return (item.m, item.n)

    def run(self, em, domain, item: Item, pass_index: int):
        p1, ph = item.args
        grid = em.GridSpec(p1_min=p1, p1_max=p1, count=1, phat_abs=ph)
        return em.curvature_scan(domain, grid)

    def fingerprint(self, out) -> bytes:
        records, skipped = out
        parts = [f"skipped={len(skipped)}"]
        for r in records:
            parts.append(" ".join(repr(x) for x in (
                r.region.value, r.min_sectional, r.max_sectional, r.kahler_defect,
                r.symmetry_defect, r.axis_cross_gap)))
            parts.append(r.point.tobytes().hex())
        return "\n".join(parts).encode()

    def check(self, em, domain, item: Item, out) -> str | None:
        records, skipped = out
        if skipped or len(records) != 1:
            return "grid point skipped"
        r = records[0]
        values = (r.min_sectional, r.max_sectional, r.kahler_defect, r.symmetry_defect)
        if not all(math.isfinite(x) for x in values):
            return "non-finite output"
        # the ball and M+ carry the Kahler metric of constant curvature -2
        kahler = item.m == 1.0 or r.region is em.RegionLabel.M_PLUS
        # check_curvature: negative everywhere, exactly -2 where Kahler
        if not r.max_sectional < SECTIONAL_CEILING:
            return "sectional curvature not below -0.1"
        if kahler and not (abs(r.min_sectional + 2.0) < BALL_SECTIONAL_TOL
                           and abs(r.max_sectional + 2.0) < BALL_SECTIONAL_TOL):
            return "sectional curvature not -2 where Kahler"
        # check_kahler: no defect where Kahler, a clear one on M- and for m < 1
        if kahler and not r.kahler_defect < KAHLER_FLAT_TOL:
            return "Kahler defect on a Kahler region"
        if not kahler and not r.kahler_defect > KAHLER_DEFECT_MIN:
            return "no Kahler defect on a non-Kahler region"
        return None


def _seam_distance(m: float, p1: float, ph: float) -> float:
    # first-order distance of (p1, ph, 0, ...) to Z, the boundary and, for
    # m > 1, M0; the same estimate the library uses to size its stencils
    e = p1 ** (2 * m) + ph * ph - 1.0
    dists = [p1, abs(e) / math.hypot(2 * m * p1 ** (2 * m - 1), 2 * ph)]
    if m > 1.0:
        w = 2.0 * p1 ** (2 * m) + ph * ph - 1.0
        dists.append(abs(w) / math.hypot(4 * m * p1 ** (2 * m - 1), 2 * ph))
    return min(dists)


# ---------------------------------------------------------------------------
# verify: the CLI self-check suite, in process


_TIMING = re.compile(r"\(\d+\.\d+s\)")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


class Verify:
    """``egg-metrics verify`` run in process through ``eggmetrics.cli.main``."""

    name = "verify"
    #: the verify seed rotates from pass to pass, so outputs differ
    repeats = False
    #: 3 passes of 18 items keep at least 10 samples beyond the p75 tail
    min_passes = 3
    M_VALUES = (0.5, 0.75, 1.0, 2.0, 5.0)
    N_VALUES = (2, 3)
    #: items per (m, n) cell with m > 1 (one for m <= 1). The m <= 1 cells
    #: cost 0.3-0.6 s, overlap and swap places with the verify seed; the
    #: m > 1 cells cost 0.9-1.0 s. With these weights the median and the p75
    #: fall inside the narrow m > 1 band, not between cells of the wide one.
    M_ABOVE_1_COPIES = 3

    def __init__(self, work_dir: str):
        self.out_path = os.path.join(work_dir, "verify-out.txt")

    def make_pass(self, rng: np.random.Generator) -> list[Item]:
        # each item gets its own verify seed; pass k adds k, so the seed
        # rotates from pass to pass while every pass keeps the same cells
        cells = [(m, n) for m in self.M_VALUES for n in self.N_VALUES
                 for _ in range(self.M_ABOVE_1_COPIES if m > 1.0 else 1)]
        items = [("suite", m, n, (int(rng.integers(0, 2 ** 31 - 1000)),)) for m, n in cells]
        order = rng.permutation(len(items))
        return [Item(i, *items[j]) for i, j in enumerate(order)]

    def warmup_item(self) -> Item:
        return Item(-1, "warm-up", 0.75, 2, (0,))

    def domain_key(self, item: Item):
        return None  # the CLI builds its own domain

    def argv(self, item: Item, pass_index: int) -> list[str]:
        return ["verify", "--m", repr(item.m), "--n", str(item.n),
                "--seed", str(item.args[0] + max(pass_index, 0)), "--out", self.out_path]

    def run(self, em, domain, item: Item, pass_index: int):
        return em.cli.main(self.argv(item, pass_index))

    def collect(self, code) -> tuple[Any, str]:
        """Read the report the timed call wrote; kept outside the timed region."""
        try:
            with open(self.out_path, "r", encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self.out_path)
        except FileNotFoundError:
            text = ""  # the command failed before writing its report
        return code, text

    def fingerprint(self, out) -> bytes:
        code, text = out
        # per-check wall times are not part of the result
        return f"{code}\n{_TIMING.sub('(t)', text)}".encode()

    def check(self, em, domain, item: Item, out) -> str | None:
        code, text = out
        lines = text.strip().splitlines()
        summary = _SUMMARY.match(lines[-1]) if lines else None
        if code != 0:
            failed = [line.split()[1] for line in lines if line.lstrip().startswith("[FAIL]")]
            return f"exit code {code}" + (f": {', '.join(failed)} failed" if failed else "")
        if summary is None or summary.group(1) != summary.group(2):
            return "summary line is not k/k checks passed"
        return None


def make(name: str, work_dir: str):
    if name == "points":
        return Points()
    if name == "stencil":
        return Stencil()
    if name == "verify":
        return Verify(work_dir)
    raise KeyError(name)


NAMES = ("points", "stencil", "verify")
