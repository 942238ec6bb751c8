"""Command-line front end: point evaluations, fits, scans, curve export, verification.

Every output record carries the domain parameters, region label, seed, and
tool version. JSON is the default format; CSV rows use 17-significant-digit
scientific notation so values round-trip exactly. All sampling is driven by
the --seed flag, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .curvature import GridSpec, curvature_scan
from .domain import REGION_TOL, DomainParams, _axis_point, _check_tol, classify_region
from .errors import EggMetricsError, NumericalError, SeamProximityError
from .fitting import containment_violation, contact_point, fit_oracle, fit_reference
from .kcurve import kcurve_alpha_grid, kcurve_sample
from .kobayashi import Branch, kobayashi_sq
from .smoothness import regularity_scan
from .tensor import kahler_defect, wu_norm, wu_tensor
from .verification import run_checks

_FLOAT_FMT = "%.16e"  # 17 significant digits


class _Parser(argparse.ArgumentParser):
    # unknown flags and bad values are validation errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    m: float
    n: int
    seed: int
    tol: float
    fmt: str | None  # None when neither a flag nor the config names a format
    out: str | None

    def domain(self) -> DomainParams:
        return DomainParams(m=self.m, n=self.n)


def parse_complex_vector(text: str, n: int) -> np.ndarray:
    """Parse 're[:im]' components separated by commas into a complex n-vector."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} components, got {len(parts)}")
    out = np.zeros(n, dtype=complex)
    for i, part in enumerate(parts):
        re, _, im = part.partition(":")
        out[i] = complex(float(re), float(im) if im else 0.0)
    return out


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            values["fmt" if key == "format" else key] = val.strip()  # --format's dest
    return values


def _resolve(args: argparse.Namespace, key: str, cast, default):
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    cfg = getattr(args, "_config_values", {})
    if key in cfg:
        return cast(cfg[key])
    return default


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(meta: dict, header: list[str], rows: list[list]) -> str:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_FLOAT_FMT % cell)
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def _meta(cfg: RunConfig, region: str | None = None) -> dict:
    meta = {"m": cfg.m, "n": cfg.n, "seed": cfg.seed, "version": __version__}
    if region is not None:
        meta["region"] = region
    return meta


def _complex_pairs(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_region(cfg: RunConfig, args) -> int:
    domain = cfg.domain()
    z = parse_complex_vector(args.point, cfg.n)
    label = classify_region(domain, z, tol=cfg.tol).value
    payload = _meta(cfg, region=label)
    payload["point"] = args.point
    _emit(_json_text(payload), cfg.out)
    return 0


def _cmd_eval(cfg: RunConfig, args) -> int:
    domain = cfg.domain()
    z = parse_complex_vector(args.point, cfg.n)
    v = parse_complex_vector(args.vector, cfg.n)
    label = classify_region(domain, z, tol=cfg.tol).value
    k_sq = kobayashi_sq(domain, z, v)
    w = wu_norm(domain, z, v)
    payload = _meta(cfg, region=label)
    payload.update({
        "point": args.point,
        "vector": args.vector,
        "kobayashi": math.sqrt(k_sq),
        "kobayashi_sq": k_sq,
        "wu": w,
        "wu_sq": w * w,
    })
    _emit(_json_text(payload), cfg.out)
    return 0


def _cmd_tensor(cfg: RunConfig, args) -> int:
    domain = cfg.domain()
    z = parse_complex_vector(args.point, cfg.n)
    form = wu_tensor(domain, z, tol=cfg.tol)
    eigs = form.eigenvalues()
    try:
        defect = kahler_defect(domain, z)
    except SeamProximityError:
        defect = None  # on Z or M0 the metric has no jet
    payload = _meta(cfg, region=form.region.value)
    payload.update({
        "point": args.point,
        "source": form.source,
        "entries": _complex_pairs(form.matrix),
        "eigenvalue_min": float(eigs[0]),
        "eigenvalue_max": float(eigs[-1]),
        "kahler_defect": defect,
    })
    _emit(_json_text(payload), cfg.out)
    return 0


def _cmd_fit(cfg: RunConfig, args) -> int:
    domain = cfg.domain()
    p1 = args.p1
    label = classify_region(domain, _axis_point(domain, p1), tol=cfg.tol).value
    ref = fit_reference(domain, p1)
    orc = fit_oracle(domain, p1)
    x_star = y_star = None
    if domain.m > 1.0 and p1 < domain.m0_radius:
        c = contact_point(domain, p1)
        x_star, y_star = c.x_star, c.y_star
    payload = _meta(cfg, region=label)
    payload.update({
        "p1": p1,
        "r1": ref.r1,
        "r2": ref.r2,
        "x_star": x_star,
        "y_star": y_star,
        "oracle_r1": orc.r1,
        "oracle_r2": orc.r2,
        "max_containment_violation": containment_violation(domain, p1, ref),
    })
    _emit(_json_text(payload), cfg.out)
    return 0


def _cmd_kcurve(cfg: RunConfig, args) -> int:
    domain = cfg.domain()
    p1 = args.p1
    branches = [Branch.LOWER, Branch.UPPER] if args.branch == "both" \
        else [Branch[args.branch]]
    rows = []
    for branch in branches:
        for alpha in kcurve_alpha_grid(domain, p1, branch, args.count):
            s = kcurve_sample(domain, p1, branch, float(alpha))
            rows.append([branch.value, float(alpha), s.x, s.y])
    meta = _meta(cfg, region=classify_region(domain, _axis_point(domain, p1), tol=cfg.tol).value)
    meta["p1"] = p1
    header = ["branch", "alpha", "x", "y"]
    if cfg.fmt == "csv":
        _emit(_csv_text(meta, header, rows), cfg.out)
    else:
        _emit(_json_text(dict(meta, samples=[dict(zip(header, r)) for r in rows])), cfg.out)
    return 0


def _cmd_curvature_scan(cfg: RunConfig, args) -> int:
    lo, _, hi = args.p1_range.partition(":")
    records, skipped = curvature_scan(cfg.domain(), GridSpec(
        p1_min=float(lo), p1_max=float(hi), count=args.count, phat_abs=args.phat_abs,
        seed=cfg.seed, directions=args.directions))
    rows = []
    for rec in records:
        coords = ";".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in rec.point)
        rows.append([cfg.m, cfg.n, rec.region.value, coords,
                     rec.min_sectional, rec.max_sectional,
                     rec.kahler_defect, rec.symmetry_defect])
    meta = _meta(cfg)
    meta["skipped_points"] = len(skipped)
    header = ["m", "n", "region", "point", "min_sec", "max_sec", "kahler_defect", "symmetry_defect"]
    if cfg.fmt == "csv":
        _emit(_csv_text(meta, header, rows), cfg.out)
    else:  # the records leave out m and n, which the metadata carries
        records = [dict(zip(header[2:], r[2:])) for r in rows]
        _emit(_json_text(dict(meta, records=records)), cfg.out)
    return 0


def _cmd_smoothness_scan(cfg: RunConfig, args) -> int:
    domain = cfg.domain()
    orders = tuple(int(o) for o in args.orders.split(","))
    reports = regularity_scan(domain, args.seam, component=args.component,
                              seed=cfg.seed, orders=orders, n_paths=args.paths)
    payload = _meta(cfg)
    payload["seam"] = args.seam

    def clean(record: dict) -> dict:
        # inconclusive exponents are NaN internally; emit null for strict JSON
        return {k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in record.items()}

    payload["reports"] = [clean(dataclasses.asdict(r)) for r in reports]
    _emit(_json_text(payload), cfg.out)
    return 0


def _cmd_verify(cfg: RunConfig, args) -> int:
    # a text table by default, one JSON object with --format json
    domain = cfg.domain()
    results = run_checks(domain, seed=cfg.seed,
                         names=args.only.split(",") if args.only else None)
    n_fail = sum(not r.passed for r in results)
    if cfg.fmt == "json":
        payload = _meta(cfg)
        payload["checks"] = [{"name": r.name, "passed": bool(r.passed), "detail": r.detail,
                              "seconds": r.seconds} for r in results]
        payload.update(passed=len(results) - n_fail, total=len(results))
        _emit(_json_text(payload), cfg.out)
        return 3 if n_fail else 0
    lines = [f"verification suite for m={cfg.m}, n={cfg.n} (seed {cfg.seed}, "
             f"version {__version__})"]
    width = max(len(r.name) for r in results) if results else 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"  [{status}] {r.name.ljust(width)}  {r.detail}  "
                     f"({r.seconds:.2f}s)")
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 3 if n_fail else 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--m", type=float, default=None, help="egg exponent (>= 0.5)")
    sub.add_argument("--n", type=int, default=None, help="complex dimension (>= 2)")
    sub.add_argument("--seed", type=int, default=None, help="seed for all sampling")
    sub.add_argument("--tol", type=float, default=None,
                     help="region classification tolerance")
    sub.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)
    sub.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    sub.add_argument("--config", type=str, default=None,
                     help="key = value file mirroring flags; flags win")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``egg-metrics`` parser, built once per process and shared: do not modify it."""
    parser = _Parser(prog="egg-metrics",
                     description="Kobayashi/Wu metric toolkit on egg domains")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("region", help="classify a point")
    _add_common(p)
    p.add_argument("--point", required=True, help="comma-separated re[:im] components")
    p.set_defaults(handler=_cmd_region)

    p = subs.add_parser("eval", help="Kobayashi and Wu metric values at a point")
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--vector", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("tensor", help="Wu metric tensor at a point")
    _add_common(p)
    p.add_argument("--point", required=True)
    p.set_defaults(handler=_cmd_tensor)

    p = subs.add_parser("fit", help="Wu ellipsoid fit at an axis point")
    _add_common(p)
    p.add_argument("--p1", type=float, required=True)
    p.set_defaults(handler=_cmd_fit)

    p = subs.add_parser("kcurve", help="export K-curve samples")
    _add_common(p)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--count", type=int, default=128)
    p.add_argument("--branch", choices=["LOWER", "UPPER", "both"], default="both")
    p.set_defaults(handler=_cmd_kcurve, csv=True)

    p = subs.add_parser("curvature-scan",
                        help="holomorphic curvature over an axis grid, from exact metric "
                             "jets; points on Z or M0 are skipped")
    _add_common(p)
    p.add_argument("--p1-range", dest="p1_range", default="0.15:0.9",
                   help="lo:hi axis range")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--phat-abs", dest="phat_abs", type=float, default=0.0)
    p.add_argument("--directions", type=int, default=None)
    p.set_defaults(handler=_cmd_curvature_scan, csv=True)

    p = subs.add_parser("smoothness-scan", help="regularity probes across a seam")
    _add_common(p)
    p.add_argument("--seam", choices=["Z", "M0", "JUNCTION"], required=True)
    p.add_argument("--component", default=None,
                   help="h11 | h22 | h12 | K2 (default depends on seam and m)")
    p.add_argument("--orders", default="1,2,3")
    p.add_argument("--paths", type=int, default=2)
    p.set_defaults(handler=_cmd_smoothness_scan)

    p = subs.add_parser("verify", help="run the acceptance-style check suite")
    _add_common(p)
    p.add_argument("--only", default=None, help="comma-separated check names")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config_values = _load_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"egg-metrics: config error: {exc}\n")
        return 1
    args._config_values = config_values
    try:
        cfg = RunConfig(
            m=_resolve(args, "m", float, 2.0),
            n=_resolve(args, "n", int, 2),
            seed=_resolve(args, "seed", int, 0),
            tol=_resolve(args, "tol", float, REGION_TOL),
            fmt=_resolve(args, "fmt", str, None),
            out=_resolve(args, "out", str, None),
        )
        cfg.domain()  # validate m, n now
        if cfg.fmt not in (None, "json", "csv"):
            raise ValueError(f"unknown format {cfg.fmt!r}")
        if cfg.fmt == "csv" and not getattr(args, "csv", False):
            raise ValueError(f"{args.command} does not write csv; kcurve and curvature-scan do")
        _check_tol(cfg.tol)
    except (EggMetricsError, ValueError) as exc:
        sys.stderr.write(f"egg-metrics: validation error: {exc}\n")
        return 1
    try:
        return args.handler(cfg, args)
    except NumericalError as exc:
        sys.stderr.write(f"egg-metrics: numerical failure: {exc}\n")
        return 2
    except (EggMetricsError, ValueError) as exc:
        sys.stderr.write(f"egg-metrics: validation error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
