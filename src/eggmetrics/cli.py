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

#: the settings every subcommand takes, each stated once as (name, type,
#: default, help): the flag --name and the config-file key name. A tuple type
#: is a choice of strings. A flag wins over the config file, which wins over the
#: default; a format of None leaves the command its own.
_COMMON = (
    ("m", float, 2.0, "egg exponent (>= 0.5)"),
    ("n", int, 2, "complex dimension (>= 2)"),
    ("seed", int, 0, "seed for all sampling"),
    ("tol", float, REGION_TOL, "region classification tolerance"),
    ("format", ("json", "csv"), None, None),
    ("out", str, None, "output path (default stdout)"),
)


class _Parser(argparse.ArgumentParser):
    # unknown flags and bad values are validation errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


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
            values[key.strip()] = val.strip()
    return values


def _resolve_common(args: argparse.Namespace, config: dict[str, str]) -> None:
    # each common setting onto the parsed namespace: flag, else config value, else default
    for name, kind, default, _ in _COMMON:
        value = getattr(args, name)
        if value is None and name in config:
            value = config[name]
            if not isinstance(kind, tuple):
                value = kind(value)
            elif value not in kind:
                raise ValueError(f"unknown {name} {value!r}")
        setattr(args, name, default if value is None else value)


def _table(args, meta: dict, header: list[str], rows: list[list], key: str, skip: int = 0):
    # a table's record: CSV under "# key=value" metadata lines, or the metadata
    # with each row as an object under ``key``, less its first ``skip`` columns
    if args.format != "csv":
        return dict(meta, **{key: [dict(zip(header[skip:], r[skip:])) for r in rows]})
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_FLOAT_FMT % c if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


def _meta(domain: DomainParams, args, region: str | None = None, **fields) -> dict:
    meta = {"m": domain.m, "n": domain.n, "seed": args.seed, "version": __version__}
    if region is not None:
        meta["region"] = region
    meta.update(fields)
    return meta


def _complex_pairs(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its record, a JSON payload or finished
# text, and ``verify`` its exit code with it


def _cmd_region(domain: DomainParams, args) -> dict:
    z = parse_complex_vector(args.point, domain.n)
    return _meta(domain, args, classify_region(domain, z, tol=args.tol).value, point=args.point)


def _cmd_eval(domain: DomainParams, args) -> dict:
    z = parse_complex_vector(args.point, domain.n)
    v = parse_complex_vector(args.vector, domain.n)
    label = classify_region(domain, z, tol=args.tol).value
    k_sq = kobayashi_sq(domain, z, v)
    w = wu_norm(domain, z, v)
    return _meta(domain, args, label, point=args.point, vector=args.vector,
                 kobayashi=math.sqrt(k_sq), kobayashi_sq=k_sq, wu=w, wu_sq=w * w)


def _cmd_tensor(domain: DomainParams, args) -> dict:
    z = parse_complex_vector(args.point, domain.n)
    form = wu_tensor(domain, z, tol=args.tol)
    eigs = form.eigenvalues()
    try:
        defect = kahler_defect(domain, z)
    except SeamProximityError:
        defect = None  # on Z or M0 the metric has no jet
    return _meta(domain, args, form.region.value, point=args.point, source=form.source,
                 entries=_complex_pairs(form.matrix), eigenvalue_min=float(eigs[0]),
                 eigenvalue_max=float(eigs[-1]), kahler_defect=defect)


def _cmd_fit(domain: DomainParams, args) -> dict:
    p1 = args.p1
    label = classify_region(domain, _axis_point(domain, p1), tol=args.tol).value
    ref = fit_reference(domain, p1)
    orc = fit_oracle(domain, p1)
    x_star = y_star = None
    if domain.m > 1.0 and p1 < domain.m0_radius:
        c = contact_point(domain, p1)
        x_star, y_star = c.x_star, c.y_star
    return _meta(domain, args, label, p1=p1, r1=ref.r1, r2=ref.r2, x_star=x_star,
                 y_star=y_star, oracle_r1=orc.r1, oracle_r2=orc.r2,
                 max_containment_violation=containment_violation(domain, p1, ref))


def _cmd_kcurve(domain: DomainParams, args):
    p1 = args.p1
    branches = [Branch.LOWER, Branch.UPPER] if args.branch == "both" \
        else [Branch[args.branch]]
    rows = []
    for branch in branches:
        for alpha in kcurve_alpha_grid(domain, p1, branch, args.count):
            s = kcurve_sample(domain, p1, branch, float(alpha))
            rows.append([branch.value, float(alpha), s.x, s.y])
    label = classify_region(domain, _axis_point(domain, p1), tol=args.tol).value
    return _table(args, _meta(domain, args, label, p1=p1), ["branch", "alpha", "x", "y"],
                  rows, "samples")


def _cmd_curvature_scan(domain: DomainParams, args):
    lo, _, hi = args.p1_range.partition(":")
    records, skipped = curvature_scan(domain, GridSpec(
        p1_min=float(lo), p1_max=float(hi), count=args.count, phat_abs=args.phat_abs,
        seed=args.seed, directions=args.directions))
    rows = []
    for rec in records:
        coords = ";".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in rec.point)
        rows.append([domain.m, domain.n, rec.region.value, coords,
                     rec.min_sectional, rec.max_sectional,
                     rec.kahler_defect, rec.symmetry_defect])
    header = ["m", "n", "region", "point", "min_sec", "max_sec", "kahler_defect", "symmetry_defect"]
    # the JSON records leave out m and n, which the metadata carries
    return _table(args, _meta(domain, args, skipped_points=len(skipped)), header, rows,
                  "records", skip=2)


def _cmd_smoothness_scan(domain: DomainParams, args) -> dict:
    orders = tuple(int(o) for o in args.orders.split(","))
    reports = regularity_scan(domain, args.seam, component=args.component,
                              seed=args.seed, orders=orders, n_paths=args.paths)

    def clean(record: dict) -> dict:
        # inconclusive exponents are NaN internally; emit null for strict JSON
        return {k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in record.items()}

    return _meta(domain, args, seam=args.seam,
                 reports=[clean(dataclasses.asdict(r)) for r in reports])


def _cmd_verify(domain: DomainParams, args):
    # a text table by default, one JSON object with --format json; exit 3 on a FAIL row
    results = run_checks(domain, seed=args.seed,
                         names=args.only.split(",") if args.only else None)
    n_fail = sum(not r.passed for r in results)
    code = 3 if n_fail else 0
    if args.format == "json":
        checks = [{"name": r.name, "passed": bool(r.passed), "detail": r.detail,
                   "seconds": r.seconds} for r in results]
        return _meta(domain, args, checks=checks, passed=len(results) - n_fail,
                     total=len(results)), code
    lines = [f"verification suite for m={domain.m}, n={domain.n} (seed {args.seed}, "
             f"version {__version__})"]
    width = max(len(r.name) for r in results) if results else 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"  [{status}] {r.name.ljust(width)}  {r.detail}  "
                     f"({r.seconds:.2f}s)")
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub: argparse.ArgumentParser) -> None:
    for name, kind, _, help in _COMMON:
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        sub.add_argument(f"--{name}", default=None, help=help, **typed)
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
        config = _load_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"egg-metrics: config error: {exc}\n")
        return 1
    try:
        _resolve_common(args, config)
        domain = DomainParams(m=args.m, n=args.n)
        if args.format == "csv" and not getattr(args, "csv", False):
            raise ValueError(f"{args.command} does not write csv; kcurve and curvature-scan do")
        _check_tol(args.tol)
        record = args.handler(domain, args)
    except NumericalError as exc:
        sys.stderr.write(f"egg-metrics: numerical failure: {exc}\n")
        return 2
    except (EggMetricsError, ValueError) as exc:
        sys.stderr.write(f"egg-metrics: validation error: {exc}\n")
        return 1
    record, code = record if isinstance(record, tuple) else (record, 0)
    if not isinstance(record, str):
        record = json.dumps(record, indent=2, allow_nan=True) + "\n"
    try:  # the one write of every command's record
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(record)
        else:
            sys.stdout.write(record)
    except OSError as exc:
        sys.stderr.write(f"egg-metrics: output error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
