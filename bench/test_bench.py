"""Smoke tests of the benchmark itself: inputs, checks, tracing and the result line.

Run from the root of the repository with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import importlib
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracing
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import eggmetrics  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _pass(name: str, seed: int):
    return workloads.make(name, str(run.WORK_DIR)).make_pass(np.random.default_rng([seed, 1]))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_depend_only_on_the_seed(name):
    a, b, c = _pass(name, 3), _pass(name, 3), _pass(name, 4)
    assert [repr(i) for i in a] == [repr(i) for i in b]
    assert [repr(i) for i in a] != [repr(i) for i in c]
    # the mix is the same for every seed; only coordinates and order change
    key = lambda items: sorted((i.category, i.m, i.n) for i in items)  # noqa: E731
    assert key(a) == key(c)


def test_points_inputs_lie_where_their_category_says():
    spec, rng = workloads.Points(), np.random.default_rng([5, 1])
    for item in spec.make_pass(rng) + spec.make_probe(rng):
        z, v = item.args
        r1, rhat2 = abs(z[0]), float(np.sum(np.abs(z[1:]) ** 2))
        rho = r1 ** (2 * item.m) + rhat2 - 1.0
        assert rho < 0.0, item
        assert np.isclose(np.linalg.norm(v), 1.0)
        if item.category == "on-Z":
            assert z[0] == 0
        elif item.category == "z1=1e-8":
            assert np.isclose(r1, 1e-8)
        elif item.category in ("on-M0", "near-M0"):
            assert abs(2 * r1 ** (2 * item.m) + rhat2 - 1.0) < 1e-8
        elif item.category in ("gauge=1-1e-6", "gauge=0.05"):
            g = 1 - 1e-6 if item.category == "gauge=1-1e-6" else 0.05
            d = eggmetrics.DomainParams(item.m, item.n)
            assert abs(eggmetrics.minkowski_gauge(d, z) - g) < 1e-12


def test_points_defect_strata_are_probed_not_timed():
    spec, rng = workloads.Points(), np.random.default_rng([7, 1])
    timed, probe = spec.make_pass(rng), spec.make_probe(rng)
    strata = set(spec.DEFECT_STRATA)
    assert not {(i.category, i.m) for i in timed} & strata
    assert {(i.category, i.m) for i in probe} == strata
    assert len(probe) == len(strata) * len(spec.N_VALUES) * spec.PROBE_COPIES


def test_stencil_inputs_stay_clear_of_every_seam():
    for item in _pass("stencil", 6):
        p1, ph = item.args
        z = np.zeros(item.n, dtype=complex)
        z[0], z[1] = p1, ph
        d = eggmetrics.DomainParams(item.m, item.n)
        assert eggmetrics.seam_distance(d, z) >= 8 * 1e-4


def test_points_check_flags_the_ball_on_z_defect():
    spec = workloads.Points()
    d = eggmetrics.DomainParams(1.0, 2)
    z = np.array([0.0, 0.5])
    v = np.array([1.0, 0.0])
    out = spec.run(eggmetrics, d, workloads.Item(0, "on-Z", 1.0, 2, (z, v)), 0)
    cause = spec.check(eggmetrics, d, workloads.Item(0, "on-Z", 1.0, 2, (z, v)), out)
    assert cause == "tensor disagrees with pullback"
    assert run.known_cause(workloads.Item(0, "on-Z", 1.0, 2, (z, v)), cause)
    assert run.known_cause(workloads.Item(0, "generic", 1.0, 2, (z, v)), cause) is None


def test_verify_check_reads_the_summary_line():
    spec = workloads.Verify(str(run.WORK_DIR))
    item = workloads.Item(0, "suite", 2.0, 2, (0,))
    assert spec.check(None, None, item, (0, "table\n17/17 checks passed\n")) is None
    assert spec.check(None, None, item, (3, "table\n16/17 checks passed\n")) == "exit code 3"
    assert spec.check(None, None, item, (0, "")) is not None
    a = spec.fingerprint((0, "  [PASS] gauge  ok  (0.12s)\n"))
    b = spec.fingerprint((0, "  [PASS] gauge  ok  (0.31s)\n"))
    assert a == b


def test_tracer_restores_every_binding_and_changes_no_output():
    # run.main re-imports the package, so take the modules loaded right now
    em = importlib.import_module("eggmetrics")
    numerics, tensor, curvature, verification = (
        importlib.import_module(f"eggmetrics.{m}")
        for m in ("numerics", "tensor", "curvature", "verification"))
    d = em.DomainParams(2.0, 2)
    z = np.array([0.4, 0.1j])
    originals = (numerics.abs_pow, tensor.abs_pow, tensor.wu_tensor, em.wu_tensor,
                 curvature.wu_tensor, curvature.CurvatureTensor.holomorphic)
    table = list(verification._CHECKS)
    before = em.curvature_tensor(d, z).components.tobytes()

    tr = tracing.Tracer("eggmetrics")
    tr.install()
    try:
        # names bound with ``from .x import f`` are wrapped too
        assert tensor.abs_pow is numerics.abs_pow is not originals[0]
        assert curvature.wu_tensor is tensor.wu_tensor is not originals[2]
        traced = em.curvature_tensor(d, z).components.tobytes()
    finally:
        tr.uninstall()
    rec = tr.take()

    assert traced == before
    assert (numerics.abs_pow, tensor.abs_pow, tensor.wu_tensor, em.wu_tensor,
            curvature.wu_tensor, curvature.CurvatureTensor.holomorphic) == originals
    assert verification._CHECKS == table
    # 2 step sizes x (4 gradient + 1 + 8 + 24 Hessian evaluations) + 1 at n = 2
    assert rec.calls_under("tensor.wu_tensor", "curvature.curvature_tensor") == {-1: (83, 1)}
    stats = rec.layer_stats()
    assert stats["tensor.wu_tensor"].calls == 83
    assert rec.count("numerics.abs_pow") > 0
    assert rec.count("numerics.solve_bracketed.f_evals") > 0
    assert stats["curvature.curvature_tensor"].self_s <= stats["curvature.curvature_tensor"].total_s


def test_tail_uses_the_workload_percentile_and_drops_when_samples_are_few():
    assert run.tail(list(range(2000)), "points")[0] == 99.0
    assert run.tail(list(range(300)), "points")[0] == 95.0
    p, value, beyond = run.tail([float(i) for i in range(40)], "verify")
    assert (p, beyond) == (75.0, 10)
    assert value == pytest.approx(29.25)
    # the least a verify run makes: 3 passes of 18 items
    assert run.tail([0.0] * 54, "verify")[0] == 75.0


def _run_main(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(args)
    return code, buf.getvalue().strip().splitlines()


@pytest.mark.parametrize("name,trace", [("points", 0), ("points", 1), ("stencil", 1)])
def test_result_line_has_exactly_the_declared_metrics(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    code, lines = _run_main(["--workload", name, "--seed", "2", "--seconds", "0.01",
                             "--trace", str(trace)])
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if name == "stencil":
        assert result["metrics"]["tensor.wu_tensor_per_curvature_tensor.n4"]["value"] == 291
        assert result["metrics"]["tensor.wu_tensor_per_curvature_tensor.n2"]["value"] == 83
        assert result["metrics"]["tensor.wu_tensor_per_kahler_defect.n4"]["value"] == 32
    assert not run.WORK_DIR.exists()  # the run removed what it wrote


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "points", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert Path(run.ROOT, BENCHMARK["command"][1]) == Path(run.__file__).resolve()
