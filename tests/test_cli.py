import json
import re

import numpy as np
import pytest

from eggmetrics import NumericalError, __version__, cli, verification
from eggmetrics import tensor as tensor_module
from eggmetrics.cli import main, parse_complex_vector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_complex_vector(self):
        v = parse_complex_vector("0.5:0.1,0.2:-0.3", 2)
        assert np.allclose(v, [0.5 + 0.1j, 0.2 - 0.3j])
        v = parse_complex_vector("0.5,0", 2)
        assert np.allclose(v, [0.5, 0.0])
        with pytest.raises(ValueError):
            parse_complex_vector("0.5", 2)


class TestRegion:
    def test_outer_label(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--m", "2", "--n", "2",
                               "--point", "0.9,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["region"] == "M_PLUS"
        assert payload["m"] == 2.0 and payload["n"] == 2
        assert payload["version"] == __version__
        assert "seed" in payload

    def test_invalid_point_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "region", "--m", "2", "--n", "2",
                               "--point", "nope,0")
        assert code == 1
        assert "validation error" in err


class TestEval:
    def test_lower_branch_example(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--m", "2", "--n", "2",
                               "--point", "0.5,0", "--vector", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kobayashi"] == pytest.approx((1 - 0.5 ** 4) ** -0.5, rel=1e-12)
        assert payload["wu"] <= payload["kobayashi"] + 1e-9
        assert payload["region"] == "M_MINUS"

    def test_outside_point_fails_validation(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--m", "2", "--n", "2",
                               "--point", "1.5,0", "--vector", "0,1")
        assert code == 1


class TestTensorFitKcurve:
    def test_tensor_payload(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "--m", "2", "--n", "2",
                               "--point", "0.9,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["source"] == "outer-form"
        assert payload["eigenvalue_min"] > 0
        assert payload["kahler_defect"] < 1e-6
        entry = payload["entries"][0][0]
        assert entry[0] == pytest.approx(4 * 0.81 / (1 - 0.9 ** 4) ** 2, rel=1e-12)

    def test_fit_payload(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--m", "2", "--n", "2",
                               "--p1", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["region"] == "M_MINUS"
        assert payload["r1"] == pytest.approx(payload["oracle_r1"], rel=1e-4)
        assert payload["x_star"] is not None
        assert payload["max_containment_violation"] <= 1e-9

    def test_fit_outer_has_no_contact(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--m", "2", "--n", "2",
                               "--p1", "0.9")
        payload = json.loads(out)
        assert payload["x_star"] is None

    def test_kcurve_csv(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "kcurve", "--m", "2", "--n", "2",
                             "--p1", "0.5", "--count", "16",
                             "--format", "csv", "--out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("m=2.0" in l for l in meta)
        header_idx = len(meta)
        assert lines[header_idx] == "branch,alpha,x,y"
        first = lines[header_idx + 1].split(",")
        assert first[0] in ("LOWER", "UPPER")
        # 17 significant digits round-trip
        assert float(first[2]) == float(("%.16e" % float(first[2])))
        assert "e" in first[2]


class TestJsonMatchesCsv:
    # the JSON records carry the CSV rows' values under the CSV header's names
    @staticmethod
    def _csv_rows(out):
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

    def test_kcurve(self, capsys):
        args = ("kcurve", "--m", "2", "--n", "2", "--p1", "0.5", "--count", "16")
        _, out, _ = run_cli(capsys, *args)
        payload = json.loads(out)
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        rows = self._csv_rows(csv_out)
        assert payload["p1"] == 0.5 and payload["region"] == "M_MINUS"
        assert len(payload["samples"]) == len(rows) >= 16
        for rec, row in zip(payload["samples"], rows):
            assert list(rec) == ["branch", "alpha", "x", "y"]
            assert rec["branch"] == row["branch"]
            assert [rec[k] for k in ("alpha", "x", "y")] == [float(row[k]) for k in ("alpha", "x", "y")]

    def test_curvature_scan(self, capsys):
        args = ("curvature-scan", "--m", "2", "--n", "2", "--p1-range", "0.3:0.9", "--count", "3",
                "--seed", "7")
        _, out, _ = run_cli(capsys, *args)
        payload = json.loads(out)
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        rows = self._csv_rows(csv_out)
        assert payload["skipped_points"] == 0
        assert len(payload["records"]) == len(rows) == 3  # one record a point
        floats = ("min_sec", "max_sec", "kahler_defect", "symmetry_defect")
        for rec, row in zip(payload["records"], rows):
            assert list(rec) == ["region", "point", *floats]
            assert (rec["region"], rec["point"]) == (row["region"], row["point"])
            assert [rec[k] for k in floats] == [float(row[k]) for k in floats]
            assert (float(row["m"]), int(row["n"])) == (payload["m"], payload["n"])


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, capsys):
        args = ("smoothness-scan", "--m", "0.75", "--n", "2", "--seam", "Z",
                "--component", "h22", "--orders", "1", "--paths", "1",
                "--seed", "42")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_curvature_scan_deterministic(self, capsys):
        args = ("curvature-scan", "--m", "2", "--n", "2",
                "--p1-range", "0.3:0.9", "--count", "3", "--format", "csv",
                "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert "min_sec" in out1


    def test_smoothness_scan_junction(self, capsys):
        code = main(["smoothness-scan", "--m", "2", "--n", "2",
                     "--seam", "JUNCTION"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        orders = {r["order"] for r in payload["reports"]}
        assert orders == {2, 3}
        assert all(r["exponent"] is None or r["exponent"] <= 1.0
                   for r in payload["reports"])


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 2.0\nn = 2\nseed = 9\n# comment\n")
        code, out, _ = run_cli(capsys, "region", "--config", str(cfg),
                               "--point", "0.9,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 2.0 and payload["seed"] == 9
        code, out, _ = run_cli(capsys, "region", "--config", str(cfg),
                               "--m", "0.75", "--point", "0.9,0")
        payload = json.loads(out)
        assert payload["m"] == 0.75
        assert payload["region"] == "GENERIC"

    def test_missing_config_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "region", "--config",
                               str(tmp_path / "none.cfg"), "--point", "0,0")
        assert code == 1


class TestExitCodes:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "region", "--m", "2", "--n", "2",
                               "--point", "0,0", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_bad_m_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "region", "--m", "0.3", "--n", "2",
                               "--point", "0,0")
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_bad_tol_exits_one(self, capsys, tol):
        # a NaN tolerance labelled an interior point OUTSIDE and exited 0
        code, out, err = run_cli(capsys, "region", "--m", "2", "--n", "2",
                                 "--point", "0.1,0.1", f"--tol={tol}")
        assert code == 1 and out == ""
        assert "tol must be finite and positive" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [("--directions", "0"), ("--step", "0")])
    def test_bad_stencil_control_exits_one(self, capsys, flag, value):
        # the scan is exact and has no --step any more: the flag is unknown
        code, out, err = run_cli(capsys, "curvature-scan", "--m", "2", "--n", "2",
                                 "--count", "2", flag, value)
        assert code == 1
        expected = {"--directions": "validation error",
                    "--step": "unrecognized arguments: --step 0"}[flag]
        assert expected in err and "Traceback" not in err
        assert out == ""

    def test_numerical_failure_exits_two(self, capsys):
        # tensor on the middle stratum: kahler_defect is skipped gracefully,
        # but a curvature scan pinned to the seam must refuse
        code, out, err = run_cli(capsys, "tensor", "--m", "2", "--n", "2",
                                 "--point", f"{2 ** -0.25},0")
        assert code == 0
        assert json.loads(out)["kahler_defect"] is None

    @pytest.mark.parametrize("argv", [
        ("tensor", "--m", "60", "--n", "2", "--point", "0.001,0.2"),
        ("eval", "--m", "20", "--n", "2", "--point", "1e-8,0.5", "--vector", "1,1"),
        ("fit", "--m", "60", "--p1", "0.05"),
    ])
    def test_small_z1_at_large_m_matches_50_digits(self, capsys, argv):
        # the unbounded X form of the tangency equation left the float range
        # at these inputs (exit 2); the bounded form gives the 50-digit values
        ref = pytest.importorskip("wu_reference")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        payload = json.loads(out)
        m = float(argv[2])
        if argv[0] == "fit":
            r1, r2, _ = ref.fit(m, float(argv[4]))
            got, want = [payload["r1"], payload["r2"]], [float(r1), float(r2)]
        else:
            H = ref.wu_tensor(m, parse_complex_vector(argv[6], 2))[0]
            R = np.array([[complex(H[i, j]) for j in range(2)] for i in range(2)])
            if argv[0] == "tensor":
                got = [complex(re, im) for row in payload["entries"] for re, im in row]
                want = R.ravel()
            else:
                got, want = [payload["wu"]], [np.sqrt(np.real(np.ones(2) @ R @ np.ones(2)))]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("p1", ["0.01", "1e-5"])
    def test_fit_at_large_m_and_small_p1_exits_zero(self, capsys, p1):
        # at m = 60 the printed UPPER formula divides by alpha^(4m-2) = 0 at
        # alpha = p1, and at p1 = 1e-5 the LOWER formula by m^2 p1^118 = 0;
        # the oracle and containment take the bounded arc and the segment's ends
        code, out, err = run_cli(capsys, "fit", "--m", "60", "--p1", p1)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["oracle_r1"] == pytest.approx(payload["r1"], rel=1e-8)
        assert payload["oracle_r2"] == pytest.approx(payload["r2"], rel=1e-8)
        assert payload["max_containment_violation"] <= 1e-9

    def test_kcurve_where_the_lower_range_collapses_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "kcurve", "--m", "60", "--p1", "1e-5", "--count", "16")
        assert code == 2 and out == ""
        assert err.startswith("egg-metrics: numerical failure: LOWER range")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_oracle_failure_exits_two(self, capsys, monkeypatch):
        # a NumericalError out of a command is one numerical-failure line
        def lost(domain, p1):
            raise NumericalError(f"fit oracle lost its bracket at p1={p1!r}, m={domain.m!r}")

        monkeypatch.setattr(cli, "fit_oracle", lost)
        code, out, err = run_cli(capsys, "fit", "--m", "2", "--p1", "0.5")
        assert code == 2 and out == ""
        assert err.startswith("egg-metrics: numerical failure: fit oracle lost its bracket")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_tensor_jet_failure_exits_two(self, capsys, monkeypatch):
        # only the seam refusal on Z or M0 gives "kahler_defect": null; any
        # other NumericalError out of the jet is one numerical-failure line
        code, out, _ = run_cli(capsys, "tensor", "--m", "2", "--point", "0,0.3")
        assert code == 0 and json.loads(out)["kahler_defect"] is None

        def broken(*args):
            raise NumericalError("jet lost its root")

        monkeypatch.setattr(tensor_module, "_wu_jet", broken)
        code, out, err = run_cli(capsys, "tensor", "--m", "2", "--point", "0.3,0.2")
        assert code == 2 and out == ""
        assert err == "egg-metrics: numerical failure: jet lost its root\n"

    def test_fit_has_no_samples_flag(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--m", "2", "--p1", "0.5", "--samples", "4096")
        assert code == 1 and out == ""
        assert "usage" in err and "--samples" in err

    def test_crashing_check_is_a_fail_row(self, capsys, monkeypatch):
        # a check that raises outside the package's error types (here the
        # tangency solve of seam-continuity, made to divide by zero) is
        # recorded as that check's FAIL row, and the remaining checks run
        def crash(domain, p1):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(verification, "solve_X", crash)
        code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "2")
        assert code == 3
        rows = [line for line in out.splitlines() if line.startswith("  [")]
        assert len(rows) == 17
        failed = [row for row in rows if row.startswith("  [FAIL]")]
        assert len(failed) == 1 and "seam-continuity" in failed[0]
        assert "error: ZeroDivisionError: float division by zero" in failed[0]

    def test_extreme_m_lower_branch_takes_the_exact_verdict(self, capsys):
        # at m = 20 the LOWER branch at p1 = 0.4 is too short in x for any
        # divided difference: square-convexity takes its exact affine verdict
        # and names the span, and the kahler-potential sampler still finds M+
        # points
        code, out, _ = run_cli(capsys, "verify", "--m", "20", "--n", "2",
                               "--only", "square-convexity,kahler-potential")
        assert code == 0
        rows = {line.split()[1]: line for line in out.splitlines() if line.startswith("  [")}
        assert "p1=0.4: lower=affine (exact, x-span 2.2e-16)" in rows["square-convexity"]
        assert "error:" not in rows["kahler-potential"]

    def test_potential_sampler_gives_up_with_a_typed_error(self, capsys):
        # at m = 200 no M+ point is 1e-3 from both M0 and the boundary
        code, out, _ = run_cli(capsys, "verify", "--m", "200", "--n", "2",
                               "--only", "kahler-potential")
        assert code == 3
        assert "error: NumericalError: no M+ point" in out

    def test_verify_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "2",
                               "--only", "gauge-membership,square-convexity")
        assert code == 0
        assert "[PASS] gauge-membership" in out
        assert "2/2 checks passed" in out

    def test_unknown_check_name_exits_one(self, capsys):
        # a misspelt name used to select nothing and report 0/0 passed
        code, out, err = run_cli(capsys, "verify", "--m", "2", "--n", "2",
                                 "--only", "gauge-membership,joining-derivative")
        assert code == 1
        assert "validation error" in err and "joining-derivative" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("region", "--point", "0.3,0.2"),
        ("eval", "--point", "0.3,0.2", "--vector", "1,0"),
        ("tensor", "--point", "0.3,0.2"),
        ("fit", "--p1", "0.5"),
        ("smoothness-scan", "--seam", "Z", "--orders", "1", "--paths", "1"),
    ], ids=lambda argv: argv[0])
    def test_csv_where_no_csv_is_written_exits_one(self, capsys, argv):
        # these subcommands used to print JSON under --format csv and exit 0
        code, out, err = run_cli(capsys, *argv, "--m", "2", "--n", "2", "--format", "csv")
        assert code == 1
        assert f"validation error: {argv[0]} does not write csv" in err
        assert out == ""

    def test_csv_from_a_config_file_is_checked_too(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv\n")
        code, out, err = run_cli(capsys, "region", "--point", "0.3,0.2", "--config", str(cfg))
        assert code == 1 and "does not write csv" in err and out == ""

    def test_check_that_does_not_apply_is_skipped(self, capsys):
        # contact-point applies to m > 1 only; naming it at m = 0.75 runs nothing
        code, out, _ = run_cli(capsys, "verify", "--m", "0.75", "--n", "2",
                               "--only", "contact-point")
        assert code == 0
        assert "0/0 checks passed" in out


class TestVerifyFormat:
    ONLY = ("--only", "gauge-membership,square-convexity,contact-point")

    def test_text_table_without_a_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "2", *self.ONLY)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"verification suite for m=2.0, n=2 (seed 0, version {__version__})"
        assert [line.split()[:2] for line in lines[1:-1]] == [
            ["[PASS]", "gauge-membership"], ["[PASS]", "square-convexity"],
            ["[PASS]", "contact-point"]]
        assert lines[-1] == "3/3 checks passed"

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_json_object(self, capsys, tmp_path, how):
        if how == "flag":
            given = ("--format", "json")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("format = json\n")
            given = ("--config", str(cfg))
        code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "2", "--seed", "4",
                               *given, *self.ONLY)
        assert code == 0
        payload = json.loads(out)
        assert {k: payload[k] for k in ("m", "n", "seed", "version", "passed", "total")} == {
            "m": 2.0, "n": 2, "seed": 4, "version": __version__, "passed": 3, "total": 3}
        assert [r["name"] for r in payload["checks"]] == [
            "gauge-membership", "square-convexity", "contact-point"]
        for record in payload["checks"]:
            assert set(record) == {"name", "passed", "detail", "seconds"}
            assert record["passed"] is True and record["seconds"] >= 0.0
        # the same details as the text table
        _, text, _ = run_cli(capsys, "verify", "--m", "2", "--n", "2", "--seed", "4", *self.ONLY)
        rows = {line.split()[1]: line for line in text.splitlines() if line.startswith("  [")}
        for record in payload["checks"]:
            assert f"  {record['detail']}  (" in rows[record["name"]]

    def test_json_failures_keep_exit_code_three(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "200", "--n", "2", "--format", "json",
                               "--only", "kahler-potential,gauge-membership")
        assert code == 3
        payload = json.loads(out)
        assert (payload["passed"], payload["total"]) == (1, 2)
        assert [r["passed"] for r in payload["checks"]] == [True, False]

    def test_csv_is_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--m", "2", "--n", "2", "--format", "csv")
        assert code == 1
        assert "validation error" in err and "csv" in err
        assert out == ""


class TestOneParserPerProcess:
    # main parses with one cached parser: calls in one process, failing
    # ones included, leave nothing behind that a later call would see
    def test_repeated_calls_keep_their_outputs(self, capsys, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        verify = ("verify", "--m", "2", "--n", "3", "--seed", "1")
        first = run_cli(capsys, *verify)
        assert first[0] == 0
        assert run_cli(capsys, *verify, "--bogus")[0] == 1
        assert run_cli(capsys, "--version") == (0, f"{__version__}\n", "")
        assert run_cli(capsys, "kcurve", "--m", "5", "--p1", "0.5", "--count", "8", "--format",
                       "csv", "--out", str(tmp_path / "curve.csv"))[0] == 0
        assert run_cli(capsys, *verify, "--format", "csv")[0] == 1
        last = run_cli(capsys, *verify)

        def masked(result):
            code, out, err = result
            return code, re.sub(r"\(\d+\.\d\ds\)", "(T)", out), err

        assert masked(last) == masked(first)
