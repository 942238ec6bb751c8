"""`egg-metrics` output pinned to the byte per command, format and (m, n).

Each digest covers the exit code, stdout and stderr of one in-process
``main`` call: the JSON payloads of ``region``, ``eval``, ``tensor``, ``fit``
and ``smoothness-scan``, ``kcurve`` and ``curvature-scan`` in JSON and CSV,
settings read from a ``--config`` file, and a few refusals. A change to how
the CLI resolves its settings or writes its record names the command whose
bytes it moved.

The bits depend on the platform's rounding as the one-point pins do, and
the pins are skipped under the same condition. Run this module as a script
to print the digests of the importable package.
"""

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from eggmetrics import cli
from test_point_pins import ROUNDING, _rounding

#: id -> (argv, config file text or None); the config file's path follows argv
CASES = {
    "region-m2-n2": (("region", "--m", "2", "--n", "2", "--point", "0.9,0"), None),
    "region-m0.75-n3": (("region", "--m", "0.75", "--n", "3", "--point", "0.3:0.1,0.2,0.1"), None),
    "eval-m2-n2": (("eval", "--m", "2", "--n", "2", "--point", "0.5,0", "--vector", "0,1"), None),
    "eval-m5-n3": (("eval", "--m", "5", "--n", "3", "--point", "0.2,0.3:0.1,0",
                    "--vector", "1,0.5,0:1"), None),
    "eval-m0.75-n2": (("eval", "--m", "0.75", "--point", "0.4:0.2,0.1", "--vector", "1,1"), None),
    "tensor-m2-n2": (("tensor", "--m", "2", "--n", "2", "--point", "0.3,0.2"), None),
    "tensor-m0.75-n3": (("tensor", "--m", "0.75", "--n", "3", "--point", "0.3,0.2,0:0.1"), None),
    "tensor-m20-n2": (("tensor", "--m", "20", "--point", "0.001,0.2"), None),
    "fit-m2": (("fit", "--m", "2", "--p1", "0.5"), None),
    "fit-m0.75": (("fit", "--m", "0.75", "--p1", "0.5"), None),
    "fit-m5-n3": (("fit", "--m", "5", "--n", "3", "--p1", "0.3"), None),
    "kcurve-json": (("kcurve", "--m", "2", "--p1", "0.5", "--count", "16"), None),
    "kcurve-csv": (("kcurve", "--m", "2", "--p1", "0.5", "--count", "16", "--format", "csv"),
                   None),
    "kcurve-csv-m0.75-n3-upper": (("kcurve", "--m", "0.75", "--n", "3", "--p1", "0.4",
                                   "--count", "8", "--branch", "UPPER", "--format", "csv"), None),
    "curvature-scan-json": (("curvature-scan", "--m", "2", "--p1-range", "0.3:0.9",
                             "--count", "3", "--seed", "7"), None),
    "curvature-scan-csv": (("curvature-scan", "--m", "2", "--p1-range", "0.3:0.9",
                            "--count", "3", "--seed", "7", "--format", "csv"), None),
    "curvature-scan-csv-m0.75-n3": (("curvature-scan", "--m", "0.75", "--n", "3",
                                     "--count", "2", "--format", "csv"), None),
    "smoothness-scan-z": (("smoothness-scan", "--m", "0.75", "--seam", "Z", "--orders", "1",
                           "--paths", "1", "--seed", "42"), None),
    "smoothness-scan-m0": (("smoothness-scan", "--m", "2", "--seam", "M0", "--orders", "1,2"),
                           None),
    "smoothness-scan-junction": (("smoothness-scan", "--m", "5", "--n", "3",
                                  "--seam", "JUNCTION"), None),
    "config-region": (("region", "--point", "0.9,0,0"), "m = 2.0\nn = 3\nseed = 9\n# note\n"),
    "config-eval-flag-wins": (("eval", "--m", "0.75", "--point", "0.4,0.1", "--vector", "1,0"),
                              "m = 2\ntol = 1e-8\n"),
    "config-kcurve-csv": (("kcurve", "--p1", "0.3", "--count", "8"), "format = csv\nm = 5\n"),
    "config-curvature-scan-json": (("curvature-scan", "--count", "2", "--directions", "6"),
                                   "format = json\nseed = 3\nm = 1.5\n"),
    "refused-config-format": (("region", "--point", "0.1,0"), "format = xml\n"),
    "refused-config-n": (("region", "--point", "0.1,0"), "n = 2.0\n"),
    "refused-csv": (("fit", "--m", "2", "--p1", "0.5", "--format", "csv"), None),
    "refused-kcurve-m60": (("kcurve", "--m", "60", "--p1", "1e-5", "--count", "16"), None),
}


def _cli_text(case: str) -> str:
    # exit code, stdout and stderr of one run, the config file written to a fresh directory
    argv, config = CASES[case]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config)
            argv = (*argv, "--config", path)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    return f"exit {code}\n{out.getvalue()}\nstderr\n{err.getvalue()}"


def _digest(case: str) -> str:
    return hashlib.sha256(_cli_text(case).encode()).hexdigest()


#: sha256 of ``_cli_text`` per case
PINS = {
    "region-m2-n2":
        "fdb53e9ee3a90dfd637febe946a5bebc3234886357b544c3f785979e8e2f7ce5",
    "region-m0.75-n3":
        "8ff65b7fba5e7bdf150f8ea0719e0506dab592ce38b40d8d7b3d88aebb5f42cb",
    "eval-m2-n2":
        "9f0c599e5879a59e6bb38e168e2ca9ce785028e29edf0f4fa1636cbc2eb9fcb9",
    "eval-m5-n3":
        "422f4f98b9e1d9db35c3c7cf062b88f1534d07a4d1b1d548bd220f0f6a6deefd",
    "eval-m0.75-n2":
        "2e31f291afe157051039850170670b6bd0390bb8192b3fbda0a27d74e9b376b0",
    "tensor-m2-n2":
        "67fddb678552bfac27015b192121415fec3f5e9bb80dee3584436d0d5c035dd5",
    "tensor-m0.75-n3":
        "ddfa18e3b54fb6cf839e2aff1e70ea3ced9218e4ee44ae411cd1e8e9dde3dbbd",
    "tensor-m20-n2":
        "b0c66e710a5973855b6c9caaae1a6f953d46be1c40448a99e3dc211e325c11d2",
    "fit-m2":
        "e039d40442123f9b002ab9f03fdb6e483724a2e6d8090e20d07621c803e194a3",
    "fit-m0.75":
        "d2cd657d8eccef3d7d9d3945552df246150334babb22e3c9da7f6d3fa903915b",
    "fit-m5-n3":
        "5ae6479e0b45e8ec11f8517f1187bd9e9f36e2188a003777b29585783b771935",
    "kcurve-json":
        "f43c97b47d20018b0337ca7956c2259d997314d53879763c5e341d0c91252569",
    "kcurve-csv":
        "c919e39f4f46622ef215af83cea5f4d54f8b62fbf38192971258e49ccd7ec38b",
    "kcurve-csv-m0.75-n3-upper":
        "92e8e717917b74d5a2ca2fff3610545152c49cfea64176df5cd001e9e277f6c2",
    "curvature-scan-json":
        "d7044ec3b687a1eabd2b36afb30b9dc9321e179fe7c6b666f7e23f14a1305dd0",
    "curvature-scan-csv":
        "b5a3ab4a36d58bebe5f4f097370453e5adc7e4121001d50d51818f0aeb31a60d",
    "curvature-scan-csv-m0.75-n3":
        "f41e029b82fd21329ff01ccfcd91cb1ea4efc0c0168d70540dc04e07c60a51b7",
    "smoothness-scan-z":
        "2f9c45ee508796bca9e72a56437c0e56e93c74fc137fba1f124507176f129c06",
    "smoothness-scan-m0":
        "0127a1d639cd4e74fb82260e484426d97c379b7d8a3138d75c8861ca4cc7bf3f",
    "smoothness-scan-junction":
        "d978cb29d4b2644411bab50c92572d56a69fe4cd8fdd3cf8a4f6afdd946b9c0e",
    "config-region":
        "dd904be3b4a914b10a05ec11b47a96b68679a9b4fb02acb7de0fc86aca081133",
    "config-eval-flag-wins":
        "2d87bb68e59ef6c4465e8a3a1cf0603bbcaf6e87efeaa7af8740153399b7ee67",
    "config-kcurve-csv":
        "083aaebe059577d6e33556bddd07d866085aa6f48d76244ed22a1fef98e29483",
    "config-curvature-scan-json":
        "176c27502253aa73904c15e9fb23152771e73b04ec6d4e48d22d442bf96736a0",
    "refused-config-format":
        "cabfd19d8e588a3b283789e63f1c0d51367ccf33988915634f2f242a617c7076",
    "refused-config-n":
        "5793f1612642e21c33ea59d5ef131515a214748a06fbdf2e1ab6fe868caeceb4",
    "refused-csv":
        "d61500d9ac03b0e05a226c7cdfb763dfa78dbabd8962a9a8a3e1793c7e82a778",
    "refused-kcurve-m60":
        "1759af40bb1e947a27ffaf77e534df4cae61f5faa60f6d747e7406b0c5a15ca1",
}


@pytest.fixture(scope="module")
def same_rounding():
    if _rounding() != ROUNDING:
        pytest.skip("this platform rounds pow, exp, log1p or complex abs apart from the one "
                    "the pins were recorded on")


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_keeps_its_bytes(same_rounding, case):
    assert _digest(case) == PINS[case]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}":\n        "{_digest(case)}",')
