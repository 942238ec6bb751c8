"""`egg-metrics verify` text pinned to the byte per (m, n), with its timings masked.

Each digest covers the exit code and the whole text table of one in-process
``verify`` run at seed 0: every check's PASS/FAIL and detail line, so a
change that moves any printed figure names the cell it moved. Timings
("(0.01s)") are masked; the version in the header is not.

The bits depend on the platform's rounding as the one-point pins do, and
the pins are skipped under the same condition. Run this module as a script
to print the digests of the importable package.
"""

import contextlib
import hashlib
import io
import re

import pytest

from eggmetrics import cli
from test_point_pins import ROUNDING, _rounding

M_VALUES = (0.5, 0.75, 1.0, 2.0, 5.0)
N_VALUES = (2, 3)

_TIMING = re.compile(r"\(\d+\.\d\ds\)")


def _verify_text(m: float, n: int) -> str:
    # exit code and timing-masked table of one run
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--m", repr(m), "--n", str(n), "--seed", "0"])
    return f"exit {code}\n" + _TIMING.sub("(T)", buf.getvalue())


def _digest(m: float, n: int) -> str:
    return hashlib.sha256(_verify_text(m, n).encode()).hexdigest()


#: sha256 of ``_verify_text`` per (m, n)
PINS = {
    (0.5, 2):
        "fe07ac492005bfe69e20d14ef84c4e44b99a646e3787206d90b4b64538880539",
    (0.5, 3):
        "4fa0f14449cff86076e442034654d551bc8d99c1198d1fe266a3fc526009c295",
    (0.75, 2):
        "6cb12e2d9634a4c85a22200b8b530efc8b82ab606e01291f9131efc9ce733784",
    (0.75, 3):
        "c1f160b07ad72f0ad5d79f90fd8b48e6fe184aa74cbbe9573e8f5bdff40055d7",
    (1.0, 2):
        "5f595f5fea8dae985915fcbc974f46429e70ce573086fc87205673e69e54f478",
    (1.0, 3):
        "83453e92e91efa47e2d39a7f89acdf2104f31cff2fda6e856cdd4cd4443715a6",
    (2.0, 2):
        "aa4cf51ea0b0831f9961a09b920a3b870350294260c1d5ad8e453474983e1f42",
    (2.0, 3):
        "ad2d6c9df05b1489622151fb1242f1a4e4667e6783fbbaecb1f08b90fec0bb21",
    (5.0, 2):
        "91205c6f72f62f3200acdb35f0d4d65b012693ad7467efc7a1583d0c8dc1e15e",
    (5.0, 3):
        "0d4b53a779c3038c2ad1c8e2b858d3a1711386498dc0dc07df5d1099c334d823",
}


@pytest.fixture(scope="module")
def same_rounding():
    if _rounding() != ROUNDING:
        pytest.skip("this platform rounds pow, exp, log1p or complex abs apart from the one "
                    "the pins were recorded on")


@pytest.mark.parametrize("m,n", [pytest.param(m, n, id=f"m={m!r}-n={n}")
                                 for m in M_VALUES for n in N_VALUES])
def test_verify_text_keeps_its_bytes(same_rounding, m, n):
    assert _digest(m, n) == PINS[m, n]


if __name__ == "__main__":
    for m in M_VALUES:
        for n in N_VALUES:
            print(f'    ({m!r}, {n}):\n        "{_digest(m, n)}",')
