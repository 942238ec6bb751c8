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
        "1235dd958d8593c9b0f7991cbb9133eb177b49fa57e91481d0bab9185775d35e",
    (1.0, 3):
        "a0f7ec1783cf1009dd4ba1848983046624b0626f279bc21e97a1265724bb6f24",
    (2.0, 2):
        "85dfc1f6ba2d0004a8acfd64f39abd66ebd5e2387da0ab544df4ebd1889ba7e6",
    (2.0, 3):
        "ebe0b1698d03818b8625fd2ee37b02b589b6bcf5495b39a45388d43cca36c413",
    (5.0, 2):
        "89ff3069eacda91428089ad2d298c76ee887a115d192be8c1e6d550a7c895fe0",
    (5.0, 3):
        "023596a8e6392b77b45c613c77bb850540e074b57a0dd1878b909ec62d223d4c",
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
