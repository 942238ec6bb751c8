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
        "4ced6fbaaf382bfa6ce1da6398301ae16a1fe64870b939e566d8b99b296f7b88",
    (0.5, 3):
        "325db29df83fbac86536c1338328c78495ec66a06ad1f2401dd68854aa07d3c7",
    (0.75, 2):
        "d2b5981450296dd2069fb5a47fa6ba26308688e0efa84d153cd154a79b95816d",
    (0.75, 3):
        "09fba24a6dd4ae5389bb6e4b512eb57afc323fc218b94196dbe211b195b78fd1",
    (1.0, 2):
        "6421afeca6a93b6968c56a213ac3a714dc6cd7353671532fa05f917c2f991865",
    (1.0, 3):
        "e1eb3415c0e6c57d796f083d1a0f1effd05d436ee796ad3088b4dc5bfa143d7c",
    (2.0, 2):
        "68d86ae8236567cf7d6211261b15aec06ef9432f0d3a47ed7d35d62adff7077a",
    (2.0, 3):
        "7626ee4d7c4aaeb721958ec55d83b0dd29210a6daa75d3aef43e6e95d31eef94",
    (5.0, 2):
        "f83dccf9b8f0d1632068d883b4490f46e78ba1e32b1ed97eb8ceae0189405894",
    (5.0, 3):
        "d8beebb873671b2780adea13fa68c5a8792130ce87ae53a44ff2ac9cf913a28b",
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
