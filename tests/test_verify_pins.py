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
        "e4f9fb31f394e31b0d146100659608bc6b67d8a89a4f5f38f28b5f18ee40a57c",
    (0.5, 3):
        "b505fedbf1988c6c50424ecd3edac023f0ecfb997a1e1ccf23bda4d02ff1649b",
    (0.75, 2):
        "cc40a165cea4d31c4e9f42c657dee059c7b2b767615cd09a9820944b33fbed1a",
    (0.75, 3):
        "3e3d9be2b24319d3ba7d809ed602996b1ef9621ab2d66b482b773360837e0084",
    (1.0, 2):
        "50ca5535ff8083eef5f592b9f700e7198becd51af2d992938e97eb0608e5ac1c",
    (1.0, 3):
        "445d8e53c5b65dff954aa9846f2a0bf593fd3b98643634a02142b14f505a158e",
    (2.0, 2):
        "33dbbfa5aebca89f1b126ab4e0860801e41c6df94b6ccb04aef42d2cbab0e81c",
    (2.0, 3):
        "5845c244fccbf8989054be8ed0292e37af4acf07bd2ad95e1911f41b280caa31",
    (5.0, 2):
        "564ae6849904b7c33ac70639c77313591c207358e59f9502cab8ab684ed9f7bd",
    (5.0, 3):
        "fcaacc5373b7668b0f9e2085e0d7a9df2ce300df9376d5e256e60c5e9394fd38",
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
