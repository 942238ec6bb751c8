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
        "42c6e9bc86000eca56b9b07787a9dce26c22792647a7f43c075f0473e168f251",
    (0.5, 3):
        "5f978f7529994ca461639aecd6e48ff0052cec68f16440b081360c40047c9025",
    (0.75, 2):
        "c00eb4baf14f19a6c00d7593a57e20503b504fa3f9b72a89ab3892d1aa31b3c7",
    (0.75, 3):
        "dcc2dd69d2895723214e9ed60ac25c8d23ba63648f2ec2fd79cd998488cf9d18",
    (1.0, 2):
        "50ca5535ff8083eef5f592b9f700e7198becd51af2d992938e97eb0608e5ac1c",
    (1.0, 3):
        "d214b3cad2993314e2e1d034b2cfb92b85bf55f9d7a9be31340dbfdba5794bf7",
    (2.0, 2):
        "74a36c9060e78da0abda06ea5f4372cd3161a09a3be793ef136b335a47a80c18",
    (2.0, 3):
        "2778a345e2b8d046bbbe593375c26df67ede84d46d81f8810f2641199485e052",
    (5.0, 2):
        "fd4b210ec6bdd8303847cba0049c8cec3b6fee061cb5d9c3482a7d43e9bb45cc",
    (5.0, 3):
        "850a07827e6483cbfdd7564f16b87296bcfeb312abaf1f3c2153762b0ce567d4",
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
