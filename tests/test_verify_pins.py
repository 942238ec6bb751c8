"""`egg-metrics verify` text pinned to the byte per (m, n), with its timings masked.

Each digest covers the exit code and the whole text table of one in-process
``verify`` run at seed 0: every check's PASS/FAIL and detail line, so a
change that moves any printed figure names the cell it moved. Timings
("(0.01s)") are masked; the version in the header is not.

The bits depend on the platform's rounding as the one-point pins do, and
the pins are skipped under the same condition. Run this module as a script
to print the digests of the importable package; ``--table PATH`` writes the
timing-masked text of the 54 runs of ``TABLE`` as JSON lines, and
``--compare A B`` prints per (m, n, seed) the detail lines that moved
between two tables and any change in the set of FAIL rows or the exit code.
"""

import contextlib
import hashlib
import io
import json
import re
import sys

import pytest

from eggmetrics import cli
from test_point_pins import ROUNDING, _rounding

M_VALUES = (0.5, 0.75, 1.0, 2.0, 5.0)
N_VALUES = (2, 3)

_TIMING = re.compile(r"\(\d+\.\d\ds\)")


#: the (m, n, seed) runs of ``--table``: the strata of m, n up to 4 and two seeds
TABLE = [(m, n, seed) for m in (0.5, 0.75, 1.0, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0)
         for n in (2, 3, 4) for seed in (0, 1)]

#: one row of the text table: status, check name and detail
_ROW = re.compile(r"\s*\[(PASS|FAIL)\] (\S+)\s+(.*?)  \(T\)$")


def _verify_text(m: float, n: int, seed: int = 0) -> str:
    # exit code and timing-masked table of one run
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--m", repr(m), "--n", str(n), "--seed", str(seed)])
    return f"exit {code}\n" + _TIMING.sub("(T)", buf.getvalue())


def _digest(m: float, n: int) -> str:
    return hashlib.sha256(_verify_text(m, n).encode()).hexdigest()


#: sha256 of ``_verify_text`` per (m, n)
PINS = {
    (0.5, 2):
        "1708d206d5d470f485e8e88eb741402ab7c9dbd6a345b303fb966d5679474341",
    (0.5, 3):
        "af27ab576b81ed9288803bd8bfb987750f03fbd54f843ce20cb3b7cd4d17a483",
    (0.75, 2):
        "55fe78630ccc8bd6d723fd350b4d2a0189cb374b62a232022dc29d373935b7fa",
    (0.75, 3):
        "e5de2de8721ee4065c6f787fb9b98733927c855d2bd083fec9d704f4b4036aa7",
    (1.0, 2):
        "dd2f20b69fdb3675f18d486e8730358fe826f13e3895eccf94799624b99a6283",
    (1.0, 3):
        "d23c5b49953f03810830c4c7e5e237689b744a4df05211f5092bc51bf1855225",
    (2.0, 2):
        "999406aece44e19992a54f6ef5e2fc5786f4f65725f73ae982ce892d378b325b",
    (2.0, 3):
        "71f2ec4a638d8e220cfdf5a553329ff3f4b83acfe8e78c3d398bc33a26b15596",
    (5.0, 2):
        "4e5246123964935ab54c433005eac8bf43976c7e7824f6f116a6c875c5dd1308",
    (5.0, 3):
        "1bd5699bbb073051d6c4cc70defc915812b0a037535e2ac380f0e2be312addd0",
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


def table(path):
    """Write the timing-masked text of every ``TABLE`` run to ``path``, one JSON line per run."""
    with open(path, "w") as out:
        for m, n, seed in TABLE:
            out.write(json.dumps({"m": m, "n": n, "seed": seed,
                                  "text": _verify_text(m, n, seed)}) + "\n")


def _rows(text: str) -> dict:
    # {check name: (status, detail)} of one run's text
    return {name: (status, detail) for status, name, detail in
            (row.groups() for row in map(_ROW.match, text.splitlines()) if row)}


def compare(path_a, path_b):
    """Print, per (m, n, seed), the detail lines that moved and any change of FAIL set or exit."""
    moved = 0
    with open(path_a) as fa, open(path_b) as fb:
        for la, lb in zip(fa, fb, strict=True):
            a, b = json.loads(la), json.loads(lb)
            ra, rb = _rows(a["text"]), _rows(b["text"])
            lines = [f"  {name}: {ra.get(name, ('-', '-'))[1]}  ->  {rb.get(name, ('-', '-'))[1]}"
                     for name in dict.fromkeys([*ra, *rb]) if ra.get(name) != rb.get(name)]
            fails = [{name for name, (status, _) in r.items() if status == "FAIL"}
                     for r in (ra, rb)]
            if fails[0] != fails[1]:
                lines.append(f"  FAIL set: {sorted(fails[0])}  ->  {sorted(fails[1])}")
            codes = [r["text"].splitlines()[0] for r in (a, b)]  # "exit N"
            if codes[0] != codes[1]:
                lines.append(f"  {codes[0]}  ->  {codes[1]}")
            if lines:
                moved += 1
                print(f"m={a['m']!r} n={a['n']} seed={a['seed']}")
                print("\n".join(lines))
    print(f"{moved} of {len(TABLE)} runs moved")


if __name__ == "__main__":
    # no argument: the digests; --table PATH: the TABLE runs' text as JSON lines;
    # --compare A B: the moves between two tables, per run
    if sys.argv[1:2] == ["--table"]:
        table(sys.argv[2])
    elif sys.argv[1:2] == ["--compare"]:
        compare(*sys.argv[2:4])
    else:
        for m in M_VALUES:
            for n in N_VALUES:
                print(f'    ({m!r}, {n}):\n        "{_digest(m, n)}",')
