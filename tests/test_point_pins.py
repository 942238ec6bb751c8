"""One-point outputs pinned to the bit: kobayashi, wu_tensor and wu_norm per (m, stratum).

One point carries its real scalars on Python floats, while every power,
exp/log and complex abs and division stays a numpy ufunc on a one-row array
(README, "Array API"). A failure names the cell whose one-point output
moved by a bit. Each digest covers, per point, the repr of
``kobayashi``, the ``wu_tensor`` matrix bytes with its region and source and
the repr of ``wu_norm``, or the type and message of the package error a call
raised; any other exception fails the test.

The bits depend on how this platform's libm and numpy round pow, exp, log1p
and complex abs; ``ROUNDING`` digests a fixed sample of those, and the pins
are skipped where it differs from the platform they were recorded on. Run
this module as a script to print the digests of the importable package;
``--dump PATH`` writes every draw's outputs as JSON lines, and
``--compare A B`` prints per cell the draws that moved between two dumps
and the worst relative move of K, H and the Wu norm.
"""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from eggmetrics import (
    DomainParams,
    EggMetricsError,
    kobayashi,
    reference_coordinate,
    wu_norm,
    wu_tensor,
)
from test_domain import m0_split

M_VALUES = (0.5, 0.75, 1.0, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 5.0, 20.0, 60.0)
STRATA = ("generic", "on-Z", "z1=1e-8", "on-M0", "M0+1e-9", "M0-1e-9", "gauge=1-1e-6",
          "boundary-0-3ulp")
#: points per dimension n in {2, 3, 4} and cell
PER_N = 6


def _unit(rng, k):
    w = rng.normal(size=k) + 1j * rng.normal(size=k)
    return w / np.linalg.norm(w)


def _point(rng, m, n, stratum):
    # a seeded point of the stratum, with random phases and zhat direction;
    # boundary points are (t^(1/2m), sqrt(1 - t)) in (|z1|, |zhat|), and M0
    # points for m > 1 come from ``m0_split``
    zhat = _unit(rng, n - 1)
    phase = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    if stratum in ("generic", "gauge=1-1e-6"):
        t = rng.uniform(0.02, 0.98)
        g = rng.uniform(0.1, 0.95) if stratum == "generic" else 1.0 - 1e-6
        r1, rhat = g * t ** (1.0 / (2.0 * m)), g * math.sqrt(1.0 - t)
    elif stratum in ("on-Z", "z1=1e-8"):
        r1, rhat = (0.0 if stratum == "on-Z" else 1e-8), rng.uniform(0.05, 0.95)
    elif stratum.startswith("M0") or stratum == "on-M0":
        u = rng.uniform(0.04, 0.96)
        u *= {"on-M0": 1.0, "M0+1e-9": 1.0 + 1e-9, "M0-1e-9": 1.0 - 1e-9}[stratum]
        if m <= 1.0:
            # the egg has no M0 here: these cells sit on {2 |z1|^2m + |zhat|^2 = 1},
            # whatever the domain's M0 weight
            t, q = u / 2.0, 1.0 - u
        else:
            t, q = m0_split(DomainParams(m=m, n=n), u)
        r1, rhat = t ** (1.0 / (2.0 * m)), math.sqrt(q)
    else:  # |z1| 0 to 3 ulp below the boundary radius (1 - |zhat|^2)^(1/2m)
        rhat = rng.uniform(0.05, 0.95)
        r1 = math.sqrt(1.0 - rhat * rhat) ** (1.0 / m)
        for _ in range(int(rng.integers(0, 4))):
            r1 = math.nextafter(r1, 0.0)
    return np.concatenate(([r1 * phase], rhat * zhat))


def _cell(m, stratum):
    # (domain, point, vector) triples of a cell, the same on every run
    rng = np.random.default_rng([int(1e9 * m), STRATA.index(stratum)])
    return [(DomainParams(m=m, n=n), _point(rng, m, n, stratum),
             _unit(rng, n) * rng.uniform(0.1, 3.0)) for n in (2, 3, 4) for _ in range(PER_N)]


def _chord_square_cell():
    # chord fits at m = 1/2, n = 4 where (1 - u)^2, u = p1_ref^2, rounds apart
    # as libm's pow (float **) and as numpy squares (a product): the one
    # float path that would drift if a square there ran on float **
    d = DomainParams(m=0.5, n=4)
    rng = np.random.default_rng(4)
    cell = []
    while len(cell) < PER_N:
        z = _point(rng, 0.5, 4, "generic")
        u = reference_coordinate(d, z) ** 2
        if (1.0 - u) ** 2 != (1.0 - u) * (1.0 - u):
            cell.append((d, z, _unit(rng, 4)))
    return cell


def _outputs(d, z, v) -> bytes:
    parts = []
    for call in (lambda: repr(kobayashi(d, z, v)),
                 lambda: _form_bytes(wu_tensor(d, z)),
                 lambda: repr(wu_norm(d, z, v))):
        try:
            out = call()
        except EggMetricsError as exc:
            out = f"{type(exc).__name__}: {exc}"
        parts.append(out if isinstance(out, bytes) else out.encode())
    return b"|".join(parts)


def _form_bytes(form) -> bytes:
    return form.matrix.tobytes() + f"{form.region.value} {form.source}".encode()


def _digest(cell) -> str:
    h = hashlib.sha256()
    for d, z, v in cell:
        h.update(_outputs(d, z, v))
    return h.hexdigest()


def _rounding() -> str:
    # the roundings the pinned bits depend on: numpy's array pow, exp, log1p
    # and complex abs, and libm's pow through float **
    x = np.random.default_rng(0).uniform(1e-3, 2.0, 256)
    h = hashlib.sha256()
    for values in (x ** 0.75, x ** 2.5, np.exp(-3.0 * x), np.log1p(x), np.abs(x + 1j * x[::-1]),
                   np.array([a ** 1.7 for a in x.tolist()])):
        h.update(values.tobytes())
    return h.hexdigest()


#: ``_rounding()`` on the platform the pins were recorded on
ROUNDING = "2eca123852c6b70c568adbaed407883aa5afaa399b05d4d94ba7a729dacf9616"

#: sha256 per (m, stratum) cell, and for the chord-square cell
PINS = {
    (0.5, "generic"):
        "0491b084c04f07cef31c130687fa3c1aa69c260a2bbb10fb73be3324a8e6396a",
    (0.5, "on-Z"):
        "20e79dbfb554d17eb03fe40916d7a2b616ca06f969a7a7259045d11b9c134a6b",
    (0.5, "z1=1e-8"):
        "560d95409470bce2902c35e9df4a5b6aaf4751940a22fac5430909ec15f9fc6f",
    (0.5, "on-M0"):
        "a30ac495b1e38fe0ba855d5eceae94da6876076bbb79243bb3462d8a89d9c126",
    (0.5, "M0+1e-9"):
        "8195ede1001f372a054b65a38b11ec90adae2f1985914969e374d2149ffd3dec",
    (0.5, "M0-1e-9"):
        "20330aaf2e7cee5f7c1fccf0e6c2cff435b9c1abc300b9f2b1b271a73e2a713d",
    (0.5, "gauge=1-1e-6"):
        "f5cf5bac40d7519cb9c38b0b88e627f97a6aee7b99027e6c3458888321dfb9c9",
    (0.5, "boundary-0-3ulp"):
        "a5516fbaf477610b9a2c380d47b78526a636114b556fb592085c1290c86053b9",
    (0.75, "generic"):
        "66ec99274b094a19615e0bc0f545d628a4479e2087d9d13d2189517c64612bdd",
    (0.75, "on-Z"):
        "9fa4ad90bdc2868763b32d3119ccf397509bd822340adf4689311de4a2759409",
    (0.75, "z1=1e-8"):
        "fd32bee291d793a99c1284ada58c9f222e539db8c35e6cede0393f15ac281ab4",
    (0.75, "on-M0"):
        "e998f9ded938640debf09d879a44d64d4aff1ad9d79bd1409993debe478a3e07",
    (0.75, "M0+1e-9"):
        "1744b034691eeac84b0c8eb827629557e6d4fd74d37cd939bfe0f534dfc9169a",
    (0.75, "M0-1e-9"):
        "6e255656116775f221c1b9ad5df3844e405e6f714e9baed8b645e04a72ebdc99",
    (0.75, "gauge=1-1e-6"):
        "80069ca362ad2f90aaf35e344ec7c3f994b61d5301d8d28308c036417d924afe",
    (0.75, "boundary-0-3ulp"):
        "33f9f60e2c200f9a546c52600aeb7cfd39aebe90b20721b62da104ead7e63daf",
    (1.0, "generic"):
        "94a8c94218f1c8c17e5ecffa9210bc2eeb971c32d50735a3f411dfcceffa5fd3",
    (1.0, "on-Z"):
        "45dfdc36686949a1e8e6d228604ed295e6958eafdfd1401ba663883845f828dc",
    (1.0, "z1=1e-8"):
        "8fa20298c38a35bee0bdadb863f5b30f0e0be93ac74407bd12bac04d2517f063",
    (1.0, "on-M0"):
        "270e060740058ed1c3655da24a3fcaddc0f991f9ed3e7a7e42ae8604fa2a720b",
    (1.0, "M0+1e-9"):
        "3b00adc15171556bbd19ea8eb76ce619611a9c780b08f488f0691012a4b721ca",
    (1.0, "M0-1e-9"):
        "e03d9b53c5b946e391f1f70be554299e584a5d5b097c5ccec8480a6d42cc4889",
    (1.0, "gauge=1-1e-6"):
        "dc324f69a46f4ba72222e646f3faadc79dd0419d9cbd682a74c483238525173d",
    (1.0, "boundary-0-3ulp"):
        "3b98e17429bac8bb02f6b4038ed1cb4413dd1853253b6398aa0239fca8eeb4cf",
    (0.9999999, "generic"):
        "5a7f5690d59efbbc786d22129ca51bea2a638840517693cb651968d3bf7390c8",
    (0.9999999, "on-Z"):
        "0d6a8231c87cfa58eea709f6892001ba69626a4b6683042b493c137592fc20d5",
    (0.9999999, "z1=1e-8"):
        "258b4f6c8f5e597479f47f245846ebe0ff5fab2b5e5b4b9dff5c7573271b31ab",
    (0.9999999, "on-M0"):
        "1de2e1505bdb694ae5be4da07c8e2a515baa060c24d034fbf1bd0d2cf707cb6a",
    (0.9999999, "M0+1e-9"):
        "5fcaf97e43e5af2930085f9b525cfac34c24b297759f6df3c3db3fd89cb857cb",
    (0.9999999, "M0-1e-9"):
        "5ae71509f04b550e5ffe87797e74cb2ef9d4a5f7083adc3ac9c5f0cfc1644bad",
    (0.9999999, "gauge=1-1e-6"):
        "99cdc470c9492b178cf775cca240a445c4d92a8889af68092f34a09ac7fd92d0",
    (0.9999999, "boundary-0-3ulp"):
        "e580d22442a8cee6c36d494143544ffbbfd629b45e78ddd0dbf0a12ac6ca6029",
    (1.0000001, "generic"):
        "56e7fb65c5cf4c0f9636cc2a885445efcfd22995754f4f995fa36d47ac08fa02",
    (1.0000001, "on-Z"):
        "d1662c6aa210493ef74d40225670b4c69934cc00a84316e708cb4797e90db1a2",
    (1.0000001, "z1=1e-8"):
        "62b39cb19abf466e3a1a910773f397479a4fb9b53f7b58995c56f368a4a79d86",
    (1.0000001, "on-M0"):
        "82756526e931455de85067324e54f0e60f1c2e5e1b1f42b539f77a24746fa3c3",
    (1.0000001, "M0+1e-9"):
        "9ee072bfe749f97f8a7b4fbbc2207f2d47b2292c3372997b37d6e85db8588d86",
    (1.0000001, "M0-1e-9"):
        "10256de91e422259ed13c897abdeb0498a69dc000cd800829ff38c0d761f0aae",
    (1.0000001, "gauge=1-1e-6"):
        "fd8dae569409e9e0acdfa6957d7201e924852a08eaadf1c8514b8ab3eb1881fa",
    (1.0000001, "boundary-0-3ulp"):
        "9e2149dc23568ac1cad46a663e5f32d9d3cd0386d0fe1dd60609e25be315c8cc",
    (2.0, "generic"):
        "31aeb5d93c4b09c0a5bfb87eda035d80da30f3472cdb34444f1f2453eaf5697c",
    (2.0, "on-Z"):
        "a47c1faf0b8bfc1d59be05395d0175818015df4e570b034749ec699a0b8ad72b",
    (2.0, "z1=1e-8"):
        "a9783f0eb7780d6bc9b766a815bb652d312553277b2aa4d95fc8be76badf154a",
    (2.0, "on-M0"):
        "b18b3d07a489ec5ee490050d2862d85258c7e9185bdd9d91defce62d99b0161f",
    (2.0, "M0+1e-9"):
        "7de339f7da3c96c3d516e9f72007984947cc0574a8d77d50dedc769d03daa761",
    (2.0, "M0-1e-9"):
        "69f62978377749ce40ecf11cad929d9f26fafffaccb2e3ffc447583d86e81d1d",
    (2.0, "gauge=1-1e-6"):
        "724c9b1cb336c03c29c9baa619d0f5e32309d5e2b9d881024fe2f5b8553f9140",
    (2.0, "boundary-0-3ulp"):
        "ea12ddcdbdc32d4cd5b53344a1d77a55cf9e01831e76a3fd82ec87f2d305c82d",
    (5.0, "generic"):
        "8985a8d8b8fdb2bc79add969d10d5b473b31c3c53e3acb3977d3104cf071674c",
    (5.0, "on-Z"):
        "c47bd18993d05affb6d32d2f27f6093d5d9b6492684fa84d98b38f936d796f22",
    (5.0, "z1=1e-8"):
        "193836c2d61e97d41cfa398b0a332a8482f29c6b0f59ae551dc6264af40b3479",
    (5.0, "on-M0"):
        "fb3abe7732304511c0657cc5b89c8a8940a298b3c1ca79c166bbc8b8aaf445bf",
    (5.0, "M0+1e-9"):
        "abbe8a32c4e5f902ce414f96f6cd2e58d47afa7bfa19466d768524a515545d7d",
    (5.0, "M0-1e-9"):
        "ad260e7d7fce0d2a58987018846db0675ef8c07baab97bbc01a612588bd2c63f",
    (5.0, "gauge=1-1e-6"):
        "c8dc8b3c7985896fad062f9712d50a54ad8b433fba0c75fa5651eb7171f14d2a",
    (5.0, "boundary-0-3ulp"):
        "fe2291a16ba321962e46c1c904bf80d5a62e0627c7d35f54638dd26a141d756e",
    (20.0, "generic"):
        "52f02bf7d87cafa9ea411e89fd9f177c6ec640bfc8318d06966acbd034bc9759",
    (20.0, "on-Z"):
        "47eff73e0ae65a69f2fdba5567164c9a32e03c4d251e3c6ed918d7d66a3d3d00",
    (20.0, "z1=1e-8"):
        "7e5bbe6fcdbf58d373003676745e32ec4ec1a9e273b082ffa8ffe5300e84cb58",
    (20.0, "on-M0"):
        "5b0b856faaeda9df08f683004bb19378434055d12aa2f7704a1bdc4c897b05e7",
    (20.0, "M0+1e-9"):
        "b5a70d4d3ce4b6b84a80fee1335762653efdf1091b2723d04283a6c9c38cbafb",
    (20.0, "M0-1e-9"):
        "d2a7eeb516461f748c3546e28823403ef60ffe62393e7f3955e7eab98ba210a5",
    (20.0, "gauge=1-1e-6"):
        "5a26fad9f68dabd83cd76c2f2e76a4bed2da843c3ddf4f048e2a8f899174294c",
    (20.0, "boundary-0-3ulp"):
        "e5a828ca5aea78a28b258254bc0daedac9f48346970d225d68e8f11a91676590",
    (60.0, "generic"):
        "465a6763bbe7e610b9c37a6f719a3d559b46cdc7e4fe7e0e58f131835854afa2",
    (60.0, "on-Z"):
        "425b1bda86566b793653a2f7d5bd4fdc3314cb8d1cb5d3a60efad6b4362f4525",
    (60.0, "z1=1e-8"):
        "8d89857ba70f6fe26dd4d2eb575cdffa7e10412d4a06f28b1db42ea7589ed617",
    (60.0, "on-M0"):
        "b8c661bbe76e6f13d9c9c950ee01c00a6fe78a3bdbe5df794ddfa5415f7d32f2",
    (60.0, "M0+1e-9"):
        "f67b621a5920faf28a8f14a4a080d8ea59ed27e55d7281e5e0d7bfcfe89bca68",
    (60.0, "M0-1e-9"):
        "20d5bc7058edd3c34d8b2125df47dab5a870ac6f0dfbe5a31216c5e132b05482",
    (60.0, "gauge=1-1e-6"):
        "badc5acc0041acf4c8d9af332748fa53e68f61fc23974c66ce14a39b1b9ea2d2",
    (60.0, "boundary-0-3ulp"):
        "7b4f1ac1d7637afb47726792e442fc042a631ae2650b641867c56296d20a8bce",
    "chord-square":
        "68917b190f0910a0fedf4d3da8a43ba47775d985718f2b8a326aa6a700c453d8",
}

CELLS = [pytest.param(m, s, id=f"m={m!r}-{s}") for m in M_VALUES for s in STRATA]


@pytest.fixture(scope="module")
def same_rounding():
    if _rounding() != ROUNDING:
        pytest.skip("this platform rounds pow, exp, log1p or complex abs apart from the one "
                    "the pins were recorded on")


@pytest.mark.parametrize("m,stratum", CELLS)
def test_one_point_outputs_keep_their_bits(same_rounding, m, stratum):
    assert _digest(_cell(m, stratum)) == PINS[m, stratum]


def test_chord_squares_keep_their_bits(same_rounding):
    assert _digest(_chord_square_cell()) == PINS["chord-square"]


def _record(d, z, v) -> dict:
    # one draw's three outputs as JSON values: a float, the tensor's entries as [re, im]
    # pairs with its region and source, or the type and message of the package error
    def run(call):
        try:
            return call()
        except EggMetricsError as exc:
            return f"{type(exc).__name__}: {exc}"

    form = run(lambda: wu_tensor(d, z))
    if not isinstance(form, str):
        form = {"matrix": [[c.real, c.imag] for c in form.matrix.ravel().tolist()],
                "tag": f"{form.region.value} {form.source}"}
    return {"kobayashi": run(lambda: kobayashi(d, z, v)), "wu_tensor": form,
            "wu_norm": run(lambda: wu_norm(d, z, v))}


def dump(path):
    """Write every pinned draw's outputs to ``path``, one JSON line per draw."""
    cells = [(m, s, _cell(m, s)) for m in M_VALUES for s in STRATA]
    cells.append((0.5, "chord-square", _chord_square_cell()))
    with open(path, "w") as out:
        for m, stratum, cell in cells:
            for i, (d, z, v) in enumerate(cell):
                line = {"m": m, "stratum": stratum, "n": d.n, "draw": i, **_record(d, z, v)}
                out.write(json.dumps(line) + "\n")


def _move(a, b) -> float:
    # the relative move of one output from a to b: 0 where equal, inf where an error
    # appears, goes or changes; a tensor moves by max |dH| / max |H|
    if a == b:
        return 0.0
    if isinstance(a, str) or isinstance(b, str):
        return math.inf
    if isinstance(a, dict):
        if a["tag"] != b["tag"]:
            return math.inf
        A, B = (np.array(x["matrix"]) for x in (a, b))
        return float(np.max(np.hypot(*(A - B).T)) / np.max(np.hypot(*A.T)))
    return abs(b - a) / abs(a) if a else math.inf


def compare(path_a, path_b):
    """Print, per (m, stratum), the moved draws and the worst relative move of each output."""
    cells = {}
    with open(path_a) as fa, open(path_b) as fb:
        for la, lb in zip(fa, fb):
            a, b = json.loads(la), json.loads(lb)
            moves = [_move(a[k], b[k]) for k in ("kobayashi", "wu_tensor", "wu_norm")]
            cell = cells.setdefault((a["m"], a["stratum"]), [0, 0, 0.0, 0.0, 0.0])
            cell[0] += any(moves)
            cell[1] += 1
            cell[2:] = [max(x, y) for x, y in zip(cell[2:], moves)]
    print(f"{'m':<10} {'stratum':<17} {'moved':>7} {'K':>8} {'H':>8} {'wu':>8}")
    for (m, stratum), (moved, total, *worst) in cells.items():
        print(f"{m!r:<10} {stratum:<17} {f'{moved}/{total}':>7} "
              + " ".join(f"{w:8.1e}" for w in worst))


if __name__ == "__main__":
    # no argument: the digests; --dump PATH: every draw's outputs as JSON lines;
    # --compare A B: the moves between two dumps, per cell
    if sys.argv[1:2] == ["--dump"]:
        dump(sys.argv[2])
    elif sys.argv[1:2] == ["--compare"]:
        compare(*sys.argv[2:4])
    else:
        print(f'ROUNDING = "{_rounding()}"')
        for m in M_VALUES:
            for s in STRATA:
                print(f'    ({m!r}, "{s}"):\n        "{_digest(_cell(m, s))}",')
        print(f'    "chord-square":\n        "{_digest(_chord_square_cell())}",')
