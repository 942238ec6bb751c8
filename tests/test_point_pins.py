"""One-point outputs pinned to the bit: kobayashi, wu_tensor and wu_norm per (m, stratum).

One point carries its real scalars on Python floats, while every power,
exp/log and complex abs and division stays a numpy ufunc on a one-row array
(README, "Array API"). The digests below were recorded when one point still
ran the row code on (1, n) arrays, so a failure names the cell whose
one-point output moved by a bit. Each digest covers, per point, the repr of
``kobayashi``, the ``wu_tensor`` matrix bytes with its region and source and
the repr of ``wu_norm``, or the type and message of the package error a call
raised; any other exception fails the test.

The bits depend on how this platform's libm and numpy round pow, exp, log1p
and complex abs; ``ROUNDING`` digests a fixed sample of those, and the pins
are skipped where it differs from the platform they were recorded on. Run
this module as a script to print the digests of the importable package.
"""

import hashlib
import math

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
        "bd8cc752bf17876c8145152b36924fa6c97ad20e771b176e6f5a3e070b452222",
    (0.5, "on-Z"):
        "469d80871f0362dc13defb367c10dc25d85859fd9035335aa0cb0c8490f01a63",
    (0.5, "z1=1e-8"):
        "431edfcae31e169e993900f5cf6cc7ca8cb529846afcfef9da86d6ab3a2f8ab5",
    (0.5, "on-M0"):
        "d5628dd9e2fa315fbe0c5885431668f480539d579ac5ca6f01f9b00553ce986b",
    (0.5, "M0+1e-9"):
        "7653de7d3dcf04a8694b3ea95c5b69c64bbc575544b6cea32a4e9406c2abb68b",
    (0.5, "M0-1e-9"):
        "0311405e58ead7512858e70dfa31b05331463713bd2782ac72dd2c28f76c5ea9",
    (0.5, "gauge=1-1e-6"):
        "6e4b9e8a758066477c6c836b8f17a253da70243dad63a755bd9c8decdb4469a7",
    (0.5, "boundary-0-3ulp"):
        "cc782a472e36dfa2fdabe9ea13c62fbd5892d7dbc5e401d096636d52f40d844a",
    (0.75, "generic"):
        "03be8fb084b55314a9d83b79a5f6d04ac0f53695ebbd07b91c564a911f5c64d3",
    (0.75, "on-Z"):
        "fcf78112d688a0ab74e13163354b3c5c3e1be043dd9239fc499f4f5ef88e4748",
    (0.75, "z1=1e-8"):
        "046324d04dc4019bf5ebe7a066cba0335d271f8516532a79baf0e89e44eee77e",
    (0.75, "on-M0"):
        "ce287f65c6b6b6f1cd8a378786fc081797c263ad5399ede8edb03c475c49b476",
    (0.75, "M0+1e-9"):
        "8d89789f7d385522446ab53d999ebf242ad4f0177ca5b3bced6d3b59776c9597",
    (0.75, "M0-1e-9"):
        "d804bf719f8457837c59a1c441b32c17975208908802e11d38d548d69aaee42a",
    (0.75, "gauge=1-1e-6"):
        "6ff0886efaf16ab791030dfb7c8a03f1392c63a8fd9f0e545b09502211ac1e0a",
    (0.75, "boundary-0-3ulp"):
        "5f3dd8ace92bf5d3fb6b7fb3cc48db7981cfff187aa87f2a3eec705f2ce016c4",
    (1.0, "generic"):
        "adb1b520059647f61185319635ba6270cce10fa5c0514d961091d28242830492",
    (1.0, "on-Z"):
        "a7a31630d08e152abf0367b7323c8e7a63dce7c589fcf1cdf3893554a1b58d6c",
    (1.0, "z1=1e-8"):
        "a2760fe25a3a5f2f0015c7e94d165b41adf66b975f3de71ea689ac509007eece",
    (1.0, "on-M0"):
        "05180e34d7294efd7d77eb4b104ea6dfc9fc5afbf201157c1497284fe6d56f2f",
    (1.0, "M0+1e-9"):
        "f288e56beba80b687ea4a47a06f7420fe6e324fd77a94c884507162536eaf5a7",
    (1.0, "M0-1e-9"):
        "31578a2c306145059e90ba4835147ce2e78228cc0b91a454d6989ab5f9a21406",
    (1.0, "gauge=1-1e-6"):
        "3ba537fdc74c0baa4a7f6b7aa6980aa870a67a495a018b64743f6226eef1dc2b",
    (1.0, "boundary-0-3ulp"):
        "893fe28f35a1b926730c2d457d2f5389a68c11d7368eb3e57692758b569546f6",
    (0.9999999, "generic"):
        "f04a19dd1bbf77155290cf7ad5bd618a51b08af85db3d34066e49c3bb99ec3f2",
    (0.9999999, "on-Z"):
        "b0d008b92b1ba05ada414efde01972a33841ae11c0290c00aab16d627989bf06",
    (0.9999999, "z1=1e-8"):
        "89dd137dc83a73a11776af8f151f934b335006c2923e1ef00734951cc2cecd75",
    (0.9999999, "on-M0"):
        "ec462d3ab96d64d7ab7d79d340364a7dd9ef1ee3932234a245fad734a6ce8c6d",
    (0.9999999, "M0+1e-9"):
        "902c7b3b66ecad352dddcb1f2c2cef9e17496e983ba3adb5cd7b3832e2991eb9",
    (0.9999999, "M0-1e-9"):
        "96b6a3bde895af6849c1326bc0a3047724134b5097929cf862a7a81c5047ebec",
    (0.9999999, "gauge=1-1e-6"):
        "c3af5411414a253f92214e61d937d9ff2b52482d1a39896292d04fecdf4352c3",
    (0.9999999, "boundary-0-3ulp"):
        "abc2ed3862939b5a07db00d5d2b62c22acb68a9e6f23029cd5a760c2aae5bf5a",
    (1.0000001, "generic"):
        "313d667a33677ef47b7562b61d496cfa8ada0df6e8db1640411a13e7cd43f0ea",
    (1.0000001, "on-Z"):
        "1dde4d007fe86c9745253bd3056da4c8c7b438ec56903735bea1b89398218d69",
    (1.0000001, "z1=1e-8"):
        "173475cb7f8db81f939c630d31426b59163ca153b0186655bb2aa23db65d55ed",
    (1.0000001, "on-M0"):
        "7646d10a64df7aa645b9f26ee3d33671e881e8645dcbdbd3015c32dd78aa3fd6",
    (1.0000001, "M0+1e-9"):
        "fbeb6e5db025d01b451fdfefb1b41b51191a636d53608c534988616c0cab0a87",
    (1.0000001, "M0-1e-9"):
        "674f00e875ad0b165109d246e00f4f235d94f3a4352be7bb4ee24abdde2564dc",
    (1.0000001, "gauge=1-1e-6"):
        "058d4c2bf4b39f1851275d4a01e7b6c7ead9da54348040ee43fc8be920a6415b",
    (1.0000001, "boundary-0-3ulp"):
        "399ac155732c0ee58ff209935d882af85ef25aa3c4f3f6ce2c92c79af9c56fa4",
    (2.0, "generic"):
        "7a579b3f295c4e9bc2aa0568a8578ab3d93c2a5943266b8d383ed2d0a7de57ea",
    (2.0, "on-Z"):
        "321d17db6fb1b07d4780b6e544a5bac0545e3d894c3ca2efb3345e0ef83e1e41",
    (2.0, "z1=1e-8"):
        "768b4cc062213318e767deb78e77af72453e2b1057e6c1cafbb0a874c9ee567b",
    (2.0, "on-M0"):
        "c6f1e6f1bc4f8195e2635b423809a8edaa104753cd5955a741d2bb924561e7c9",
    (2.0, "M0+1e-9"):
        "5e6ad708dd6b8d4c2690915d1d952aa7fbb5413f5e8cb4439bf8f34ceddd8dd1",
    (2.0, "M0-1e-9"):
        "510d1eac94d0519b6b1f5c02306c101bde11cd2d71d385fb228499af86d26e28",
    (2.0, "gauge=1-1e-6"):
        "57625e89a376228a33c3bee2e62c350b832c5e057d89d8bb071230aeee9fecc8",
    (2.0, "boundary-0-3ulp"):
        "990edf269d036f8df1b066032c733001f252938d1961291837ed08be80d6c7c5",
    (5.0, "generic"):
        "1fc43f5566f48f3007c6bff65221bd8d748537f5f54a52cae3b456dd549dfcdc",
    (5.0, "on-Z"):
        "7ced665b5623937fdb1787db703be7b7564515fc41634cce49b6d1754ce16220",
    (5.0, "z1=1e-8"):
        "3afe963bce824722384c8b0cf592f5da9a0f5afeb2155ee600b4fd95b54dce63",
    (5.0, "on-M0"):
        "f200dc7c73a3bb38dd282db874ab5fa0c698b32aa945ae20dfd46be6673c5296",
    (5.0, "M0+1e-9"):
        "2eba784e00ab2d9d1175e8e5b22342549aa90e460e05c57c83998a5e5c807b78",
    (5.0, "M0-1e-9"):
        "02873a8f93efb0af91e3130559d056e9d8087116ad61d83fc82734a52f54690d",
    (5.0, "gauge=1-1e-6"):
        "f552f19f7dbb5ac4e0abf908d47a43cd85720a3b70e88e52119680a405b013c6",
    (5.0, "boundary-0-3ulp"):
        "cb6792a6ae31309b62404f77e8fbf1157c3dd1eedeb83546258f989845a56f3f",
    (20.0, "generic"):
        "ee893ea2c6a9cac196cf24c7e822715e28a0100b68324e011ca5c495f48a0b21",
    (20.0, "on-Z"):
        "4182880fc2be54fc1efa3ad5464cf3dd646caf76034b3900db0d8f059241587e",
    (20.0, "z1=1e-8"):
        "b0f737b72aec6f84d8803ec54411ee8a2d3142bbe1c4cdbacaaab7740ce300fb",
    (20.0, "on-M0"):
        "7d0e3f6f52918cb16ef8c8addcd4f2e7a4a25a813552e6d0122e2f707d4e0e88",
    (20.0, "M0+1e-9"):
        "2476d9f3f181c8d3d9b4d7bc7a67c1ecda3c5f88adce19e5aa2e5f0e460a2a09",
    (20.0, "M0-1e-9"):
        "e2e6b4402c9c47e4a1f51e8694889949426b334f3f8208b96047ca1a4a3774d7",
    (20.0, "gauge=1-1e-6"):
        "b9ce03153e1acdd657def593b5a5a32870e7374b1fc38cfc109f9db8b8d476d1",
    (20.0, "boundary-0-3ulp"):
        "a6344d901a3164fee2e1b345b10af93c294d481bb0dbb89e10741f4286fcb733",
    (60.0, "generic"):
        "dadb7d02d5d59f8b3de8b4c4886fa236a49eea8f006d213dced651486ca482b5",
    (60.0, "on-Z"):
        "05ffd3ce56968524bf232f1d6822dd69385b32b607cd304172b2617d60da2507",
    (60.0, "z1=1e-8"):
        "b219dfb98d249dd99cd1936b4b13f2e03dc29915603e1e324a321116aff0fc0b",
    (60.0, "on-M0"):
        "a28233939a81ffab47315f1ded469a73a08497af17c87ec9f90c4264ecfd4cc9",
    (60.0, "M0+1e-9"):
        "61640863346c98e32a075926a24248e1af767587b9d13dc3fc6f939ddd9d0af2",
    (60.0, "M0-1e-9"):
        "fb0ac4e12162d26b8d58e27513ac9796e8d1acfcdf5a996cbab51e6a65feebb3",
    (60.0, "gauge=1-1e-6"):
        "018eaf11e1e8b7bfc7c23648d094351cf65fe3ce0d42baab78d987de4ddc48fc",
    (60.0, "boundary-0-3ulp"):
        "32b3c35552e3b4e46e501c7b7e83a6b1c41c9a00c95054ba8d3162710a5af5b9",
    "chord-square":
        "cacadb1524562d05e5b4ed8186c47d848c534dae808c6155aeb52de1615804be",
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


if __name__ == "__main__":
    print(f'ROUNDING = "{_rounding()}"')
    for m in M_VALUES:
        for s in STRATA:
            print(f'    ({m!r}, "{s}"):\n        "{_digest(_cell(m, s))}",')
    print(f'    "chord-square":\n        "{_digest(_chord_square_cell())}",')
