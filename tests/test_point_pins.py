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
        "69832741e23ba0913dfba70dbe499b4080b98032bfcb6c790bf480bcf753b735",
    (0.5, "on-Z"):
        "469d80871f0362dc13defb367c10dc25d85859fd9035335aa0cb0c8490f01a63",
    (0.5, "z1=1e-8"):
        "8101645e4e46b6b086dd3ac309bda2efb696cc7055e41b24ab4dabe6b65304ff",
    (0.5, "on-M0"):
        "706ecf64e5ade5b159d0c612a41ba63ab96776564622ee100484b134b52b6843",
    (0.5, "M0+1e-9"):
        "102e263d04ff2e77f60c04d7614bc3475f432d6458375aa7e620bfbe30bb4bf0",
    (0.5, "M0-1e-9"):
        "298610fb65bc40150995b3f1232d1bb26772eed223620564f532bfc55d45230f",
    (0.5, "gauge=1-1e-6"):
        "5a241187293d99eec2593bb8c237828fe6d37c2b1ca705388aa60e2c810cc66a",
    (0.5, "boundary-0-3ulp"):
        "ba4b40651132398753975df3ddf826e76048c8b6354cba4e47ed262c60c99a96",
    (0.75, "generic"):
        "5728b89df32032d6b80a124f5e9601e33e6dd171f0d5ac9e784e3eeb50baa847",
    (0.75, "on-Z"):
        "fcf78112d688a0ab74e13163354b3c5c3e1be043dd9239fc499f4f5ef88e4748",
    (0.75, "z1=1e-8"):
        "fefa1a9fb2b72045ea21dabe2085765e03f5cd98b787cc6097d6d1977ec2c4ae",
    (0.75, "on-M0"):
        "26ec14971f6ac1d1974b7d886d03abb9e819fd36191aaa3b4a8b4f30d21c0729",
    (0.75, "M0+1e-9"):
        "1df02d4eefe22f09a06df6ba0cfb1d0511add88526ed8202e7060f6134ea14ba",
    (0.75, "M0-1e-9"):
        "caaf7e2fcd6e655372abfa04efa4f1c1d38ee249bf7a93bdc1d246f7b2907d7c",
    (0.75, "gauge=1-1e-6"):
        "16b1d5ebb3c40ba6fe086154e92fd851973c40825020580846f2b9ea3252fca9",
    (0.75, "boundary-0-3ulp"):
        "982880927408c68fd726fb587d674a3d8f8953441017ca099709d89a59ecf992",
    (1.0, "generic"):
        "c2588706c3f83102269ce2e13906b957553b84f74241fea47b3c255f36eec446",
    (1.0, "on-Z"):
        "a7a31630d08e152abf0367b7323c8e7a63dce7c589fcf1cdf3893554a1b58d6c",
    (1.0, "z1=1e-8"):
        "d6ffa425111592724fa38734d44c5f665d8ffefe7cc6ce4c7fd665d8ebe3249f",
    (1.0, "on-M0"):
        "68dd3210cfed099c2ebfbbf8c76245526098dda03665d49727293b06bd6f2a04",
    (1.0, "M0+1e-9"):
        "c4ab0bb4937f871b0637c5bf44c34e6e971dd74f56392e5c895b9fcd5f7fdce2",
    (1.0, "M0-1e-9"):
        "2fd4fb52514a9d4916a4a104924aebe4042bc409c7c36e7628314c2ae542b891",
    (1.0, "gauge=1-1e-6"):
        "79591861d1a5b2a21fbcde7c86cda9f7120e91fe271b06225cfcb0ab03bf6a45",
    (1.0, "boundary-0-3ulp"):
        "83ef2e8d7bc96d8fbe867b50d85883100a3b6ff308ee66bb55d89e4a057214ec",
    (0.9999999, "generic"):
        "07d17cb70010d0ffd73d8d19d0ce4bb96504598ee33d9bf721915cd9d0f3cc35",
    (0.9999999, "on-Z"):
        "b0d008b92b1ba05ada414efde01972a33841ae11c0290c00aab16d627989bf06",
    (0.9999999, "z1=1e-8"):
        "7db8a989d4d97b8095bca43fd764beca7612b13ee9ab491c0dd4986270b85a09",
    (0.9999999, "on-M0"):
        "8a24b5e09dda2c01deaca13f051129964c65636172346314904c57a9dd699bd3",
    (0.9999999, "M0+1e-9"):
        "ee097c42bb2815a4e14d8d67017f7b3ccd3a8624d3fb4dffc0b46bc744318f4c",
    (0.9999999, "M0-1e-9"):
        "cba35315a3ae7c86f4cad7cb456b8c6154434f6f953314ab44d4c386aa0f4e21",
    (0.9999999, "gauge=1-1e-6"):
        "4e65e1802faa70eebb2297eaac95d63de30627f5229d8bbfa4af42b1fa6fd640",
    (0.9999999, "boundary-0-3ulp"):
        "fa90b649c1b4d52e5cb015a7658fad960a97c67421e62e3b49b2fa33368be840",
    (1.0000001, "generic"):
        "e3aa896a547b2ddf6a6df9d7f50e2a4157e88cb07902b8356f7c603b5784390c",
    (1.0000001, "on-Z"):
        "1dde4d007fe86c9745253bd3056da4c8c7b438ec56903735bea1b89398218d69",
    (1.0000001, "z1=1e-8"):
        "08a0afcb85918e0f460b49207b556d9a89d5542a2a2c4983f1cc00934dc30095",
    (1.0000001, "on-M0"):
        "3a7e5522c40ea5ccdd80a89f670bb9db0566a5428a786712dd4752718937bd95",
    (1.0000001, "M0+1e-9"):
        "2caa2ead3702c21ab67a9bc80581600e466f66003c6139c907d3e84fbe1a3897",
    (1.0000001, "M0-1e-9"):
        "a830f6295386238837ee56bf2f2413aa335991461418bdf48a3f51424cbbb317",
    (1.0000001, "gauge=1-1e-6"):
        "fe33190f38329a8201f72e5b7b8fc7c2501083fd9332692b66f4494b72ae9087",
    (1.0000001, "boundary-0-3ulp"):
        "6a03d3832d18ac03dae3239f978c201cbaee286dc81708bafb07b525ff277759",
    (2.0, "generic"):
        "317e5d853bd716f8d471e5ea6e854e018104389137fb6eec2f23bdf81ac13c86",
    (2.0, "on-Z"):
        "321d17db6fb1b07d4780b6e544a5bac0545e3d894c3ca2efb3345e0ef83e1e41",
    (2.0, "z1=1e-8"):
        "d06402f27d1bf2af3ff3531d2ead6b8d508b999b919607c126e084b95100ca3f",
    (2.0, "on-M0"):
        "e4dae9140557b59d1ddd1501babe5c7a0750d028ee1de72e6fbadb6d13750bb5",
    (2.0, "M0+1e-9"):
        "34e177f569d85ed9d0b5cd2bb5da473a90d256bd58773f253b3307a253e7d470",
    (2.0, "M0-1e-9"):
        "2858e49df8a77d491f5be0c2d70bd10a55fd111490d0bfb4ad61c3c79398b3b4",
    (2.0, "gauge=1-1e-6"):
        "4d893862ba903915b2a8bb834db2116133a47147eab5c3cb3c0bf863f5c9600f",
    (2.0, "boundary-0-3ulp"):
        "f69f238476662e44478aee1f4af222318f2ae2de163ca2d50ff6a18c6fe40c4e",
    (5.0, "generic"):
        "b2060409016245ebcee7091e8260aa63a5315e6c86b7eda1fea87373ebda9dc4",
    (5.0, "on-Z"):
        "7ced665b5623937fdb1787db703be7b7564515fc41634cce49b6d1754ce16220",
    (5.0, "z1=1e-8"):
        "1a52f2a79e8b85455d9e96a583d1aad5d0816acde2e85e0a46776ac01d20fbe1",
    (5.0, "on-M0"):
        "c3d98f4609f19eb2158cca7cb3a0af518f69b69003afd4c1430ee77362558c4b",
    (5.0, "M0+1e-9"):
        "27284d6d84ca8add295a7fb64a227c962c795218085d84a4d2d4946c1c075f2a",
    (5.0, "M0-1e-9"):
        "c1f725db1a3ff606c2d03eb5879d761aae4f81df850affedabc5151fadedb9bf",
    (5.0, "gauge=1-1e-6"):
        "e4bc22be6e1f6020be76fecbe2a9eb6e9eae6d235b6be03a4925a166de99bfc8",
    (5.0, "boundary-0-3ulp"):
        "23469087e314751704913a53b47b553a5a370de1e8cbabb9d8f935a22f18b226",
    (20.0, "generic"):
        "9d909c5557d30784b8ffd0823b1a50349d1330ae2291c8f564297b8d9c318901",
    (20.0, "on-Z"):
        "4182880fc2be54fc1efa3ad5464cf3dd646caf76034b3900db0d8f059241587e",
    (20.0, "z1=1e-8"):
        "74c053e70e4aeccd8fa43c1eed115225b4597a6c0487216d9b08d87c623d4ab4",
    (20.0, "on-M0"):
        "bfad388519115ee37692154e3091995a3ef0e0e3fad1e8cb355a23a0ea4cdb11",
    (20.0, "M0+1e-9"):
        "9f870536b4444dcf1c27cf7eef27b676aca7c5032c2f6b22c1ddf5027d67be6e",
    (20.0, "M0-1e-9"):
        "6d6c3bef35d31c61c422180820822c9e8656b2fd0396f1a92a01e6f35f12361d",
    (20.0, "gauge=1-1e-6"):
        "5664baf78fd1a19ed44075e188c32d0aba4e2e53f36fb504632d52faa1ae8443",
    (20.0, "boundary-0-3ulp"):
        "21d8827f595dcef6d0b050c1a19c1a3a451eb4916d13d0d23a30d5dd2efb9067",
    (60.0, "generic"):
        "fd7bb48cd392e7e5d440f39755c769df42854097e7aff99a5b195d9a63b13cbb",
    (60.0, "on-Z"):
        "05ffd3ce56968524bf232f1d6822dd69385b32b607cd304172b2617d60da2507",
    (60.0, "z1=1e-8"):
        "a1e1b314f3d5b55004c6853c4ffd633fa895a2f6dc6ff98ac5d7fa83d90cd50d",
    (60.0, "on-M0"):
        "2ce570ceee911612bd29ca047e5e45beec7141ad3a48cc160c844facd7ed8b46",
    (60.0, "M0+1e-9"):
        "feb2a82280070d10f1efbfeff5b2d9cf426aa05499adcbee8661f4713f77eb88",
    (60.0, "M0-1e-9"):
        "7ddb592f0e66761c09cc44239f2549dfe14ecb2c3ce15c1b05b5c61708771fad",
    (60.0, "gauge=1-1e-6"):
        "7232bb920497d085298cbf964198f2b3a4a7c3fa2235c129813a54124219edf9",
    (60.0, "boundary-0-3ulp"):
        "e7ac053bad4b9843301b17b3c2cc295bc061e710b215bf065b77d2c2d78640f0",
    "chord-square":
        "1fbdb19e322b6febf4c817f40ace8cda07e0a611d7deb977917351d7427d282d",
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
