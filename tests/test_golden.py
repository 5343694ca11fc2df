"""Byte identity of the codec's outputs against recorded SHA-256 digests.

A change that claims to keep streams byte-identical (a faster plane loop, a
leaner entropy layer) must keep every digest below.  A change that alters
the stream format or the float arithmetic updates them on purpose and says
so; `python tests/test_golden.py` prints the current table.

The cases cover both bases, both sigma storage modes, and inputs with a
tenth of their values moved outside the canonical range, so the encoder's
clamping and zero-frequency snapping are part of what is pinned.  The
`priorities` kind pins, plane by plane of the encoder's walk, the coding
order, the quantized tables and both rate and distortion statistics, so a
change to the priority arithmetic shows there even where it moves no
stream byte.
"""

import hashlib

import numpy as np
import pytest

import tritstream.codec as codec
from tritstream import (
    Shape,
    SynthConfig,
    canonicalize,
    decode,
    encode,
    generate,
    rd_trace,
    truncate,
)
from tritstream.formats import parse_stream_header

# (shape, seed, base, sigma_mode, moved outside the canonical range)
CASES = {
    "b3-m1": ((4, 5, 6), 1, 3, 1, False),
    "b2-m1": ((4, 5, 6), 2, 2, 1, False),
    "b3-m0": ((8, 8, 12), 3, 3, 0, False),
    "b2-m0": ((8, 8, 12), 4, 2, 0, False),
    "b3-m1-outside": ((3, 7, 9), 5, 3, 1, True),
    "b2-m0-outside": ((3, 7, 9), 6, 2, 0, True),
}

GOLDEN = {
    "encode": {
        "b2-m0": "7f151ede8b85f34635614f470cd4dd44afd32033a76cbfe168ef7c8317637a4a",
        "b2-m0-outside": "ab657d9670b48eabba9932700b80574aa0fde8a230c587fa6649a6729ff26075",
        "b2-m1": "dd19de0b2ca4775d2cdfb299211cd480eef6a27f33d0ff9172bd0a47a0f7a924",
        "b3-m0": "3eb488570a758abd7c79d0a47c86f10ac24024fdf1b0952a937753b69747edd9",
        "b3-m1": "33898890ae81e258a71486f38ed00dd086093159f310015ed3d10ceb752a3697",
        "b3-m1-outside": "4db938a9ee7ed5e24fa55dae168f1b8025c7d8cf03979b783efe7ec3a6bd7db4",
    },
    "rd_trace": {
        "b2-m0": "e24adfcebcffb6cc04e29a83327f3d931a90d504c79c721c1bdb094f41de45d2",
        "b2-m0-outside": "ff4d5a206806dde10f58f7e4e07fd2cb438803605ae494e51a5ec9eaeda38fc5",
        "b2-m1": "da0e909b2cf069653e1c071b35e32ff020b969c0feccd034989b87a102406053",
        "b3-m0": "2c6277d0c4aaaf3c0f1b1b3d9b11f7c10d7845633e3adb2beea907f7044860ca",
        "b3-m1": "89933c3f7796f9c32d419307aa5b97209d2386ba89f5a670af473d22dc13b0c9",
        "b3-m1-outside": "6169dd8ece24026a2a2aee07201047dbfa2f903e0e8780a066438eeb4a8c0d87",
    },
    "priorities": {
        "b2-m0": "f7d3b933f336a091fa550986f18166d24b4f516bb808b9b4df03523afc0bc998",
        "b2-m0-outside": "43c6e413d6bd59c0e3496ef3d0afcd97f8e903a44e1b2ed23d936f5b87c58586",
        "b2-m1": "27d75e58df8a7773c357700f73d9d8143006a2b4e3ba8b5a1198bf6436d214ff",
        "b3-m0": "825980036ca13ba60d8837855560ab67e15eae73ad08b2cf13cf225c69966129",
        "b3-m1": "487d206fbb3ca2951c1165e827d98a9a6007618c8b3e3b213d86bb3a16734929",
        "b3-m1-outside": "76c795e5e8152177bfdcc435032c258ed08edb97341a71dd9655de7adfaebf47",
    },
    "canonicalize": {
        "b2-m0": "4a53e2a2211306ed48e01f7d2eb75a1dd04737e69c0d305efa289c4964c2e27b",
        "b2-m0-outside": "c32bcb29ef42d0cbd198bbc10d866d3266855ec25ed1c9be9a2fc6c36e519d90",
        "b2-m1": "3730d2f6b99d92f6535b11691290c67085db4e663efbc7acc996203df582e1ae",
        "b3-m0": "3138b50540d1d04bcca7678d1e38251d55f96ce11cc9091f0a1ad43e3cab21ad",
        "b3-m1": "21c786fc9c8fc0290d496efbfb425ed43cfd58a436afc6c631f5ff1ec97b85c2",
        "b3-m1-outside": "757b194d84b146690c70f33d993b03988aa4d6cb86525f44b3d8a5bb048cadfe",
    },
    "decode_prefixes": {
        "b2-m0": "3e67c5b80bfc4009b02efcb7beb25f7c6287cb54cac7233faa0ce3d87fb68ccd",
        "b2-m0-outside": "c9417415230d92370de556da1d824c6658935c8ea0df6567c0ee3f6bafc6647b",
        "b2-m1": "606d5ac4088e4a6d2a37de5fbb233dcb7416da9ad6160678e720601459b5a6ad",
        "b3-m0": "82da86aaa17022dfc2992be5195455ec2f33718a95ff0e6c18afc267ecd5e9ba",
        "b3-m1": "18f3586c8ad4749705f7a55f93706262dc2992e00b2812071975100b5b143338",
        "b3-m1-outside": "4411435ad467028e270db42783f4ac2f723ae9fc6f540be620d5f70ef150ccd5",
    },
}


def _inputs(name):
    shape, seed, base, sigma_mode, outside = CASES[name]
    values, sigmas = generate(SynthConfig(shape=Shape(*shape), seed=seed))
    if outside:
        rng = np.random.default_rng(seed)
        moved = rng.random(values.shape) < 0.1
        values = np.where(moved, rng.integers(-400, 400, values.shape), values)
    return values, sigmas, base, sigma_mode


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _encode_priorities(values, sigmas, base, sigma_mode):
    """The priorities of every plane the encoder's walk computes, in order."""
    impl = codec.PRIORITY_IMPLS["vectorized"]
    seen = []

    def spy(bank, state, plane):
        seen.append(impl(bank, state, plane))
        return seen[-1]

    codec.PRIORITY_IMPLS["vectorized"] = spy
    try:
        encode(values, sigmas, base=base, sigma_mode=sigma_mode)
    finally:
        codec.PRIORITY_IMPLS["vectorized"] = impl
    return seen


def _digest(kind, name) -> str:
    values, sigmas, base, sigma_mode = _inputs(name)
    if kind == "encode":
        return _sha(encode(values, sigmas, base=base, sigma_mode=sigma_mode))
    if kind == "rd_trace":
        points, stream = rd_trace(values, sigmas, base=base,
                                  sigma_mode=sigma_mode, group=16)
        return _sha(points.astype("<f8"), stream)
    if kind == "priorities":
        parts = []
        for pr in _encode_priorities(values, sigmas, base, sigma_mode):
            parts += [pr.order.astype("<i8"), pr.tables.astype("<u4"),
                      pr.delta_r.astype("<f8"), pr.delta_d.astype("<f8")]
        return _sha(*parts)
    if kind == "canonicalize":
        out = canonicalize(values, sigmas, base=base, sigma_mode=sigma_mode)
        return _sha(out.astype("<i8"))
    stream = encode(values, sigmas, base=base, sigma_mode=sigma_mode)
    extra = sigmas if sigma_mode == 0 else None
    head = parse_stream_header(stream).header_size
    parts = []
    for third in (1, 2):
        budget = head + third * (len(stream) - head) // 3
        rec = decode(truncate(stream, budget), sigmas=extra)
        parts += [rec.values.astype("<f8"), np.asarray([rec.mse], "<f8"),
                  rec.digits_applied.astype("<i8")]
    return _sha(*parts)


KINDS = ("encode", "rd_trace", "priorities", "canonicalize", "decode_prefixes")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(kind, name):
    assert _digest(kind, name) == GOLDEN[kind][name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for kind in KINDS:
        print(f'    "{kind}": {{')
        for name in sorted(CASES):
            print(f'        "{name}": "{_digest(kind, name)}",')
        print("    },")
    print("}")
