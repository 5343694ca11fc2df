"""Byte identity of the codec's outputs against recorded SHA-256 digests.

A change that claims to keep streams byte-identical (a faster plane loop, a
leaner entropy layer) must keep every digest below.  A change that alters
the stream format or the float arithmetic updates them on purpose and says
so; `python tests/test_golden.py` prints the current table.

The cases cover both bases, both sigma storage modes, and inputs with a
tenth of their values moved outside the canonical range, so the encoder's
clamping and zero-frequency snapping are part of what is pinned.
"""

import hashlib

import numpy as np
import pytest

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
        "b2-m0": "f922c41c18c3d6f95938acb3b9cddd523b3e9c7bedb795b5c891c2aa4c9bf46e",
        "b2-m0-outside": "c23f06293c08ce9b572b4b3bf3515227f03dfd89eee4ed94ec51137983557ddc",
        "b2-m1": "755a58468b6485637fd2fca80751b5edc78ac6310da4af2a1e46518ad6968609",
        "b3-m0": "4d9530c717f14f3be59f3ab1622a6564c98286e1d73bfa6004bd44c2a5d098a5",
        "b3-m1": "3221d767b07e233d344d182b40e2dc15ccf0f710ca11bdc259bffe21df0a7d79",
        "b3-m1-outside": "4d7341918eec9f2314c5dd966ac6d33cd2ad451c627d0ee477836a498dd02312",
    },
    "rd_trace": {
        "b2-m0": "b6ebc3095282932698d5e4921803dcec5dfda1ed853413d58cb0d6db8a18ab00",
        "b2-m0-outside": "aed67b799168d3239ed55da486c28d3974d66e54bb27d3b1f8f07987c521aa37",
        "b2-m1": "87b2b38bbeeda09112d16e42c2d46b547a5de526cbec5b9767ee4ce0529cd340",
        "b3-m0": "c5a3528f6e5d8581e547666ecb9e3bbe11587e95485d7838c09fecb4ec5f700c",
        "b3-m1": "5da6178bc92a78ae851b0c879f07a0a77175f275870447f02fbb3f91bd360993",
        "b3-m1-outside": "d22909c7dd4d98f64ac61ca6fe1ab6f0fd183afc414defa28bed0ccc118812df",
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


def _digest(kind, name) -> str:
    values, sigmas, base, sigma_mode = _inputs(name)
    if kind == "encode":
        return _sha(encode(values, sigmas, base=base, sigma_mode=sigma_mode))
    if kind == "rd_trace":
        points, stream = rd_trace(values, sigmas, base=base,
                                  sigma_mode=sigma_mode, group=16)
        return _sha(points.astype("<f8"), stream)
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


KINDS = ("encode", "rd_trace", "canonicalize", "decode_prefixes")


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
