"""codecbench's per-layer tracer still reaches every layer it wraps.

codecbench/tracer.py replaces internal names of the package (codec's
bindings of the coder and the model build, priority's row reductions and
quantizer, ...).  Renaming, moving or inlining one of them would not raise:
the tracer would just report zero for that layer.  This test fails instead.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import tritstream.codec as codec
import tritstream.priority as priority
from tritstream import Shape, SynthConfig, decode, encode_result, generate, truncate

CODECBENCH = Path(__file__).resolve().parents[1] / "codecbench"

SPANS = (
    "gaussian.build_model_bank",
    "priority.plane_priorities",
    "reduction.row_sum",
    "reduction.split_row_sum",
    "entropy.quantize_pmf_rows",
    "entropy.range_encode",
    "entropy.decode_digits",
    "slicing.apply_plane_digits",
    "formats.header",
)


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(CODECBENCH))
    return importlib.import_module("tracer")


def test_tracer_sees_every_layer(tracer_module):
    values, sigmas = generate(SynthConfig(shape=Shape(4, 5, 6), seed=7))
    originals = (codec.RangeEncoder, priority.row_sum, codec.decode_digits)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        payload = 0
        for base in (2, 3):
            result = encode_result(values, sigmas, base=base)
            body = len(result.stream) - result.header_size
            payload += body
            tracer.full_decode = False
            decode(truncate(result.stream, result.header_size + body // 2))
            tracer.full_decode = True
            full = decode(result.stream)
            assert full.exact and np.array_equal(full.values, result.canonical)
    finally:
        tracer.uninstall()

    for name in SPANS:
        assert tracer.calls[name] > 0, f"{name} was never traced"
    counts = tracer.counts
    assert counts["entropy.digits_encoded"] > 0
    assert counts["entropy.digits_encoded"] == counts["entropy.digits_decoded_full"]
    assert counts["entropy.bytes_encoded"] == payload
    assert (codec.RangeEncoder, priority.row_sum, codec.decode_digits) == originals
