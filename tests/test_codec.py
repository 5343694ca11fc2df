import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tritstream.codec as codec_module
from conftest import interval_moments_oracle
from tritstream.codec import (
    PRIORITY_IMPLS,
    canonicalize,
    decode,
    encode,
    encode_result,
    expected_distortion,
    rd_trace,
    truncate,
)
from tritstream.errors import CorruptionError, FormatError
from tritstream.formats import pack_stream_header, parse_stream_header, stream_header_size
from tritstream.gaussian import build_element_model, interval_exponent
from tritstream.reduction import Shape
from tritstream.synth import SynthConfig, generate

D0_SIGMA1_BASE3 = 1.083333322361118  # mpmath oracle, see test_synth


def _synth(shape, seed, **kw):
    return generate(SynthConfig(shape=Shape(*shape), seed=seed, **kw))


class TestRoundTrip:
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]), st.sampled_from([0, 1]))
    @settings(max_examples=30, deadline=None)
    def test_exact_on_canonical_tensors(self, seed, base, sigma_mode):
        v, s = _synth((3, 4, 5), seed)
        stream = encode(v, s, base=base, sigma_mode=sigma_mode)
        rec = decode(stream, sigmas=s if sigma_mode == 0 else None)
        assert rec.exact
        assert rec.mse == 0.0
        assert np.array_equal(rec.values, v.astype(np.float64))

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_integers_roundtrip_to_canonical(self, seed, base):
        rng = np.random.default_rng(seed)
        v = rng.integers(-300, 300, size=(2, 3, 4))
        s = rng.uniform(0.05, 6.0, size=(2, 3, 4)).astype(np.float32)
        want = canonicalize(v, s, base=base)
        rec = decode(encode(v, s, base=base))
        assert np.array_equal(rec.values, want.astype(np.float64))
        # canonicalize is idempotent, so the round trip is a projection
        assert np.array_equal(canonicalize(want, s, base=base), want)

    def test_snap_moves_extreme_tail_value(self):
        # sigma 1, base 3: P(y=6) ~ 2e-9 < 2**-16, so 6 is not codable;
        # the nearest codable value on that side is 4.
        v = np.asarray([6]).reshape(1, 1, 1)
        s = np.ones((1, 1, 1), dtype=np.float32)
        assert canonicalize(v, s, base=3)[0, 0, 0] == 4
        rec = decode(encode(v, s, base=3))
        assert rec.values[0, 0, 0] == 4.0

    def test_values_beyond_interval_clamp_first(self):
        v = np.asarray([10 ** 6]).reshape(1, 1, 1)
        s = np.ones((1, 1, 1), dtype=np.float32)
        out = canonicalize(v, s, base=3)[0, 0, 0]
        assert out == 4  # clamp to 13, then the same tail snap applies

    def test_input_validation(self):
        s = np.ones((1, 1, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            encode(np.zeros((2,), dtype=np.int64), s)
        with pytest.raises(ValueError):
            encode(np.zeros((1, 1, 2), dtype=np.float64), s)
        with pytest.raises(ValueError):
            encode(np.zeros((1, 1, 3), dtype=np.int64), s)
        with pytest.raises(ValueError):
            encode(np.zeros((1, 1, 2), dtype=np.int64), s, sigma_mode=7)


class TestEncodeResult:
    def test_accounting_consistency(self):
        v, s = _synth((4, 5, 6), seed=21)
        res = encode_result(v, s, base=3)
        hdr = parse_stream_header(res.stream)
        assert hdr.header_size == res.header_size
        assert np.array_equal(hdr.payload_lengths, res.payload_lengths)
        assert len(res.stream) == res.header_size + res.payload_lengths.sum()
        assert np.array_equal(res.canonical, v)
        # uncertain planes carry bytes; certain-only planes are free
        assert np.array_equal(res.payload_lengths > 0, res.coded_digits > 0)
        assert np.all(res.entropy_bits >= 0.0)

    def test_naive_and_vectorized_streams_identical(self):
        v, s = _synth((4, 4, 4), seed=22)
        for base in (2, 3):
            streams = {name: encode(v, s, base=base, priority_impl=name)
                       for name in PRIORITY_IMPLS}
            assert streams["naive"] == streams["vectorized"]


class TestTruncation:
    def test_header_only_is_initial_distortion(self):
        v = np.zeros((2, 2, 2), dtype=np.int64)
        s = np.ones((2, 2, 2), dtype=np.float32)
        stream = encode(v, s, base=3)
        hdr = parse_stream_header(stream)
        rec = decode(truncate(stream, hdr.header_size))
        assert not rec.exact
        assert np.all(rec.digits_applied == 0)
        assert rec.mse == pytest.approx(D0_SIGMA1_BASE3, rel=1e-9)
        # symmetric intervals: the MMSE estimate is exactly zero
        assert np.all(rec.values == 0.0)

    def test_budget_below_header_rejected(self):
        v, s = _synth((1, 2, 2), seed=30)
        stream = encode(v, s)
        hdr = parse_stream_header(stream)
        with pytest.raises(ValueError):
            truncate(stream, hdr.header_size - 1)
        assert truncate(stream, 10 ** 9) == stream

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=10, deadline=None)
    def test_mse_never_increases_with_budget(self, seed, base):
        v, s = _synth((3, 4, 4), seed)
        stream = encode(v, s, base=base)
        hdr = parse_stream_header(stream)
        budgets = np.linspace(hdr.header_size, len(stream), 24).astype(int)
        last = np.inf
        for b in np.unique(budgets):
            mse = decode(truncate(stream, int(b))).mse
            assert mse <= last
            last = mse
        assert last == 0.0

    def test_digits_applied_grow_with_budget(self):
        v, s = _synth((3, 4, 4), seed=31)
        stream = encode(v, s, base=3)
        hdr = parse_stream_header(stream)
        prev = np.zeros(v.size, dtype=np.int64)
        for b in range(hdr.header_size, len(stream) + 1, 97):
            rec = decode(truncate(stream, b))
            assert np.all(rec.digits_applied >= prev)
            prev = rec.digits_applied
        full = decode(stream)
        assert np.all(full.digits_applied >= prev)
        assert full.exact

    def test_prefix_reconstructions_are_means_of_reached_intervals(self):
        # spot-check one element against the erf oracle at a mid budget
        v = np.asarray([[[3, -2]]], dtype=np.int64)
        s = np.asarray([[[1.0, 2.0]]], dtype=np.float32)
        stream = encode(v, s, base=3)
        hdr = parse_stream_header(stream)
        rec = decode(truncate(stream, hdr.header_size))
        for i, sig in enumerate([1.0, 2.0]):
            model = build_element_model(np.float32(sig), 3)
            mu, var = interval_moments_oracle(float(np.float32(sig)), model.support)
            assert rec.values.ravel()[i] == pytest.approx(mu, abs=1e-9)
        assert rec.mse == pytest.approx(
            np.mean([interval_moments_oracle(float(np.float32(sg)),
                                             build_element_model(np.float32(sg), 3).support)[1]
                     for sg in (1.0, 2.0)]), rel=1e-9)


class TestDecodeErrors:
    def test_trailing_bytes_rejected(self):
        v, s = _synth((2, 2, 2), seed=40)
        stream = encode(v, s)
        with pytest.raises(FormatError):
            decode(stream + b"\x00")

    def test_mode0_needs_scales(self):
        v, s = _synth((2, 2, 2), seed=41)
        stream = encode(v, s, sigma_mode=0)
        with pytest.raises(ValueError):
            decode(stream)
        with pytest.raises(ValueError):
            decode(stream, sigmas=s.ravel()[:-1])

    def test_mode0_wrong_scales_detected_by_plane_count(self):
        v = np.zeros((2, 2, 2), dtype=np.int64)
        s = np.ones((2, 2, 2), dtype=np.float32)
        stream = encode(v, s, base=3, sigma_mode=0)
        with pytest.raises(CorruptionError):
            decode(stream, sigmas=np.full((2, 2, 2), 8.0, dtype=np.float32))

    @staticmethod
    def _with_scale(stream, scale):
        """A two-element mode-1 stream with its first embedded scale replaced."""
        scales = np.frombuffer(stream, dtype="<f4", count=2, offset=21).copy()
        scales[0] = scale
        return stream[:21] + scales.tobytes() + stream[29:]

    @staticmethod
    def _two_element_stream():
        stream = encode(np.zeros((1, 1, 2), dtype=np.int64),
                        np.ones((1, 1, 2), dtype=np.float32), base=3, sigma_mode=1)
        assert len(stream) == 49
        return stream

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0, 0.0])
    def test_invalid_embedded_scale_is_format_error(self, scale):
        with pytest.raises(FormatError, match="scales"):
            decode(self._with_scale(self._two_element_stream(), scale))

    @pytest.mark.parametrize("scale", [3e38, 1e9])
    def test_forged_large_scale_fails_before_the_model_build(self, scale, monkeypatch):
        # Unchecked, 1e9 asks for a 3**22-entry mass table (234 GiB).
        def no_build(*_):
            raise AssertionError("model bank built for a forged scale")

        forged = self._with_scale(self._two_element_stream(), scale)
        monkeypatch.setattr(codec_module, "build_model_bank", no_build)
        with pytest.raises(CorruptionError, match="plane count"):
            decode(forged)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_out_of_band_scale_errors(self):
        v, s = _synth((2, 2, 2), seed=43)
        stream = encode(v, s, sigma_mode=0)
        bad = s.astype(np.float64)
        bad.flat[3] = np.nan
        with pytest.raises(ValueError):
            decode(stream, sigmas=bad)
        bad.flat[3] = 1e308     # finite, but its interval overflows
        with pytest.raises(CorruptionError, match="plane count"):
            decode(stream, sigmas=bad)

    @pytest.mark.parametrize("base", [2, 3])
    def test_plane_count_matching_a_huge_scale_is_rejected(self, base):
        # l_max agrees with the forged scale, but base**l_max overflows int64.
        l_max = interval_exponent(3e38, base)
        sig = np.asarray([3e38, 1.0], dtype="<f4")
        stream = pack_stream_header(base, 1, Shape(1, 1, 2), l_max,
                                    np.zeros(l_max, np.uint32), sig)
        with pytest.raises(FormatError, match="int64"):
            decode(stream)

    def test_corrupt_payload_detected(self):
        v, s = _synth((4, 8, 12), seed=11)
        stream = encode(v, s, base=3)
        bad = bytearray(stream)
        bad[-30] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode(bytes(bad))

    def test_forged_payload_never_passes_as_the_original(self):
        v, s = _synth((2, 3, 4), seed=42)
        res = encode_result(v, s, base=3)
        # swap one nonempty plane's bytes for zeros of the same length;
        # arbitrary corruption is not always detectable, but it must never
        # silently reproduce the original tensor
        n = int(np.flatnonzero(res.payload_lengths > 0)[0])
        start = res.header_size + int(res.payload_lengths[:n].sum())
        plen = int(res.payload_lengths[n])
        forged = (res.stream[:start] + b"\x00" * plen
                  + res.stream[start + plen:])
        try:
            rec = decode(forged)
        except CorruptionError:
            return
        assert not np.array_equal(rec.values, v.astype(np.float64))


class TestRdTrace:
    def test_endpoints_and_monotonicity(self):
        v, s = _synth((4, 8, 12), seed=7)
        points, stream = rd_trace(v, s, base=3, group=64)
        hdr = parse_stream_header(stream)
        assert points[0][0] == 8.0 * hdr.header_size
        rec0 = decode(truncate(stream, hdr.header_size))
        assert points[0][1] == pytest.approx(rec0.mse, rel=1e-12)
        assert points[-1][0] == 8.0 * len(stream)
        assert points[-1][1] == 0.0
        assert np.all(np.diff(points[:, 0]) > 0)
        assert np.all(np.diff(points[:, 1]) <= 1e-15)

    def test_stream_matches_plain_encode(self):
        v, s = _synth((3, 3, 3), seed=8)
        points, stream = rd_trace(v, s, base=2, group=16)
        assert stream == encode(v, s, base=2)

    def test_single_point_when_everything_is_certain(self):
        v = np.zeros((1, 2, 2), dtype=np.int64)
        s = np.full((1, 2, 2), 0.05, dtype=np.float32)
        points, stream = rd_trace(v, s, base=2)
        assert len(points) == 1
        assert points[0][0] == 8.0 * len(stream)
        assert points[0][1] == 0.0

    def test_group_validation(self):
        v, s = _synth((1, 2, 2), seed=9)
        with pytest.raises(ValueError):
            rd_trace(v, s, group=0)


class TestAllZeroTensors:
    def test_base3_truncations_reconstruct_zero_exactly(self):
        v = np.zeros((2, 3, 4), dtype=np.int64)
        s = np.linspace(0.1, 8.0, 24, dtype=np.float32).reshape(2, 3, 4)
        stream = encode(v, s, base=3)
        hdr = parse_stream_header(stream)
        for b in range(hdr.header_size, len(stream) + 1):
            rec = decode(truncate(stream, b))
            assert np.all(rec.values == 0.0)

    def test_base2_header_only_is_biased_everywhere(self):
        v = np.zeros((2, 3, 4), dtype=np.int64)
        s = np.linspace(0.1, 8.0, 24, dtype=np.float32).reshape(2, 3, 4)
        stream = encode(v, s, base=2)
        hdr = parse_stream_header(stream)
        rec = decode(truncate(stream, hdr.header_size))
        assert np.all(rec.values != 0.0)
        full = decode(stream)
        assert np.array_equal(full.values, np.zeros((2, 3, 4)))


class TestExpectedDistortion:
    def test_plane_boundary_matches_interval_oracle(self):
        # value 0 at sigma 1, base 3: plane 0 is certain (free), planes 1-2
        # carry bytes.  After the plane-1 boundary the element sits in the
        # interval {-1, 0, 1}, whose moments the erf oracle gives directly.
        v = np.zeros((1, 1, 1), dtype=np.int64)
        s = np.ones((1, 1, 1), dtype=np.float32)
        res = encode_result(v, s, base=3)
        assert res.payload_lengths[0] == 0
        assert np.all(res.payload_lengths[1:] > 0)
        budget = res.header_size + int(res.payload_lengths[1])
        rec = decode(truncate(res.stream, budget))
        assert rec.digits_applied.tolist() == [2]
        _, var = interval_moments_oracle(1.0, [-1, 0, 1])
        assert rec.values[0, 0, 0] == 0.0
        assert rec.mse == pytest.approx(var, rel=1e-9)
