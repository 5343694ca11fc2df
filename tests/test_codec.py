import functools
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from tritstream.errors import CorruptionError, FormatError, TritstreamError
from tritstream.formats import Shape, pack_stream_header, parse_stream_header, stream_header_size
from tritstream.gaussian import SIGMA_MAX, build_element_model, build_model_bank, interval_exponent
from tritstream.synth import SynthConfig, generate

D0_SIGMA1_BASE3 = 1.083333322361118  # mpmath oracle, see test_synth


def _float32_bits(bits: int) -> np.float32:
    return np.asarray([bits], dtype="<u4").view("<f4")[0]


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

    def test_mode1_rejects_out_of_band_scales(self):
        v, s = _synth((2, 2, 2), seed=41)
        stream = encode(v, s, sigma_mode=1)
        with pytest.raises(ValueError, match="embeds its scales"):
            decode(stream, sigmas=s)

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

    @pytest.mark.parametrize("scale", [
        np.nan, np.inf, -1.0, 0.0,
        # Signalling NaNs: numpy warns when it widens one to float64.
        pytest.param(_float32_bits(0x7f800001), id="snan-0x7f800001"),
        pytest.param(_float32_bits(0xff800001), id="snan-0xff800001"),
    ])
    def test_invalid_embedded_scale_is_format_error(self, scale):
        stream = self._with_scale(self._two_element_stream(), scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="scales"):
                decode(stream)

    @staticmethod
    def _forbid_model_sizing(monkeypatch):
        def refuse(*_):
            raise AssertionError("a forged scale reached the model layer")

        monkeypatch.setattr(codec_module, "build_model_bank", refuse)
        monkeypatch.setattr(codec_module, "interval_exponent", refuse)

    @pytest.mark.parametrize("scale", [3e38, 1e9])
    def test_forged_large_scale_fails_before_the_model_build(self, scale, monkeypatch):
        # Unchecked, 1e9 asks for a 3**22-entry mass table (234 GiB).
        forged = self._with_scale(self._two_element_stream(), scale)
        self._forbid_model_sizing(monkeypatch)
        with pytest.raises(FormatError, match="SIGMA_MAX"):
            decode(forged)

    def test_forged_stream_with_a_matching_plane_count_is_format_error(self, monkeypatch):
        # Scales (1e9, 1) with the 22 trit planes 1e9 needs: 117 bytes that
        # would otherwise ask for a 234 GiB mass table.
        stream = pack_stream_header(3, 1, Shape(1, 1, 2), 22, np.zeros(22, np.uint32),
                                    np.asarray([1e9, 1.0], dtype="<f4"))
        assert len(stream) == 117 and interval_exponent(1e9, 3) == 22
        self._forbid_model_sizing(monkeypatch)
        with pytest.raises(FormatError):
            decode(stream)

    def test_out_of_band_scale_errors(self, monkeypatch):
        v, s = _synth((2, 2, 2), seed=43)
        stream = encode(v, s, sigma_mode=0)
        self._forbid_model_sizing(monkeypatch)
        bad = s.astype(np.float64)
        for scale in (np.nan, np.inf, 1e308, np.nextafter(SIGMA_MAX, np.inf)):
            bad.flat[3] = scale
            with pytest.raises(ValueError, match="SIGMA_MAX"):
                decode(stream, sigmas=bad)

    @pytest.mark.parametrize("base", [2, 3])
    def test_plane_count_matching_a_huge_scale_is_rejected(self, base):
        # l_max agrees with the forged scale, but exceeds SIGMA_MAX's.
        l_max = interval_exponent(3e38, base)
        sig = np.asarray([3e38, 1.0], dtype="<f4")
        stream = pack_stream_header(base, 1, Shape(1, 1, 2), l_max,
                                    np.zeros(l_max, np.uint32), sig)
        with pytest.raises(FormatError, match="SIGMA_MAX"):
            decode(stream)

    @pytest.mark.parametrize("base", [2, 3])
    def test_scale_at_the_ceiling_round_trips(self, base):
        rng = np.random.default_rng(base)
        s = np.asarray([[[SIGMA_MAX, SIGMA_MAX, 1.0, SIGMA_MAX]]], dtype=np.float32)
        v = np.rint(rng.normal(0.0, 1.0, s.shape) * s).astype(np.int64)
        for mode in (0, 1):
            stream = encode(v, s, base=base, sigma_mode=mode)
            assert parse_stream_header(stream).l_max == interval_exponent(SIGMA_MAX, base)
            rec = decode(stream, sigmas=s if mode == 0 else None)
            assert rec.exact and np.array_equal(rec.values, v)
        with pytest.raises(ValueError, match="SIGMA_MAX"):
            encode(v, np.nextafter(s, np.float32(np.inf)), base=base, sigma_mode=1)

    @given(base=st.sampled_from([2, 3]), count=st.integers(1, 4), data=st.data())
    @settings(max_examples=150, deadline=2000,
              suppress_health_check=[HealthCheck.too_slow])
    def test_crafted_headers_fail_only_with_tritstream_errors(self, base, count, data):
        # Any float32 bit pattern, with the patterns of 0.05 .. SIGMA_MAX
        # drawn often enough that headers reach the plane walk.
        bits = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(0x3D4CCCCD, 0x47000000))
        sig = np.asarray(data.draw(st.lists(bits, min_size=count, max_size=count),
                                   label="scale bits"), dtype="<u4").view("<f4")
        planes = st.integers(1, 255)
        if np.all(np.isfinite(sig)) and 0.0 < sig.min() and sig.max() <= SIGMA_MAX:
            planes = st.one_of(planes, st.just(interval_exponent(float(sig.max()), base)))
        l_max = data.draw(planes, label="l_max")
        lengths = data.draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=l_max,
                                     max_size=l_max), label="directory")
        stream = pack_stream_header(base, 1, Shape(1, 1, count), l_max,
                                    np.asarray(lengths), sig)
        try:
            decode(stream + data.draw(st.binary(max_size=64), label="payload"))
        except TritstreamError:
            pass

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


class TestModelBankCache:
    """Calls with the same (base, scales) as the last one reuse its bank."""

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        build = codec_module.build_model_bank

        def counted(sig, base):
            builds.append(base)
            return build(sig, base)

        monkeypatch.setattr(codec_module, "build_model_bank", counted)
        return builds

    @pytest.mark.parametrize("sigma_mode", [0, 1])
    def test_decode_after_encode_builds_nothing(self, sigma_mode, monkeypatch):
        v, s = _synth((3, 4, 5), seed=5)
        builds = self._count_builds(monkeypatch)
        res = encode_result(v, s, base=3, sigma_mode=sigma_mode)
        assert len(builds) == 1
        scales = s if sigma_mode == 0 else None
        decode(truncate(res.stream, res.header_size + 5), sigmas=scales)
        assert decode(res.stream, sigmas=scales).exact
        assert len(builds) == 1

    def test_other_base_or_scales_build_again(self, monkeypatch):
        va, sa = _synth((3, 4, 5), seed=5)
        vb, sb = _synth((5, 4, 3), seed=6)
        builds = self._count_builds(monkeypatch)
        a3 = encode(va, sa, base=3, sigma_mode=0)
        a2 = encode(va, sa, base=2, sigma_mode=0)
        b3 = encode(vb, sb, base=3, sigma_mode=0)
        assert len(builds) == 3
        # Another mode-0 scale tensor of the same length.
        assert decode(a3, sigmas=sa).exact
        assert len(builds) == 4
        assert decode(b3, sigmas=sb).exact
        assert len(builds) == 5
        # The same scales under another base.
        assert decode(a2, sigmas=sa).exact
        assert len(builds) == 6
        assert decode(a3, sigmas=sa).exact
        assert len(builds) == 7
        # One scale one ulp larger.
        bumped = sa.astype(np.float64)
        bumped.flat[7] = np.nextafter(bumped.flat[7], np.inf)
        decode(a3, sigmas=bumped)
        assert len(builds) == 8
        assert builds == [3, 2, 3, 3, 3, 2, 3, 3]

    def test_a_miss_frees_the_old_bank_before_building(self, monkeypatch):
        v, s = _synth((3, 4, 5), seed=5)
        encode(v, s, base=3)
        old = weakref.ref(codec_module._last_bank[1])
        build = codec_module.build_model_bank

        def checked(sig, base):
            assert old() is None, "the previous bank is alive during the build"
            return build(sig, base)

        monkeypatch.setattr(codec_module, "build_model_bank", checked)
        encode(v, s, base=2)
        assert old() is None

    def test_warm_decode_equals_cold(self):
        v, s = _synth((4, 5, 6), seed=8)
        res = encode_result(v, s, base=3)
        payload = len(res.stream) - res.header_size
        for budget in (res.header_size, res.header_size + payload // 3,
                       len(res.stream)):
            prefix = truncate(res.stream, budget)
            warm = decode(prefix)
            assert codec_module._last_bank is not None
            codec_module._last_bank = None
            cold = decode(prefix)
            assert np.array_equal(warm.values, cold.values)
            assert warm.mse == cold.mse
            assert np.array_equal(warm.digits_applied, cold.digits_applied)
            assert warm.exact == cold.exact

    def test_cached_bank_is_read_only(self):
        v, s = _synth((2, 3, 4), seed=9)
        encode(v, s)
        _, bank = codec_module._last_bank
        with pytest.raises(ValueError, match="read-only"):
            bank.masses_flat[0] = 0.5
        # gaussian's builder stays uncached and writeable.
        fresh = build_model_bank(bank.sigmas, bank.base)
        assert fresh is not bank and fresh.masses_flat.flags.writeable

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _intact(sigma_mode, base):
        v, s = _synth((2, 3, 4), seed=10)
        stream = encode(v, s, base=base, sigma_mode=sigma_mode)
        scales = s if sigma_mode == 0 else None
        return stream, scales, decode(stream, sigmas=scales)

    @given(st.sampled_from([0, 1]), st.sampled_from([2, 3]), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_damaged_streams_leave_a_sound_cache(self, sigma_mode, base, warm, data):
        stream, scales, want = self._intact(sigma_mode, base)
        if data.draw(st.booleans(), label="truncate"):
            damaged = stream[:data.draw(st.integers(0, len(stream) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(stream) - 1), label="position")
            flip = data.draw(st.integers(1, 255), label="mask")
            damaged = stream[:at] + bytes([stream[at] ^ flip]) + stream[at + 1:]
        if warm:
            decode(stream, sigmas=scales)
        try:
            decode(damaged, sigmas=scales)
        except TritstreamError:
            pass
        except ValueError as exc:
            # decode documents a ValueError when the scales argument does not
            # fit the stream: a mode-0 stream whose dimensions disagree with
            # them, or a damaged mode byte that flips the stream's mode.
            if not any(m in str(exc) for m in ("scale count", "embeds its scales",
                                                "needs out-of-band")):
                raise
        if codec_module._last_bank is not None:
            (key_base, key_sig), bank = codec_module._last_bank
            ref = build_model_bank(np.frombuffer(key_sig), key_base)
            assert bank.base == key_base
            assert np.array_equal(bank.masses_flat, ref.masses_flat)
            assert np.array_equal(bank.exponents, ref.exponents)
        got = decode(stream, sigmas=scales)
        assert np.array_equal(got.values, want.values)
        assert got.mse == want.mse
        assert np.array_equal(got.digits_applied, want.digits_applied)
        assert got.exact == want.exact


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
