import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tritstream.errors import FormatError
from tritstream.formats import (
    ARITHMETIC_PROFILE,
    STREAM_MAGIC,
    STREAM_VERSION,
    Shape,
    pack_stream_header,
    parse_stream_header,
    read_lflt,
    read_lten,
    stream_header_size,
    write_lflt,
    write_lten,
)


def _header_bytes(base=3, sigma_mode=0, shape=Shape(2, 3, 4), l_max=5,
                  lengths=None, sigmas=None):
    if lengths is None:
        lengths = np.arange(l_max, dtype=np.uint32)
    if sigma_mode == 1 and sigmas is None:
        sigmas = np.linspace(0.1, 8.0, shape.size, dtype="<f4")
    return pack_stream_header(base, sigma_mode, shape, l_max, lengths, sigmas)


class TestShape:
    def test_basic(self):
        s = Shape(2, 3, 4)
        assert s.astuple() == (2, 3, 4)
        assert s.size == 24

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, dims):
        with pytest.raises(ValueError):
            Shape(*dims)


class TestStreamHeader:
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 9),
           st.sampled_from([2, 3]), st.sampled_from([0, 1]), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_pack_parse_roundtrip(self, c, h, w, base, mode, l_max):
        shape = Shape(c, h, w)
        rng = np.random.default_rng(c * 1000 + h * 100 + w * 10 + l_max)
        lengths = rng.integers(0, 10 ** 6, size=l_max).astype(np.uint32)
        sigmas = rng.uniform(0.1, 8.0, size=shape.size).astype("<f4") if mode else None
        data = pack_stream_header(base, mode, shape, l_max, lengths, sigmas)
        hdr = parse_stream_header(data + b"\x01payload")
        assert (hdr.base, hdr.sigma_mode, hdr.shape, hdr.l_max) == (base, mode, shape, l_max)
        assert np.array_equal(hdr.payload_lengths, lengths)
        assert hdr.header_size == len(data) == stream_header_size(shape, mode, l_max)
        if mode:
            assert np.array_equal(hdr.sigmas, sigmas)
        else:
            assert hdr.sigmas is None

    def test_fixed_head_is_21_bytes(self):
        data = _header_bytes(sigma_mode=0, l_max=1)
        assert len(data) == 21 + 4
        assert data[:4] == STREAM_MAGIC
        assert data[4] == STREAM_VERSION
        assert data[5] == ARITHMETIC_PROFILE

    def test_mode1_needs_matching_sigma_block(self):
        with pytest.raises(ValueError):
            pack_stream_header(3, 1, Shape(1, 1, 2), 2,
                               np.zeros(2, np.uint32), np.zeros(5, "<f4"))
        with pytest.raises(ValueError):
            pack_stream_header(3, 1, Shape(1, 1, 2), 2, np.zeros(2, np.uint32), None)

    def test_directory_length_checked(self):
        with pytest.raises(ValueError):
            pack_stream_header(3, 0, Shape(1, 1, 1), 3, np.zeros(2, np.uint32), None)

    @pytest.mark.parametrize("mutate,message", [
        (lambda b: b"XXXX" + b[4:], "magic"),
        (lambda b: b[:4] + bytes([9]) + b[5:], "version"),
        (lambda b: b[:5] + bytes([9]) + b[6:], "profile"),
        (lambda b: b[:6] + bytes([4]) + b[7:], "base"),
        (lambda b: b[:7] + bytes([2]) + b[8:], "mode"),
        (lambda b: b[:8] + b"\x00\x00\x00\x00" + b[12:], "dimensions"),
        (lambda b: b[:12], "truncated"),
    ])
    def test_rejects_malformed(self, mutate, message):
        with pytest.raises(FormatError):
            parse_stream_header(mutate(_header_bytes()))

    @pytest.mark.parametrize("base,l_max", [(2, 63), (3, 40), (3, 83), (2, 20), (3, 13)])
    def test_rejects_plane_counts_beyond_int64(self, base, l_max):
        # Plane counts beyond those of a scale at SIGMA_MAX, which include
        # every count whose interval length overflows int64.
        data = _header_bytes(base=base, l_max=l_max)
        with pytest.raises(FormatError, match="SIGMA_MAX"):
            parse_stream_header(data)

    def test_largest_plane_counts_parse(self):
        assert parse_stream_header(_header_bytes(base=2, l_max=19)).l_max == 19
        assert parse_stream_header(_header_bytes(base=3, l_max=12)).l_max == 12

    def test_rejects_truncation_inside_sigma_block(self):
        data = _header_bytes(sigma_mode=1)
        with pytest.raises(FormatError, match="sigma block"):
            parse_stream_header(data[:21 + 5])

    def test_rejects_truncation_inside_directory(self):
        data = _header_bytes(sigma_mode=0, l_max=4)
        with pytest.raises(FormatError, match="directory"):
            parse_stream_header(data[:-3])


class TestTensorFiles:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_lten_roundtrip(self, c, h, w):
        rng = np.random.default_rng(c * 64 + h * 8 + w)
        values = rng.integers(-500, 500, size=(c, h, w))
        sigmas = rng.uniform(0.1, 8.0, size=(c, h, w)).astype(np.float32)
        v2, s2 = read_lten(write_lten(values, sigmas))
        assert v2.dtype == np.int64 and s2.dtype == np.float32
        assert np.array_equal(v2, values)
        assert np.array_equal(s2, sigmas)

    def test_lflt_roundtrip(self):
        x = np.linspace(-4, 4, 30, dtype=np.float32).reshape(2, 3, 5)
        assert np.array_equal(read_lflt(write_lflt(x)), x)

    def test_lten_rejects_out_of_range_values(self):
        big = np.full((1, 1, 1), 2 ** 40, dtype=np.int64)
        with pytest.raises(ValueError):
            write_lten(big, np.ones((1, 1, 1), np.float32))

    def test_lten_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            write_lten(np.zeros((1, 1, 2), np.int64), np.ones((1, 1, 3), np.float32))

    def test_read_rejects_wrong_size(self):
        data = write_lten(np.zeros((1, 1, 2), np.int64), np.ones((1, 1, 2), np.float32))
        with pytest.raises(FormatError):
            read_lten(data[:-1])
        with pytest.raises(FormatError):
            read_lten(data + b"\x00")

    def test_read_rejects_cross_magic(self):
        data = write_lflt(np.zeros((1, 1, 2), np.float32))
        with pytest.raises(FormatError):
            read_lten(data)
