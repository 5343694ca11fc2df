import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tritstream.entropy as entropy
from conftest import entropy_bits, range_encode
from tritstream.errors import CorruptionError
from tritstream.entropy import MASS_FLOOR, TABLE_TOTAL, decode_digits, quantize_pmf_rows


def _sample_digits(tables: np.ndarray, seed: int) -> np.ndarray:
    """Digits drawn from the quantized tables themselves."""
    rng = np.random.default_rng(seed)
    p = tables / tables.sum(axis=1, keepdims=True)
    u = rng.random(tables.shape[0])
    return (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1).astype(np.uint8)


def _quantize(row) -> np.ndarray:
    return quantize_pmf_rows(np.asarray(row, dtype=np.float64)[None])[0]


def _skewed_tables(n: int, base: int, seed: int, alpha: float = 1.0) -> np.ndarray:
    """Random uncertain tables (at least two nonzero frequencies per row)."""
    rng = np.random.default_rng(seed)
    kept = []
    while sum(t.shape[0] for t in kept) < n:
        tables = quantize_pmf_rows(rng.dirichlet(np.full(base, alpha), size=2 * n))
        kept.append(tables[(tables > 0).sum(axis=1) >= 2])
    return np.concatenate(kept)[:n]


def _argsort_quantize(rows) -> np.ndarray:
    """quantize_pmf_rows as first written: leftover units by a per-row argsort."""
    rows = np.asarray(rows, dtype=np.float64)
    kept = np.where(rows >= MASS_FLOOR, rows, 0.0)
    scaled = (kept / kept.sum(axis=1, keepdims=True)) * TABLE_TOTAL
    freqs = np.floor(scaled).astype(np.uint32)
    short = TABLE_TOTAL - freqs.sum(axis=1, dtype=np.int64)
    frac = scaled - np.floor(scaled)
    order = np.argsort(-frac, axis=1, kind="stable")
    take = np.arange(rows.shape[1])[None, :] < short[:, None]
    rr = np.broadcast_to(np.arange(rows.shape[0])[:, None], order.shape)
    freqs[rr[take], order[take]] += 1
    return freqs


# Raw row entries: exact thirds and halves give tied fractional parts, and
# the sub-floor values are zeroed before apportionment.
_MASS = st.one_of(
    st.sampled_from([0.0, MASS_FLOOR / 2, MASS_FLOOR, 0.25, 1 / 3, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)


class TestQuantize:
    def test_uniform_trit_split(self):
        # 65536 = 3 * 21845 + 1; the leftover unit goes to the lowest index.
        assert _quantize([1 / 3, 1 / 3, 1 / 3]).tolist() == [21846, 21845, 21845]

    def test_one_hot(self):
        assert _quantize([1.0, 0.0, 0.0]).tolist() == [TABLE_TOTAL, 0, 0]

    def test_dyadic_is_exact(self):
        assert _quantize([0.5, 0.25, 0.25]).tolist() == [32768, 16384, 16384]
        assert _quantize([0.5, 0.5]).tolist() == [32768, 32768]

    def test_floor_zeroes_tiny_mass(self):
        eps = MASS_FLOOR / 2
        out = _quantize([1.0 - eps, eps, 0.0])
        assert out.tolist() == [TABLE_TOTAL, 0, 0]
        kept = _quantize([1.0 - 2 * MASS_FLOOR, 2 * MASS_FLOOR, 0.0])
        assert kept[1] > 0

    def test_rejects_all_subfloor(self):
        with pytest.raises(ValueError):
            _quantize([MASS_FLOOR / 3] * 3)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            quantize_pmf_rows(np.zeros(3))

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    def test_rows_sum_to_total_and_respect_floor(self, seed, base):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(base, 0.35), size=16)
        freqs = quantize_pmf_rows(rows)
        assert freqs.sum(axis=1).tolist() == [TABLE_TOTAL] * 16
        # freq > 0 exactly where the raw mass reached the floor
        assert np.array_equal(freqs > 0, rows >= MASS_FLOOR)

    @given(st.integers(2, 9).flatmap(
        lambda w: st.lists(st.lists(_MASS, min_size=w, max_size=w), min_size=1, max_size=12)))
    @example([[1 / 3] * 3])
    @example([[0.5, 0.5]])
    @example([[1 / 3, 1 / 3, 1 / 3, MASS_FLOOR / 2], [MASS_FLOOR / 2, 0.5, 0.5, 0.0]])
    def test_matches_argsort_reference(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        assume(np.all((rows >= MASS_FLOOR).any(axis=1)))
        got = quantize_pmf_rows(rows)
        assert got.dtype == np.uint32
        assert np.array_equal(got, _argsort_quantize(rows))

    @pytest.mark.parametrize("base", [2, 3])
    def test_matches_argsort_reference_on_many_rows(self, base):
        rng = np.random.default_rng(base)
        rows = rng.dirichlet(np.full(base, 0.3), size=20000)
        rows[::5] = 1.0 / base
        rows[1::7, 0] = MASS_FLOOR / 3
        rows[1::7, 1] += 0.5
        assert np.array_equal(quantize_pmf_rows(rows), _argsort_quantize(rows))

    @given(st.integers(0, 10 ** 6))
    def test_quantization_error_bound(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet([1.0, 1.0, 1.0], size=8)
        rows[rows < MASS_FLOOR] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        freqs = quantize_pmf_rows(rows)
        # floor + one largest-remainder bump: off by strictly less than
        # 2 units of 1/TABLE_TOTAL per bin
        assert np.abs(freqs / TABLE_TOTAL - rows).max() < 2.0 / TABLE_TOTAL


class TestRoundTrip:
    def test_empty(self):
        res = decode_digits(b"", np.zeros((0, 3), np.uint32), 0)
        assert res.digits.size == 0 and not res.exhausted

    def test_table_count_mismatch(self):
        with pytest.raises(ValueError):
            decode_digits(b"", np.asarray([[1, TABLE_TOTAL - 1]], np.uint32), 2)

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
           st.integers(1, 400), st.floats(0.2, 3.0))
    # Both rows of the first draw quantise to a single bin.
    @example(seed=505, base=2, n=1, alpha=0.203125)
    @settings(max_examples=40, deadline=None)
    def test_random_streams(self, seed, base, n, alpha):
        tables = _skewed_tables(n, base, seed, alpha)
        digits = _sample_digits(tables, seed + 1)
        chunk = range_encode(digits, tables)
        res = decode_digits(chunk, tables, n)
        assert np.array_equal(res.digits, digits)
        assert not res.exhausted
        assert res.consumed <= len(chunk)

    def test_hundred_thousand_digits(self):
        tables = _skewed_tables(100_000, 3, seed=42, alpha=0.7)
        digits = _sample_digits(tables, 43)
        chunk = range_encode(digits, tables)
        res = decode_digits(chunk, tables, digits.size)
        assert np.array_equal(res.digits, digits)


    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
           st.integers(1, 200), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_damaged_chunks_give_digits_or_corruption(self, seed, base, n, flip):
        # A complete chunk with one byte flipped, or random bytes of the same
        # length: decoding returns in-range digits or raises CorruptionError.
        rng = np.random.default_rng(seed)
        tables = _skewed_tables(n, base, seed)
        chunk = range_encode(_sample_digits(tables, seed + 3), tables)
        if flip:
            bad = bytearray(chunk)
            bad[rng.integers(len(bad))] ^= int(rng.integers(1, 256))
            data = bytes(bad)
        else:
            data = rng.bytes(len(chunk))
        try:
            res = decode_digits(data, tables, n)
        except CorruptionError:
            return
        assert res.digits.dtype == np.uint8
        assert res.digits.size <= n
        assert res.exhausted == (res.digits.size < n)
        assert np.all(tables[np.arange(res.digits.size), res.digits] > 0)
        assert res.consumed <= len(data)


class TestRateBounds:
    def test_uniform_trits_regression_size(self):
        # 4096 digits * log2(3) / 8 = 811.5 ideal bytes; frozen measurement.
        rng = np.random.default_rng(2024)
        digits = rng.integers(0, 3, size=4096).astype(np.uint8)
        tables = np.repeat(quantize_pmf_rows(np.full((1, 3), 1 / 3)), 4096, axis=0)
        chunk = range_encode(digits, tables)
        assert len(chunk) == 817
        assert len(chunk) <= 4096 * np.log2(3.0) / 8 + 8

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_chunk_within_ideal_plus_flush(self, seed, base):
        tables = _skewed_tables(300, base, seed)
        digits = _sample_digits(tables, seed + 9)
        chunk = range_encode(digits, tables)
        p = tables[np.arange(digits.size), digits] / TABLE_TOTAL
        ideal_bytes = float(-np.log2(p).sum()) / 8.0
        assert len(chunk) <= ideal_bytes + 8.0

    def test_rate_near_entropy_100k(self):
        tables = _skewed_tables(100_000, 3, seed=7, alpha=1.5)
        digits = _sample_digits(tables, 8)
        chunk = range_encode(digits, tables)
        bits_per = 8.0 * len(chunk) / digits.size
        h = float(np.mean([entropy_bits(row / TABLE_TOTAL) for row in tables]))
        assert bits_per <= h + 0.02


class TestPrefixDecoding:
    def _assert_prefix_property(self, chunk, tables, digits, step):
        for end in range(0, len(chunk) + 1, step):
            res = decode_digits(chunk[:end], tables, digits.size)
            k = res.digits.size
            assert np.array_equal(res.digits, digits[:k]), f"wrong digit before byte {end}"
            if k < digits.size:
                assert res.exhausted

    def test_every_byte_prefix_small(self):
        tables = _skewed_tables(200, 3, seed=11)
        digits = _sample_digits(tables, 12)
        chunk = range_encode(digits, tables)
        self._assert_prefix_property(chunk, tables, digits, step=1)

    def test_prefix_monotone_in_length(self):
        tables = _skewed_tables(300, 2, seed=13)
        digits = _sample_digits(tables, 14)
        chunk = range_encode(digits, tables)
        prev = 0
        for end in range(0, len(chunk) + 1, 3):
            k = decode_digits(chunk[:end], tables, digits.size).digits.size
            assert k >= prev
            prev = k
        assert prev == digits.size

    def test_half_prefix_regression_constant(self):
        # Frozen: half the bytes of a 4096-digit uniform-trit chunk decode
        # 2053 digits, comfortably above the floor(0.4 * 4096) = 1638 bound.
        rng = np.random.default_rng(2024)
        digits = rng.integers(0, 3, size=4096).astype(np.uint8)
        tables = np.repeat(quantize_pmf_rows(np.full((1, 3), 1 / 3)), 4096, axis=0)
        chunk = range_encode(digits, tables)
        res = decode_digits(chunk[:len(chunk) // 2], tables, 4096)
        assert np.array_equal(res.digits, digits[:res.digits.size])
        assert res.digits.size == 2053
        assert res.digits.size >= int(0.4 * 4096)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_certain_heavy_streams_stay_prefix_decodable(self, seed):
        # Highly skewed tables emit almost nothing; prefixes must still
        # never yield a wrong digit.
        tables = _skewed_tables(150, 3, seed, alpha=0.15)
        digits = _sample_digits(tables, seed + 5)
        chunk = range_encode(digits, tables)
        self._assert_prefix_property(chunk, tables, digits, step=1)


class TestCumulativeChunks:
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("base", [2, 3])
    def test_chunked_decode_equals_one_chunk(self, base, rows, monkeypatch):
        # Truncated prefixes stop inside a chunk, at a chunk's end, and in
        # the pad bytes; every digit count crosses many chunk boundaries.
        tables = _skewed_tables(60, base, seed=30 + base)
        digits = _sample_digits(tables, 31)
        chunk = range_encode(digits, tables)
        want = [decode_digits(chunk[:end], tables, digits.size)
                for end in range(len(chunk) + 1)]
        monkeypatch.setattr(entropy, "_CUM_ROWS", rows)
        for end, ref in enumerate(want):
            got = decode_digits(chunk[:end], tables, digits.size)
            assert np.array_equal(got.digits, ref.digits)
            assert (got.consumed, got.exhausted) == (ref.consumed, ref.exhausted)
        assert want[-1].digits.size == digits.size
        assert 0 < want[len(chunk) // 2].digits.size < digits.size
