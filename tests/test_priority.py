import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tritstream.gaussian as gaussian
import tritstream.priority as priority
from conftest import digit_planes, entropy_bits, interval_moments_oracle
from tritstream.entropy import TABLE_TOTAL, quantize_pmf_rows
from tritstream.errors import CorruptionError
from tritstream.gaussian import build_model_bank
from tritstream.priority import (
    _alg_rows,
    _assemble,
    plane_priorities_naive,
    plane_priorities_vectorized,
    row_sum,
    split_row_sum,
)
from tritstream.slicing import IntervalState


def _bank(sigmas, base):
    return build_model_bank(np.asarray(sigmas, dtype=np.float64), base)


def _random_state(bank, rng):
    """A plane-aligned partial refinement driven by in-model values."""
    vals = bank.offsets + rng.integers(0, bank.lengths)
    planes = digit_planes(vals, bank)
    state = IntervalState.initial(bank)
    stop = rng.integers(0, bank.l_max + 1)
    for n in range(stop):
        ids = state.active_ids(n)
        state.apply_plane_digits(n, ids, planes[n, ids])
    return state, int(stop)


class TestRowSums:
    def test_row_sum_shape_and_values(self, rng):
        a = rng.standard_normal((5, 9))
        out = row_sum(a)
        assert out.shape == (5, 1)
        for r in range(5):
            assert out[r, 0] == pytest.approx(math.fsum(a[r]), rel=1e-12)

    def test_split_row_sum_matches_contiguous_blocks(self, rng):
        a = rng.standard_normal((4, 27))
        out = split_row_sum(a, 3)
        assert out.shape == (4, 3)
        # Each part must reduce the same contiguous slice numpy would.
        for r in range(4):
            for k in range(3):
                assert out[r, k] == a[r, 9 * k:9 * (k + 1)].sum()

    def test_split_requires_divisible_width(self, rng):
        with pytest.raises(ValueError):
            split_row_sum(rng.standard_normal((2, 10)), 3)

    @given(st.integers(1, 6), st.integers(1, 5), st.integers(2, 3))
    def test_split_parts_recombine_to_row_sum(self, n, blocks, parts):
        rng = np.random.default_rng(n * 100 + blocks * 10 + parts)
        a = rng.standard_normal((n, parts * blocks))
        total = split_row_sum(a, parts).sum(axis=1, keepdims=True)
        assert np.allclose(total, row_sum(a), rtol=1e-12, atol=1e-12)


class TestDigitEntropy:
    def test_frozen_values(self):
        # delta_r of a row is the entropy of its subrange masses in bits.
        def dr(row, base):
            return _alg_rows(np.asarray([row]), base)[1][0]

        assert dr([1 / 3, 1 / 3, 1 / 3], 3) == pytest.approx(math.log2(3), rel=1e-15)
        assert dr([1.0, 0.0, 0.0], 3) == 0.0
        assert dr([0.5, 0.25, 0.25], 3) == pytest.approx(1.5, rel=1e-15)
        assert dr([0.5, 0.5], 2) == pytest.approx(1.0, rel=1e-15)


def _two_moment_delta_d(p: np.ndarray, base: int) -> np.ndarray:
    """delta_d of arithmetic profile 1: mean subrange variance minus the
    interval variance, each from second moments over positions 0..w-1."""
    w = p.shape[1]
    y = np.arange(w, dtype=np.float64)
    py = p * y
    py2 = py * y
    t = p.sum(axis=1, keepdims=True)
    m = py.sum(axis=1, keepdims=True) / t
    d_cur = py2.sum(axis=1, keepdims=True) / t - m * m
    s = p.reshape(-1, base, w // base).sum(axis=2)
    sy = py.reshape(-1, base, w // base).sum(axis=2)
    sy2 = py2.reshape(-1, base, w // base).sum(axis=2)
    mb = np.zeros_like(s)
    np.divide(sy, s, out=mb, where=s > 0.0)
    d_next = (sy2 - mb * mb * s).sum(axis=1, keepdims=True) / t
    return (d_next - d_cur)[:, 0]


def _exact_delta_d(row, base: int) -> float:
    """delta_d of one row in exact rational arithmetic."""
    p = [Fraction(float(x)) for x in row]
    sub = len(p) // base

    def spread(part, first):
        total = sum(part)
        mean = sum(x * (first + j) for j, x in enumerate(part)) / total
        return sum(x * (first + j - mean) ** 2 for j, x in enumerate(part))

    within = sum(spread(p[d * sub:(d + 1) * sub], d * sub)
                 for d in range(base) if sum(p[d * sub:(d + 1) * sub]))
    return float((within - spread(p, 0)) / sum(p))


class TestAlgRows:
    def test_uniform_width3(self):
        q, dr, dd = _alg_rows(np.full((1, 3), 1 / 3), 3)
        np.testing.assert_allclose(q[0], [1 / 3] * 3, rtol=1e-15)
        # uniform on {0,1,2}: variance 2/3 collapses to 0 after the digit
        assert dd[0] == pytest.approx(-2 / 3, rel=1e-12)
        assert dr[0] == pytest.approx(math.log2(3), rel=1e-12)

    def test_uniform_width9(self):
        _, dr, dd = _alg_rows(np.full((1, 9), 1.0), 3)
        # var(U{0..8}) = 80/12; each third keeps var(U{0..2}) = 2/3
        assert dd[0] == pytest.approx(2 / 3 - 80 / 12, rel=1e-12)
        assert dr[0] == pytest.approx(math.log2(3), rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        p = rng.random((4, 27))
        q1, dr1, dd1 = _alg_rows(p, 3)
        q2, dr2, dd2 = _alg_rows(p * 7.5, 3)
        np.testing.assert_allclose(q1, q2, rtol=1e-12)
        np.testing.assert_allclose(dr1, dr2, rtol=1e-12)
        np.testing.assert_allclose(dd1, dd2, rtol=1e-12)

    def test_against_moment_oracle(self):
        bank = _bank([1.3], 3)
        p = bank.element_masses(0)[None, :]
        _, dr, dd = _alg_rows(p, 3)
        support = bank.offsets[0] + np.arange(27)
        _, var0 = interval_moments_oracle(1.3, support)
        parts = []
        weights = []
        for k in range(3):
            seg = support[9 * k:9 * (k + 1)]
            _, v = interval_moments_oracle(1.3, seg)
            w = math.fsum(float(p[0, j]) for j in range(9 * k, 9 * (k + 1)))
            parts.append(v * w)
            weights.append(w)
        d_next = math.fsum(parts) / math.fsum(weights)
        assert dd[0] == pytest.approx(d_next - var0, rel=1e-9)
        q = np.asarray(weights) / math.fsum(weights)
        assert dr[0] == pytest.approx(entropy_bits(q), rel=1e-9)


    @pytest.mark.parametrize("base", [2, 3])
    def test_delta_d_matches_two_moment_formula(self, base):
        rng = np.random.default_rng(base)
        for ell in range(1, 7 if base == 2 else 5):
            w = base ** ell
            p = rng.random((60, w))
            p[::4, :w // base] = 0.0          # an empty subrange
            p[1::4] **= 8                     # skewed rows
            _, _, dd = _alg_rows(p, base)
            old = _two_moment_delta_d(p, base)
            assert np.all(np.abs(dd - old) <= 1e-12 * np.maximum(1.0, np.abs(old)))

    @pytest.mark.parametrize("base,w", [(2, 256), (3, 243)])
    def test_delta_d_exact_on_concentrated_rows(self, base, w):
        # Mass concentrated far from position 0: the two-moment formula
        # subtracts second moments near centre**2 and keeps only about
        # 1e-11 relative accuracy; minus the between-subrange variance
        # stays within a few ulps.
        rng = np.random.default_rng(w)
        y = np.arange(w)
        for _ in range(6):
            centre, sd = rng.uniform(0.3 * w, 0.9 * w), rng.uniform(0.5, 4.0)
            p = np.exp(-0.5 * ((y - centre) / sd) ** 2)[None, :]
            _, _, dd = _alg_rows(p, base)
            exact = _exact_delta_d(p[0], base)
            assert dd[0] <= 0.0
            assert abs(dd[0] - exact) <= 1e-14 * max(1.0, abs(exact))


class TestSingleElementOps:
    def test_conditional_pmf_matches_block_sums(self):
        # After digit 1 at plane 0 the interval is the middle third of the
        # element's 27 masses; the next plane's statistics come from its
        # three blocks of three.
        bank = _bank([2.2], 3)
        state = IntervalState.initial(bank)
        state.apply_plane_digits(0, np.asarray([0]), np.asarray([1]))
        pr = plane_priorities_vectorized(bank, state, 1)
        block = bank.element_masses(0)[9:18]
        pmf = block.reshape(3, 3).sum(axis=1) / block.sum()
        assert pr.uncertain.tolist() == [0]
        assert np.array_equal(pr.tables[0], quantize_pmf_rows(pmf[None])[0])
        assert pr.delta_r[0] == pytest.approx(entropy_bits(pmf), rel=1e-12)
        assert pr.delta_d[0] == _alg_rows(block[None, :], 3)[2][0]


class TestPlanePriorities:
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_naive_vectorized_bit_identical(self, seed, base, n):
        rng = np.random.default_rng(seed)
        sig = np.exp(rng.uniform(np.log(0.05), np.log(9.0), size=n))
        bank = _bank(sig, base)
        state, plane = _random_state(bank, rng)
        if plane == bank.l_max:
            return
        a = plane_priorities_vectorized(bank, state, plane)
        b = plane_priorities_naive(bank, state, plane)
        assert np.array_equal(a.active, b.active)
        assert np.array_equal(a.tables, b.tables)
        assert np.array_equal(a.certain, b.certain)
        assert np.array_equal(a.forced_digit, b.forced_digit)
        assert np.array_equal(a.uncertain, b.uncertain)
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.delta_r, b.delta_r)
        assert np.array_equal(a.delta_d, b.delta_d)

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_statistic_ranges(self, seed, base):
        rng = np.random.default_rng(seed)
        sig = np.exp(rng.uniform(np.log(0.05), np.log(9.0), size=40))
        bank = _bank(sig, base)
        state, plane = _random_state(bank, rng)
        if plane == bank.l_max:
            return
        pr = plane_priorities_vectorized(bank, state, plane)
        assert np.all(pr.delta_d <= 1e-15)
        assert np.all(pr.delta_r > 0.0)
        assert np.all(pr.delta_r <= math.log2(base) + 1e-12)

    def test_order_sorted_by_priority_with_id_ties(self):
        rng = np.random.default_rng(5)
        sig = np.exp(rng.uniform(np.log(0.3), np.log(9.0), size=80))
        bank = _bank(sig, 3)
        pr = plane_priorities_vectorized(bank, IntervalState.initial(bank), 0)
        pos = np.searchsorted(pr.uncertain, pr.order)
        prio = (-pr.delta_d / pr.delta_r)[pos]
        assert np.all(np.diff(prio) <= 0.0)
        for k in range(len(prio) - 1):
            if prio[k] == prio[k + 1]:
                assert pr.order[k] < pr.order[k + 1]

    def test_identical_scales_order_by_element_id(self):
        bank = _bank([1.0] * 7, 3)
        state = IntervalState.initial(bank)
        top = plane_priorities_vectorized(bank, state, 0)
        state.apply_plane_digits(0, top.certain, top.forced_digit)
        pr = plane_priorities_vectorized(bank, state, 1)
        assert pr.order.tolist() == list(range(7))

    def test_rejects_misaligned_state(self):
        bank = _bank([1.0] * 3, 3)
        with pytest.raises(ValueError):
            plane_priorities_vectorized(bank, IntervalState.initial(bank), 1)

    def test_certainty_follows_quantized_table(self):
        # sigma 1, base 3, plane 0: branch masses (3.4e-6, ~1, 3.4e-6) fall
        # below 2**-16, so the top digit is certain and forced to 1.
        bank = _bank([1.0], 3)
        pr = plane_priorities_vectorized(bank, IntervalState.initial(bank), 0)
        assert pr.certain.tolist() == [0]
        assert pr.forced_digit.tolist() == [1]
        assert pr.uncertain.size == 0
        assert pr.tables[0].tolist() == [0, TABLE_TOTAL, 0]

    def test_sigma02_plane_is_uncertain(self):
        # branch masses (.0062, .9876, .0062) all clear the floor
        bank = _bank([0.2], 3)
        pr = plane_priorities_vectorized(bank, IntervalState.initial(bank), 0)
        assert pr.uncertain.tolist() == [0]
        assert np.all(pr.tables[0] > 0)

    def test_coded_tables_follow_order(self):
        rng = np.random.default_rng(9)
        sig = np.exp(rng.uniform(np.log(0.3), np.log(9.0), size=20))
        bank = _bank(sig, 2)
        pr = plane_priorities_vectorized(bank, IntervalState.initial(bank), 0)
        assert pr.order.size > 1
        assert pr.coded_tables.shape == (pr.order.size, 2)
        for k, i in enumerate(pr.order):
            row = int(np.flatnonzero(pr.active == i)[0])
            assert np.array_equal(pr.coded_tables[k], pr.tables[row])

    def test_deterministic_across_calls(self):
        bank = _bank([0.7, 1.9, 4.0], 3)
        s1 = IntervalState.initial(bank)
        s2 = IntervalState.initial(bank)
        a = plane_priorities_vectorized(bank, s1, 0)
        b = plane_priorities_vectorized(bank, s2, 0)
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.tables, b.tables)


class TestBlocks:
    """The bounded blocks of the model build and of the row gathers behind
    the priorities and the interval moments change no bit."""

    @staticmethod
    def _walk(sig, base, monkeypatch, bank_block, gather_block):
        monkeypatch.setattr(gaussian, "_BLOCK_ENTRIES", bank_block)
        monkeypatch.setattr(gaussian, "_GATHER_ENTRIES", gather_block)
        seen = []
        assemble = priority._assemble

        def spy(plane, active, tables, dr, dd):
            seen.append((tables.copy(), dr.copy(), dd.copy()))
            return assemble(plane, active, tables, dr, dd)

        def moments(state):
            return bank.moments(np.arange(bank.size), state.lo, state.widths())

        monkeypatch.setattr(priority, "_assemble", spy)
        bank = build_model_bank(sig, base)
        vals = bank.offsets + np.random.default_rng(1).integers(0, bank.lengths)
        digits = digit_planes(vals, bank)
        state = IntervalState.initial(bank)
        planes = [moments(state)]
        for n in range(bank.l_max):
            pr = plane_priorities_vectorized(bank, state, n)
            planes.append((pr.tables, pr.order, pr.coded_tables) + seen[-1])
            ids = state.active_ids(n)
            state.apply_plane_digits(n, ids, digits[n, ids])
            planes.append(moments(state))
        return bank.masses_flat, planes

    @pytest.mark.parametrize("base", [2, 3])
    def test_tiny_blocks_match_one_block(self, base, monkeypatch):
        rng = np.random.default_rng(base)
        sig = np.exp(rng.uniform(np.log(0.05), np.log(9.0), size=301))
        one_flat, one = self._walk(sig, base, monkeypatch, 1 << 40, 1 << 40)
        # 50 and 30 entries: many blocks per exponent group, per plane and
        # per width group, single-row blocks for the widest rows, and a
        # ragged last block.
        flat, blocked = self._walk(sig, base, monkeypatch, 50, 30)
        assert np.array_equal(flat, one_flat)
        assert len(blocked) == len(one)
        for got, want in zip(blocked, one):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


def test_zero_entropy_uncertain_row_is_corruption():
    # Two nonzero bins but no entropy cannot come from a real model; a
    # stripped assert must not let it through under python -O.
    tables = quantize_pmf_rows(np.asarray([[0.5, 0.5]]))
    with pytest.raises(CorruptionError):
        _assemble(0, np.asarray([0]), tables, np.asarray([0.0]), np.asarray([-1.0]))
