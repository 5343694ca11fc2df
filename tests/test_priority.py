import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tritstream.gaussian as gaussian
import tritstream.priority as priority
from conftest import interval_moments_oracle
from tritstream.entropy import TABLE_TOTAL
from tritstream.errors import CorruptionError
from tritstream.gaussian import build_model_bank
from tritstream.priority import (
    _alg_rows,
    _assemble,
    conditional_pmf,
    delta_d,
    digit_entropy,
    plane_priorities_naive,
    plane_priorities_vectorized,
)
from tritstream.slicing import IntervalState, refine, slice_latent


def _bank(sigmas, base):
    return build_model_bank(np.asarray(sigmas, dtype=np.float64), base)


def _random_state(bank, rng):
    """A plane-aligned partial refinement driven by in-model values."""
    vals = bank.offsets + rng.integers(0, bank.lengths)
    stack = slice_latent(vals, bank)
    state = IntervalState.initial(bank)
    stop = rng.integers(0, bank.l_max + 1)
    for n in range(stop):
        ids = state.active_ids(n)
        state.apply_plane_digits(n, ids, stack.planes[n, ids])
    return state, int(stop)


class TestDigitEntropy:
    def test_frozen_values(self):
        assert digit_entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(math.log2(3), rel=1e-15)
        assert digit_entropy([1.0, 0.0, 0.0]) == 0.0
        assert digit_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, rel=1e-15)
        assert digit_entropy([0.5, 0.5]) == pytest.approx(1.0, rel=1e-15)


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
        assert dr[0] == pytest.approx(digit_entropy(q), rel=1e-9)


class TestSingleElementOps:
    def test_conditional_pmf_matches_block_sums(self):
        bank = _bank([2.2], 3)
        state = IntervalState.initial(bank)
        refine(state, 0, 1)
        pmf = conditional_pmf(bank, state, 0)
        p = bank.element_masses(0)
        block = p[9:18]
        expect = block.reshape(3, 3).sum(axis=1) / block.sum()
        np.testing.assert_allclose(pmf, expect, rtol=1e-12)
        assert pmf.sum() == pytest.approx(1.0, rel=1e-12)

    def test_conditional_pmf_on_refined_interval(self):
        bank = _bank([0.2], 3)
        state = IntervalState.initial(bank)
        refine(state, 0, 1)
        with pytest.raises(ValueError):
            conditional_pmf(bank, state, 0)

    def test_delta_d_is_alg_rows_on_one_row(self):
        bank = _bank([1.7], 2)
        state = IntervalState.initial(bank)
        refine(state, 0, 1)
        w = int(state.widths()[0])
        s0 = int(bank.starts[0] + state.lo[0])
        _, _, dd = _alg_rows(bank.masses_flat[s0:s0 + w][None, :], 2)
        assert delta_d(bank, state, 0) == dd[0]


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
    """The bounded blocks of the model build and the priorities change no bit."""

    @staticmethod
    def _walk(sig, base, monkeypatch, bank_block, prio_block):
        monkeypatch.setattr(gaussian, "_BLOCK_ENTRIES", bank_block)
        monkeypatch.setattr(priority, "_BLOCK_ENTRIES", prio_block)
        seen = []
        assemble = priority._assemble

        def spy(plane, active, q, dr, dd):
            seen.append((q.copy(), dr.copy(), dd.copy()))
            return assemble(plane, active, q, dr, dd)

        monkeypatch.setattr(priority, "_assemble", spy)
        bank = build_model_bank(sig, base)
        vals = bank.offsets + np.random.default_rng(1).integers(0, bank.lengths)
        stack = slice_latent(vals, bank)
        state = IntervalState.initial(bank)
        planes = []
        for n in range(bank.l_max):
            pr = plane_priorities_vectorized(bank, state, n)
            planes.append((pr.tables, pr.order, pr.coded_tables) + seen[-1])
            ids = state.active_ids(n)
            state.apply_plane_digits(n, ids, stack.planes[n, ids])
        return bank.masses_flat, planes

    @pytest.mark.parametrize("base", [2, 3])
    def test_tiny_blocks_match_one_block(self, base, monkeypatch):
        rng = np.random.default_rng(base)
        sig = np.exp(rng.uniform(np.log(0.05), np.log(9.0), size=301))
        one_flat, one = self._walk(sig, base, monkeypatch, 1 << 40, 1 << 40)
        # 50 and 40 entries: many blocks per exponent group and per plane,
        # single-row blocks for the widest rows, and a ragged last block.
        flat, blocked = self._walk(sig, base, monkeypatch, 50, 40)
        assert np.array_equal(flat, one_flat)
        assert len(blocked) == len(one)
        for got, want in zip(blocked, one):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


def test_zero_entropy_uncertain_row_is_corruption():
    # Two nonzero bins but no entropy cannot come from a real model; a
    # stripped assert must not let it through under python -O.
    q = np.asarray([[0.5, 0.5]])
    with pytest.raises(CorruptionError):
        _assemble(0, np.asarray([0]), q, np.asarray([0.0]), np.asarray([-1.0]))
