import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tritstream.gaussian as gaussian
from conftest import bin_mass, phi
from tritstream.gaussian import (
    SIGMA_MAX,
    SIGMA_MIN,
    TAIL_EPSILON,
    _TAIL_Z,
    build_element_model,
    build_model_bank,
    interval_exponent,
)

# Quantile of 1 - 5e-10, from mpmath erfinv at 40 digits.
Z_ORACLE = 6.1094102048693971


def test_tail_quantile_matches_oracle():
    assert _TAIL_Z == pytest.approx(Z_ORACLE, rel=1e-12)


class TestIntervalExponent:
    # (sigma, base) -> L, each verified by hand against 2 * sigma * z.
    CASES = [
        (1.0, 2, 4), (1.0, 3, 3), (10.0, 3, 5), (0.2, 3, 1), (0.2, 2, 2),
        (0.05, 2, 1), (0.05, 3, 1), (8.0, 2, 7), (8.0, 3, 5),
        (0.1, 2, 1), (0.1, 3, 1),
    ]

    @pytest.mark.parametrize("sigma,base,expected", CASES)
    def test_frozen_cases(self, sigma, base, expected):
        ell = interval_exponent(sigma, base)
        assert isinstance(ell, int)
        assert ell == expected

    def test_clamps_tiny_scales(self):
        assert interval_exponent(1e-6, 2) == interval_exponent(SIGMA_MIN, 2)

    def test_vector_input(self):
        out = interval_exponent(np.asarray([1.0, 10.0, 0.2]), 3)
        assert out.dtype == np.int64
        assert out.tolist() == [3, 5, 1]

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            interval_exponent(1.0, 4)

    @given(st.floats(SIGMA_MIN, 50.0))
    def test_minimality(self, sigma):
        for base in (2, 3):
            ell = interval_exponent(sigma, base)
            target = 2.0 * sigma * Z_ORACLE
            assert base ** ell >= target * (1 - 1e-12)
            assert ell == 1 or base ** (ell - 1) < target * (1 + 1e-12)


class TestElementModel:
    def test_sigma1_base3_layout(self):
        m = build_element_model(1.0, 3)
        assert (m.exponent, m.offset, m.masses.size) == (3, -13, 27)
        assert m.support[0] == -13 and m.support[-1] == 13

    def test_sigma1_base2_layout(self):
        m = build_element_model(1.0, 2)
        # Asymmetric by half a step: zero sits on a decision boundary.
        assert (m.exponent, m.offset, m.masses.size) == (4, -7, 16)
        assert m.support[-1] == 8

    def test_sigma1_base3_masses_match_erf_oracle(self):
        m = build_element_model(1.0, 3)
        frozen = {
            0: 0.38292492254802621,
            1: 0.24173033745712883,
            2: 0.060597535943081931,
            3: 0.0059770362467406101,
            4: 0.00022923140591079498,
        }
        for k, expected in frozen.items():
            assert m.masses[13 + k] == pytest.approx(expected, rel=1e-13)
            assert m.masses[13 + k] == pytest.approx(bin_mass(1.0, k), rel=1e-13)

    def test_sigma02_base3_masses(self):
        m = build_element_model(0.2, 3)
        assert m.masses.size == 3
        assert m.masses[1] == pytest.approx(0.98758066934844772, rel=1e-13)
        assert m.masses[0] == pytest.approx(0.0062096653257442287, rel=1e-12)

    @given(st.floats(SIGMA_MIN, 30.0))
    def test_base3_rows_mirror_exact(self, sigma):
        m = build_element_model(sigma, 3)
        assert np.array_equal(m.masses, m.masses[::-1])

    @given(st.floats(SIGMA_MIN, 30.0), st.sampled_from([2, 3]))
    def test_masses_positive_and_normalized(self, sigma, base):
        m = build_element_model(sigma, base)
        assert np.all(m.masses > 0.0)
        assert math.fsum(m.masses) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.3, 20.0), st.sampled_from([2, 3]))
    def test_masses_match_oracle_everywhere(self, sigma, base):
        m = build_element_model(sigma, base)
        raw = np.asarray([bin_mass(sigma, int(v)) for v in m.support])
        raw /= raw.sum()
        np.testing.assert_allclose(m.masses, raw, rtol=1e-9, atol=1e-300)

    def test_clipped_tail_below_epsilon(self):
        for base in (2, 3):
            m = build_element_model(1.0, base)
            lo, hi = m.support[0], m.support[-1]
            outside = phi((lo - 0.5) / 1.0) + (1.0 - phi((hi + 0.5) / 1.0))
            assert outside < 2 * TAIL_EPSILON * 1.01


class TestModelBank:
    def test_layout_and_element_access(self):
        bank = build_model_bank(np.asarray([1.0, 0.2, 10.0]), 3)
        assert bank.l_max == 5
        assert bank.exponents.tolist() == [3, 1, 5]
        assert bank.lengths.tolist() == [27, 3, 243]
        assert bank.starts.tolist() == [0, 27, 30]
        assert bank.masses_flat.size == 273
        for i in range(3):
            em = bank.element_model(i)
            assert np.array_equal(em.masses, bank.element_masses(i))
            single = build_element_model(float(bank.sigmas[i]), 3)
            np.testing.assert_array_equal(em.masses, single.masses)
            assert (em.exponent, em.offset) == (single.exponent, single.offset)

    def test_clamping(self):
        bank = build_model_bank(np.asarray([0.01]), 2)
        ref = build_model_bank(np.asarray([SIGMA_MIN]), 2)
        assert np.array_equal(bank.masses_flat, ref.masses_flat)
        assert bank.sigmas[0] == SIGMA_MIN

    @pytest.mark.parametrize("bad", [[], [0.0], [-1.0], [np.nan], [np.inf]])
    def test_rejects_invalid_scales(self, bad):
        with pytest.raises(ValueError):
            build_model_bank(np.asarray(bad, dtype=np.float64), 3)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            build_model_bank(np.asarray([1.0]), 10)

    @pytest.mark.parametrize("sigmas,base", [
        ([3e38], 2),            # L = 132: 2**132 wraps an int64 length
        ([3e38], 3),            # L = 83
        ([2e17] * 3, 3),        # L = 39 each fits, the three together do not
        ([1e308], 2),           # 2 * sigma * z overflows to inf
    ])
    def test_rejects_models_beyond_int64(self, sigmas, base):
        # The scale ceiling rejects these long before int64 would overflow.
        with pytest.raises(ValueError, match="SIGMA_MAX"):
            build_model_bank(np.asarray(sigmas, dtype=np.float64), base)

    @pytest.mark.parametrize("base,planes", [(2, 19), (3, 12)])
    def test_scale_ceiling(self, base, planes):
        bank = build_model_bank(np.asarray([SIGMA_MAX, 1.0]), base)
        assert bank.l_max == interval_exponent(SIGMA_MAX, base) == planes
        assert bank.lengths[0] == base ** planes
        with pytest.raises(ValueError, match="SIGMA_MAX"):
            build_model_bank(np.asarray([np.nextafter(SIGMA_MAX, np.inf)]), base)

    @pytest.mark.parametrize("base", [2, 3])
    def test_row_blocks_gather_the_element_masses(self, base, monkeypatch):
        monkeypatch.setattr(gaussian, "_BLOCK_ENTRIES", 20)
        bank = build_model_bank(np.asarray([0.3, 4.0, 1.5, 9.0, 2.5]), base)
        ids = np.asarray([3, 1, 4, 3])
        width = base ** 2
        lo = np.asarray([0, 1, width, bank.lengths[3] - width])
        covered = []
        for k, rows in bank.row_blocks(ids, lo, width):
            assert rows.flags.c_contiguous and rows.shape[0] == len(ids[k])
            covered += range(ids.size)[k]
            for r, i, a in zip(rows, ids[k], lo[k]):
                assert np.array_equal(r, bank.element_masses(i)[a:a + width])
        assert covered == list(range(ids.size))

    def test_built_bank_makes_every_array_read_only(self):
        bank = build_model_bank(np.asarray([0.3, 4.0]), 3)
        for arr in (bank.sigmas, bank.exponents, bank.offsets, bank.lengths,
                    bank.starts, bank.masses_flat):
            assert not arr.flags.writeable
