import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tritstream.reduction import Shape, row_sum, split_row_sum


class TestShape:
    def test_basic(self):
        s = Shape(2, 3, 4)
        assert s.astuple() == (2, 3, 4)
        assert s.size == 24

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, dims):
        with pytest.raises(ValueError):
            Shape(*dims)


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
