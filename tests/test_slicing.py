import numpy as np
import pytest

from conftest import digit_planes
from tritstream.gaussian import build_model_bank
from tritstream.slicing import IntervalState


def _bank(sigmas, base):
    return build_model_bank(np.asarray(sigmas, dtype=np.float64), base)


class TestIntervalState:
    def test_initial_widths(self):
        bank = _bank([1.0, 10.0, 0.2], 3)
        st0 = IntervalState.initial(bank)
        assert st0.widths().tolist() == [27, 243, 3]
        assert st0.active_ids(0).tolist() == [1]
        assert st0.active_ids(2).tolist() == [0, 1]
        assert st0.active_ids(4).tolist() == [0, 1, 2]

    def test_apply_tracks_sliced_digits(self):
        bank = _bank([1.0, 10.0], 3)
        vals = np.asarray([5, -37])
        planes = digit_planes(vals, bank)
        state = IntervalState.initial(bank)
        for n in range(bank.l_max):
            ids = state.active_ids(n)
            state.apply_plane_digits(n, ids, planes[n, ids])
        assert np.all(state.widths() == 1)
        assert np.array_equal(bank.offsets + state.lo, vals)

    def test_wrong_plane_rejected(self):
        bank = _bank([1.0, 10.0], 3)
        state = IntervalState.initial(bank)
        with pytest.raises(ValueError):  # must start at plane 0, element 1 only
            state.apply_plane_digits(1, np.asarray([1]), np.asarray([0]))
        with pytest.raises(ValueError):  # element 0 is dormant at plane 0
            state.apply_plane_digits(0, np.asarray([0]), np.asarray([0]))

    def test_digit_range_checked(self):
        bank = _bank([1.0], 3)
        state = IntervalState.initial(bank)
        with pytest.raises(ValueError):
            state.apply_plane_digits(0, np.asarray([0]), np.asarray([3]))

    def test_refine_single_element(self):
        # sigma 1, base 3: interval [-13, 13]; digits 1, 0, 2 pick -13 + 11.
        bank = _bank([1.0], 3)
        state = IntervalState.initial(bank)
        one = np.asarray([0])
        state.apply_plane_digits(0, one, np.asarray([1]))
        assert state.widths().tolist() == [9]
        assert state.lo.tolist() == [9]
        state.apply_plane_digits(1, one, np.asarray([0]))
        state.apply_plane_digits(2, one, np.asarray([2]))
        assert state.widths().tolist() == [1]
        assert (bank.offsets + state.lo).tolist() == [-2]
        with pytest.raises(ValueError):  # plane 2 is already applied
            state.apply_plane_digits(2, one, np.asarray([0]))
