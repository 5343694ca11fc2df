"""Rate-distortion ordering of digits within a plane.

For each element still carrying digits at the current plane, the conditional
model over its interval is split into `base` subranges.  Coding the digit
costs the branch entropy (delta_r bits) and shrinks the expected squared
error from the interval variance to the mean subrange variance (delta_d,
always negative for a genuinely uncertain digit).  Digits are then coded in
decreasing -delta_d / delta_r, ties broken by ascending element id.

Certainty is decided by the quantized frequency table, not the raw masses: a
digit whose table has a single nonzero bin is forced and costs no bytes.
Because the quantizer zeroes exactly the conditional masses below 2**-16,
"uncertain" means at least two subranges each hold at least 2**-16 of the
interval's mass, which bounds delta_r away from 0, so the priority ratio is
always well defined.

plane_priorities_vectorized and plane_priorities_naive must produce
bit-identical results.  Both call the same row reductions, row_sum and
split_row_sum, on the same C-contiguous float64 rows; the naive path just
feeds them one element at a time.  numpy reduces each row independently of
how many rows sit in the batch, so the per-row sums, and hence the final
ordering, cannot drift between the paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .entropy import quantize_pmf_rows
from .errors import CorruptionError
from .gaussian import ModelBank
from .slicing import IntervalState

__all__ = [
    "PlanePriorities",
    "plane_priorities_vectorized",
    "plane_priorities_naive",
]

# Mass entries one block of plane_priorities_vectorized gathers; a block
# always holds at least one row.
_BLOCK_ENTRIES = 1 << 16


# codecbench/tracer.py patches row_sum and split_row_sum here by name.
def row_sum(a: np.ndarray) -> np.ndarray:
    """Sum every row of an (N, M) matrix, returning an (N, 1) column."""
    return a.sum(axis=1, keepdims=True)


def split_row_sum(a: np.ndarray, parts: int) -> np.ndarray:
    """Sum each row of an (N, M) matrix over `parts` equal contiguous column
    blocks, returning (N, parts); M must be divisible by `parts`."""
    n, m = a.shape
    return a.reshape(n, parts, m // parts).sum(axis=2)


def _alg_rows(p: np.ndarray, base: int):
    """Branch statistics for mass rows p over intervals of equal width.

    Returns (q, dr, dd): per-row branch PMF (n, base), entropy in bits (n,),
    and the change in conditional variance (n,).  Rows need not be
    normalized; every statistic is scaled by the row total.

    Coding the digit replaces the interval variance by the mean subrange
    variance; by the law of total variance the difference is minus the
    variance of the subrange means, sum_d q_d (mu_d - m)^2.  Each mu_d is
    taken over positions 0..sub-1 within its subrange and shifted by d*sub,
    so one weighted pass over p suffices and no two large second moments
    are subtracted.
    """
    w = p.shape[1]
    sub = w // base
    y = np.tile(np.arange(sub, dtype=np.float64), base)
    t = row_sum(p)
    s = split_row_sum(p, base)
    sy = split_row_sum(p * y, base)
    mb = np.zeros_like(s)
    np.divide(sy, s, out=mb, where=s > 0.0)
    mb += np.arange(0, w, sub, dtype=np.float64)
    q = s / t
    m = row_sum(q * mb)
    mb -= m
    between = row_sum(q * mb * mb)
    dr = row_sum(xlogy(q, q)) / (-math.log(2.0))
    return q, dr[:, 0], -between[:, 0]


@dataclass(frozen=True)
class PlanePriorities:
    """Everything both coder sides need to process one plane.

    `active` lists the elements with a digit at this plane, ascending.
    `tables` holds their quantized frequency rows in the same order.
    Forced digits for `certain` elements are applied without coding;
    `order` gives the coding order of the `uncertain` elements, and
    `coded_tables[k]` is the frequency row digit `order[k]` is coded with.
    """

    plane: int
    active: np.ndarray
    tables: np.ndarray
    certain: np.ndarray
    forced_digit: np.ndarray
    uncertain: np.ndarray
    delta_r: np.ndarray
    delta_d: np.ndarray
    order: np.ndarray
    coded_tables: np.ndarray


def _assemble(plane: int, active: np.ndarray, q: np.ndarray,
              dr: np.ndarray, dd: np.ndarray) -> PlanePriorities:
    tables = quantize_pmf_rows(q) if active.size else np.zeros((0, q.shape[1]), np.uint32)
    certain_mask = (tables > 0).sum(axis=1) == 1
    certain = active[certain_mask]
    forced = tables.argmax(axis=1)[certain_mask].astype(np.uint8)
    rows = np.flatnonzero(~certain_mask)
    u_dr = dr[rows]
    u_dd = dd[rows]
    if not np.all(u_dr > 0.0):
        raise CorruptionError("uncertain digit with zero entropy")
    prio = -u_dd / u_dr
    coded = rows[np.argsort(-prio, kind="stable")]
    return PlanePriorities(
        plane=plane,
        active=active,
        tables=tables,
        certain=certain,
        forced_digit=forced,
        uncertain=active[rows],
        delta_r=u_dr,
        delta_d=u_dd,
        order=active[coded],
        coded_tables=tables[coded],
    )


def _active_rows(state: IntervalState, plane: int) -> np.ndarray:
    active = state.active_ids(plane)
    expected = plane - (state.l_max - state.exponents[active])
    if np.any(state.applied[active] != expected):
        raise ValueError(f"interval state is not positioned at plane {plane}")
    return active


def plane_priorities_vectorized(bank: ModelBank, state: IntervalState,
                                plane: int) -> PlanePriorities:
    """Branch statistics and coding order for one plane, a block of rows at a time.

    Each block gathers about _BLOCK_ENTRIES mass entries, so temporaries stay
    bounded whatever the plane size; rows reduce independently, so the
    blocks change no result.
    """
    active = _active_rows(state, plane)
    width = bank.base ** (bank.l_max - plane)
    first = (bank.starts + state.lo)[active]
    windows = bank.windows(width)
    q = np.empty((active.size, bank.base), dtype=np.float64)
    dr = np.empty(active.size, dtype=np.float64)
    dd = np.empty(active.size, dtype=np.float64)
    step = max(1, _BLOCK_ENTRIES // width)
    for a in range(0, active.size, step):
        b = a + step
        q[a:b], dr[a:b], dd[a:b] = _alg_rows(windows[first[a:b]], bank.base)
    return _assemble(plane, active, q, dr, dd)


def plane_priorities_naive(bank: ModelBank, state: IntervalState,
                           plane: int) -> PlanePriorities:
    """Reference implementation: one element at a time, same kernels."""
    active = _active_rows(state, plane)
    width = bank.base ** (bank.l_max - plane)
    q = np.empty((active.size, bank.base), dtype=np.float64)
    dr = np.empty(active.size, dtype=np.float64)
    dd = np.empty(active.size, dtype=np.float64)
    for row, i in enumerate(active):
        s0 = bank.starts[i] + state.lo[i]
        p_i = bank.masses_flat[s0:s0 + width][None, :]
        q_i, dr_i, dd_i = _alg_rows(p_i, bank.base)
        q[row] = q_i[0]
        dr[row] = dr_i[0]
        dd[row] = dd_i[0]
    return _assemble(plane, active, q, dr, dd)
