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
bit-identical results.  Both read their mass rows through
ModelBank.row_blocks and call the same row reductions, row_sum and
split_row_sum, and the same quantizer on them; the naive path just asks for
one element at a time.  numpy reduces each row independently of how many
rows sit in the batch, so the per-row results, and hence the final
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


def _branch_tables(base: int, n: int, blocks):
    """Quantized tables, delta_r and delta_d of n rows from (k, rows) blocks."""
    tables = np.empty((n, base), dtype=np.uint32)
    dr = np.empty(n, dtype=np.float64)
    dd = np.empty(n, dtype=np.float64)
    for k, p in blocks:
        q, dr[k], dd[k] = _alg_rows(p, base)
        tables[k] = quantize_pmf_rows(q)
    return tables, dr, dd


def _assemble(plane: int, active: np.ndarray, tables: np.ndarray,
              dr: np.ndarray, dd: np.ndarray) -> PlanePriorities:
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

    Rows are reduced and quantized in the bounded blocks of
    ModelBank.row_blocks, so temporaries stay bounded whatever the plane
    size; rows reduce independently, so the blocks change no result.
    """
    active = _active_rows(state, plane)
    width = bank.base ** (bank.l_max - plane)
    blocks = bank.row_blocks(active, state.lo[active], width)
    return _assemble(plane, active, *_branch_tables(bank.base, active.size, blocks))


def plane_priorities_naive(bank: ModelBank, state: IntervalState,
                           plane: int) -> PlanePriorities:
    """Reference implementation: one element at a time, same kernels."""
    active = _active_rows(state, plane)
    width = bank.base ** (bank.l_max - plane)
    lo = state.lo[active]
    blocks = ((slice(r, r + 1), p) for r in range(active.size)
              for _, p in bank.row_blocks(active[r:r + 1], lo[r:r + 1], width))
    return _assemble(plane, active, *_branch_tables(bank.base, active.size, blocks))
