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
bit-identical results.  Both call the same row-reduction kernels on the same
float64 rows; the naive path just feeds them one element at a time.  numpy
reduces each row independently of how many rows sit in the batch, so the
per-row sums, and hence the final ordering, cannot drift between the paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .entropy import quantize_pmf_rows
from .errors import CorruptionError
from .gaussian import ModelBank
from .reduction import row_sum, split_row_sum
from .slicing import IntervalState

__all__ = [
    "PlanePriorities",
    "plane_priorities_vectorized",
    "plane_priorities_naive",
    "conditional_pmf",
    "digit_entropy",
    "delta_d",
]

# Mass entries one block of plane_priorities_vectorized gathers; a block
# always holds at least one row.
_BLOCK_ENTRIES = 1 << 16


def _alg_rows(p: np.ndarray, base: int):
    """Branch statistics for mass rows p over intervals of equal width.

    Returns (q, dr, dd): per-row branch PMF (n, base), entropy in bits (n,),
    and the change in conditional variance (n,).  Rows need not be
    normalized; every statistic is scaled by the row total.  The position
    grid is 0..w-1 regardless of the true integer values: both statistics
    are shift-invariant.
    """
    w = p.shape[1]
    y = np.arange(w, dtype=np.float64)
    py = p * y
    py2 = py * y
    t = row_sum(p)
    m = row_sum(py) / t
    d_cur = row_sum(py2) / t - m * m
    s = split_row_sum(p, base)
    sy = split_row_sum(py, base)
    sy2 = split_row_sum(py2, base)
    mb = np.zeros_like(s)
    np.divide(sy, s, out=mb, where=s > 0.0)
    d_next = row_sum(sy2 - mb * mb * s) / t
    q = s / t
    dr = row_sum(xlogy(q, q)) / (-math.log(2.0))
    dd = d_next - d_cur
    return q, dr[:, 0], dd[:, 0]


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
    cols = np.arange(width)
    q = np.empty((active.size, bank.base), dtype=np.float64)
    dr = np.empty(active.size, dtype=np.float64)
    dd = np.empty(active.size, dtype=np.float64)
    step = max(1, _BLOCK_ENTRIES // width)
    for a in range(0, active.size, step):
        b = a + step
        p = bank.masses_flat[first[a:b, None] + cols]
        q[a:b], dr[a:b], dd[a:b] = _alg_rows(p, bank.base)
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


def conditional_pmf(bank: ModelBank, state: IntervalState, element: int) -> np.ndarray:
    """Probability of each base-b subrange of one element's current interval."""
    w = int(state.widths()[element])
    if w < bank.base:
        raise ValueError("interval is fully refined")
    s0 = int(bank.starts[element] + state.lo[element])
    p = bank.masses_flat[s0:s0 + w]
    total = p.sum()
    if total <= 0.0:
        raise CorruptionError("current interval carries no mass")
    return p.reshape(bank.base, -1).sum(axis=1) / total


def digit_entropy(q) -> float:
    """Entropy of a digit PMF in bits, with 0 log 0 taken as 0."""
    q = np.asarray(q, dtype=np.float64)
    return float(xlogy(q, q).sum() / -math.log(2.0))


def delta_d(bank: ModelBank, state: IntervalState, element: int) -> float:
    """Expected change in squared error from coding one element's next digit."""
    w = int(state.widths()[element])
    s0 = int(bank.starts[element] + state.lo[element])
    p = bank.masses_flat[s0:s0 + w][None, :]
    _, _, dd = _alg_rows(p, bank.base)
    return float(dd[0])
