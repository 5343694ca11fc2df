"""Zero-mean Gaussian models discretized onto clipped integer intervals.

Each latent element with scale sigma is modeled on the integers of an
interval whose length is a power of the digit base (2 or 3).  The exponent L
is the smallest one for which base**L covers all but roughly 2 * TAIL_EPSILON
of the probability mass, i.e. base**L >= 2 * sigma * z where z is the
standard-normal quantile of 1 - TAIL_EPSILON.

Interval layout by base:

* base 3: symmetric about zero, integers -(3**L - 1)/2 .. +(3**L - 1)/2.
* base 2: asymmetric by half a step, integers -(2**(L-1) - 1) .. +2**(L-1),
  so zero is a decision boundary rather than a reconstruction level.

Bin masses are normal CDF differences evaluated through the complementary
tail, so far-out bins keep small positive float64 values instead of rounding
to zero.  Bins m and -m are bit-identical, which ModelBank.moments uses to
reconstruct exact means.  Only ModelBank knows how the masses are laid out;
other layers read them through its row_blocks, plane_statistics and moments.
A bank is read-only once built, so it keeps the statistics of each element's
unrefined interval and looks them up on later calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "TAIL_EPSILON",
    "SIGMA_MIN",
    "SIGMA_MAX",
    "interval_exponent",
    "ElementModel",
    "build_element_model",
    "ModelBank",
    "build_model_bank",
]

TAIL_EPSILON = 5e-10
SIGMA_MIN = 0.05
# Largest scale a model is built for: 128 times the top of CompressAI's
# scale table (256).  It caps a model at 3**12 or 2**19 mass entries, about
# 4 MiB per element.
SIGMA_MAX = 32768.0

# Mass entries one block of build_model_bank computes, and of
# ModelBank.row_blocks gathers; a block always holds at least one row.
_BLOCK_ENTRIES = 1 << 16

# One-sided z covering 1 - TAIL_EPSILON of the standard normal.  Evaluated
# at the small-p end; 1 - TAIL_EPSILON itself is 7 ulps wide near 1.0.
_TAIL_Z = float(-ndtri(TAIL_EPSILON))


def interval_exponent(sigma, base: int):
    """Digit count L for scale(s) sigma: smallest L >= 1 with base**L >= 2*sigma*z.

    Sub-SIGMA_MIN scales are clamped before the computation.  Returns an int
    for scalar input, an int64 array otherwise.
    """
    if base not in (2, 3):
        raise ValueError(f"base must be 2 or 3, got {base}")
    sig = np.maximum(np.asarray(sigma, dtype=np.float64), SIGMA_MIN)
    target = 2.0 * sig * _TAIL_Z
    # Exponents stay floats (exact small integers) until the end.  A target
    # past the float range would give an infinite exponent; the cap is
    # beyond every finite target and still names a model no int64 indexes.
    ell = np.minimum(np.maximum(np.ceil(np.log(target) / math.log(base)), 1.0), 2048.0)
    # The float log can land one off around exact powers; settle by comparison.
    b = float(base)
    ell = ell + (b ** ell < target)
    ell = ell - ((ell > 1.0) & (b ** (ell - 1.0) >= target))
    if np.ndim(ell) == 0:
        return int(ell)
    return ell.astype(np.int64)


def _interval_offset(exponents, base: int):
    """Leftmost integer of the clipped interval for each exponent."""
    exponents = np.asarray(exponents, dtype=np.int64)
    if base == 3:
        return -(3 ** exponents - 1) // 2
    return -(2 ** (exponents - 1)) + 1


def _bin_masses(sig_col: np.ndarray, width: int) -> np.ndarray:
    """Masses of the integer bins of a width-`width` interval under N(0, sig).

    sig_col is (n, 1); returns (n, width) rows over the interval's integers
    (see _interval_offset) that sum to ~1 before normalization.  Every bin
    m != 0 is a difference of two upper-tail values ndtr(-(a / sig)) at the
    half-integer edges a = |m| - 0.5 and |m| + 0.5, so far-out bins keep
    small positive masses and the CDF is evaluated once per distinct edge.
    The bins right of zero are those differences in order; the bins left of
    it are a mirrored copy of them, so bins m and -m are bit-identical.
    """
    half = width // 2
    zero = width - 1 - half
    edges = np.arange(half + 1, dtype=np.float64) + 0.5
    tail = ndtr(-(edges / sig_col))
    rows = np.empty((sig_col.shape[0], width), dtype=np.float64)
    right = rows[:, zero + 1:]
    np.subtract(tail[:, :-1], tail[:, 1:], out=right)
    rows[:, zero] = 1.0 - 2.0 * tail[:, 0]
    rows[:, :zero] = right[:, :zero][:, ::-1]
    return rows


def _windows(flat: np.ndarray, width: int) -> np.ndarray:
    """A (flat.size - width + 1, width) view whose row k is flat[k:k + width].

    Indexing its first axis with an array of starts gathers (or, while flat
    is writeable, scatters) one row per start without an (n, width) index
    array.
    """
    step = flat.strides[0]
    return np.ndarray((flat.size - width + 1, width), flat.dtype, flat, 0, (step, step))


@dataclass(frozen=True)
class ElementModel:
    """Discretized Gaussian for one element over its clipped interval.

    masses has base**exponent entries, sums to 1 within 1e-12, and for base 3
    is exactly mirror-symmetric.  offset is the leftmost integer so that
    masses[j] is the probability of the value offset + j.
    """

    sigma: float
    base: int
    exponent: int
    offset: int
    masses: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return self.offset + np.arange(self.masses.size, dtype=np.int64)


def build_element_model(sigma: float, base: int) -> ElementModel:
    """Build the interval model for a single scale (clamped at SIGMA_MIN)."""
    bank = build_model_bank(np.asarray([sigma], dtype=np.float64), base)
    return bank.element_model(0)


@dataclass
class ModelBank:
    """Interval models for a whole tensor, stored in one flat mass buffer.

    Element i occupies masses_flat[starts[i] : starts[i] + lengths[i]].
    l_max is the largest exponent; elements with a smaller exponent only
    participate in the trailing planes of the digit pyramid.

    Every array of a bank is read-only from its construction on, so the
    bank can keep root statistics: those of each element's unrefined
    interval, which depend on its model alone.  They are the per-row
    statistics plane_statistics computes at the element's first own plane
    (l_max - exponent, where its interval starts at 0), and the mean and
    variance moments computes for the whole interval.  Each is computed
    once, when a call first needs it, and later calls look it up.  For trits
    they cost at most 44 bytes per element (a 3-entry uint32 table and four
    float64), for bits 40.  Nothing a method returns aliases them.
    """

    base: int
    sigmas: np.ndarray     # clamped scales, float64
    exponents: np.ndarray  # digits per element
    offsets: np.ndarray    # leftmost integer per element
    lengths: np.ndarray    # base**exponent
    starts: np.ndarray     # offsets into masses_flat
    masses_flat: np.ndarray
    l_max: int
    # Root statistics: plane -> read-only arrays over the elements whose
    # first own plane it is, ascending; and (2, size) root means and
    # variances, allocated when moments first needs them (encode and
    # canonicalize never do).  A NaN mean marks moments not yet computed; moments writes the
    # variance first, so a mean once set always has its variance.
    _root_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _root_moments: np.ndarray | None = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self) -> None:
        for a in (self.sigmas, self.exponents, self.offsets, self.lengths,
                  self.starts, self.masses_flat):
            a.flags.writeable = False

    @property
    def size(self) -> int:
        return self.sigmas.size

    def row_blocks(self, ids: np.ndarray, lo: np.ndarray, width: int):
        """Mass rows of elements ids over [lo, lo + width), a block at a time.

        Yields (k, rows) for consecutive slices k of ids; rows[r] is element
        ids[k][r]'s masses from interval position lo[k][r] on, C-contiguous.
        A block gathers about _BLOCK_ENTRIES entries.
        """
        first = self.starts[ids] + lo
        windows = _windows(self.masses_flat, width)
        step = max(1, _BLOCK_ENTRIES // width)
        for a in range(0, first.size, step):
            k = slice(a, a + step)
            yield k, windows[first[k]]

    def plane_statistics(self, ids: np.ndarray, lo: np.ndarray, plane: int, reduce):
        """reduce(n, blocks) over the mass rows of elements ids at plane.

        ids must be every element active at plane, ascending, and lo their
        interval starts.  reduce computes each row alone: it takes a row
        count n and (k, rows) blocks, row rows[r] belonging to output row
        k[r], and returns arrays of n rows.  The first call for a plane
        reduces every row and keeps the rows of the elements whose first own
        plane it is; later calls hand reduce only the other rows, or skip it
        when none is left, and fill in the kept rows.
        """
        width = self.base ** (self.l_max - plane)
        root = self.exponents[ids] == self.l_max - plane
        kept = self._root_rows.get(plane)
        if kept is None:
            out = reduce(ids.size, self.row_blocks(ids, lo, width))
            kept = tuple([a[root] for a in out])
            for a in kept:
                a.flags.writeable = False
            self._root_rows[plane] = kept
            return out
        refined = (~root).nonzero()[0]
        if ids.size - refined.size != len(kept[0]):
            raise ValueError(f"ids are not the elements active at plane {plane}")
        if refined.size == 0:
            return tuple(a.copy() for a in kept)
        blocks = self.row_blocks(ids[refined], lo[refined], width)
        out = reduce(ids.size, ((refined[k], rows) for k, rows in blocks))
        for a, b in zip(out, kept):
            a[root] = b
        return out

    def moments(self, ids: np.ndarray, lo: np.ndarray, widths: np.ndarray):
        """Conditional mean and variance of element ids[k] over [lo[k], lo[k] + widths[k]).

        A width-1 interval is its integer with zero variance.  By
        _bin_masses' mirrored bins, a base-3 interval centred on zero has
        mean 0.0, and in a whole even-width interval (widths[k] is the
        element's length) only the unpaired top member's share survives,
        which summing in member order would bury under cancellation noise.
        The moments of a whole interval are computed once per bank.
        """
        left = self.offsets[ids] + lo
        fresh = widths == self.lengths[ids]
        e = np.empty(ids.size, dtype=np.float64)
        v = np.empty(ids.size, dtype=np.float64)
        new = fresh
        if fresh.any():
            if self._root_moments is None:
                self._root_moments = np.full((2, self.size), np.nan)
            known = self._root_moments[:, ids]
            new = fresh & np.isnan(known[0])
            hit = fresh ^ new
            e[hit] = known[0, hit]
            v[hit] = known[1, hit]
            # Width 0 marks the rows looked up.
            widths = np.where(hit, 0, widths)
        for w in np.unique(widths).tolist():
            if w == 0:
                continue
            group = (widths == w).nonzero()[0]
            if w == 1:
                e[group] = left[group]
                v[group] = 0.0
                continue
            cols = np.arange(w, dtype=np.float64)
            for k, p in self.row_blocks(ids[group], lo[group], w):
                rows = group[k]
                m = left[rows][:, None] + cols
                t = p.sum(axis=1)
                pm = p * m
                mean = pm.sum(axis=1) / t
                pm *= m
                var = pm.sum(axis=1) / t - mean * mean
                mean[left[rows] + (w - 1) / 2.0 == 0.0] = 0.0
                if w % 2 == 0:
                    whole = fresh[rows]
                    if whole.any():
                        top = left[rows][whole].astype(np.float64) + (w - 1)
                        mean[whole] = top * p[whole, -1] / t[whole]
                np.maximum(var, 0.0, out=var)
                e[rows] = mean
                v[rows] = var
        if new.any():
            self._root_moments[1, ids[new]] = v[new]
            self._root_moments[0, ids[new]] = e[new]
        return e, v

    def element_masses(self, i: int) -> np.ndarray:
        s = self.starts[i]
        return self.masses_flat[s:s + self.lengths[i]]

    def element_model(self, i: int) -> ElementModel:
        return ElementModel(
            sigma=float(self.sigmas[i]),
            base=self.base,
            exponent=int(self.exponents[i]),
            offset=int(self.offsets[i]),
            masses=self.element_masses(i).copy(),
        )


def build_model_bank(sigmas, base: int) -> ModelBank:
    """Build the read-only models of every element of a scale tensor.

    Scales must be positive and at most SIGMA_MAX; values below SIGMA_MIN
    are clamped.  Each call builds a new bank.
    """
    if base not in (2, 3):
        raise ValueError(f"base must be 2 or 3, got {base}")
    base = int(base)
    sig = np.asarray(sigmas, dtype=np.float64).ravel()
    if sig.size == 0:
        raise ValueError("scale tensor is empty")
    if not (np.all(sig > 0.0) and np.all(sig <= SIGMA_MAX)):
        raise ValueError(f"scales must be positive and at most SIGMA_MAX = {SIGMA_MAX:g}")
    sig = np.maximum(sig, SIGMA_MIN)

    exponents = interval_exponent(sig, base)
    offsets = _interval_offset(exponents, base)
    lengths = np.asarray(base, dtype=np.int64) ** exponents
    starts = np.zeros(sig.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])

    # Each exponent group is built a block of about _BLOCK_ENTRIES mass
    # entries at a time; rows are computed and normalised independently, so
    # the blocks change no value.
    flat = np.empty(int(starts[-1] + lengths[-1]), dtype=np.float64)
    for ell in np.flatnonzero(np.bincount(exponents)).tolist():
        members = np.flatnonzero(exponents == ell)
        w = base ** ell
        win = _windows(flat, w)
        step = max(1, _BLOCK_ENTRIES // w)
        for a in range(0, members.size, step):
            blk = members[a:a + step]
            rows = _bin_masses(sig[blk, None], w)
            rows /= rows.sum(axis=1, keepdims=True)
            win[starts[blk]] = rows

    return ModelBank(
        base=base,
        sigmas=sig,
        exponents=exponents,
        offsets=offsets,
        lengths=lengths,
        starts=starts,
        masses_flat=flat,
        l_max=int(exponents.max()),
    )
