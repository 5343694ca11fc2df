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
to zero.  For base 3 the formulas are mirror-exact: masses[j] and its mirror
are bit-identical, which downstream code uses to reconstruct an exact 0.0 on
symmetric intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "TAIL_EPSILON",
    "SIGMA_MIN",
    "std_normal_cdf",
    "std_normal_quantile",
    "interval_exponent",
    "ElementModel",
    "build_element_model",
    "ModelBank",
    "build_model_bank",
]

TAIL_EPSILON = 5e-10
SIGMA_MIN = 0.05

# Mass entries build_model_bank computes at once; a block always holds at
# least one element.
_BLOCK_ENTRIES = 1 << 18
_INT64_MAX = int(np.iinfo(np.int64).max)

# One-sided z covering 1 - TAIL_EPSILON of the standard normal.  Evaluated
# at the small-p end; 1 - TAIL_EPSILON itself is 7 ulps wide near 1.0.
_TAIL_Z = float(-ndtri(TAIL_EPSILON))


def std_normal_cdf(x):
    """Standard normal CDF; accepts scalars or arrays."""
    return ndtr(x)


def std_normal_quantile(p):
    """Inverse standard normal CDF; accepts scalars or arrays."""
    return ndtri(p)


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


def _bin_masses(sig_col: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Masses of integer bins `grid` under N(0, sig) with tail-safe evaluation.

    sig_col is (n, 1), grid is (w,); returns (n, w) rows that sum to ~1 before
    normalization.  Every bin is a difference of two upper-tail values
    ndtr(-(a / sig)) at the half-integer edges a = |m| - 0.5 and |m| + 0.5,
    so far-out bins keep small positive masses, bins m and -m get
    bit-identical values, and the CDF is evaluated once per distinct edge.
    """
    mag = np.abs(grid).astype(np.int64)
    edges = np.arange(int(mag.max()) + 1, dtype=np.float64) + 0.5
    tail = ndtr(-(edges / sig_col))
    inner = np.maximum(mag - 1, 0)
    rows = tail.take(inner, axis=1) - tail.take(mag, axis=1)
    zero = np.flatnonzero(mag == 0)
    if zero.size:
        rows[:, zero] = 1.0 - 2.0 * tail[:, :1]
    return rows


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
    """

    base: int
    sigmas: np.ndarray     # clamped scales, float64
    exponents: np.ndarray  # digits per element
    offsets: np.ndarray    # leftmost integer per element
    lengths: np.ndarray    # base**exponent
    starts: np.ndarray     # offsets into masses_flat
    masses_flat: np.ndarray
    l_max: int

    @property
    def size(self) -> int:
        return self.sigmas.size

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
    """Build models for every element of a scale tensor.

    Scales must be positive and finite; values below SIGMA_MIN are clamped.
    Raises ValueError when the models would need more mass entries than an
    int64 offset can index.
    """
    if base not in (2, 3):
        raise ValueError(f"base must be 2 or 3, got {base}")
    base = int(base)
    sig = np.asarray(sigmas, dtype=np.float64).ravel()
    if sig.size == 0:
        raise ValueError("scale tensor is empty")
    if not np.all(np.isfinite(sig)) or np.any(sig <= 0.0):
        raise ValueError("scales must be positive finite numbers")
    sig = np.maximum(sig, SIGMA_MIN)

    exponents = interval_exponent(sig, base)
    counts = np.bincount(exponents).tolist()
    total = sum(c * base ** ell for ell, c in enumerate(counts))
    if total > _INT64_MAX:
        raise ValueError("the scales need more model entries than int64 can index")
    offsets = _interval_offset(exponents, base)
    lengths = np.asarray(base, dtype=np.int64) ** exponents
    starts = np.zeros(sig.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])

    # Each exponent group is built a block of about _BLOCK_ENTRIES mass
    # entries at a time; rows are computed and normalised independently, so
    # the blocks change no value.
    flat = np.empty(total, dtype=np.float64)
    for ell, count in enumerate(counts):
        if not count:
            continue
        members = np.flatnonzero(exponents == ell)
        w = base ** ell
        cols = np.arange(w)
        grid = (_interval_offset(ell, base) + cols).astype(np.float64)
        step = max(1, _BLOCK_ENTRIES // w)
        for a in range(0, count, step):
            blk = members[a:a + step]
            rows = _bin_masses(sig[blk, None], grid)
            rows /= rows.sum(axis=1, keepdims=True)
            flat[starts[blk, None] + cols] = rows

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
