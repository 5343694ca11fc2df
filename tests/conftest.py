"""Shared oracle helpers, kept independent of the package's numerics.

The oracles go through math.erf, plain Python sums or integer arithmetic so
that a bug in the scipy-based production path cannot cancel out of a test.
range_encode only drives the package's RangeEncoder over whole digit lists.
Every test starts with codec's model-bank cache empty, so tests that count
or forbid model builds do not depend on the order tests run in.
"""

import math

import numpy as np
import pytest

import tritstream.codec as codec
from tritstream.entropy import RangeEncoder


def phi(x: float) -> float:
    """Standard normal CDF via math.erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def upper_tail(x: float) -> float:
    """P(N(0, 1) > x) via math.erfc, accurate far into the tail."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def bin_mass(sigma: float, m: int) -> float:
    """P(rint(N(0, sigma^2)) == m), evaluated through the nearer tail."""
    m = abs(m)
    if m == 0:
        return math.erf(0.5 / (sigma * math.sqrt(2.0)))
    return upper_tail((m - 0.5) / sigma) - upper_tail((m + 0.5) / sigma)


def interval_moments_oracle(sigma: float, members) -> tuple[float, float]:
    """Mean and variance of the discretized model restricted to `members`."""
    ps = [bin_mass(sigma, int(m)) for m in members]
    t = math.fsum(ps)
    mu = math.fsum(p * m for p, m in zip(ps, members)) / t
    var = math.fsum(p * m * m for p, m in zip(ps, members)) / t - mu * mu
    return mu, var


def entropy_bits(pmf) -> float:
    return -math.fsum(p * math.log2(p) for p in pmf if p > 0.0)


def digit_planes(values, bank) -> np.ndarray:
    """(l_max, size) base-b digits of each value's offset into its interval,
    most significant first; planes before an element's own are zero."""
    j = np.asarray(values, dtype=np.int64).ravel() - bank.offsets
    n = np.arange(bank.l_max)[:, None]
    return (j // bank.base ** (bank.l_max - 1 - n)) % bank.base


def range_encode(digits, tables) -> bytes:
    """Range-code digits[i] under the frequency row tables[i]."""
    cums = np.cumsum(tables, axis=1, dtype=np.int64) - tables
    enc = RangeEncoder()
    for d, cum, freq in zip(np.asarray(digits).tolist(), cums.tolist(),
                            np.asarray(tables).tolist()):
        enc.encode(cum[d], freq[d])
    return enc.finish()


@pytest.fixture(autouse=True)
def empty_bank_cache():
    codec._last_bank = None


@pytest.fixture
def rng():
    return np.random.default_rng(0)
