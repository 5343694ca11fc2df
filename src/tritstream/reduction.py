"""Row-block reduction operators and the tensor shape descriptor.

Matrices here are plain 2-D float64 numpy arrays in row-major order.  The
priority engine is written entirely in terms of three reductions: a full row
sum, and row sums over two or three equal contiguous column blocks.  Keeping
them in one place guarantees the per-element and the batched code paths reduce
in exactly the same order, which the codec relies on for reproducible digit
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Shape",
    "row_sum",
    "split_row_sum",
]


@dataclass(frozen=True)
class Shape:
    """Dimensions of a latent tensor: (channels, height, width), row-major."""

    channels: int
    height: int
    width: int

    def __post_init__(self):
        if min(self.channels, self.height, self.width) <= 0:
            raise ValueError(f"all dimensions must be positive, got {self.astuple()}")

    def astuple(self):
        return (self.channels, self.height, self.width)

    @property
    def size(self) -> int:
        return self.channels * self.height * self.width


def _as_matrix(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {a.ndim} dimension(s)")
    return a


def row_sum(a) -> np.ndarray:
    """Sum every row of an (N, M) matrix, returning an (N, 1) column."""
    return _as_matrix(a).sum(axis=1, keepdims=True)


def split_row_sum(a, parts: int) -> np.ndarray:
    """Sum each row over `parts` equal contiguous column blocks.

    Input (N, M) with M divisible by `parts`; output (N, parts) where column k
    holds the sum of the k-th block of M/parts adjacent columns.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if parts <= 0:
        raise ValueError("parts must be positive")
    if m % parts:
        raise ValueError(f"cannot split {m} columns into {parts} equal blocks")
    return a.reshape(n, parts, m // parts).sum(axis=2)
