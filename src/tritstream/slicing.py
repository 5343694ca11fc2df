"""The interval refinement state of digit-plane coding.

A latent value y with model interval [offset, offset + base**L) is rebased to
j = y - offset and expanded in base `base`, padded with leading zeros to the
tensor-wide plane count l_max (the largest exponent in the bank).  Plane 0
holds the most significant digits, plane l_max - 1 the least significant.

An element with exponent L < l_max is dormant through the first l_max - L
planes: its leading digits are identically zero, carry probability 1, and
are never entropy-coded.  Its own digits start at plane l_max - L, from
which point every non-dormant element at plane n has interval width exactly
base**(l_max - n), shrinking by one base factor per applied digit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import ModelBank

__all__ = ["IntervalState"]


@dataclass
class IntervalState:
    """Per-element refinement intervals, tracked in rebased j-coordinates.

    Element i currently lies in [lo[i], lo[i] + width) of its own mass
    array, width = base**(exponents[i] - applied[i]).  Dormant elements
    simply keep applied == 0 until their first own plane.
    """

    base: int
    l_max: int
    exponents: np.ndarray
    lo: np.ndarray       # int64
    applied: np.ndarray  # int64

    @classmethod
    def initial(cls, bank: ModelBank) -> "IntervalState":
        return cls(
            base=bank.base,
            l_max=bank.l_max,
            exponents=bank.exponents,
            lo=np.zeros(bank.size, dtype=np.int64),
            applied=np.zeros(bank.size, dtype=np.int64),
        )

    def widths(self) -> np.ndarray:
        return np.asarray(self.base, dtype=np.int64) ** (self.exponents - self.applied)

    def active_ids(self, plane: int) -> np.ndarray:
        """Elements whose own digits include plane `plane`."""
        return (self.l_max - self.exponents <= plane).nonzero()[0]

    def apply_plane_digits(self, plane: int, ids: np.ndarray, digits: np.ndarray) -> None:
        """Shrink the listed elements' intervals by their digits at `plane`."""
        if (self.applied[ids] != plane - (self.l_max - self.exponents[ids])).any():
            raise ValueError("elements are not positioned at this plane")
        if (np.asarray(digits) >= self.base).any():
            raise ValueError("digit out of range for the base")
        sub = self.base ** (self.l_max - plane - 1)
        self.lo[ids] += np.asarray(digits, dtype=np.int64) * sub
        self.applied[ids] += 1
