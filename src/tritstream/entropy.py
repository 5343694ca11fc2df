"""Fixed-table range coding of digits with 16-bit frequency tables.

Per-digit PMFs are quantized to integer frequencies summing to TABLE_TOTAL
(2**16).  Conditional masses below MASS_FLOOR (2**-16) are zeroed before
apportionment, and the apportionment never assigns a positive frequency to a
zeroed bin, so "frequency > 0" and "mass >= MASS_FLOOR" agree exactly.  A
table with a single nonzero frequency is a certain digit: it is never coded
and costs zero bytes.

The coder is a carry-less byte-oriented range coder on 32-bit unsigned
arithmetic (Python ints, masked).  The encoder is the RangeEncoder class, one
encode() call per digit.  The decoder is decode_digits alone: one loop over
the digits with the coder state in locals, reading flat lists of cumulative
frequencies built a bounded chunk of rows at a time, only for the rows it
reaches.  It can run on a truncated byte prefix: it tracks how many bytes
past the end it has consumed as zero fill and reports a digit only when
every byte string consistent with the missing suffix decodes to that same
digit.  Decoding therefore never invents a wrong digit, and feeding more
bytes only extends the digit sequence already produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError

__all__ = [
    "MASS_FLOOR",
    "TABLE_TOTAL",
    "quantize_pmf_rows",
    "RangeEncoder",
    "decode_digits",
    "DecodeResult",
]

TABLE_TOTAL = 1 << 16
MASS_FLOOR = 1.0 / TABLE_TOTAL

_TOP = 1 << 24
_BOT = 1 << 16
_M32 = (1 << 32) - 1

# Rows of cumulative frequencies decode_digits turns into one Python list at
# a time; a list entry costs about 36 bytes where a table entry costs 4.
_CUM_ROWS = 1 << 12


def quantize_pmf_rows(rows: np.ndarray) -> np.ndarray:
    """Quantize each PMF row to uint32 frequencies summing to TABLE_TOTAL.

    Steps per row: zero entries below MASS_FLOOR, renormalize over the
    survivors, take floors of mass * TABLE_TOTAL, then hand out the
    remaining units by largest fractional part (ties to the lower index).
    Every row must keep at least one entry.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-d array of PMF rows, got ndim={rows.ndim}")
    kept = np.where(rows >= MASS_FLOOR, rows, 0.0)
    totals = kept.sum(axis=1, keepdims=True)
    if (totals <= 0.0).any():
        raise ValueError("a PMF row lost all its mass to the floor")
    # kept turns into the scaled masses and then their fractional parts.
    kept /= totals
    kept *= TABLE_TOTAL
    floors = np.floor(kept)
    freqs = floors.astype(np.uint32)
    frac = np.subtract(kept, floors, out=kept)
    del floors
    short = TABLE_TOTAL - freqs.sum(axis=1, dtype=np.int64)
    # A column's rank is its place in descending-fraction order, earlier
    # index first among equal fractions: the count of columns ahead of it.
    # The columns ranked below a row's shortfall get one unit each.
    width = rows.shape[1]
    rank = np.zeros(frac.shape, dtype=np.intp)
    for a in range(width):
        for b in range(a + 1, width):
            b_ahead = frac[:, b] > frac[:, a]
            rank[:, a] += b_ahead
            rank[:, b] += ~b_ahead
    freqs += rank < short[:, None]
    return freqs


class RangeEncoder:
    """Byte-oriented carry-less range encoder over TABLE_TOTAL-sum tables."""

    def __init__(self) -> None:
        self._low = 0
        self._range = _M32
        self._out = bytearray()

    def encode(self, cum: int, freq: int) -> None:
        """Encode a symbol occupying [cum, cum + freq) of the table."""
        r = self._range // TABLE_TOTAL
        self._low = (self._low + r * cum) & _M32
        self._range = r * freq
        low = self._low
        rng = self._range
        while True:
            if (low ^ (low + rng)) < _TOP:
                pass
            elif rng < _BOT:
                rng = (-low) & (_BOT - 1)
            else:
                break
            self._out.append((low >> 24) & 0xFF)
            low = (low << 8) & _M32
            rng = (rng << 8) & _M32
        self._low = low
        self._range = rng

    def tell(self) -> int:
        """Bytes emitted so far, excluding the final flush."""
        return len(self._out)

    def finish(self) -> bytes:
        """Flush the 4 tail bytes and return the complete chunk."""
        for _ in range(4):
            self._out.append((self._low >> 24) & 0xFF)
            self._low = (self._low << 8) & _M32
        return bytes(self._out)


@dataclass(frozen=True)
class DecodeResult:
    """Digits recovered from a (possibly truncated) chunk prefix."""

    digits: np.ndarray
    consumed: int
    exhausted: bool


def decode_digits(data: bytes, tables, count: int) -> DecodeResult:
    """Decode up to `count` digits from a chunk prefix.

    Digit i is decoded with tables[i].  Bytes past the end of `data` are
    read as zero fill, and `pad` counts how many such bytes sit inside the
    4-byte code window.  While pad > 0 the true code lies anywhere in
    [code, code + 2**(8 * pad) - 1]; decoding stops (exhausted=True) at the
    first digit that this span does not pin down.  Raises CorruptionError
    when an unpadded code point falls outside the coding range.
    """
    tables = np.asarray(tables, dtype=np.uint32)
    if tables.ndim != 2 or tables.shape[0] < count:
        raise ValueError("one frequency table per expected digit is required")
    stride = tables.shape[1] + 1
    size = len(data)
    code = pad = 0
    for k in range(4):
        code <<= 8
        if k < size:
            code |= data[k]
        else:
            pad += 1
    low, rng, pos = 0, _M32, 4
    out = bytearray()
    exhausted = False
    for first in range(0, count, _CUM_ROWS):
        rows = min(_CUM_ROWS, count - first)
        # Row i of the chunk's cumulative table starts at cums[i * stride];
        # symbol s of that row spans [cums[row + s], cums[row + s + 1]).
        cum_rows = np.zeros((rows, stride), dtype=np.int64)
        np.cumsum(tables[first:first + rows], axis=1, out=cum_rows[:, 1:])
        cums = cum_rows.ravel().tolist()
        row = 0
        for _ in range(rows):
            r = rng // TABLE_TOTAL
            off = (code - low) & _M32
            if pad == 0:
                if off >= rng:
                    raise CorruptionError("code point outside the coding range")
                t = off // r
                if t >= TABLE_TOTAL:
                    t = TABLE_TOTAL - 1
                s = row
                while cums[s + 1] <= t:
                    s += 1
            else:
                delta = (1 << (8 * pad)) - 1 if pad < 4 else _M32
                if off >= rng or off + delta > _M32:
                    exhausted = True
                    break
                hi = off + delta
                if hi >= rng:
                    hi = rng - 1
                t = off // r
                t_hi = hi // r
                if t >= TABLE_TOTAL:
                    t = TABLE_TOTAL - 1
                if t_hi >= TABLE_TOTAL:
                    t_hi = TABLE_TOTAL - 1
                s = row
                while cums[s + 1] <= t:
                    s += 1
                if cums[s + 1] <= t_hi:
                    exhausted = True
                    break
            c = cums[s]
            low = (low + r * c) & _M32
            rng = r * (cums[s + 1] - c)
            out.append(s - row)
            row += stride
            while True:
                if (low ^ (low + rng)) < _TOP:
                    pass
                elif rng < _BOT:
                    rng = (-low) & (_BOT - 1)
                else:
                    break
                low = (low << 8) & _M32
                rng = (rng << 8) & _M32
                if pos < size:
                    code = ((code << 8) | data[pos]) & _M32
                else:
                    code = (code << 8) & _M32
                    pad += 1
                pos += 1
        if exhausted:
            break
    return DecodeResult(digits=np.frombuffer(out, dtype=np.uint8),
                        consumed=min(pos, size), exhausted=exhausted)
