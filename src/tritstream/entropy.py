"""Fixed-table range coding of digits with 16-bit frequency tables.

Per-digit PMFs are quantized to integer frequencies summing to TABLE_TOTAL
(2**16).  Conditional masses below MASS_FLOOR (2**-16) are zeroed before
apportionment, and the apportionment never assigns a positive frequency to a
zeroed bin, so "frequency > 0" and "mass >= MASS_FLOOR" agree exactly.  A
table with a single nonzero frequency is a certain digit: it is never coded
and costs zero bytes.

The coder is a carry-less byte-oriented range coder on 32-bit unsigned
arithmetic (Python ints, masked).  The decoder can run on a truncated byte
prefix: it tracks how many bytes past the end it has consumed as zero fill
and reports a digit only when every byte string consistent with the missing
suffix decodes to that same digit.  Decoding therefore never invents a wrong
digit, and feeding more bytes only extends the digit sequence already
produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError

__all__ = [
    "MASS_FLOOR",
    "TABLE_TOTAL",
    "quantize_pmf",
    "quantize_pmf_rows",
    "RangeEncoder",
    "RangeDecoder",
    "encode_digits",
    "decode_digits",
    "CodedChunk",
    "DecodeResult",
]

TABLE_TOTAL = 1 << 16
MASS_FLOOR = 1.0 / TABLE_TOTAL

_TOP = 1 << 24
_BOT = 1 << 16
_M32 = (1 << 32) - 1


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
    if np.any(totals <= 0.0):
        raise ValueError("a PMF row lost all its mass to the floor")
    scaled = (kept / totals) * TABLE_TOTAL
    freqs = np.floor(scaled).astype(np.uint32)
    short = TABLE_TOTAL - freqs.sum(axis=1, dtype=np.int64)
    frac = scaled - np.floor(scaled)
    # Stable descending-fraction order; earlier index wins ties.
    order = np.argsort(-frac, axis=1, kind="stable")
    take = np.arange(rows.shape[1])[None, :] < short[:, None]
    rr = np.broadcast_to(np.arange(rows.shape[0])[:, None], order.shape)
    # Each (row, column) pair occurs once, so a plain fancy-index increment
    # hands out the units without the cost of np.add.at.
    freqs[rr[take], order[take]] += 1
    return freqs


def quantize_pmf(pmf) -> np.ndarray:
    """Quantize a single PMF; see quantize_pmf_rows."""
    return quantize_pmf_rows(np.asarray(pmf, dtype=np.float64)[None, :])[0]


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


class RangeDecoder:
    """Decoder that accepts byte prefixes of an encoded chunk.

    Bytes past the end of `data` are read as zero fill; `pad` counts how
    many such bytes currently sit inside the 4-byte code window.  decode()
    returns None, without consuming anything, when the available bytes do
    not pin down the next digit.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._low = 0
        self._range = _M32
        self._code = 0
        self._pad = 0
        for _ in range(4):
            self._shift_in()

    def _shift_in(self) -> None:
        if self._pos < len(self._data):
            byte = self._data[self._pos]
        else:
            byte = 0
            self._pad += 1
        self._pos += 1
        self._code = ((self._code << 8) | byte) & _M32

    def decode(self, freqs, cums) -> int | None:
        """Decode one symbol, or return None while the prefix is ambiguous.

        freqs is one frequency table as a sequence of ints, cums its
        exclusive prefix sums with the grand total appended.  Raises
        CorruptionError when an unpadded stream yields an out-of-range code
        point; an ambiguous return leaves the state untouched.
        """
        low = self._low
        rng = self._range
        pad = self._pad
        r = rng // TABLE_TOTAL
        off = (self._code - low) & _M32
        if pad == 0:
            if off >= rng:
                raise CorruptionError("code point outside the coding range")
            t = off // r
            if t >= TABLE_TOTAL:
                t = TABLE_TOTAL - 1
            sym = 0
            while cums[sym + 1] <= t:
                sym += 1
        else:
            # The true code lies in [code, code + delta]: missing bytes were
            # read as zero and could have been anything.
            delta = (1 << (8 * pad)) - 1 if pad < 4 else _M32
            if off >= rng or off + delta > _M32:
                return None
            hi = off + delta
            if hi >= rng:
                hi = rng - 1
            t_lo = off // r
            t_hi = hi // r
            if t_lo >= TABLE_TOTAL:
                t_lo = TABLE_TOTAL - 1
            if t_hi >= TABLE_TOTAL:
                t_hi = TABLE_TOTAL - 1
            sym = 0
            while cums[sym + 1] <= t_lo:
                sym += 1
            sym_hi = sym
            while cums[sym_hi + 1] <= t_hi:
                sym_hi += 1
            if sym_hi != sym:
                return None
        low = (low + r * cums[sym]) & _M32
        rng = r * freqs[sym]
        while True:
            if (low ^ (low + rng)) < _TOP:
                pass
            elif rng < _BOT:
                rng = (-low) & (_BOT - 1)
            else:
                self._low = low
                self._range = rng
                return sym
            low = (low << 8) & _M32
            rng = (rng << 8) & _M32
            self._shift_in()

    @property
    def exhausted(self) -> bool:
        """True once zero-fill bytes have entered the code window."""
        return self._pad > 0

    @property
    def consumed(self) -> int:
        """Bytes of the input actually pulled into the code window."""
        return min(self._pos, len(self._data))


@dataclass(frozen=True)
class CodedChunk:
    """One plane's payload: coded bytes plus how many digits went in."""

    data: bytes
    symbol_count: int


@dataclass(frozen=True)
class DecodeResult:
    """Digits recovered from a (possibly truncated) chunk prefix."""

    digits: np.ndarray
    consumed: int
    exhausted: bool


def _cum_rows(tables: np.ndarray) -> np.ndarray:
    cums = np.zeros((tables.shape[0], tables.shape[1] + 1), dtype=np.int64)
    np.cumsum(tables, axis=1, out=cums[:, 1:])
    return cums


def encode_digits(digits, tables) -> CodedChunk:
    """Encode digits[i] under tables[i] (one frequency row per digit).

    Every digit must sit in a bin with a positive frequency; an empty digit
    array yields an empty chunk.
    """
    digits = np.asarray(digits)
    tables = np.asarray(tables, dtype=np.uint32)
    n = digits.size
    if n == 0:
        return CodedChunk(data=b"", symbol_count=0)
    if tables.ndim != 2 or tables.shape[0] != n:
        raise ValueError("one frequency table per digit is required")
    freq_l = tables.tolist()
    cum_l = _cum_rows(tables).tolist()
    dig_l = digits.tolist()
    enc = RangeEncoder()
    for i in range(n):
        d = dig_l[i]
        f = freq_l[i][d]
        if f == 0:
            raise ValueError("digit falls in a zero-frequency bin")
        enc.encode(cum_l[i][d], f)
    return CodedChunk(data=enc.finish(), symbol_count=n)


def decode_digits(data: bytes, tables, count: int) -> DecodeResult:
    """Decode up to `count` digits from a chunk prefix.

    Stops early (exhausted=True) when the remaining bytes no longer
    determine the next digit.
    """
    tables = np.asarray(tables, dtype=np.uint32)
    if tables.ndim != 2 or tables.shape[0] < count:
        raise ValueError("one frequency table per expected digit is required")
    freq_l = tables.tolist()
    cum_l = _cum_rows(tables).tolist()
    dec = RangeDecoder(data)
    out = np.empty(count, dtype=np.uint8)
    for i in range(count):
        sym = dec.decode(freq_l[i], cum_l[i])
        if sym is None:
            return DecodeResult(digits=out[:i].copy(), consumed=dec.consumed,
                                exhausted=True)
        out[i] = sym
    return DecodeResult(digits=out, consumed=dec.consumed, exhausted=False)
