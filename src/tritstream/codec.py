"""Progressive encoder/decoder: plane walk, framing, truncation, MMSE output.

Encoding, canonicalization and decoding all run one plane walk,
_walk_planes.  Plane by plane, most significant first, it computes the
priorities from the current interval state, asks the caller for the digits
of the plane's uncertain elements in priority order (the encoder derives
and range-codes them, the decoder reads them from the plane's chunk), and
then applies the forced digits of the certain elements together with those
digits.  Both coder sides therefore see the same priorities from the same
state by construction.  The stream is the packed header followed by one
chunk per plane; any byte prefix that still contains the full header
decodes to a valid reconstruction.

Truncation semantics: the decoder works out from the plane directory and
the stream length, before it starts, which planes it enters.  A complete
stream enters every plane, including trailing all-forced planes that occupy
zero bytes; a prefix enters the planes whose chunk starts before the
prefix ends.  A header-only prefix therefore decodes to the untouched
initial intervals (mse = mean initial distortion).  The walk also stops
inside a plane whose chunk ends before its digits are all determined.

Values are canonicalized before coding, one plane at a time: the value is
clamped into the element's current interval, and a digit that falls in a
zero-frequency bin of the quantized table (it cannot be coded; the mass
there is below 2**-16) moves to the nearest nonzero bin, ties toward the
smaller digit.  Clamps into nested intervals compose, so the value the
stream represents is the final interval, and the digit of a certain element
is always its forced digit.  decode(encode(x)) therefore equals
canonicalize(x), and equals x exactly when x is already canonical.

Reconstruction values are conditional means over the final intervals,
computed by ModelBank.moments, which also states where they are exact.
decode checks scales against gaussian.SIGMA_MAX before anything is sized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import RangeEncoder, decode_digits
from .errors import CorruptionError, FormatError
from .formats import Shape, pack_stream_header, parse_stream_header, stream_header_size
from .gaussian import SIGMA_MAX, ElementModel, ModelBank, build_model_bank, interval_exponent
from .priority import plane_priorities_naive, plane_priorities_vectorized
from .slicing import IntervalState

__all__ = [
    "EncodeResult",
    "Reconstruction",
    "encode",
    "encode_result",
    "decode",
    "truncate",
    "rd_trace",
    "canonicalize",
    "expected_distortion",
    "PRIORITY_IMPLS",
]

PRIORITY_IMPLS = {
    "vectorized": plane_priorities_vectorized,
    "naive": plane_priorities_naive,
}

# ((base, scale bytes), bank) of the last bank _model_bank built, or None.
_last_bank = None


@dataclass(frozen=True)
class EncodeResult:
    """Encoded stream plus per-plane accounting.

    entropy_bits[n] is the summed digit entropy of plane n's coded digits,
    the rate model the payload lengths are compared against.  canonical is
    the integer tensor the stream actually represents.
    """

    stream: bytes
    header_size: int
    payload_lengths: np.ndarray
    coded_digits: np.ndarray
    entropy_bits: np.ndarray
    canonical: np.ndarray


@dataclass(frozen=True)
class Reconstruction:
    """Decoder output: conditional means over the surviving intervals."""

    values: np.ndarray
    mse: float
    digits_applied: np.ndarray
    exact: bool


def _prepare(values, sigmas, base: int, sigma_mode: int):
    values = np.asarray(values)
    if values.ndim != 3:
        raise ValueError("expected a (C, H, W) latent tensor")
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError("latent values must be integers")
    if sigma_mode not in (0, 1):
        raise ValueError(f"invalid sigma storage mode {sigma_mode}")
    sig = np.asarray(sigmas, dtype=np.float64)
    if sig.shape != values.shape:
        raise ValueError("values and sigmas must share one shape")
    shape = Shape(*values.shape)
    sig32 = sig.ravel().astype("<f4")
    # Mode 1 rounds scales to float32 so both coder sides model identically.
    bank_sig = sig32.astype(np.float64) if sigma_mode == 1 else sig.ravel()
    return shape, sig32, _model_bank(bank_sig, base)


def _model_bank(bank_sig: np.ndarray, base: int) -> ModelBank:
    """The model bank of float64 scales bank_sig, reusing the last one built.

    A progressive receiver decodes one stream at several prefixes under the
    same scales, so one entry is enough, and its later calls look up the
    root statistics the bank kept.  A miss drops the old bank before
    building, so two banks are never alive at once.  The entry is replaced
    in one assignment, so it always pairs a key with that key's bank.
    """
    global _last_bank
    key = (base, bank_sig.tobytes())
    last = _last_bank
    if last is not None and last[0] == key:
        return last[1]
    last = _last_bank = None
    bank = build_model_bank(bank_sig, base)
    _last_bank = (key, bank)
    return bank


def _walk_planes(bank: ModelBank, priority_fn, planes: int, code) -> IntervalState:
    """Refine the initial intervals through the first `planes` planes.

    code(n, pr, state) sees each plane's priorities before any of its digits
    is applied and returns the digits of pr.order the stream carries; fewer
    than pr.order.size means the stream ends inside plane n, and the walk
    stops after applying them.
    """
    state = IntervalState.initial(bank)
    for n in range(planes):
        pr = priority_fn(bank, state, n)
        digits = code(n, pr, state)
        k = len(digits)
        state.apply_plane_digits(n, np.concatenate((pr.certain, pr.order[:k])),
                                 np.concatenate((pr.forced_digit, digits)))
        if k < pr.order.size:
            break
    return state


def _plane_digits(bank: ModelBank, state: IntervalState, pr, j: np.ndarray, n: int):
    """Digits of pr.order at plane n, and the frequency rows they are coded with.

    j is clamped into the current interval first.  A digit landing in a
    zero-frequency bin cannot be entropy-coded, so it moves to the nearest
    bin the table can express, ties toward the smaller digit.
    """
    ids = pr.order
    tabs = pr.coded_tables
    sub = bank.base ** (bank.l_max - n - 1)
    lo = state.lo[ids]
    digs = (np.clip(j[ids], lo, lo + bank.base * sub - 1) - lo) // sub
    rows = np.arange(ids.size)
    bad = (tabs[rows, digs] == 0).nonzero()[0]
    if bad.size:
        dist = np.where(tabs[bad] > 0,
                        np.abs(np.arange(bank.base) - digs[bad, None]),
                        bank.base + 1)
        digs[bad] = dist.argmin(axis=1)
    return digs, tabs


def _encode_session(values, sigmas, base: int, sigma_mode: int, priority_fn,
                    trace_group: int | None):
    if trace_group is not None and trace_group < 1:
        raise ValueError("trace group must be positive")
    shape, sig32, bank = _prepare(values, sigmas, base, sigma_mode)
    j = _positions(values, bank)
    header_size = stream_header_size(shape, sigma_mode, bank.l_max)

    points = None
    if trace_group is not None:
        _, v_track = bank.moments(np.arange(bank.size),
                                  np.zeros(bank.size, dtype=np.int64), bank.lengths)
        points = [(8.0 * header_size, float(v_track.mean()))]

    payloads: list[bytes] = []
    coded = np.zeros(bank.l_max, dtype=np.int64)
    ebits = np.zeros(bank.l_max, dtype=np.float64)

    def code(n, pr, state):
        digs, tabs = _plane_digits(bank, state, pr, j, n)
        coded[n] = digs.size
        ebits[n] = float(pr.delta_r.sum())
        if points is not None:
            done = sum(map(len, payloads))
            ids = np.concatenate((pr.certain, pr.order))
            sub = bank.base ** (bank.l_max - n - 1)
            lo = state.lo[ids] + np.concatenate((pr.forced_digit, digs)) * sub
            _, v_next = bank.moments(ids, lo, np.full(ids.size, sub))
            v_track[pr.certain] = v_next[:pr.certain.size]
            v_coded = v_next[pr.certain.size:]
        chunk = b""
        if digs.size:
            rows = np.arange(digs.size)
            freq = tabs[rows, digs]
            cum = (np.cumsum(tabs, axis=1)[rows, digs] - freq).tolist()
            freq = freq.tolist()
            enc = RangeEncoder()
            for i, f in enumerate(freq):
                enc.encode(cum[i], f)
                if points is not None:
                    v_track[pr.order[i]] = v_coded[i]
                    if (i + 1) % trace_group == 0:
                        bits = 8.0 * (header_size + done + enc.tell())
                        points.append((bits, float(v_track.mean())))
            chunk = enc.finish()
            if points is not None:
                points.append((8.0 * (header_size + done + len(chunk)),
                               float(v_track.mean())))
        payloads.append(chunk)
        return digs

    state = _walk_planes(bank, priority_fn, bank.l_max, code)
    lengths = np.asarray([len(c) for c in payloads], dtype=np.int64)
    header = pack_stream_header(base, sigma_mode, shape, bank.l_max, lengths,
                                sig32 if sigma_mode == 1 else None)
    stream = header + b"".join(payloads)
    result = EncodeResult(
        stream=stream,
        header_size=header_size,
        payload_lengths=lengths,
        coded_digits=coded,
        entropy_bits=ebits,
        canonical=(bank.offsets + state.lo).reshape(values.shape),
    )
    if points is not None:
        # Mid-plane estimates can repeat a byte count (low-entropy digits may
        # leave the coder's buffer untouched across a whole group).  Keep the
        # first, conservative point per byte count; points at the final byte
        # count would contradict the complete stream, which applies every
        # remaining zero-byte plane, so the exact endpoint replaces them all.
        total_bits = 8.0 * len(stream)
        seen: set[float] = set()
        kept = []
        for bits, mse in points:
            if bits < total_bits and bits not in seen:
                seen.add(bits)
                kept.append((bits, mse))
        kept.append((total_bits, float(v_track.mean())))
        return result, np.asarray(kept, dtype=np.float64)
    return result, None


def encode(values, sigmas, base: int = 3, sigma_mode: int = 1, *,
           priority_impl: str = "vectorized") -> bytes:
    """Encode an integer latent tensor into a progressive stream."""
    return encode_result(values, sigmas, base, sigma_mode,
                         priority_impl=priority_impl).stream


def encode_result(values, sigmas, base: int = 3, sigma_mode: int = 1, *,
                  priority_impl: str = "vectorized") -> EncodeResult:
    """Encode and keep the per-plane accounting alongside the stream."""
    result, _ = _encode_session(values, sigmas, base, sigma_mode,
                                PRIORITY_IMPLS[priority_impl], None)
    return result


def rd_trace(values, sigmas, base: int = 3, sigma_mode: int = 1, *,
             group: int = 256) -> tuple[np.ndarray, bytes]:
    """Encode and report the (cumulative_bits, mse) curve.

    Points land at every `group` coded digits and at plane boundaries; the
    first point is (header bits, mean initial distortion), the last
    (total bits, 0.0).  Returns the points and the encoded stream.
    """
    result, points = _encode_session(values, sigmas, base, sigma_mode,
                                     plane_priorities_vectorized, group)
    return points, result.stream


def canonicalize(values, sigmas, base: int = 3, sigma_mode: int = 1) -> np.ndarray:
    """The integer tensor a round-trip through the codec preserves exactly."""
    _, _, bank = _prepare(values, sigmas, base, sigma_mode)
    return _canonicalize(values, bank)


def _positions(values: np.ndarray, bank: ModelBank) -> np.ndarray:
    """Each value's position in its element's interval, saturated into it.

    Values are clamped before they are rebased, so none wraps in int64.
    """
    v = values.ravel()
    top = bank.offsets + (bank.lengths - 1)
    if v.dtype == np.uint64:
        # Every top is positive; uint64 with int64 would promote to float64.
        v = np.minimum(v, np.uint64(top.max()))
    return np.clip(v.astype(np.int64), bank.offsets, top) - bank.offsets


def _canonicalize(values, bank: ModelBank) -> np.ndarray:
    j = _positions(values, bank)
    state = _walk_planes(bank, plane_priorities_vectorized, bank.l_max,
                         lambda n, pr, st: _plane_digits(bank, st, pr, j, n)[0])
    return (bank.offsets + state.lo).reshape(values.shape)


def truncate(stream: bytes, byte_budget: int) -> bytes:
    """Cut a stream to a byte budget; the header must survive whole."""
    header = parse_stream_header(stream)
    if byte_budget < header.header_size:
        raise ValueError(
            f"budget {byte_budget} is below the header size {header.header_size}")
    return stream[:byte_budget]


def decode(stream: bytes, sigmas=None, *,
           priority_impl: str = "vectorized") -> Reconstruction:
    """Decode a stream or any header-preserving byte prefix of one.

    sigmas supplies the scales of a mode-0 stream and must be None for a
    mode-1 stream, which embeds its own.
    """
    priority_fn = PRIORITY_IMPLS[priority_impl]
    hdr = parse_stream_header(stream)
    # Embedded scales are stream bytes; out-of-band ones are an argument.
    if hdr.sigma_mode == 1:
        if sigmas is not None:
            raise ValueError("the stream embeds its scales; pass no sigmas")
        scales, error = hdr.sigmas, FormatError
    else:
        if sigmas is None:
            raise ValueError("sigma storage mode 0 needs out-of-band scales")
        scales, error = np.asarray(sigmas, dtype=np.float64).ravel(), ValueError
        if scales.size != hdr.shape.size:
            raise ValueError("scale count does not match the stream dimensions")
    # Embedded scales are checked as float32: numpy warns when it widens a
    # signalling NaN.  NaN fails both comparisons.
    if not (scales.min() > 0.0 and scales.max() <= SIGMA_MAX):
        raise error(f"scales must be positive and at most SIGMA_MAX = {SIGMA_MAX:g}")
    bank_sig = scales.astype(np.float64, copy=False)
    largest = float(bank_sig.max())
    # The exponent grows with the scale, so the largest scale sets l_max.
    # Checking it first keeps a forged scale from sizing the mass table.
    if interval_exponent(largest, hdr.base) != hdr.l_max:
        raise CorruptionError("plane count disagrees with the scales")
    bank = _model_bank(bank_sig, hdr.base)
    lengths = hdr.payload_lengths.astype(np.int64)
    ends = hdr.header_size + np.cumsum(lengths)
    starts = ends - lengths
    if len(stream) > ends[-1]:
        raise FormatError("stream extends past its plane directory")
    complete = len(stream) == ends[-1]
    planes = hdr.l_max if complete else int(np.count_nonzero(starts < len(stream)))

    def code(n, pr, state):
        u = pr.order.size
        if (u == 0) != (lengths[n] == 0):
            raise CorruptionError("plane directory disagrees with the models")
        if u == 0:
            return np.zeros(0, dtype=np.uint8)
        chunk = stream[starts[n]:ends[n]]
        digits = decode_digits(chunk, pr.coded_tables, u).digits
        if digits.size < u and len(chunk) == lengths[n]:
            raise CorruptionError("payload ended before its digit count")
        return digits

    state = _walk_planes(bank, priority_fn, planes, code)
    e, v = bank.moments(np.arange(bank.size), state.lo, state.widths())
    dims = (hdr.shape.channels, hdr.shape.height, hdr.shape.width)
    return Reconstruction(
        values=e.reshape(dims),
        mse=float(v.mean()),
        digits_applied=state.applied.copy(),
        exact=bool(np.all(state.applied == bank.exponents)),
    )


def expected_distortion(model: ElementModel, digits_applied: int) -> float:
    """Expected squared error after n digits, averaged over all digit paths.

    This is the marginal counterpart of a decoder's reported per-element
    distortion: the reconstruction is the conditional mean of whichever
    depth-n interval the value falls in.
    """
    n = digits_applied
    if not 0 <= n <= model.exponent:
        raise ValueError(f"digit count {n} outside 0..{model.exponent}")
    if n == model.exponent:
        return 0.0
    p = model.masses.reshape(model.base ** n, -1)
    m = model.support.astype(np.float64).reshape(p.shape)
    s = p.sum(axis=1)
    mu = (p * m).sum(axis=1) / s
    within = (p * m * m).sum(axis=1) - mu * mu * s
    return float(np.maximum(within, 0.0).sum() / p.sum())
