"""Correctness checks computed apart from the codec.

Every expectation here comes from the documented stream layout, from the
model's definition (a zero-mean Gaussian of scale sigma, discretised onto
integer bins and clipped to the base**L integers that leave at most TAIL of
its mass outside on either side), from the standard library's NormalDist and
erfc, and from the inputs the benchmark drew itself.  Nothing is taken from
the codec's own model layer.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import struct
from statistics import NormalDist

import numpy as np

__all__ = [
    "digit_counts",
    "interval_offsets",
    "header_size",
    "check_stream",
    "check_full",
    "check_prefix",
    "check_mse_descends",
    "check_same_bytes",
    "check_equal_totals",
]

TAIL = 5e-10          # one-sided mass the model interval may leave out
SIGMA_FLOOR = 0.05    # scales below this are modelled at this value
MEAN_TOLERANCE = 1e-9

_Z = -NormalDist().inv_cdf(TAIL)
_HEAD = struct.Struct("<4sBBBB3IB")   # magic, version, profile, base, mode, C, H, W, planes


def digit_counts(sigmas, base: int) -> np.ndarray:
    """L per element: the smallest L >= 1 with base**L >= 2 * sigma * z."""
    sig = np.maximum(np.asarray(sigmas, dtype=np.float64).ravel(), SIGMA_FLOOR)
    target = 2.0 * sig * _Z
    ell = np.maximum(np.ceil(np.log(target) / math.log(base)), 1.0).astype(np.int64)
    # Powers of 2 and 3 this small are exact floats; settle the log's rounding.
    b = float(base)
    ell[b ** ell < target] += 1
    ell[(ell > 1) & (b ** (ell - 1) >= target)] -= 1
    return ell


def interval_offsets(ell: np.ndarray, base: int) -> np.ndarray:
    """Leftmost integer of each model interval: symmetric for base 3,
    reaching one step further right than left for base 2."""
    ell = np.asarray(ell, dtype=np.int64)
    if base == 3:
        return -(3 ** ell - 1) // 2
    return 1 - 2 ** (ell - 1)


def header_size(size: int, sigma_mode: int, planes: int) -> int:
    """Bytes before the first payload: fixed head, float32 scales in mode 1,
    one u32 directory entry per plane."""
    return _HEAD.size + (4 * size if sigma_mode == 1 else 0) + 4 * planes


def check_stream(stream: bytes, shape, base: int, sigma_mode: int,
                 planes: int) -> list[str]:
    """The head names what was encoded and the length matches the directory."""
    if len(stream) < _HEAD.size:
        return [f"stream of {len(stream)} bytes is shorter than its fixed head"]
    magic, _, _, b, mode, c, h, w, got_planes = _HEAD.unpack_from(stream)
    problems = []
    if (magic, b, mode, (c, h, w), got_planes) != (b"DPTS", base, sigma_mode,
                                                   tuple(shape), planes):
        problems.append(
            f"head reads {magic!r} base {b} mode {mode} dims {(c, h, w)} "
            f"planes {got_planes}; expected base {base} mode {sigma_mode} "
            f"dims {tuple(shape)} planes {planes}")
    hsize = header_size(c * h * w, mode, got_planes)
    if len(stream) < hsize:
        return problems + [f"stream of {len(stream)} bytes ends inside its "
                           f"{hsize}-byte header"]
    lengths = struct.unpack_from(f"<{got_planes}I", stream, hsize - 4 * got_planes)
    if len(stream) != hsize + sum(lengths):
        problems.append(f"stream is {len(stream)} bytes, header {hsize} plus "
                        f"directory {sum(lengths)} says {hsize + sum(lengths)}")
    return problems


def check_full(rec, values: np.ndarray, ell: np.ndarray) -> list[str]:
    """A complete stream gives back the input integers, every digit applied."""
    problems = []
    if not rec.exact:
        problems.append("full decode does not report exact")
    wrong = np.flatnonzero(rec.values.ravel() != values.ravel())
    if wrong.size:
        i = wrong[0]
        problems.append(f"full decode differs at {wrong.size} elements, first "
                        f"{i}: {rec.values.ravel()[i]!r} for {values.ravel()[i]}")
    short = np.flatnonzero(rec.digits_applied != ell)
    if short.size:
        i = short[0]
        problems.append(f"full decode applied {rec.digits_applied[i]} of "
                        f"{ell[i]} digits at element {i} ({short.size} elements)")
    return problems


def _bin_mass(k: int, scale: float) -> float:
    """P(k - 1/2 < X < k + 1/2) for X ~ N(0, sigma), scale = sigma * sqrt(2)."""
    if k == 0:
        return 1.0 - math.erfc(0.5 / scale)
    k = abs(k)
    return 0.5 * (math.erfc((k - 0.5) / scale) - math.erfc((k + 0.5) / scale))


def conditional_mean(sigma: float, lo: int, hi: int) -> float:
    """Mean of the discretised Gaussian restricted to the integers lo..hi."""
    scale = max(sigma, SIGMA_FLOOR) * math.sqrt(2.0)
    masses = [_bin_mass(k, scale) for k in range(lo, hi + 1)]
    return math.fsum(k * m for k, m in zip(range(lo, hi + 1), masses)) / math.fsum(masses)


def check_prefix(rec, values: np.ndarray, sigmas: np.ndarray, ell: np.ndarray,
                 base: int, sample: np.ndarray) -> list[str]:
    """A prefix reconstruction lies in the interval its digits reached.

    Every element has applied at most L digits and sits within
    base**(L - applied) - 1 of its input.  For the `sample` elements the
    value must be the conditional mean over that interval.
    """
    problems = []
    applied = rec.digits_applied
    y = values.ravel()
    got = rec.values.ravel()
    over = np.flatnonzero((applied < 0) | (applied > ell))
    if over.size:
        problems.append(f"{over.size} elements applied more than L digits, "
                        f"first {over[0]}: {applied[over[0]]} > {ell[over[0]]}")
        return problems
    width = base ** (ell - applied)
    far = np.flatnonzero(np.abs(got - y) > width - 1)
    if far.size:
        i = far[0]
        problems.append(f"{far.size} prefix values lie outside their interval, "
                        f"first {i}: {got[i]!r} for {y[i]} with width {width[i]}")
    offsets = interval_offsets(ell, base)
    sig = sigmas.ravel().astype(np.float64)
    for i in sample:
        w = int(width[i])
        lo = int(offsets[i]) + (int(y[i] - offsets[i]) // w) * w
        want = conditional_mean(float(sig[i]), lo, lo + w - 1)
        if abs(got[i] - want) > MEAN_TOLERANCE * max(1.0, abs(want)):
            problems.append(f"element {i} reconstructs to {got[i]!r}; the mean "
                            f"over {lo}..{lo + w - 1} is {want!r}")
    return problems


def check_mse_descends(mses) -> list[str]:
    """The reported mse never rises along a stream's ascending budgets."""
    return [f"mse rises from {a!r} to {b!r} at budget {n + 1}"
            for n, (a, b) in enumerate(zip(mses, mses[1:])) if b > a]


def check_same_bytes(first: bytes, second: bytes, what: str) -> list[str]:
    """Two encodings of one tensor are byte-identical."""
    if first == second:
        return []
    n = min(len(first), len(second))
    at = next((i for i in range(n) if first[i] != second[i]), n)
    return [f"{what}: encodings of {len(first)} and {len(second)} bytes "
            f"differ from byte {at}"]


def check_equal_totals(name_a: str, a: int, name_b: str, b: int) -> list[str]:
    """Two totals reached by independent paths agree."""
    return [] if a == b else [f"{name_a} = {a} but {name_b} = {b}"]
