"""Workload inputs drawn from a seed: latent tensors and their decode budgets.

The benchmark makes its own inputs, so the codec receives only tensors.
Scales are log-uniform in [SIGMA_LO, SIGMA_HI] and stored as float32, the
precision a stream with embedded scales carries.  Values are Gaussians of
those scales rounded to integers and clipped to +-3 sigma; a share
ZERO_WEIGHT of them is then set to 0.  The clip keeps every value exactly
codable under both slicings, so full decodes must return the inputs.

Draws are stratified over each workload's elements: the k-th smallest
uniform variate lies in [k/N, (k+1)/N), and exactly round(ZERO_WEIGHT * N)
values are zeroed.  The seed decides which element gets which draw, so the
same seed gives the same inputs, and every seed gives a workload of nearly
the same make-up, which keeps rate, distortion and work steady across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = ["Job", "WORKLOADS", "draw", "latent", "make"]

SIGMA_LO = 0.1
SIGMA_HI = 8.0
ZERO_WEIGHT = 0.3


@dataclass(frozen=True)
class Job:
    """One tensor, coded with both slicings and decoded at every budget.

    budgets_bpe are ascending payload bits per element; each becomes a
    prefix of the stream's header plus that many payload bytes, cut to stay
    shorter than the complete stream.  A full decode follows the prefixes.
    """

    values: np.ndarray       # int64, (C, H, W)
    sigmas: np.ndarray       # float32, (C, H, W)
    sigma_mode: int          # 1 = scales embedded in the stream, 0 = out of band
    budgets_bpe: tuple[float, ...]

    @property
    def size(self) -> int:
        return self.values.size


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform variates in [0, 1), one in each interval [k/n, (k+1)/n)."""
    return (rng.permutation(n) + rng.random(n)) / n


def draw(rng: np.random.Generator, n: int):
    """n (value, sigma) pairs as flat int64 and float32 arrays."""
    log_lo, log_hi = np.log(SIGMA_LO), np.log(SIGMA_HI)
    sig32 = np.exp(log_lo + (log_hi - log_lo) * _stratified(rng, n)).astype(np.float32)
    sig = sig32.astype(np.float64)
    lim = np.floor(3.0 * sig)
    values = np.clip(np.rint(ndtri(_stratified(rng, n)) * sig), -lim, lim).astype(np.int64)
    values[rng.permutation(n)[:round(ZERO_WEIGHT * n)]] = 0
    return values, sig32


def latent(rng: np.random.Generator, shape: tuple[int, int, int]):
    """Draw one (values, sigmas) pair of the given (C, H, W) shape."""
    values, sig32 = draw(rng, int(np.prod(shape)))
    return values.reshape(shape), sig32.reshape(shape)


def image_full(rng: np.random.Generator) -> list[Job]:
    """A 768x512 image's latents after 16x downsampling, 192 channels."""
    return [Job(*latent(rng, (192, 32, 48)), sigma_mode=1, budgets_bpe=(0.5,))]


LADDER_BPE = tuple(float(b) for b in np.geomspace(0.02, 1.0, 12))


def prefix_ladder(rng: np.random.Generator) -> list[Job]:
    """Mid-size latents decoded at twelve low budgets, each a fresh call."""
    return [Job(*latent(rng, (64, 16, 24)), sigma_mode=1, budgets_bpe=LADDER_BPE)]


TILE_SHAPES = tuple((c, h, w) for c in range(1, 5) for h in range(1, 5)
                    for w in range(1, 7) if c * h * w >= 3)
TILE_PASSES = 4


def small_tiles(rng: np.random.Generator) -> list[Job]:
    """Every shape of TILE_SHAPES once per scale storage mode, TILE_PASSES times.

    The seed orders the shapes and draws the values, stratified over all
    tiles together; the shape mix is fixed, so every seed asks for the same
    number of elements.  Embedded and out-of-band scales alternate.
    """
    shapes = []
    for _ in range(TILE_PASSES):
        for a, b in zip(rng.permutation(len(TILE_SHAPES)), rng.permutation(len(TILE_SHAPES))):
            shapes += [(TILE_SHAPES[a], 1), (TILE_SHAPES[b], 0)]
    sizes = [int(np.prod(shape)) for shape, _ in shapes]
    values, sig32 = draw(rng, sum(sizes))
    ends = np.cumsum(sizes)
    return [Job(v.reshape(shape), s.reshape(shape), sigma_mode=mode, budgets_bpe=(2.0,))
            for (shape, mode), v, s in zip(shapes, np.split(values, ends[:-1]),
                                           np.split(sig32, ends[:-1]))]


WORKLOADS = {
    "image-full": image_full,
    "prefix-ladder": prefix_ladder,
    "small-tiles": small_tiles,
}


def make(name: str, seed: int) -> list[Job]:
    """The jobs of workload `name` for `seed`."""
    return WORKLOADS[name](np.random.Generator(np.random.PCG64(seed)))
