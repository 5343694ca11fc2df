"""Synthetic latent tensors and the Monte-Carlo distortion estimator.

generate() mimics the statistics the codec targets: per-element scales drawn
log-uniformly, values rounded from centered Gaussians, and a zero-inflation
weight that concentrates extra mass at 0.  Randomness comes from a Philox
counter stream, so a (config, seed) pair yields bit-identical tensors on any
platform.

Generated values are settled into the jointly codable form for both digit
bases: clamped into the intersection of the base-2 and base-3 model
intervals, then alternately canonicalized under each base until a fixed
point.  A value in a model's extreme tail (conditional mass below 2**-16 at
some split) cannot be represented by the coder's frequency tables and would
be nudged during encoding; emitting already-canonical tensors is what makes
round-trips through either base exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import _canonicalize
from .formats import Shape
from .gaussian import SIGMA_MAX, SIGMA_MIN, ElementModel, build_model_bank

__all__ = ["SynthConfig", "generate", "mc_distortion_oracle"]


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for one synthetic latent tensor."""

    shape: Shape
    sigma_lo: float = 0.1
    sigma_hi: float = 8.0
    zero_weight: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.shape, Shape):
            object.__setattr__(self, "shape", Shape(*self.shape))
        if not 0.0 <= self.zero_weight <= 1.0:
            raise ValueError("zero_weight must lie in [0, 1]")
        # Written so that a NaN scale fails every comparison.
        if not SIGMA_MIN <= self.sigma_lo <= self.sigma_hi <= SIGMA_MAX:
            raise ValueError(f"need {SIGMA_MIN} <= sigma_lo <= sigma_hi <= {SIGMA_MAX:g}")


def generate(config: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw one (values, sigmas) pair; int64 and float32, both (C, H, W)."""
    k = config.shape.size
    rng = np.random.Generator(np.random.Philox(config.seed))
    sig32 = np.exp(rng.uniform(np.log(config.sigma_lo),
                               np.log(config.sigma_hi), k)).astype(np.float32)
    sig = sig32.astype(np.float64)
    y = np.rint(rng.normal(size=k) * sig).astype(np.int64)
    y[rng.random(k) < config.zero_weight] = 0

    bank3 = build_model_bank(sig, 3)
    bank2 = build_model_bank(sig, 2)
    lo = np.maximum(bank3.offsets, bank2.offsets)
    hi = np.minimum(bank3.offsets + bank3.lengths,
                    bank2.offsets + bank2.lengths) - 1
    np.clip(y, lo, hi, out=y)

    dims = config.shape.astuple()
    values = y.reshape(dims)
    sigmas = sig32.reshape(dims)
    for _ in range(8):
        v3 = _canonicalize(values, bank3)
        v2 = _canonicalize(v3, bank2)
        if np.array_equal(v2, v3):
            return v2, sigmas
        values = v2
    raise RuntimeError("values failed to settle into a jointly codable form")


def mc_distortion_oracle(model: ElementModel, digits_applied: int,
                         samples: int, seed: int = 0) -> float:
    """Empirical expected squared error after the first n digits.

    Draws values from the discretized model, refines each one by its own
    first n digits, reconstructs with the conditional mean of the reached
    interval, and averages the squared errors.  Accuracy statements
    elsewhere assume at least 1e5 samples.
    """
    n = digits_applied
    if not 0 <= n <= model.exponent:
        raise ValueError(f"digit count {n} outside 0..{model.exponent}")
    if samples < 1:
        raise ValueError("at least one sample is required")
    if n == model.exponent:
        return 0.0
    p = model.masses / model.masses.sum()
    m = model.support.astype(np.float64)
    blocks = model.base ** n
    pb = p.reshape(blocks, -1)
    mb = m.reshape(blocks, -1)
    s = pb.sum(axis=1)
    mu = (pb * mb).sum(axis=1) / s
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(p.size, size=samples, p=p)
    err = m[idx] - mu[idx // (p.size // blocks)]
    return float(np.mean(err * err))
