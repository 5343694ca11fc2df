"""Acceptance gates for the codec, one printed pass/fail line per gate.

Each test computes its verdict first and prints exactly one line before
asserting, so the log always shows the measured margin.
"""

import math
import time

import numpy as np

from tritstream import (
    Shape,
    SynthConfig,
    decode,
    encode,
    encode_result,
    expected_distortion,
    generate,
    mc_distortion_oracle,
    truncate,
)
from conftest import digit_planes, range_encode
from tritstream import codec
from tritstream.entropy import decode_digits, quantize_pmf_rows
from tritstream.gaussian import build_model_bank
from tritstream.priority import plane_priorities_naive, plane_priorities_vectorized
from tritstream.slicing import IntervalState


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {tag}: {detail}"


def test_01_lossless_round_trip_under_two_minutes():
    rng = np.random.default_rng(12)
    bad = 0
    start = time.perf_counter()
    for k in range(1000):
        shape = Shape(int(rng.integers(1, 193)), int(rng.integers(1, 9)),
                      int(rng.integers(1, 13)))
        values, sigmas = generate(SynthConfig(shape=shape, seed=k))
        recon = decode(encode(values, sigmas, base=2 + k % 2))
        if not (recon.exact and np.array_equal(recon.values, values)):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 120.0
    _report("01 lossless-round-trip", ok,
            f"{1000 - bad}/1000 exact, {elapsed:.1f}s of 120s")


def test_02_naive_and_vectorized_priorities_agree():
    mismatches = 0
    worst_rel = 0.0
    for base in (2, 3):
        rng = np.random.default_rng(base)
        for k in range(100):
            shape = Shape(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                          int(rng.integers(1, 13)))
            values, sigmas = generate(SynthConfig(shape=shape, seed=3000 + k))
            bank = build_model_bank(sigmas.astype(np.float64).ravel(), base)
            digits = digit_planes(values, bank)
            state = IntervalState.initial(bank)
            for plane in range(bank.l_max):
                a = plane_priorities_naive(bank, state, plane)
                b = plane_priorities_vectorized(bank, state, plane)
                same = (np.array_equal(a.uncertain, b.uncertain)
                        and np.array_equal(a.order, b.order)
                        and np.array_equal(a.certain, b.certain)
                        and np.array_equal(a.forced_digit, b.forced_digit))
                if not same:
                    mismatches += 1
                for lhs, rhs in ((a.delta_r, b.delta_r), (a.delta_d, b.delta_d)):
                    if lhs.size:
                        rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
                        worst_rel = max(worst_rel, float(rel.max()))
                state.apply_plane_digits(plane, b.active,
                                         digits[plane][b.active])
    ok = mismatches == 0 and worst_rel <= 1e-9
    _report("02 priority-equivalence", ok,
            f"200 tensors, {mismatches} order mismatches, "
            f"worst rel delta {worst_rel:.3g} of 1e-9")


def test_03_vectorized_priority_speedup(monkeypatch):
    values, sigmas = generate(SynthConfig(shape=Shape(192, 8, 12), seed=0))
    spent = {}

    def timed(key, fn):
        def wrapper(*args):
            start = time.perf_counter()
            out = fn(*args)
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - start
            return out
        return wrapper

    streams, recons = {}, {}
    for impl in ("naive", "vectorized"):
        fn = codec.PRIORITY_IMPLS[impl]
        monkeypatch.setitem(codec.PRIORITY_IMPLS, impl, timed(("encode", impl), fn))
        streams[impl] = encode(values, sigmas, base=3, priority_impl=impl)
        monkeypatch.setitem(codec.PRIORITY_IMPLS, impl, timed(("decode", impl), fn))
        recons[impl] = decode(streams[impl], priority_impl=impl)
    gate = (streams["naive"] == streams["vectorized"]
            and np.array_equal(recons["naive"].values,
                               recons["vectorized"].values))
    enc_ratio = spent["encode", "naive"] / spent["encode", "vectorized"]
    dec_ratio = spent["decode", "naive"] / spent["decode", "vectorized"]
    ok = gate and enc_ratio >= 10.0 and dec_ratio >= 10.0
    _report("03 priority-speedup", ok,
            f"outputs equal={gate}, encode {enc_ratio:.1f}x, "
            f"decode {dec_ratio:.1f}x, floor 10x")


def test_04_payload_matches_entropy_model():
    rng = np.random.default_rng(4)
    bits_total = lower_total = upper_total = 0.0
    per_tensor = 0
    for k in range(100):
        shape = Shape(int(rng.integers(1, 17)), int(rng.integers(1, 9)),
                      int(rng.integers(1, 13)))
        values, sigmas = generate(SynthConfig(shape=shape, zero_weight=0.0,
                                              seed=1000 + k))
        result = encode_result(values, sigmas, base=2 + k % 2)
        bits = 8.0 * (len(result.stream) - result.header_size)
        lower = float(result.entropy_bits.sum())
        upper = 1.01 * lower + 64.0 * len(result.payload_lengths)
        bits_total += bits
        lower_total += lower
        upper_total += upper
        per_tensor += lower <= bits <= upper
    ok = lower_total <= bits_total <= upper_total
    _report("04 rate-model", ok,
            f"payload {bits_total:.0f} bits within "
            f"[{lower_total:.0f}, {upper_total:.0f}] over 100 tensors, "
            f"{per_tensor}/100 individually inside")


def test_05_analytic_distortion_matches_monte_carlo():
    values, sigmas = generate(SynthConfig(shape=Shape(4, 4, 6), zero_weight=0.0,
                                          seed=9))
    result = encode_result(values, sigmas, base=3)
    bank = build_model_bank(sigmas.astype(np.float64).ravel(), 3)
    samples = math.ceil(1e6 / values.size)
    payload = len(result.stream) - result.header_size
    rng = np.random.default_rng(77)
    budgets = rng.integers(result.header_size,
                           result.header_size + int(0.9 * payload) + 1, size=20)
    worst = 0.0
    for budget in budgets:
        recon = decode(truncate(result.stream, int(budget)))
        analytic = float(np.mean([
            expected_distortion(bank.element_model(i), int(n))
            for i, n in enumerate(recon.digits_applied)]))
        mc = float(np.mean([
            mc_distortion_oracle(bank.element_model(i), int(n), samples,
                                 seed=int(budget) * 1000 + i)
            for i, n in enumerate(recon.digits_applied)]))
        worst = max(worst, abs(analytic - mc) / max(analytic, 1e-300))
    ok = worst < 0.01
    _report("05 distortion-model", ok,
            f"20 truncation points, {samples} samples per element, "
            f"worst relative gap {worst:.4f} of 0.01")


def test_06_distortion_never_increases_with_budget():
    violations = 0
    for k in range(100):
        values, sigmas = generate(SynthConfig(shape=Shape(6, 6, 8),
                                              seed=2000 + k))
        result = encode_result(values, sigmas, base=2 + k % 2, sigma_mode=0)
        budgets = np.linspace(result.header_size, len(result.stream),
                              64).astype(int)
        prev = math.inf
        for budget in budgets:
            mse = decode(truncate(result.stream, int(budget)),
                         sigmas=sigmas).mse
            if mse > prev:
                violations += 1
            prev = mse
    ok = violations == 0
    _report("06 budget-monotonicity", ok,
            f"{violations} increases across 100 tensors x 64 budgets")


def test_07_trits_beat_bits_at_low_rates_on_sparse_latents():
    passes = 0
    for seed in range(100):
        values, sigmas = generate(SynthConfig(shape=Shape(8, 8, 12), seed=seed))
        r3 = encode_result(values, sigmas, base=3, sigma_mode=0)
        r2 = encode_result(values, sigmas, base=2, sigma_mode=0)
        cap = int(0.4 * len(r3.stream))
        low = max(r3.header_size, r2.header_size)
        budgets = np.linspace(low, cap, 16).astype(int)
        x = values.astype(np.float64)
        good = True
        for budget in budgets:
            m3 = decode(truncate(r3.stream, int(budget)), sigmas=sigmas)
            m2 = decode(truncate(r2.stream, int(budget)), sigmas=sigmas)
            if np.mean((m3.values - x) ** 2) > np.mean((m2.values - x) ** 2) + 1e-12:
                good = False
                break
        passes += good
    ok = passes >= 95
    _report("07 trit-vs-bit-low-rate", ok,
            f"{passes}/100 seeds with base 3 at or below base 2 "
            "at every budget up to 40% of the base-3 rate")


def test_08_all_zero_tensor_truncation_behaviour():
    values = np.zeros((2, 3, 4), dtype=np.int64)
    sigmas = np.linspace(0.1, 8.0, values.size,
                         dtype=np.float32).reshape(values.shape)
    r3 = encode_result(values, sigmas, base=3)
    worst_abs = 0.0
    for budget in range(r3.header_size, len(r3.stream) + 1):
        recon = decode(truncate(r3.stream, budget))
        worst_abs = max(worst_abs, float(np.abs(recon.values).max()))
    r2 = encode_result(values, sigmas, base=2)
    head2 = decode(truncate(r2.stream, r2.header_size))
    all_biased = bool(np.all(head2.values != 0.0))
    full2 = decode(r2.stream)
    ok = worst_abs == 0.0 and all_biased and full2.exact
    _report("08 all-zero-corner", ok,
            f"base-3 max |value| {worst_abs} over every truncation, "
            f"base-2 header-only all nonzero={all_biased}")


def test_09_long_stream_prefixes_decode_cleanly():
    count = 100_000
    rng = np.random.default_rng(42)
    tables = quantize_pmf_rows(rng.dirichlet(np.full(3, 0.7), size=count))
    cum = np.cumsum(tables, axis=1)
    draw = np.random.default_rng(43).integers(0, cum[:, -1])
    digits = (draw[:, None] < cum).argmax(axis=1).astype(np.uint8)
    chunk = range_encode(digits, tables)
    sizes = list(range(0, len(chunk) + 1, 64))
    if sizes[-1] != len(chunk):
        sizes.append(len(chunk))
    wrong = 0
    prev = 0
    monotone = True
    for size in sizes:
        got = decode_digits(chunk[:size], tables, count).digits
        wrong += int(np.count_nonzero(got != digits[:got.size]))
        if got.size < prev:
            monotone = False
        prev = got.size
    complete = prev == count
    ok = wrong == 0 and monotone and complete
    _report("09 prefix-decodability", ok,
            f"{len(sizes)} prefixes of a {len(chunk)}-byte stream, "
            f"{wrong} wrong digits, full decode complete={complete}")
