"""Run one codec benchmark workload and print its metrics as one JSON line.

    python3 codecbench/run.py --workload image-full --seed 1 --seconds 20 --trace 0

The codec is imported from the `src` directory beside this one; the run
exits with code 2, printing no result, when that is absent.

Load comes from this one process in a closed loop: each codec call starts
when the previous one returns, on one thread.  A round encodes every tensor
of the workload with both slicings (base 3, trits, and base 2, bits), then
decodes each stream at the workload's budgets and whole.  Rounds repeat on
the same inputs until --seconds have passed; at least one round always runs.

--trace 0 prints the end-to-end metrics.  --trace 1 follows the untraced
rounds with as many traced ones, prints the per-layer metrics per round and
the tracing overhead, and writes them with every span of the first traced
round to codecbench/out/.  The first round's outputs are checked against
independent computations (checks.py); every later round, traced ones too,
must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import checks  # noqa: E402
from speed import REFERENCE_S, SpeedGauge  # noqa: E402
from workloads import WORKLOADS, make  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SLICINGS = {3: "trit", 2: "bit"}
CHECKED_MEANS = 32          # sampled elements per prefix for the mean check


@dataclass
class Output:
    """One stream and everything decoded from it in one round."""

    stream: bytes
    header_size: int        # as the encoder reports it
    cuts: list[int]         # prefix lengths in bytes, ascending
    prefixes: list          # Reconstruction per cut, None where the call failed
    full: object            # Reconstruction of the whole stream, or None


@dataclass
class Round:
    encode_s: float = 0.0   # wall clock
    decode_s: float = 0.0
    encode_ref_s: float = 0.0   # at reference machine speed (speed.py)
    decode_ref_s: float = 0.0
    encoded: int = 0        # elements
    decoded: int = 0        # elements reconstructed, prefix and full
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)   # Output, or None, per (job, base)

    @property
    def busy_ref_s(self) -> float:
        return self.encode_ref_s + self.decode_ref_s

    def add_encode_ref(self, secs: float) -> None:
        self.encode_ref_s += secs

    def add_decode_ref(self, secs: float) -> None:
        self.decode_ref_s += secs


def cold_setup_seconds() -> float:
    """Seconds from launching a fresh interpreter until its first tiny
    encode and decode returned (CLOCK_MONOTONIC is shared across processes)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), str(SRC)],
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def layout_header(job, base: int) -> int:
    """Header bytes of the job's stream, from the format layout alone."""
    planes = int(checks.digit_counts(job.sigmas, base).max())
    return checks.header_size(job.size, job.sigma_mode, planes)


class Runner:
    """Makes the codec calls of one round, timing each call on its own and
    converting its time to reference machine speed."""

    def __init__(self, ts, jobs, priority_impl: str) -> None:
        self.ts = ts
        self.jobs = jobs
        self.impl = priority_impl
        self.op_errors = (ts.TritstreamError, ValueError)
        self.gauge = SpeedGauge()

    def _call(self, tracer, span, fn, *args):
        if tracer is not None:
            tracer.op += 1
            tracer.begin(span)
        start = time.perf_counter()
        try:
            return fn(*args, priority_impl=self.impl), time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.end()

    def round(self, tracer=None) -> Round:
        ts, rd = self.ts, Round()
        for job in self.jobs:
            oob = None if job.sigma_mode == 1 else job.sigmas
            for base in SLICINGS:
                ops = 2 + len(job.budgets_bpe)
                rd.attempted += ops
                try:
                    res, secs = self._call(tracer, "codec.encode", ts.encode_result,
                                           job.values, job.sigmas, base, job.sigma_mode)
                except self.op_errors as exc:
                    rd.failed += ops
                    rd.errors.append(f"encode base {base}: {exc!r}")
                    rd.outputs.append(None)
                    continue
                rd.encode_s += secs
                self.gauge.add(secs, rd.add_encode_ref)
                rd.encoded += job.size
                stream = res.stream
                payload = len(stream) - res.header_size
                cuts = [res.header_size + max(0, min(payload - 1, int(bpe * job.size / 8)))
                        for bpe in job.budgets_bpe]
                recs = []
                for n, cut in enumerate(cuts + [len(stream)]):
                    data = stream[:cut]
                    if tracer is not None:
                        tracer.full_decode = n == len(cuts)
                    try:
                        rec, secs = self._call(tracer, "codec.decode", ts.decode, data, oob)
                    except self.op_errors as exc:
                        rd.failed += 1
                        rd.errors.append(f"decode base {base} at {cut} bytes: {exc!r}")
                        recs.append(None)
                        continue
                    rd.decode_s += secs
                    self.gauge.add(secs, rd.add_decode_ref)
                    rd.decoded += job.size
                    recs.append(rec)
                rd.outputs.append(Output(stream, res.header_size, cuts, recs[:-1], recs[-1]))
        self.gauge.flush()
        return rd


def _same_rec(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (a.mse == b.mse and a.exact == b.exact
            and np.array_equal(a.values, b.values)
            and np.array_equal(a.digits_applied, b.digits_applied))


def compare_rounds(ref: Round, rd: Round, label: str) -> list[str]:
    """A repeated round reproduces the reference round's outputs exactly."""
    problems = []
    for i, (a, b) in enumerate(zip(ref.outputs, rd.outputs)):
        if a is None or b is None:
            continue
        problems += checks.check_same_bytes(a.stream, b.stream, f"{label}, stream {i}")
        if a.cuts != b.cuts or not all(map(_same_rec, a.prefixes + [a.full],
                                           b.prefixes + [b.full])):
            problems.append(f"{label}, stream {i}: decodes differ from round 1")
    return problems


def check_round(jobs, rd: Round, rng: np.random.Generator) -> list[str]:
    """Every check of checks.py on one round's outputs."""
    problems = []
    outputs = iter(rd.outputs)
    for j, job in enumerate(jobs):
        for base, name in SLICINGS.items():
            out = next(outputs)
            if out is None:
                continue
            ell = checks.digit_counts(job.sigmas, base)
            found = checks.check_stream(out.stream, job.values.shape, base,
                                        job.sigma_mode, int(ell.max()))
            if out.header_size != layout_header(job, base):
                found.append(f"encoder reports a {out.header_size}-byte header, "
                             f"the layout gives {layout_header(job, base)}")
            mses = []
            for rec in out.prefixes:
                if rec is None:
                    continue
                mses.append(rec.mse)
                partial = np.flatnonzero((rec.digits_applied > 0)
                                         & (rec.digits_applied < ell))
                pool = partial if partial.size else np.arange(job.size)
                sample = rng.choice(pool, size=min(CHECKED_MEANS, pool.size), replace=False)
                found += checks.check_prefix(rec, job.values, job.sigmas, ell, base, sample)
            if out.full is not None:
                mses.append(out.full.mse)
                found += checks.check_full(out.full, job.values, ell)
            found += checks.check_mse_descends(mses)
            problems += [f"job {j} {name}: {p}" for p in found]
    return problems


def quality_metrics(jobs, rd: Round) -> dict:
    """Payload bits per element and prefix MSE against the inputs, per slicing."""
    payload_bits = dict.fromkeys(SLICINGS, 0)
    elements = dict.fromkeys(SLICINGS, 0)
    sq_err = dict.fromkeys(SLICINGS, 0.0)
    prefix_elements = dict.fromkeys(SLICINGS, 0)
    outputs = iter(rd.outputs)
    for job in jobs:
        for base in SLICINGS:
            out = next(outputs)
            payload_bits[base] += 8 * (len(out.stream) - layout_header(job, base))
            elements[base] += job.size
            for rec in out.prefixes:
                err = rec.values.ravel() - job.values.ravel()
                sq_err[base] += float(np.dot(err, err))
                prefix_elements[base] += job.size
    metrics = {f"payload_bpe.{name}": (payload_bits[b] / elements[b], "bit/elem")
               for b, name in SLICINGS.items()}
    metrics.update({f"prefix_mse.{name}": (sq_err[b] / prefix_elements[b], "sq_units")
                    for b, name in SLICINGS.items()})
    return metrics


def run_untraced(runner: Runner, seconds: float) -> tuple[list[Round], list[str]]:
    """Rounds until `seconds` have passed; later rounds are compared with the
    first and then drop their outputs."""
    start = time.perf_counter()
    rounds = [runner.round()]
    problems = []
    while time.perf_counter() - start < seconds:
        rd = runner.round()
        problems += compare_rounds(rounds[0], rd, f"round {len(rounds) + 1}")
        rd.outputs = []
        rounds.append(rd)
    return rounds, problems


def run_traced(runner: Runner, first: Round, count: int):
    """`count` traced rounds; spans are kept for the first one only."""
    from tracer import Tracer

    tracer = Tracer()
    rounds, problems = [], []
    tracer.install()
    try:
        for n in range(count):
            rd = runner.round(tracer)
            tracer.keep_spans = False
            problems += compare_rounds(first, rd, f"traced round {n + 1}")
            rd.outputs = []
            rounds.append(rd)
    finally:
        tracer.uninstall()
    payload = sum(len(out.stream) - layout_header(job, base)
                  for (job, base), out in zip(_streams(runner.jobs), first.outputs) if out)
    problems += checks.check_equal_totals(
        "digits handed to the range encoder", tracer.counts["entropy.digits_encoded"],
        "digits returned by full decodes", tracer.counts["entropy.digits_decoded_full"])
    problems += checks.check_equal_totals(
        "bytes the range encoder emitted", tracer.counts["entropy.bytes_encoded"],
        "stream bytes after the layout's header", count * payload)
    return tracer, rounds, problems


def _streams(jobs):
    return [(job, base) for job in jobs for base in SLICINGS]


def write_trace(path: Path, args, tracer, metrics: dict, rounds: int) -> None:
    """Spans of the first traced round and the per-layer metrics, as JSON."""
    from tracer import SPAN_FIELDS

    t0 = tracer.spans[0][4] if tracer.spans else 0.0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_rounds": rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "span_fields": SPAN_FIELDS,
        "spans_dropped": tracer.spans_dropped,
        "spans": [[sid, parent, op, name, start - t0, end - t0]
                  for sid, parent, op, name, start, end in tracer.spans],
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--priority-impl", choices=("vectorized", "naive"),
                        default="vectorized",
                        help="priority implementation; naive is the "
                             "one-element-at-a-time reference")
    args = parser.parse_args(argv)

    if not (SRC / "tritstream" / "__init__.py").is_file():
        print(f"error: no codec sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = cold_setup_seconds() if args.trace == 0 else None
    sys.path.insert(0, str(SRC))
    import tritstream as ts

    jobs = make(args.workload, args.seed)
    runner = Runner(ts, jobs, args.priority_impl)
    rounds, problems = run_untraced(runner, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = rounds[0]
    problems += check_round(jobs, first, np.random.Generator(np.random.PCG64(args.seed)))

    traced = []
    if args.trace:
        tracer, traced, found = run_traced(runner, first, len(rounds))
        problems += found
        metrics = tracer.metrics(len(traced))
        busy = statistics.median(rd.busy_ref_s for rd in traced)
        metrics["trace.overhead_pct"] = (
            100.0 * (busy / statistics.median(rd.busy_ref_s for rd in rounds) - 1.0), "%")
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, args, tracer, metrics, len(traced))
        print(f"{args.workload}: wrote {len(tracer.spans)} spans to {path}", file=sys.stderr)
    else:
        if len(rounds) < 2:
            # One round only: encode once more to show encoding is repeatable.
            for (job, base), out in zip(_streams(jobs), first.outputs):
                if out is not None:
                    again = ts.encode(job.values, job.sigmas, base, job.sigma_mode,
                                      priority_impl=args.priority_impl)
                    problems += checks.check_same_bytes(out.stream, again, "re-encode")
        metrics = {
            "setup_s": (setup_s, "s"),
            "encode_elem_per_s": (
                statistics.median(rd.encoded / rd.encode_ref_s for rd in rounds), "elem/s"),
            "decode_elem_per_s": (
                statistics.median(rd.decoded / rd.decode_ref_s for rd in rounds), "elem/s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        if not any(rd.failed for rd in rounds):
            metrics.update(quality_metrics(jobs, first))

    everything = rounds + traced
    for message in [e for rd in everything for e in rd.errors] + problems:
        print(f"{args.workload}: {message}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds"
          f"{f' and {len(traced)} traced' if traced else ''}; wall-clock medians "
          f"{statistics.median(rd.encoded / rd.encode_s for rd in rounds):.0f} elem/s "
          f"encoding, {statistics.median(rd.decoded / rd.decode_s for rd in rounds):.0f} "
          f"elem/s decoding; reference kernel at "
          f"{statistics.median(runner.gauge.samples) / REFERENCE_S:.3f} of its reference time",
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rd.attempted for rd in everything),
        "failed": sum(rd.failed for rd in everything),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
