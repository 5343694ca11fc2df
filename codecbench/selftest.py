"""Self-test of the benchmark's correctness checks.

    python3 codecbench/selftest.py

Runs one round of a small job through the codec, confirms that every check
accepts the real outputs, then feeds the checks deliberately wrong outputs
and confirms that each one is rejected: reconstructions shifted by one unit,
a stream with one payload byte flipped, a prefix MSE that rises, and more.
Exits with code 1 if a check accepts a wrong output or rejects a right one.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import numpy as np

import checks
import run
from workloads import Job, latent

sys.path.insert(0, str(run.SRC))
import tritstream as ts  # noqa: E402

BUDGETS = (0.3, 0.8, 1.5)


def replace_output(rd: run.Round, index: int, **changes) -> run.Round:
    bad = copy.copy(rd)
    bad.outputs = list(rd.outputs)
    bad.outputs[index] = dataclasses.replace(rd.outputs[index], **changes)
    return bad


def shifted(rec, delta=1.0, element=None):
    values = rec.values.copy()
    if element is None:
        values += delta
    else:
        values.flat[element] += delta
    return dataclasses.replace(rec, values=values)


def sample_rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(0))


def main() -> int:
    rng = np.random.Generator(np.random.PCG64(7))
    jobs = [Job(*latent(rng, (6, 5, 7)), sigma_mode=1, budgets_bpe=BUDGETS),
            Job(*latent(rng, (2, 3, 4)), sigma_mode=0, budgets_bpe=BUDGETS)]
    runner = run.Runner(ts, jobs, "vectorized")
    good = runner.round()
    out = good.outputs[0]
    ell = checks.digit_counts(jobs[0].sigmas, 3)
    partial = int(np.flatnonzero((out.prefixes[1].digits_applied > 0)
                                 & (out.prefixes[1].digits_applied < ell))[0])

    failures = []

    def expect(label: str, problems: list[str], accepted: bool) -> None:
        ok = (not problems) == accepted
        verdict = "accepted" if not problems else f"rejected ({problems[0]})"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
        if not ok:
            failures.append(label)

    expect("real outputs", run.check_round(jobs, good, sample_rng()), True)
    expect("repeated round", run.compare_rounds(good, runner.round(), "again"), True)

    expect("full reconstruction shifted by one unit",
           run.check_round(jobs, replace_output(good, 0, full=shifted(out.full)), sample_rng()),
           False)
    expect("one full value shifted by one unit",
           checks.check_full(shifted(out.full, element=5), jobs[0].values, ell), False)
    expect("prefix reconstruction shifted by one unit",
           run.check_round(jobs, replace_output(
               good, 0, prefixes=[out.prefixes[0], shifted(out.prefixes[1]), out.prefixes[2]]),
               sample_rng()), False)
    expect("one partially decoded value off its conditional mean by 1e-6",
           checks.check_prefix(shifted(out.prefixes[1], 1e-6, partial), jobs[0].values,
                               jobs[0].sigmas, ell, 3, np.asarray([partial])), False)
    expect("digits applied beyond L",
           checks.check_prefix(dataclasses.replace(out.prefixes[0],
                                                   digits_applied=out.prefixes[0].digits_applied + ell),
                               jobs[0].values, jobs[0].sigmas, ell, 3, np.asarray([0])), False)
    expect("full decode one digit short",
           checks.check_full(dataclasses.replace(out.full, digits_applied=ell - 1),
                             jobs[0].values, ell), False)
    expect("full decode not reporting exact",
           checks.check_full(dataclasses.replace(out.full, exact=False), jobs[0].values, ell),
           False)

    # Flip a byte in the middle of the longest plane payload: the last bytes
    # of a chunk can be slack that decodes the same either way.
    planes = int(ell.max())
    lengths = np.frombuffer(out.stream, dtype="<u4", count=planes,
                            offset=out.header_size - 4 * planes)
    longest = int(lengths.argmax())
    flipped = bytearray(out.stream)
    flipped[out.header_size + int(lengths[:longest].sum()) + int(lengths[longest]) // 2] ^= 0xFF
    flipped = bytes(flipped)
    expect("stream with one payload byte flipped, against a re-encode",
           run.compare_rounds(good, replace_output(good, 0, stream=flipped), "flipped"), False)
    try:
        problems = checks.check_full(ts.decode(flipped), jobs[0].values, ell)
    except ts.TritstreamError as exc:
        problems = [f"decode raised {exc!r}"]
    expect("full decode of the flipped stream", problems, False)

    longer = bytearray(out.stream)
    longer[out.header_size - 4 * planes] += 1
    expect("directory entry one byte too long",
           checks.check_stream(bytes(longer), jobs[0].values.shape, 3, 1, planes), False)
    expect("stream one byte short",
           checks.check_stream(out.stream[:-1], jobs[0].values.shape, 3, 1, planes), False)
    expect("header size misreported",
           run.check_round(jobs, replace_output(good, 0, header_size=out.header_size + 4),
                           sample_rng()), False)

    mses = [rec.mse for rec in out.prefixes] + [out.full.mse]
    expect("real mse ladder", checks.check_mse_descends(mses), True)
    rising = list(out.prefixes)
    rising[2] = dataclasses.replace(rising[2], mse=rising[1].mse * 1.01)
    expect("prefix mse that rises",
           run.check_round(jobs, replace_output(good, 0, prefixes=rising), sample_rng()), False)

    expect("range-coded digits against full-decode digits",
           checks.check_equal_totals("encoded", 100, "decoded", 99), False)

    print(f"{'all checks behave' if not failures else f'{len(failures)} checks misbehave'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
