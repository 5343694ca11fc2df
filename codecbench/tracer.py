"""Spans and counts around the codec's layers, recorded from outside them.

Tracer.install() replaces the functions each layer hands to the layer above
it, at the names the caller looks them up under: codec's bindings of the
gaussian, entropy, formats and slicing entry points and of its priority
implementations, and priority's bindings of the reduction kernels and the
table quantiser.  Every wrapper records a span (id, parent id, operation id,
name, start, end) and the counts its layer's work can be measured by.
uninstall() puts the original functions back.

A span's self time is its duration minus the time its direct children
cover.  The range encoder is traced from its construction to finish(), which
brackets the per-digit coding loop of one plane; it opens no children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "SPAN_FIELDS"]

SPAN_FIELDS = ("id", "parent", "op", "name", "start_s", "end_s")
# Kept spans stay in memory until the run ends, and millions of them (the
# naive priority path makes one reduction span per element) would slow the
# garbage collector inside the very calls being timed.
MAX_SPANS = 300_000


class Tracer:
    """Per-layer spans and counts for the codec calls made while installed.

    `op` is the identifier of the codec call in progress and `full_decode`
    tells whether that call decodes a complete stream; the caller sets both.
    Spans are kept while `keep_spans` is true, up to MAX_SPANS, and counted
    in `spans_dropped` beyond; totals always accumulate.
    """

    def __init__(self) -> None:
        self.keep_spans = True
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op = 0
        self.full_decode = False
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []      # [id, name, start, child seconds]
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def begin(self, name: str) -> None:
        self._stack.append([self._new_id(), name, time.perf_counter(), 0.0])

    def end(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        self._close(sid, name, start, end, child)

    def _close(self, sid: int, name: str, start: float, end: float,
               child: float) -> None:
        dur = end - start
        self.inclusive_s[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[0]
        if not self.keep_spans:
            return
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, self.op, name, start, end))
        else:
            self.spans_dropped += 1

    # -- patching ------------------------------------------------------
    def _wrap(self, name: str, fn, count=None):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end()
            if count is not None:
                count(out, *args)
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self) -> None:
        from tritstream import codec, priority

        counts = self.counts

        def bank(out, *_):
            counts["gaussian.mass_entries"] += out.masses_flat.size

        def plane(out, bank_, _state, n):
            rows = out.active.size
            counts["priority.rows"] += rows
            counts["priority.mass_entries"] += rows * bank_.base ** (bank_.l_max - n)
            counts["priority.coded_rows"] += out.order.size

        def quantize(out, *_):
            counts["entropy.quantize_pmf_rows.rows"] += out.shape[0]

        def decoded(out, _data, _tables, count):
            counts["entropy.digits_requested"] += count
            counts["entropy.digits_decoded"] += out.digits.size
            if self.full_decode:
                counts["entropy.digits_decoded_full"] += out.digits.size

        def applied(_out, _state, _plane, ids, _digits):
            counts["slicing.digits_applied"] += len(ids)

        def packed(out, *_):
            counts["formats.header_bytes"] += len(out)

        def parsed(out, *_):
            counts["formats.header_bytes"] += out.header_size

        self._set(codec, "build_model_bank",
                  self._wrap("gaussian.build_model_bank", codec.build_model_bank, bank))
        for impl, fn in list(codec.PRIORITY_IMPLS.items()):
            self._set(codec.PRIORITY_IMPLS, impl,
                      self._wrap("priority.plane_priorities", fn, plane))
        self._set(priority, "row_sum",
                  self._wrap("reduction.row_sum", priority.row_sum))
        self._set(priority, "split_row_sum",
                  self._wrap("reduction.split_row_sum", priority.split_row_sum))
        self._set(priority, "quantize_pmf_rows",
                  self._wrap("entropy.quantize_pmf_rows", priority.quantize_pmf_rows, quantize))
        self._set(codec, "decode_digits",
                  self._wrap("entropy.decode_digits", codec.decode_digits, decoded))
        self._set(codec.IntervalState, "apply_plane_digits",
                  self._wrap("slicing.apply_plane_digits",
                             codec.IntervalState.apply_plane_digits, applied))
        self._set(codec, "pack_stream_header",
                  self._wrap("formats.header", codec.pack_stream_header, packed))
        self._set(codec, "parse_stream_header",
                  self._wrap("formats.header", codec.parse_stream_header, parsed))
        self._set(codec, "stream_header_size",
                  self._wrap("formats.header", codec.stream_header_size))
        self._set(codec, "RangeEncoder", self._range_encoder(codec.RangeEncoder))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _range_encoder(self, base):
        tracer = self
        encode, finish = base.encode, base.finish

        class TracedRangeEncoder(base):
            def __init__(self):
                self._span = (tracer._new_id(), time.perf_counter())
                self._digits = 0
                super().__init__()

            def encode(self, cum, freq):
                self._digits += 1
                encode(self, cum, freq)

            def finish(self):
                chunk = finish(self)
                sid, start = self._span
                tracer._close(sid, "entropy.range_encode", start,
                              time.perf_counter(), 0.0)
                tracer.counts["entropy.digits_encoded"] += self._digits
                tracer.counts["entropy.bytes_encoded"] += len(chunk)
                return chunk

        return TracedRangeEncoder

    # -- results -------------------------------------------------------
    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round of work, as {name: (value, unit)}."""
        c, t = self.counts, self.inclusive_s

        def ratio(a, b):
            return a / b if b else 0.0

        reduction_calls = self.calls["reduction.row_sum"] + self.calls["reduction.split_row_sum"]
        per_round = {
            "gaussian.build_model_bank.s": (t["gaussian.build_model_bank"], "s"),
            "gaussian.build_model_bank.calls": (self.calls["gaussian.build_model_bank"], "count"),
            "gaussian.mass_entries": (c["gaussian.mass_entries"], "count"),
            "priority.plane_priorities.s": (t["priority.plane_priorities"], "s"),
            "priority.plane_priorities.calls": (self.calls["priority.plane_priorities"], "count"),
            "priority.rows": (c["priority.rows"], "count"),
            "priority.mass_entries": (c["priority.mass_entries"], "count"),
            "priority.coded_rows": (c["priority.coded_rows"], "count"),
            "reduction.row_sum.s": (t["reduction.row_sum"], "s"),
            "reduction.split_row_sum.s": (t["reduction.split_row_sum"], "s"),
            "reduction.calls": (reduction_calls, "count"),
            "entropy.quantize_pmf_rows.s": (t["entropy.quantize_pmf_rows"], "s"),
            "entropy.quantize_pmf_rows.rows": (c["entropy.quantize_pmf_rows.rows"], "count"),
            "entropy.range_encode.s": (t["entropy.range_encode"], "s"),
            "entropy.digits_encoded": (c["entropy.digits_encoded"], "count"),
            "entropy.bytes_encoded": (c["entropy.bytes_encoded"], "bytes"),
            "entropy.decode_digits.s": (t["entropy.decode_digits"], "s"),
            "entropy.digits_requested": (c["entropy.digits_requested"], "count"),
            "entropy.digits_decoded": (c["entropy.digits_decoded"], "count"),
            "slicing.apply_plane_digits.s": (t["slicing.apply_plane_digits"], "s"),
            "slicing.digits_applied": (c["slicing.digits_applied"], "count"),
            "formats.header.s": (t["formats.header"], "s"),
            "formats.header_bytes": (c["formats.header_bytes"], "bytes"),
            "codec.encode.s": (t["codec.encode"], "s"),
            "codec.encode.self_s": (self.self_s["codec.encode"], "s"),
            "codec.decode.s": (t["codec.decode"], "s"),
            "codec.decode.self_s": (self.self_s["codec.decode"], "s"),
            "codec.planes_entered": (self.calls["priority.plane_priorities"], "count"),
        }
        out = {name: (value / rounds, unit) for name, (value, unit) in per_round.items()}
        out["priority.rows_used_ratio"] = (
            ratio(c["slicing.digits_applied"], c["priority.rows"]), "ratio")
        out["entropy.decoded_ratio"] = (
            ratio(c["entropy.digits_decoded"], c["entropy.digits_requested"]), "ratio")
        return out
