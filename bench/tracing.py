"""Span tracing of polarkit's layers, from outside the package.

The tracer replaces the module attributes through which one layer calls the
next (for example `polarkit.sim.decode_batch`) with wrappers that record a
span: name, start, end and the enclosing span. Spans stay in memory and are
written out once the traced rep ends. A layer's self time is its spans'
duration minus the time covered by their child spans.

Wrappers only take timestamps, bump counters and keep references; anything
heavier (decoder agreement, distinct profile multisets, bytes written) is
computed from the kept references after the rep, so it is not charged to any
layer. A hook whose attribute no longer exists is skipped and the metrics
that depend on it are left out.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from workloads import subuniform_bits


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.kept: dict[str, list] = defaultdict(list)
        self.missing: set[str] = set()  # span names whose hook is absent or broken
        self._installed: list[tuple] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named `name`."""
        self.begin(self._nid(name))
        try:
            return fn(*args)
        finally:
            self.end()

    def _after(self, name, after, args, result):
        try:
            after(args, result)
        except Exception:  # a changed signature must not fail the program
            self.missing.add(name)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        nid = self._nid(name)

        def traced(*args, **kwargs):
            self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                self._after(name, after, args, result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, fn))

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Charge the time spent in each next() of a returned generator to
        `name`; items are counted under `name`."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        nid = self._nid(name)

        def items(gen):
            while True:
                self.begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.counts[name] += 1
                yield item

        setattr(module, attr, lambda *a, **k: items(fn(*a, **k)))
        self._installed.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def totals(self) -> dict[str, tuple[float, int]]:
        """Self seconds and span count per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {name: [0.0, 0] for name in self.names}
        for (nid, start, end, _), child in zip(self.spans, covered):
            agg = out[self.names[nid]]
            agg[0] += end - start - child
            agg[1] += 1
        return {name: (s, n) for name, (s, n) in out.items()}

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [nid, round(s - t0, 9), round(e - t0, 9), p]
                for nid, s, e, p in self.spans
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install_polarkit_hooks(tracer: Tracer) -> None:
    """Wrap the layer boundaries of polarkit's simulate and survey commands."""
    import polarkit.bec
    import polarkit.cli
    import polarkit.gf2
    import polarkit.sim
    import polarkit.survey

    counts, kept = tracer.counts, tracer.kept

    def add(key, amount):
        counts[key] += int(amount)

    def remember_inputs(args, u):
        kept["last_inputs"][:] = [u]

    def remember_decode(args, result):
        add("codec.decode.frames", args[1].shape[0])
        if kept["last_inputs"]:
            kept["decodes"].append((kept["last_inputs"][0], args[0].info_set, result))

    sim, survey = polarkit.sim, polarkit.survey
    w = tracer.wrap
    w(polarkit.cli, "run_monte_carlo", "sim", lambda a, r: kept["reports"].append(r))
    w(sim, "_channel_words", "sim.channel_words",
      lambda a, r: add("sim.channel_words.words", len(r)))
    w(sim, "_bit_transpose", "sim.bit_transpose",
      lambda a, r: add("sim.bit_transpose.bits", a[1] * a[2]))
    w(sim, "_erasure_block", "sim.erasure_block",
      lambda a, r: add("sim.erasure_block.symbols", r.size))
    w(sim, "_assemble_inputs", "sim.assemble_inputs", remember_inputs)
    w(sim, "_screen_known_planes", "codec.screen",
      lambda a, r: add("codec.screen.trials", a[2].shape[1] * 8))
    w(sim, "_encode_batch", "codec.encode",
      lambda a, r: add("codec.encode.frames", r.shape[0]))
    w(sim, "decode_batch", "codec.decode", remember_decode)
    for module in (polarkit.cli, survey):
        w(module, "atomic_write_text", "ioutil.write",
          lambda a, r: kept["writes"].append(a[1]))
    tracer.wrap_generator(polarkit.cli, "enumerate_kernels", "kernels.enumerate")
    w(polarkit.gf2, "rank", "gf2.rank")
    for module in (survey, polarkit.bec):
        w(module, "bernstein_eval", "bec.bernstein_eval",
          lambda a, r: add("bec.bernstein_eval.points", np.size(r)))
    w(survey, "group_survey", "survey.group")
    w(survey, "_row_bits", "survey.row_bits")
    w(survey, "_batch_profiles", "survey.profiles")
    w(survey, "_batch_curves", "survey.curves",
      lambda a, r: kept["curve_counts"].append(a[0]))
    w(survey, "_batch_exponents", "survey.exponents")
    w(survey, "invertible_summary", "survey.summary")
    w(survey, "export_survey", "survey.export")


def _distinct_multisets(tables: list[np.ndarray]) -> int:
    """Distinct count tables up to row order, over (M, l, l+1) batches."""
    if not tables:
        return 0
    counts = np.concatenate(tables).astype(np.int64)
    base = int(counts.max()) + 1
    keys = counts @ (base ** np.arange(counts.shape[2], dtype=np.int64))
    return int(np.unique(np.sort(keys, axis=1), axis=0).shape[0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: (per-layer metric, span name, unit, source); source is "s" (self time),
#: "calls" (span count) or a counter key
_SPAN_METRICS = [
    ("sim.self.s", "sim", "s", "s"),
    ("sim.channel_words.s", "sim.channel_words", "s", "s"),
    ("sim.channel_words.calls", "sim.channel_words", "count", "calls"),
    ("sim.channel_words.words", "sim.channel_words", "words", "sim.channel_words.words"),
    ("sim.bit_transpose.s", "sim.bit_transpose", "s", "s"),
    ("sim.bit_transpose.calls", "sim.bit_transpose", "count", "calls"),
    ("sim.bit_transpose.bits", "sim.bit_transpose", "bits", "sim.bit_transpose.bits"),
    ("sim.erasure_block.s", "sim.erasure_block", "s", "s"),
    ("sim.erasure_block.calls", "sim.erasure_block", "count", "calls"),
    ("sim.erasure_block.symbols", "sim.erasure_block", "symbols", "sim.erasure_block.symbols"),
    ("sim.assemble_inputs.s", "sim.assemble_inputs", "s", "s"),
    ("codec.screen.s", "codec.screen", "s", "s"),
    ("codec.screen.calls", "codec.screen", "count", "calls"),
    ("codec.screen.trials", "codec.screen", "trials", "codec.screen.trials"),
    ("codec.encode.s", "codec.encode", "s", "s"),
    ("codec.encode.frames", "codec.encode", "frames", "codec.encode.frames"),
    ("codec.decode.s", "codec.decode", "s", "s"),
    ("codec.decode.calls", "codec.decode", "count", "calls"),
    ("codec.decode.frames", "codec.decode", "frames", "codec.decode.frames"),
    ("kernels.enumerate.s", "kernels.enumerate", "s", "s"),
    ("kernels.enumerate.kernels", "kernels.enumerate", "kernels", "kernels.enumerate"),
    ("gf2.rank.s", "gf2.rank", "s", "s"),
    ("gf2.rank.calls", "gf2.rank", "count", "calls"),
    ("bec.bernstein_eval.s", "bec.bernstein_eval", "s", "s"),
    ("bec.bernstein_eval.calls", "bec.bernstein_eval", "count", "calls"),
    ("bec.bernstein_eval.points", "bec.bernstein_eval", "points", "bec.bernstein_eval.points"),
    ("survey.row_bits.s", "survey.row_bits", "s", "s"),
    ("survey.profiles.s", "survey.profiles", "s", "s"),
    ("survey.curves.s", "survey.curves", "s", "s"),
    ("survey.exponents.s", "survey.exponents", "s", "s"),
    ("survey.group.s", "survey.group", "s", "s"),
    ("survey.summary.s", "survey.summary", "s", "s"),
    ("survey.export.s", "survey.export", "s", "s"),
    ("ioutil.write.s", "ioutil.write", "s", "s"),
    ("cli.self.s", "cli", "s", "s"),
]


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Per-layer metrics of one traced rep, as {name: {"value", "unit"}}.

    A layer the rep never entered reports zero time and zero counts.
    """
    totals = tracer.totals()
    counts, kept = tracer.counts, tracer.kept
    out = {}

    def put(name, value, unit, *needs):
        if not any(n in tracer.missing for n in needs):
            out[name] = {"value": value, "unit": unit}

    for name, span, unit, source in _SPAN_METRICS:
        seconds, calls = totals.get(span, (0.0, 0))
        value = seconds if source == "s" else calls if source == "calls" else counts[source]
        put(name, value, unit, span)

    used_words = sum(
        r.trials * r.N * subuniform_bits(r.eps) / 64 for r in kept["reports"]
    )
    put("sim.channel.useful_ratio",
        _ratio(used_words, counts["sim.channel_words.words"]), "ratio",
        "sim", "sim.channel_words")

    frames = counts["codec.decode.frames"]
    decode_calls = totals.get("codec.decode", (0.0, 0))[1]
    put("codec.decode.frames_per_call", _ratio(frames, decode_calls), "frames/call",
        "codec.decode")
    put("codec.flag_ratio", _ratio(frames, counts["codec.screen.trials"]), "ratio",
        "codec.decode", "codec.screen")
    confirmed = 0
    for u, info, (u_hat, flags) in kept["decodes"]:
        bad = (flags[:, info] == 1) | (u_hat[:, info] != u[:, info])
        confirmed += int(bad.any(axis=1).sum())
    put("codec.decode.agreement", _ratio(confirmed, frames), "ratio",
        "codec.decode", "sim.assemble_inputs")

    rows = sum(t.shape[0] for t in kept["curve_counts"])
    put("survey.curves.rows", rows, "rows", "survey.curves")
    put("survey.curves.useful_ratio",
        _ratio(_distinct_multisets(kept["curve_counts"]), rows), "ratio",
        "survey.curves")
    put("ioutil.write.bytes", sum(len(t.encode()) for t in kept["writes"]), "bytes",
        "ioutil.write")
    return out
