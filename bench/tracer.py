"""Span tracer that wraps the package's public functions from outside.

`Tracer.install()` rebinds each traced function, in every `gatedfusion`
module that holds a reference to it, to a wrapper that records a span (name,
start, end, parent, iteration) and exact counts at the same boundary: tape
ops and tapes created between the span's start and end. `uninstall()` puts
the originals back, so untraced iterations run the package unmodified.
Spans stay in memory; `summary()` aggregates them and `dump()` writes them.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

from gatedfusion import analysis, checkpoint, cli, corpus_io, diagnostics, encoder, gating
from gatedfusion import model, plots, sequence, synth, tensor, trainer

# span fields, by index
NAME, START, END, PARENT, ITER, OPS0, OPS1, TAPES0, TAPES1 = range(9)


class Tracer:
    """In-memory spans and counters for the traced part of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.iteration = 0
        self.ops = 0
        self.tapes = 0
        self.op_kinds: Counter = Counter()
        # facts measured at span boundaries: samples, bytes, rows
        self.facts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, note=None):
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.iteration,
                   tracer.ops, 0, tracer.tapes, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                rec[OPS1] = tracer.ops
                rec[TAPES1] = tracer.tapes
                stack.pop()
            if note is not None:
                note(tracer.facts, args, out)
            return out

        return wrapper

    def _count_record(self, fn):
        tracer = self

        @functools.wraps(fn)
        def record(tape, name, out, backward):
            tracer.ops += 1
            tracer.op_kinds[name] += 1
            return fn(tape, name, out, backward)

        return record

    def _count_tape(self, fn):
        tracer = self

        @functools.wraps(fn)
        def init(tape, *args, **kwargs):
            tracer.tapes += 1
            return fn(tape, *args, **kwargs)

        return init

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper) -> None:
        """Replace `fn` in every gatedfusion module namespace that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gatedfusion" and not mod_name.startswith("gatedfusion."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        T = tensor.Tape
        self._set(T, "record", self._count_record(T.record))
        self._set(T, "__init__", self._count_tape(T.__init__))
        self._set(T, "backward", self._span(T.backward, "tensor.backward"))
        self._set(model.FusionModel, "forward",
                  self._span(model.FusionModel.forward, "model.forward", _note_forward))
        self._set(encoder.EncoderLayer, "forward",
                  self._span(encoder.EncoderLayer.forward, "encoder.forward"))
        for opt in (trainer.Adam, trainer.SGD):
            self._set(opt, "step", self._span(opt.step, "trainer.optimizer"))

        functions = [
            (gating.gate_sequence, "gating.gate", None),
            (gating.refine_sequence, "gating.refine", None),
            (sequence.masked_mean_pool, "sequence.pool", None),
            (sequence.pad_batch, "sequence.pad_batch", _note_pad_batch),
            (trainer.evaluate, "trainer.evaluate", _note_evaluate),
            (synth.generate, "synth.generate", _note_generate),
            (synth.bayes_oracle_accuracy, "synth.oracle", _note_oracle),
            (corpus_io.write_corpus, "corpus_io.write", _note_write_corpus),
            (corpus_io.read_corpus, "corpus_io.read", None),
            (checkpoint.save_model, "checkpoint.save", _note_save_model),
            (checkpoint.load_model, "checkpoint.load", None),
            (analysis.collect_traces, "analysis.collect_traces", _note_collect_traces),
            (analysis.gate_energy_correlation, "analysis.gate_studies", None),
            (analysis.gate_diagnostic_alignment, "analysis.gate_studies", None),
            (analysis.metrics, "analysis.metrics", None),
            (plots.export_trace_plot, "plots.svg", _note_svg),
            (cli.cmd_generate, "cli.generate", None),
            (cli.cmd_evaluate, "cli.evaluate", None),
            (cli.cmd_analyze_gating, "cli.analyze-gating", None),
            (cli.cmd_gradcheck, "cli.gradcheck", None),
            (diagnostics.full_model_gradcheck, "diagnostics.gradcheck", None),
        ]
        for fn, name, note in functions:
            self._rebind(fn, self._span(fn, name, note))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, ops and tapes inside."""
        out: dict[str, dict] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "ops": 0, "tapes": 0})
            agg["calls"] += 1
            agg["total_s"] += s[END] - s[START]
            agg["self_s"] += self_s
            # spans of one name never nest, so nothing here is counted twice
            agg["ops"] += s[OPS1] - s[OPS0]
            agg["tapes"] += s[TAPES1] - s[TAPES0]
        return out

    def dump(self) -> dict:
        """Columnar spans plus counters, for writing out at the end of a run."""
        t0 = self.spans[0][START] if self.spans else 0.0
        self_s = self.self_times()
        return {
            "spans": {
                "name": [s[NAME] for s in self.spans],
                "start_us": [round((s[START] - t0) * 1e6, 1) for s in self.spans],
                "end_us": [round((s[END] - t0) * 1e6, 1) for s in self.spans],
                "self_us": [round(x * 1e6, 1) for x in self_s],
                "parent": [s[PARENT] for s in self.spans],
                "iteration": [s[ITER] for s in self.spans],
                "ops": [s[OPS1] - s[OPS0] for s in self.spans],
                "tapes": [s[TAPES1] - s[TAPES0] for s in self.spans],
            },
            "by_name": self.summary(),
            "op_kinds": dict(sorted(self.op_kinds.items())),
            "ops": self.ops,
            "tapes": self.tapes,
            "facts": dict(self.facts),
        }


# Notes: facts read from a traced call's arguments and result.

def _note_forward(facts, args, out):
    for seq in args[1:3]:
        facts["forward.valid_rows"] += seq.valid_count
        facts["forward.rows_fed"] += seq.length


def _note_pad_batch(facts, args, out):
    _, masks = out
    facts["pad_batch.valid_rows"] += float(masks.sum())
    facts["pad_batch.rows_fed"] += masks.size


def _note_evaluate(facts, args, out):
    facts["evaluate.samples"] += len(args[1])


def _note_generate(facts, args, out):
    facts["generate.samples"] += len(out.samples)


def _note_oracle(facts, args, out):
    facts["oracle.samples"] += out.n_eval


def _note_write_corpus(facts, args, out):
    facts["corpus_io.bytes"] += sum(os.path.getsize(os.path.join(args[1], f))
                                    for f in (corpus_io.MANIFEST_NAME, corpus_io.BLOB_NAME))


def _note_save_model(facts, args, out):
    facts["checkpoint.save_bytes"] += os.path.getsize(args[1])


def _note_collect_traces(facts, args, out):
    facts["collect_traces.samples"] += len(args[1])


def _note_svg(facts, args, out):
    facts["svg.bytes"] += os.path.getsize(args[1])
