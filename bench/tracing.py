"""Span tracer and the instrumentation of hybridparse's public functions.

Spans are recorded from the benchmark's side only. Each traced function is
replaced by a wrapper in every ``hybridparse`` module that holds a reference
to it (``engine.apply``, ``oracle.legal``, ``learning.oracle_sequence``, ...),
and class methods are patched on their class. Nothing in the package is
edited, and ``uninstall`` restores every original.

A span is (name, start, end, parent). Spans are kept in flat arrays while
the traced run works and are summarised when it ends: per-name call counts,
inclusive time, and self time grouped by the top-level phase span
(``phase.train``, ``phase.parse``, ...) that contains them.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.current = -1
        self.counters: Counter = Counter()
        self.oracle_sequences: list = []
        self._patches: list = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.current)
        self.ends.append(0.0)
        self.current = index
        self.starts.append(_perf())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _perf()
        self.current = self.parents[index]

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def summary(self) -> dict:
        """Calls and inclusive seconds per span name, and self seconds and
        calls per (phase, name), where the phase is the root span's name."""
        n = len(self.names)
        names, parents = self.names, self.parents
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0.0] * n
        phase = [""] * n
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                children[parent] += durations[i]
                phase[i] = phase[parent]
            else:
                phase[i] = names[i]
            calls[names[i]] += 1
            inclusive[names[i]] += durations[i]
        self_s: Counter = Counter()
        phase_calls: Counter = Counter()
        for i in range(n):
            self_s[(phase[i], names[i])] += durations[i] - children[i]
            phase_calls[(phase[i], names[i])] += 1
        return {
            "spans": n,
            "calls": calls,
            "inclusive_s": inclusive,
            "self_s": self_s,
            "phase_calls": phase_calls,
        }

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def rebind(self, module, attr: str, name: str, on_result=None) -> None:
        """Wrap ``module.attr`` and rebind it in every importing module."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "hybridparse" or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        raw = cls.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapper = self._wrap(name, fn, on_result)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer the benchmark reports on."""
    from hybridparse import convert, corpus_io, engine, graph, learning, metrics
    from hybridparse import oracle, synth, transitions
    from workloads import sequence_line

    count = tracer.counters

    def on_oracle(args, outcome):
        count["oracle.steps"] += len(outcome.sequence)
        count["oracle.reachable"] += bool(outcome.reachable)
        tracer.oracle_sequences.append(sequence_line(outcome))

    def on_features(args, features):
        count["features"] += len(features)

    def on_fit(args, result):
        count["fit.pairs"] += len(args[1])

    def on_legal(args, result):
        count["legal.true"] += bool(result)

    def on_parse(args, result):
        report = result[1]
        count["engine.segments"] += len(args[1])
        count["engine.steps"] += len(report.trace)
        count["engine.budget_exhausted"] += bool(report.budget_exhausted)
        count["engine.drain_steps"] += len(report.trace) - report.predictive_steps

    def on_to_pure(args, result):
        count["convert.lossy"] += bool(result[1].lossy)

    def on_from_pure(args, result):
        count["convert.reconstruction_errors"] += len(result[1].reconstruction_errors)

    def on_serialize(args, text):
        count["model_bytes"] = len(text.encode("utf-8"))

    tracer.rebind(oracle, "oracle_sequence", "oracle", on_oracle)
    tracer.rebind(learning, "extract_features", "extract_features", on_features)
    tracer.rebind(learning, "predict", "predict")
    tracer.rebind(learning, "train", "train")
    tracer.rebind(transitions, "legal", "legal", on_legal)
    tracer.rebind(transitions, "apply", "apply")
    tracer.rebind(engine, "parse_integrated", "parse", on_parse)
    tracer.rebind(engine, "parse_multi_step", "parse", on_parse)
    tracer.rebind(convert, "to_pure_dependency", "to_pure", on_to_pure)
    tracer.rebind(convert, "from_pure_dependency", "from_pure", on_from_pure)
    tracer.rebind(metrics, "elas", "elas")
    tracer.rebind(corpus_io, "dumps_treebank", "dumps_treebank")
    tracer.rebind(synth, "generate", "generate")
    tracer.patch_method(learning.AveragedPerceptron, "fit", "fit", on_fit)
    tracer.patch_method(learning.AveragedPerceptron, "score", "score")
    tracer.patch_method(learning.Model, "serialize", "serialize", on_serialize)
    tracer.patch_method(learning.Model, "deserialize", "deserialize")
    tracer.patch_method(graph.HybridGraph, "__post_init__", "graph_build")
    tracer.patch_method(graph.HybridGraph, "subgraph_span", "subgraph_span")


# Span names whose self time is reported within the train and parse phases.
# Only spans that occur on every workload are listed, so each figure exists
# everywhere; conversion time is reported inclusively under convert.*.
TRAIN_SELF = (
    "train", "oracle", "extract_features", "fit", "legal", "apply",
    "graph_build", "subgraph_span", "elas", "dumps_treebank",
)
PARSE_SELF = (
    "parse", "predict", "extract_features", "score", "legal", "apply",
    "graph_build", "subgraph_span",
)


def layer_metrics(summary: dict, counters: Counter) -> dict:
    """The per-layer figures of one traced train+parse cycle, by name."""
    calls, incl = summary["calls"], summary["inclusive_s"]
    self_s, phase_calls = summary["self_s"], summary["phase_calls"]

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counters["engine.steps"]
    out = {
        "oracle.sentences": calls["oracle"],
        "oracle.steps": counters["oracle.steps"],
        "oracle.s": incl["oracle"],
        "oracle.us_per_step": ratio(incl["oracle"], counters["oracle.steps"]) * 1e6,
        "oracle.reachable_ratio": ratio(counters["oracle.reachable"], calls["oracle"]),
        "learning.extract_features.calls": calls["extract_features"],
        "learning.extract_features.s": incl["extract_features"],
        "learning.features_per_config": ratio(counters["features"], calls["extract_features"]),
        "learning.fit.s": incl["fit"],
        "learning.fit.pairs": counters["fit.pairs"],
        "learning.score.calls": calls["score"],
        "learning.score.s": incl["score"],
        "learning.predict.calls": calls["predict"],
        "learning.predict.s": incl["predict"],
        "learning.train.self_s": self_s[("phase.train", "train")],
        "transitions.legal.calls": calls["legal"],
        "transitions.legal.s": incl["legal"],
        "transitions.legal.true_ratio": ratio(counters["legal.true"], calls["legal"]),
        "transitions.apply.calls": calls["apply"],
        "transitions.apply.s": incl["apply"],
        "graph.builds": calls["graph_build"],
        "graph.build_s": incl["graph_build"],
        "graph.subgraph_span.calls": calls["subgraph_span"],
        "graph.subgraph_span.s": incl["subgraph_span"],
        "engine.steps": steps,
        "engine.steps_per_segment": ratio(steps, counters["engine.segments"]),
        "engine.legal_per_step": ratio(phase_calls[("phase.parse", "legal")], steps),
        "engine.budget_exhausted": counters["engine.budget_exhausted"],
        "engine.drain_steps": counters["engine.drain_steps"],
        "convert.to_pure.calls": calls["to_pure"],
        "convert.to_pure.s": incl["to_pure"],
        "convert.lossy_ratio": ratio(counters["convert.lossy"], calls["to_pure"]),
        "convert.from_pure.calls": calls["from_pure"],
        "convert.from_pure.s": incl["from_pure"],
        "convert.reconstruction_errors": counters["convert.reconstruction_errors"],
        "metrics.elas.calls": calls["elas"],
        "metrics.elas.s": incl["elas"],
        "corpus_io.dumps_treebank.s": incl["dumps_treebank"],
        "corpus_io.model_serialize.s": incl["serialize"],
        "corpus_io.model_deserialize.s": incl["deserialize"],
        "corpus_io.model_bytes": counters["model_bytes"],
        "synth.generate.s": incl["generate"],
    }
    for name in TRAIN_SELF:
        out[f"self_s.train.{name}"] = self_s[("phase.train", name)]
    for name in PARSE_SELF:
        out[f"self_s.parse.{name}"] = self_s[("phase.parse", name)]
    return out
