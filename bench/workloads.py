"""Benchmark workloads: corpus recipes, long-sentence assembly, and the
train, parse and check steps that the timing harness in ``run.py`` drives.

Every call into ``hybridparse`` goes through a module attribute
(``learning.train``, ``engine.parse_integrated``, ...) looked up at call
time, so that the traced run can rebind those attributes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from hybridparse import convert, engine, learning, metrics, oracle, synth
from hybridparse.graph import Edge, HybridGraph, Phrase

PROFILE = synth.Profile.parse("+phrases,+ellipsis,+disconnected")
FEATURES = learning.FeatureSetSpec("lemma")


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "integrated" or "multistep"
    train_sentences: int
    eval_sentences: int
    # 0 keeps synth graphs as generated (~6 segments); otherwise consecutive
    # graphs are concatenated until a sentence has at least this many.
    min_segments: int = 0


# Why each workload exists is written down in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-integrated", "integrated", 400, 400),
        Workload("long-integrated", "integrated", 20, 100, 120),
        Workload("short-multistep", "multistep", 400, 400),
    )
}

# Sentence lengths of the traced run's scaling table, with the number of
# sentences timed at each length.
SCALING = ((5, 20), (25, 8), (100, 3), (200, 2))


def _shift(ref, offset: int):
    if isinstance(ref, Phrase):
        return Phrase(ref.start + offset, ref.end + offset, ref.tag)
    return ref + offset


def concatenate(graphs) -> HybridGraph:
    """One graph holding the given graphs side by side, with no new edges."""
    terminals: list = []
    phrases: set = set()
    edges: set = set()
    for g in graphs:
        offset = len(terminals)
        terminals.extend(g.terminals)
        phrases.update(_shift(p, offset) for p in g.phrases)
        edges.update(
            Edge(_shift(e.dependent, offset), _shift(e.head, offset), e.relation)
            for e in g.edges
        )
    return HybridGraph(tuple(terminals), frozenset(phrases), frozenset(edges))


def assemble(graphs, min_segments: int, count: int) -> list:
    """``count`` sentences of consecutive graphs, each reaching ``min_segments``
    segments. Raises ValueError when ``graphs`` run out first."""
    out: list = []
    group: list = []
    segments = 0
    for g in graphs:
        group.append(g)
        segments += len(g.segments)
        if segments >= min_segments:
            out.append(concatenate(group))
            if len(out) == count:
                return out
            group, segments = [], 0
    raise ValueError(f"{len(out)} of {count} sentences of >= {min_segments} segments")


def sentences(seed: int, count: int, min_segments: int = 0) -> list:
    """Gold graphs from ``synth.generate``; generation is prefix-stable in the
    count, so growing the source corpus does not change the result."""
    if not min_segments:
        return list(synth.generate(seed, count, PROFILE).graphs)
    source = count * min_segments // 5 + 16
    while True:
        try:
            return assemble(synth.generate(seed, source, PROFILE).graphs, min_segments, count)
        except ValueError:
            source *= 2


def corpora(w: Workload, seed: int) -> tuple:
    """(train, eval) gold graphs; the two sets come from distinct seeds."""
    return (
        sentences(2 * seed, w.train_sentences, w.min_segments),
        sentences(2 * seed + 1, w.eval_sentences, w.min_segments),
    )


def segment_count(graphs) -> int:
    return sum(len(g.segments) for g in graphs)


def train(w: Workload, train_graphs) -> tuple:
    """(model, graphs the model was trained on). Multi-step training converts
    to pure dependency first and skips lossy graphs, as crossval does."""
    graphs = list(train_graphs)
    if w.pipeline == "multistep":
        pure = []
        for g in graphs:
            converted, report = convert.to_pure_dependency(g)
            if not report.lossy:
                pure.append(converted)
        graphs = pure
    return learning.train(graphs, FEATURES), graphs


def parse_function(w: Workload):
    return engine.parse_multi_step if w.pipeline == "multistep" else engine.parse_integrated


def score(gold_graphs, outputs) -> list:
    """Per-sentence ELAS counts; a failed parse predicts no edges."""
    reports = []
    for gold, predicted in zip(gold_graphs, outputs):
        if isinstance(predicted, HybridGraph):
            reports.append(metrics.elas(gold, predicted))
        else:
            reports.append(metrics.EvalReport(0, len(gold.edges), 0))
    return reports


def sequence_line(outcome) -> str:
    """One line per oracle outcome, the unit hashed for behaviour checks."""
    status = "reachable" if outcome.reachable else "unreachable"
    return status + "\t" + " ".join(str(t) for t in outcome.sequence)


def oracle_lines(graphs) -> list:
    return [sequence_line(oracle.oracle_sequence(g)) for g in graphs]


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def elas_lines(reports) -> list:
    return [f"{r.true_positives} {r.gold_count} {r.predicted_count}" for r in reports]
