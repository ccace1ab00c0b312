"""Evaluation metrics: LAS, Parseval, and the extended attachment score.

All scores are exact rationals. Edge equivalence for the extended score:
segment vertices match by their position among segments, phrase vertices
by labelled span, empty categories by POS tag and surface form. Matching
never double-counts: within one equivalence class the number of matches
is the smaller of the gold and predicted counts.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import TYPE_CHECKING, Iterable

from .graph import EmptyCategory, HybridGraph, MorphSegment, Phrase

if TYPE_CHECKING:
    from fractions import Fraction


class MetricError(Exception):
    pass


def _ratio(part: int, whole: int) -> Fraction:
    """part / whole, exact; 1 when both are 0, and 0 for a part of no whole.
    ``fractions`` is imported here, so importing the package does not load
    it."""
    from fractions import Fraction

    if whole == 0:
        return Fraction(1 if part == 0 else 0)
    return Fraction(part, whole)


class EvalReport(namedtuple("EvalReport", "true_positives gold_count predicted_count")):
    """Match counts, and the exact ratios built from them."""

    __slots__ = ()

    @property
    def precision(self) -> Fraction:
        return _ratio(self.true_positives, self.predicted_count)

    @property
    def recall(self) -> Fraction:
        return _ratio(self.true_positives, self.gold_count)

    @property
    def f1(self) -> Fraction:
        p, r = self.precision, self.recall
        if p + r == 0:
            return p  # == 0
        return 2 * p * r / (p + r)

    @property
    def perfect(self) -> bool:
        """``f1 == 1``, read from the counts: every gold and every predicted
        item matched, which holds with no items too."""
        return self.true_positives == self.gold_count == self.predicted_count

    def key_values(self) -> str:
        return (
            f"precision={float(self.precision):.6f}\n"
            f"recall={float(self.recall):.6f}\n"
            f"f1={float(self.f1):.6f}\n"
            f"tp={self.true_positives}\n"
            f"gold={self.gold_count}\n"
            f"pred={self.predicted_count}"
        )

    @staticmethod
    def combine(reports: Iterable["EvalReport"]) -> "EvalReport":
        tp = gold = pred = 0
        for r in reports:
            tp += r.true_positives
            gold += r.gold_count
            pred += r.predicted_count
        return EvalReport(tp, gold, pred)


def _segment_ordinals(graph: HybridGraph) -> dict:
    ordinals = {}
    count = 0
    for i, term in enumerate(graph.terminals):
        if isinstance(term, MorphSegment):
            ordinals[i] = count
            count += 1
    return ordinals


def _check_same_sentence(gold: HybridGraph, predicted: HybridGraph) -> None:
    gold_forms = [(s.form, s.pos) for s in gold.segments]
    pred_forms = [(s.form, s.pos) for s in predicted.segments]
    if gold_forms != pred_forms:
        raise MetricError("graphs are not over the same segment sequence")


def _vertex_signature(graph: HybridGraph, ordinals: dict, ref):
    if isinstance(ref, Phrase):
        inside = [ordinals[i] for i in range(ref.start, ref.end + 1) if i in ordinals]
        if inside:
            return ("phrase", min(inside), max(inside), ref.tag)
        content = tuple(
            (graph.terminals[i].pos, graph.terminals[i].form)
            for i in range(ref.start, ref.end + 1)
        )
        return ("phrase-empty", content, ref.tag)
    term = graph.terminals[ref]
    if isinstance(term, EmptyCategory):
        return ("ec", term.pos, term.form)
    return ("segment", ordinals[ref])


def edge_signatures(graph: HybridGraph) -> list:
    """(edge, signature) pairs under the vertex equivalence relation."""
    ordinals = _segment_ordinals(graph)
    out = []
    for edge in graph.edges:
        sig = (
            _vertex_signature(graph, ordinals, edge.dependent),
            _vertex_signature(graph, ordinals, edge.head),
            edge.relation,
        )
        out.append((edge, sig))
    return out


def matched(gold: Iterable, predicted: Iterable) -> EvalReport:
    """Counts of two multisets of hashable items and of their intersection:
    an item occurring g times in gold and p times in predicted matches
    min(g, p) times."""
    gold_counts, pred_counts = Counter(gold), Counter(predicted)
    tp = sum((gold_counts & pred_counts).values())
    return EvalReport(tp, sum(gold_counts.values()), sum(pred_counts.values()))


def elas(gold: HybridGraph, predicted: HybridGraph) -> EvalReport:
    """Extended labelled attachment score over hybrid graph edges."""
    _check_same_sentence(gold, predicted)
    return matched(
        (sig for _, sig in edge_signatures(gold)),
        (sig for _, sig in edge_signatures(predicted)),
    )


def las(gold: HybridGraph, predicted: HybridGraph) -> EvalReport:
    """Labelled attachment counts of two pure dependency graphs. Every edge
    joins two segments there, so the extended counts are the attachment
    counts: recall is LAS over the headed gold segments."""
    for graph in (gold, predicted):
        if graph.phrases or any(
            isinstance(t, EmptyCategory) for t in graph.terminals
        ):
            raise MetricError("labelled attachment is defined on pure dependency graphs")
    return elas(gold, predicted)


def parseval(gold: Iterable, predicted: Iterable) -> tuple:
    """(precision, recall) over labelled phrase spans."""
    report = matched(gold, predicted)
    return (report.precision, report.recall)


def phrase_matches(gold: HybridGraph, predicted: HybridGraph) -> EvalReport:
    """Labelled phrase matches of two graphs, spans projected onto segment
    ordinals so differing empty categories do not misalign spans."""
    _check_same_sentence(gold, predicted)
    return matched(_phrase_signatures(gold), _phrase_signatures(predicted))


def _phrase_signatures(graph: HybridGraph) -> list:
    ordinals = _segment_ordinals(graph)
    return [_vertex_signature(graph, ordinals, p) for p in graph.phrases]
