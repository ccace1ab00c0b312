from fractions import Fraction

import pytest

from hybridparse import (
    EmptyCategory,
    HybridGraph,
    Location,
    MorphSegment,
    Phrase,
    elas,
    generate,
    graph_from,
    las,
    parseval,
)
from hybridparse.metrics import EvalReport, MetricError, phrase_matches

from conftest import load_graph


def seg(i, pos="N", **feats):
    feats.setdefault("SegType", "stem")
    return MorphSegment(Location(5, 1, i), f"w{i}", pos, feats)


def _english_graph(relabel=None):
    edges = [(0, 1, "subj"), (2, 3, "det"), (3, 1, "obj"), (4, 1, "obj")]
    if relabel:
        edges = [(d, h, relabel.get((d, h), r)) for d, h, r in edges]
    return graph_from([seg(i + 1) for i in range(5)], edges=edges)


def test_las_identity():
    g = _english_graph()
    assert las(g, g).recall == 1


def test_las_direct_ratio():
    gold = _english_graph()
    pred = _english_graph(relabel={(2, 3): "mod"})
    assert las(gold, pred).recall == Fraction(3, 4)


def test_las_three_of_four():
    gold = graph_from(
        [seg(i) for i in range(1, 6)],
        edges=[(0, 1, "subj"), (2, 1, "obj"), (3, 1, "obj"), (4, 3, "adj")],
    )
    pred = graph_from(
        [seg(i) for i in range(1, 6)],
        edges=[(0, 1, "subj"), (2, 1, "obj"), (3, 1, "obj"), (4, 2, "adj")],
    )
    assert las(gold, pred).recall == Fraction(3, 4)


def test_las_rejects_hybrid_graphs():
    hybrid = load_graph("fig_9_11.conllx")
    with pytest.raises(MetricError):
        las(hybrid, hybrid)


def test_las_requires_same_sentence():
    with pytest.raises(MetricError):
        las(_english_graph(), graph_from([seg(1)]))


def test_parseval_identity():
    phrases = [Phrase(0, 2, "VS"), Phrase(3, 7, "NS")]
    assert parseval(phrases, phrases) == (1, 1)


def test_parseval_empty_prediction():
    assert parseval([Phrase(0, 1, "VS")], []) == (1, 0)
    assert parseval([], []) == (1, 1)


def test_parseval_label_mismatch():
    gold = [Phrase(0, 2, "VS"), Phrase(3, 7, "NS")]
    pred = [Phrase(0, 2, "VS"), Phrase(3, 7, "S")]
    assert parseval(gold, pred) == (Fraction(1, 2), Fraction(1, 2))


def test_elas_identity_on_fixtures():
    for name in (
        "fig_9_11.conllx",
        "table_8_2.conllx",
        "fig_6_22_hybrid.conllx",
        "fig_9_5_hybrid.conllx",
    ):
        g = load_graph(name)
        report = elas(g, g)
        assert report.precision == 1 and report.recall == 1 and report.f1 == 1


def test_elas_recall_is_las_on_pure_graphs():
    gold = _english_graph()
    pred = _english_graph(relabel={(2, 3): "mod"})
    report = elas(gold, pred)
    assert report.recall == las(gold, pred).recall


def test_elas_deleted_edge():
    gold = load_graph("fig_9_11.conllx")
    predx = next(e for e in gold.edges if e.relation == "predx")
    pred = HybridGraph(gold.terminals, gold.phrases, gold.edges - {predx})
    report = elas(gold, pred)
    total = len(gold.edges)
    assert report.recall == Fraction(total - 1, total)
    assert report.precision == 1


def test_elas_symmetry():
    gold = load_graph("fig_9_11.conllx")
    predx = next(e for e in gold.edges if e.relation == "predx")
    pred = HybridGraph(gold.terminals, gold.phrases, gold.edges - {predx})
    fwd = elas(gold, pred)
    rev = elas(pred, gold)
    assert fwd.precision == rev.recall and fwd.recall == rev.precision


def test_elas_empty_categories_match_by_pos_and_form():
    gold = HybridGraph(
        (seg(1, "V"), EmptyCategory("PRON", "huwa")),
        frozenset(),
        frozenset({__import__("hybridparse").Edge(1, 0, "subj")}),
    )
    good = gold
    assert elas(gold, good).f1 == 1
    bad = HybridGraph(
        (seg(1, "V"), EmptyCategory("PRON", "hiya")),
        frozenset(),
        frozenset({__import__("hybridparse").Edge(1, 0, "subj")}),
    )
    assert elas(gold, bad).true_positives == 0


def test_elas_no_double_matching():
    base = (seg(1, "V"), seg(2), seg(3))
    gold = graph_from(base, edges=[(1, 0, "obj")])
    # two predicted edges that would both match the single gold edge are
    # impossible under single-governor, so check via swapped counts: the
    # same edge cannot be counted twice on the gold side either.
    pred = graph_from(base, edges=[(1, 0, "obj"), (2, 0, "obj")])
    report = elas(gold, pred)
    assert report.true_positives == 1
    assert report.precision == Fraction(1, 2)


def test_f1_bounds():
    report = EvalReport(3, 5, 4)
    assert min(report.precision, report.recall) <= report.f1 <= max(
        report.precision, report.recall
    )


def test_perfect_is_f1_one_from_the_counts():
    for gold in range(6):
        for pred in range(6):
            for tp in range(min(gold, pred) + 1):
                report = EvalReport(tp, gold, pred)
                assert report.perfect == (report.f1 == 1), (tp, gold, pred)


def test_zero_denominator_conventions():
    empty = EvalReport(0, 0, 0)
    assert empty.precision == 1 and empty.recall == 1
    none_right = EvalReport(0, 3, 0)
    assert none_right.precision == 1 and none_right.recall == 0
    assert none_right.f1 == 0


def test_elas_recall_equals_las_at_scale():
    doc = generate(41, 60, "pure")
    model_doc = generate(42, 60, "pure")
    for gold, other in zip(doc.graphs, model_doc.graphs):
        report = elas(gold, gold)
        assert report.recall == las(gold, gold).recall == 1


def test_parseval_graphs_projection():
    gold = load_graph("fig_9_11.conllx")
    report = phrase_matches(gold, gold)
    assert report.precision == 1 and report.recall == 1


def test_aggregate_differs_from_mean_of_f1():
    # Fold 1: 1 of 2 edges right; fold 2: 9 of 10. Aggregate F1 differs
    # from the mean of the two per-fold F1 scores.
    fold1 = EvalReport(1, 2, 2)
    fold2 = EvalReport(9, 10, 10)
    combined = EvalReport.combine([fold1, fold2])
    mean_f1 = (float(fold1.f1) + float(fold2.f1)) / 2
    assert float(combined.f1) != pytest.approx(mean_f1)
    assert combined.true_positives == 10
    assert combined.gold_count == 12
