import hashlib
import random
from collections import Counter

import pytest

from hybridparse import (
    Edge,
    EmptyCategory,
    HybridGraph,
    Location,
    MorphSegment,
    Phrase,
    from_pure_dependency,
    generate,
    graph_from,
    is_convertible,
    to_pure_dependency,
)
from hybridparse.convert import (
    ConversionReport,
    EnrichedLabel,
    expand_bridges,
    expand_phrases,
    parse_label,
    reinsert_dropped_pronouns,
)
from hybridparse.corpus_io import TreebankDocument, dumps_treebank
from hybridparse.graph import GraphError, ref_key
from hybridparse.metrics import elas

from conftest import concatenate, load_graph


def seg(i, pos="N", **feats):
    feats.setdefault("SegType", "stem")
    return MorphSegment(Location(3, 1, i), f"w{i}", pos, feats)


def test_parse_label_forms():
    assert parse_label("subj") is None
    dep = parse_label("+link")
    assert dep.dependent_expansion and not dep.head_expansion
    head = parse_label("conj+")
    assert head.head_expansion and head.base == "conj"
    both = parse_label("+conj+")
    assert both.dependent_expansion and both.head_expansion
    bridge = parse_label("+link|N|circ")
    assert bridge.bridge == ("+link", "N", "circ")
    assert str(bridge) == "+link|N|circ"
    with pytest.raises(ValueError):
        parse_label("frobnicate")
    with pytest.raises(ValueError):
        parse_label("a|b")
    with pytest.raises(ValueError):
        parse_label("link|NOPE|circ")


def test_enriched_label_serialization():
    assert str(EnrichedLabel("link", dependent_expansion=True)) == "+link"
    assert str(EnrichedLabel("conj", True, True)) == "+conj+"


def test_fig_9_5_dropped_pronoun_removed():
    hybrid = load_graph("fig_9_5_hybrid.conllx")
    expected = load_graph("fig_9_5_pure.conllx")
    pure, report = to_pure_dependency(hybrid)
    assert pure == expected
    assert report.dropped_pronouns == 1
    assert len(pure.edges) == len(hybrid.edges) - 1
    assert not any(isinstance(t, EmptyCategory) for t in pure.terminals)


def test_fig_9_6_chain_collapses_to_bridge():
    hybrid = load_graph("fig_9_6_hybrid.conllx")
    expected = load_graph("fig_9_6_pure.conllx")
    pure, report = to_pure_dependency(hybrid)
    assert pure == expected
    assert report.converted_empty_categories == 1
    labels = {e.relation for e in pure.edges}
    assert "link|N|predx" in labels


def test_fig_9_4_phrase_reanchors_to_root():
    hybrid = load_graph("fig_9_4_hybrid.conllx")
    expected = load_graph("fig_9_4_pure.conllx")
    pure, report = to_pure_dependency(hybrid)
    assert pure == expected
    assert report.converted_phrases == 1
    enriched = next(e for e in pure.edges if e.relation == "+predx")
    assert enriched.dependent == 2  # the pronoun suffix rooting the phrase


def test_fig_9_7_double_transformation():
    hybrid = load_graph("fig_6_22_hybrid.conllx")
    expected = load_graph("fig_9_7_pure.conllx")
    pure, report = to_pure_dependency(hybrid)
    assert pure == expected
    assert not report.lossy
    labels = {e.relation for e in pure.edges}
    assert "+link|N|circ" in labels


def test_fig_9_9_two_stage_restoration():
    pure = load_graph("fig_9_7_pure.conllx")
    stage1_expected = load_graph("fig_9_9_stage1.conllx")
    hybrid_expected = load_graph("fig_6_22_hybrid.conllx")
    stage1 = expand_bridges(pure)
    assert stage1 == stage1_expected
    stage2 = expand_phrases(stage1)
    restored = reinsert_dropped_pronouns(stage2)
    assert restored == hybrid_expected
    # and the public entry point gives the same result
    full, report = from_pure_dependency(pure)
    assert full == hybrid_expected
    assert not report.reconstruction_errors


def test_failed_expansion_keeps_its_label_verbatim():
    # The flagged dependent's subgraph yields {0, 3}, which has a gap.
    pure = graph_from(
        [seg(1), seg(2), seg(3, "V"), seg(4)],
        edges=[(0, 2, "+obj"), (3, 0, "adj"), (1, 2, "subj")],
    )
    report = ConversionReport()
    assert expand_phrases(pure, report=report) == pure
    assert report.reconstruction_errors == [
        ("0 -+obj-> 2", "subgraph of 0 yields a non-contiguous set [0, 3]")
    ]


def test_from_pure_identity_without_enrichment():
    pure = graph_from([seg(1, "DEM"), seg(2)], edges=[(1, 0, "pred")])
    restored, report = from_pure_dependency(pure)
    assert restored == pure


def test_pronoun_reinsertion_skips_copula_group():
    graph = graph_from(
        [seg(1, "V", SP="kaAn", Person="3", Gender="M", Number="S")]
    )
    restored = reinsert_dropped_pronouns(graph)
    assert restored == graph


def test_pronoun_reinsertion_adds_subject():
    graph = graph_from([seg(1, "V", Person="3", Gender="F", Number="S")])
    restored = reinsert_dropped_pronouns(graph)
    assert len(restored.terminals) == 2
    ec = restored.terminals[1]
    assert isinstance(ec, EmptyCategory) and ec.form == "hiya"


def test_two_dependent_empty_category_is_lossy():
    terms = (seg(1, "V"), EmptyCategory("N", "*"), seg(2), seg(3))
    graph = HybridGraph(
        terms,
        frozenset(),
        frozenset({Edge(1, 0, "circ"), Edge(2, 1, "adj"), Edge(3, 1, "adj")}),
    )
    pure, report = to_pure_dependency(graph)
    assert report.lossy
    assert not is_convertible(graph)


def test_a_pronoun_left_alone_in_its_phrase_stays():
    """Dropping the first pronoun of a phrase leaves the second the only
    terminal of the span, so the second stays."""
    verb = seg(1, "V", Person="3", Gender="M", Number="S")
    pron = EmptyCategory("PRON", "huwa")
    graph = HybridGraph(
        (verb, pron, pron),
        frozenset({Phrase(1, 2, "S")}),
        frozenset({Edge(1, 0, "subj"), Edge(2, 0, "subj")}),
    )
    pure, report = to_pure_dependency(graph)
    assert report.dropped_pronouns == 1
    assert pure.terminals == (verb, pron)


def test_a_chain_through_two_empty_categories_is_not_collapsed():
    """A chain's endpoints must not be empty categories, so neither link of
    a -> e1 -> e2 -> b collapses."""
    terms = (seg(1, "V"), EmptyCategory("N", "*"), EmptyCategory("N", "*"), seg(2))
    graph = graph_from(terms, edges=[(3, 1, "adj"), (1, 2, "link"), (2, 0, "circ")])
    pure, report = to_pure_dependency(graph)
    assert pure == graph
    assert report.converted_empty_categories == 0
    assert [reason for _, reason in report.loss_details] == ["unconverted empty category"] * 2


def test_nested_phrase_with_crossing_edge_not_convertible():
    # non-projective subtree under a phrase: reconstruction cannot span it
    terms = tuple(seg(i) for i in range(1, 6))
    graph = HybridGraph(
        terms,
        frozenset({Phrase(0, 1, "NS")}),
        frozenset(
            {
                Edge(0, 2, "obj"),
                Edge(3, 1, "conj"),
                Edge(Phrase(0, 1, "NS"), 4, "link"),
            }
        ),
    )
    assert graph.validate() == []
    assert not is_convertible(graph)


def test_fig_9_11_roundtrip_convertible():
    hybrid = load_graph("fig_9_11.conllx")
    assert is_convertible(hybrid)


def test_edge_count_law():
    doc = generate(31, 100, "+phrases,+ellipsis")
    for hybrid in doc.graphs:
        pure, report = to_pure_dependency(hybrid)
        assert not report.lossy
        assert len(pure.edges) == (
            len(hybrid.edges)
            - report.dropped_pronouns
            - report.converted_empty_categories
        )
        assert len(pure.phrases) == 0


def test_roundtrip_identity_on_synth():
    doc = generate(32, 150, "+phrases,+ellipsis,+disconnected")
    for hybrid in doc.graphs:
        pure, report = to_pure_dependency(hybrid)
        if report.lossy:
            continue
        restored, _ = from_pure_dependency(pure)
        assert restored == hybrid
        score = elas(hybrid, restored)
        assert score.f1 == 1
        assert len(restored.edges) == len(hybrid.edges)


def test_relabeling_deterministic():
    doc = generate(33, 30, "+phrases,+ellipsis")
    for hybrid in doc.graphs:
        pure, _ = to_pure_dependency(hybrid)
        a, _ = from_pure_dependency(pure)
        b, _ = from_pure_dependency(pure)
        assert a == b


# Conversion outputs in both directions, pinned: the sha256 of the converted
# treebanks and of every report field, over each profile's graphs, two
# concatenations of them, and the same pure graphs with edges relabeled at
# random. A change to the order in which a stage finds or renumbers its
# terminals that moves one index moves these hashes.
CONVERSION_SHA256 = {
    "+phrases,+ellipsis": "35c8fd641f56992f5c530cfef44a64b1fdaed854313891d3785764bc2dba2cfd",
    "+phrases,+ellipsis,+disconnected": "d619761040554e8165e753b9559b3b8feae17b44dd195798845e2eeaab7b2867",
    "+phrases,+ellipsis,+non-projective": "4c890fff2c3abf8afa9a507524b15c304b1fcedf405cac15c545cb2d9745ff72",
}

RELABELS = (
    "+subj", "obj+", "+adj+", "+link", "conj+", "+pred", "link|N|circ",
    "+link|N|circ", "adj|PRON|subj", "subj|V|obj", "obj|N|obj+",
)


def _relabeled(graph: HybridGraph, rng: random.Random) -> HybridGraph:
    """``graph`` with about half of its edges given a random enriched
    label. Edges are visited sorted, so the draw does not depend on the
    iteration order of a frozenset."""
    edges = []
    for edge in sorted(graph.edges, key=lambda e: (ref_key(e.dependent), ref_key(e.head), e.relation)):
        if rng.random() < 0.5:
            edge = Edge(edge.dependent, edge.head, rng.choice(RELABELS))
        edges.append(edge)
    return HybridGraph(graph.terminals, graph.phrases, frozenset(edges))


def _conversion_text(graphs) -> str:
    pures, restored, lines = [], [], []
    for graph in graphs:
        pure, report = to_pure_dependency(graph)
        hybrid, back = from_pure_dependency(pure)
        pures.append(pure)
        restored.append(hybrid)
        lines += [repr(report), repr(back)]
    rng = random.Random(7)
    for pure in pures:
        try:
            hybrid, back = from_pure_dependency(_relabeled(pure, rng))
        except (GraphError, ValueError) as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
        else:
            lines.append(dumps_treebank(TreebankDocument([hybrid])) + repr(back))
    return "\n".join(
        [dumps_treebank(TreebankDocument(pures)), dumps_treebank(TreebankDocument(restored))]
        + lines
    )


@pytest.mark.parametrize("profile", sorted(CONVERSION_SHA256))
def test_conversion_outputs_are_pinned(profile):
    graphs = generate(41, 60, profile).graphs
    text = _conversion_text(graphs + [concatenate(graphs[:25]), concatenate(graphs)])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CONVERSION_SHA256[profile]


def test_conversion_builds_do_not_grow_with_terminal_edits(monkeypatch):
    """Each stage that deletes or inserts terminals builds at most one graph,
    and so does expanding phrases for its result, so beyond those only
    phrases cost a build each: folding one, or expanding one flagged edge."""
    hybrid = concatenate(generate(5, 60, "+phrases,+ellipsis").graphs)
    pure, report = to_pure_dependency(hybrid)
    flagged = sum(
        1 for e in expand_bridges(pure).edges
        if (parsed := parse_label(e.relation)) and (parsed.dependent_expansion or parsed.head_expansion)
    )
    assert report.dropped_pronouns > 10 and report.converted_empty_categories > 10
    counts: Counter = Counter()
    build = HybridGraph.__post_init__

    def counted_build(self):
        counts["builds"] += 1
        build(self)

    monkeypatch.setattr(HybridGraph, "__post_init__", counted_build)
    assert to_pure_dependency(hybrid) == (pure, report)
    assert counts["builds"] <= len(hybrid.phrases) + 2
    counts.clear()
    from_pure_dependency(pure)
    assert counts["builds"] <= flagged + 3
