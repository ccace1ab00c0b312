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
from hybridparse.metrics import elas

from conftest import load_graph


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
