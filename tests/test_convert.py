import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    FROM_PURE_STAGES,
    TO_PURE_STAGES,
    ConversionReport,
    EnrichedEdges,
    expand_bridges,
    expand_phrases,
    reinsert_dropped_pronouns,
)
from hybridparse import engine, vocab
from hybridparse.corpus_io import TreebankDocument, dumps_treebank
from hybridparse.engine import parse_multi_step
from hybridparse.graph import GraphError, ref_key
from hybridparse.metrics import elas
from hybridparse.transitions import Configuration, working
from hybridparse.vocab import DEFAULT_TAGS, EnrichedLabel, parse_label

from conftest import (
    assert_working_state_equals_a_rebuild,
    concatenate,
    corpora,
    load_graph,
    pinned_model,
)


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
    config, report = working(pure), ConversionReport()
    found = EnrichedEdges(config, DEFAULT_TAGS)
    expand_bridges(config, report, DEFAULT_TAGS, found)
    assert config.graph == stage1_expected
    expand_phrases(config, report, DEFAULT_TAGS, found)
    reinsert_dropped_pronouns(config, report, DEFAULT_TAGS, found)
    assert config.graph == hybrid_expected
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
    config, report = working(pure), ConversionReport()
    expand_phrases(config, report, DEFAULT_TAGS, EnrichedEdges(config, DEFAULT_TAGS))
    assert config.graph == pure
    assert report.reconstruction_errors == [
        ("0 -+obj-> 2", "subgraph of 0 yields a non-contiguous set [0, 3]")
    ]
    # The edge went out to measure the span and came back, masks and all.
    assert_working_state_equals_a_rebuild(config)
    # An endpoint past the last terminal has no span to expand onto.
    dangling = graph_from([seg(1), seg(2, "V")], edges=[(7, 1, "+obj")])
    config, report = working(dangling), ConversionReport()
    expand_phrases(config, report, DEFAULT_TAGS, EnrichedEdges(config, DEFAULT_TAGS))
    assert config.graph == dangling
    assert report.reconstruction_errors == [("7 -+obj-> 1", "unknown node 7")]


@pytest.mark.parametrize("relation", ["obj", "+obj", "link|N|circ"])
def test_an_edge_to_an_unknown_node_is_an_error_kept_verbatim(relation):
    """A dangling edge, flagged or not, is recorded with the node it lacks
    in the input numbering and comes back with its label; no stage expands
    it. A bridge that inserts a terminal before both of its endpoints moves
    both, so the known one stays on its terminal and the unknown one past
    the last."""
    terms = [seg(1), seg(2), seg(3), seg(4)]
    pure = graph_from(terms, edges=[(2, 7, relation)])
    restored, report = from_pure_dependency(pure)
    assert restored == pure
    assert report.reconstruction_errors == [(f"2 -{relation}-> 7", "unknown node 7")]
    bridged = graph_from(terms, edges=[(0, 1, "link|N|circ"), (2, 7, relation)])
    restored, report = from_pure_dependency(bridged)
    assert len(restored.terminals) == 5
    assert Edge(3, 8, relation) in restored.edges
    assert report.reconstruction_errors == [(f"2 -{relation}-> 7", "unknown node 7")]


def test_a_dangling_edge_does_not_land_between_real_terminals():
    """Two bridges insert a terminal before the known endpoint of a dangling
    edge; kept unmoved, its other endpoint would name the old terminal 3 and
    the output would validate."""
    terms = [seg(1), seg(2), seg(3), seg(4)]
    pure = graph_from(
        terms, edges=[(0, 1, "link|N|circ"), (2, 3, "link|N|circ"), (2, 5, "obj")]
    )
    restored, report = from_pure_dependency(pure)
    assert len(restored.terminals) == 6
    assert restored.terminals[4] == terms[2]
    assert Edge(4, 7, "obj") in restored.edges
    assert restored.validate() != []
    assert report.reconstruction_errors == [("2 -obj-> 5", "unknown node 5")]


def test_from_pure_identity_without_enrichment():
    pure = graph_from([seg(1, "DEM"), seg(2)], edges=[(1, 0, "pred")])
    restored, report = from_pure_dependency(pure)
    assert restored == pure


def reinserted(graph: HybridGraph) -> HybridGraph:
    config = working(graph)
    reinsert_dropped_pronouns(config, ConversionReport(), DEFAULT_TAGS, EnrichedEdges(config, DEFAULT_TAGS))
    return config.graph


def test_pronoun_reinsertion_skips_copula_group():
    graph = graph_from(
        [seg(1, "V", SP="kaAn", Person="3", Gender="M", Number="S")]
    )
    assert reinserted(graph) == graph


def test_pronoun_reinsertion_adds_subject():
    graph = graph_from([seg(1, "V", Person="3", Gender="F", Number="S")])
    restored = reinserted(graph)
    assert len(restored.terminals) == 2
    ec = restored.terminals[1]
    assert isinstance(ec, EmptyCategory) and ec.form == "hiya"


def test_a_verb_whose_subject_is_a_phrase_gets_no_pronoun():
    """The subject edge still reads "+subj" when pronouns are restored, and
    counts as the verb's subject."""
    graph = HybridGraph(
        (seg(1, "V"), seg(2), seg(3, "ADJ")),
        frozenset({Phrase(1, 2, "S")}),
        frozenset({Edge(Phrase(1, 2, "S"), 0, "subj"), Edge(2, 1, "adj")}),
    )
    pure, report = to_pure_dependency(graph)
    assert not report.lossy
    assert {e.relation for e in pure.edges} == {"+subj", "adj"}
    assert from_pure_dependency(pure)[0] == graph
    assert is_convertible(graph)


def test_a_verb_whose_subject_is_a_phrase_heads_a_vs_phrase():
    """The verb's phrase is expanded while its subject edge still reads
    "+subj", which counts as the verb's subject, so the phrase is tagged VS
    again."""
    clause = Phrase(1, 3, "VS")
    subject = Phrase(2, 3, "S")
    graph = HybridGraph(
        (seg(1, "SUB"), seg(2, "V"), seg(3), seg(4, "ADJ")),
        frozenset({clause, subject}),
        frozenset({Edge(clause, 0, "link"), Edge(subject, 1, "subj"), Edge(3, 2, "adj")}),
    )
    pure, report = to_pure_dependency(graph)
    assert not report.lossy
    assert {e.relation for e in pure.edges} == {"+link", "+subj", "adj"}
    assert from_pure_dependency(pure)[0] == graph
    assert is_convertible(graph)


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
    "+phrases,+ellipsis": "dd460429f716477f0c9031dbcc0d7146aa3b18eb9249d1dfa71c8b04bddf830b",
    "+phrases,+ellipsis,+disconnected": "f42371c5974fa6ed19b67182ef9a47efc7508789f6ec340ee202b89b48a739ae",
    "+phrases,+ellipsis,+non-projective": "1e7586f1706af31419b89d9972b8b4157ac1dc161ca0eea7499b1fa14a1257ec",
}

RELABELS = (
    "+subj", "obj+", "+adj+", "+link", "conj+", "+pred", "link|N|circ",
    "+link|N|circ", "adj|PRON|subj", "subj|V|obj", "obj|N|obj+",
)


def _relabeled(graph: HybridGraph, rng: random.Random, labels=RELABELS) -> HybridGraph:
    """``graph`` with about half of its edges given a random label of
    ``labels``. Edges are visited sorted, so the draw does not depend on the
    iteration order of a frozenset."""
    edges = []
    for edge in sorted(graph.edges, key=lambda e: (ref_key(e.dependent), ref_key(e.head), e.relation)):
        if rng.random() < 0.5:
            edge = Edge(edge.dependent, edge.head, rng.choice(labels))
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
    """Each direction edits one working graph and builds its result once,
    however many terminals its stages delete or insert and however many
    phrases it folds or expands."""
    hybrid = concatenate(generate(5, 60, "+phrases,+ellipsis").graphs)
    pure, report = to_pure_dependency(hybrid)
    assert report.dropped_pronouns > 10 and report.converted_empty_categories > 10
    assert report.converted_phrases > 10
    counts: Counter = Counter()
    build = HybridGraph.__post_init__

    def counted_build(self):
        counts["builds"] += 1
        build(self)

    monkeypatch.setattr(HybridGraph, "__post_init__", counted_build)
    assert to_pure_dependency(hybrid) == (pure, report)
    assert counts["builds"] == 1
    counts.clear()
    restored, back = from_pure_dependency(pure)
    assert restored == hybrid and not back.reconstruction_errors
    assert counts["builds"] <= 1


def converted_stage_by_stage(graph: HybridGraph, stages, converted: tuple) -> HybridGraph:
    """Run ``stages`` on a working copy of ``graph``, checking the working
    state against a rebuild after each; the result and the report are
    ``converted``, what the public entry point gave. The restoring stages
    share one scan of the graph, as they do there."""
    config, report = working(graph), ConversionReport()
    found = (EnrichedEdges(config, DEFAULT_TAGS),) if stages is FROM_PURE_STAGES else ()
    for stage in stages:
        stage(config, report, DEFAULT_TAGS, *found)
        assert_working_state_equals_a_rebuild(config)
    assert (config.graph, report) == converted
    return config.graph


@settings(max_examples=20, deadline=None)
@given(corpora, st.integers(0, 10_000))
def test_every_conversion_stage_keeps_the_working_state_exact(graphs, seed):
    """Folding, expanding, deleting and inserting keep the working graph's
    indices and masks equal to a rebuild after every stage of both
    directions: on single graphs, on their concatenation, and on pure graphs
    with random enriched labels, where expansions fail and put their edge
    back."""
    rng = random.Random(seed)
    for graph in graphs + [concatenate(graphs)]:
        pure = converted_stage_by_stage(graph, TO_PURE_STAGES, to_pure_dependency(graph))
        converted_stage_by_stage(pure, FROM_PURE_STAGES, from_pure_dependency(pure))
        relabeled = _relabeled(pure, rng)
        try:
            converted = from_pure_dependency(relabeled)
        except (GraphError, ValueError):
            continue
        converted_stage_by_stage(relabeled, FROM_PURE_STAGES, converted)


VERB = dict(Person="3", Gender="M", Number="S")


@pytest.mark.parametrize(
    "terminals, edges, restored, restored_edges",
    [
        # A bridge's second relation can be the subject of a plain verb:
        # bridges are restored first, so the verb has its subject and no
        # pronoun is reinserted.
        (
            [seg(1), seg(2, "V", **VERB)],
            [(0, 1, "adj|N|subj")],
            [EmptyCategory("N", "*"), seg(1), seg(2, "V", **VERB)],
            [(1, 0, "adj"), (0, 2, "subj")],
        ),
        # The pronoun goes directly after its verb, so it lands before the
        # empty category that a bridge restored before the next terminal.
        (
            [seg(1, "V", **VERB), seg(2)],
            [(1, 0, "obj|N|obj")],
            [seg(1, "V", **VERB), EmptyCategory("PRON", "huwa"), EmptyCategory("N", "*"), seg(2)],
            [(3, 2, "obj"), (2, 0, "obj"), (1, 0, "subj")],
        ),
    ],
    ids=["bridge-gives-the-subject", "pronoun-before-bridged-category"],
)
def test_bridges_are_restored_before_pronouns(terminals, edges, restored, restored_edges):
    hybrid, report = from_pure_dependency(graph_from(terminals, edges))
    assert hybrid == graph_from(restored, restored_edges)
    assert not report.reconstruction_errors


def _subjectless_verbs(graph: HybridGraph) -> list:
    """The plain verbs that no edge labelled subj or subjx points to."""
    subjects = {e.head for e in graph.edges if e.relation in ("subj", "subjx")}
    return [
        i for i, term in enumerate(graph.terminals)
        if isinstance(term, MorphSegment) and term.pos == "V"
        and not term.feature("SP") and i not in subjects
    ]


def test_reconstruction_parses_each_label_once_and_edits_only_to_insert(monkeypatch):
    """Over a multi-step parse pass with the pinned model, each distinct
    label is parsed at most once, and reconstructing a sentence with no
    bridge label and no subject-less plain verb edits no terminals."""
    parsed: Counter = Counter()
    parse = vocab._parse

    def counted_parse(label, tags):
        parsed[label] += 1
        return parse(label, tags)

    monkeypatch.setattr(vocab, "_LABELS", {})
    monkeypatch.setattr(vocab, "_parse", counted_parse)
    edits: list = []
    edit = Configuration.edit

    def counted_edit(config, terminal_edit):
        edits.append(terminal_edit)
        edit(config, terminal_edit)

    monkeypatch.setattr(Configuration, "edit", counted_edit)
    reconstruct = engine.from_pure_dependency
    sentences = Counter()

    def checked_reconstruction(config, tags):
        pure = config.graph
        quiet = not any("|" in e.relation for e in pure.edges) and not _subjectless_verbs(pure)
        before = len(edits)
        out = reconstruct(config, tags)
        if quiet:
            assert len(edits) == before, pure
        sentences["quiet" if quiet else "editing"] += 1
        return out

    monkeypatch.setattr(engine, "from_pure_dependency", checked_reconstruction)
    model = pinned_model("pure-morph6")
    held_out = generate(12, 40, "+phrases,+ellipsis,+disconnected").graphs
    for gold in held_out + [concatenate(held_out[:20])]:
        parse_multi_step(model, gold.segments)
    assert sentences["quiet"] > 5 and sentences["editing"] > 5 and edits
    assert len(parsed) > 3 and max(parsed.values()) == 1


# Labels that do not parse: a bridge of two parts, an unknown POS, an
# unsupported bridge component and an unknown relation.
MALFORMED = ("a|b", "link|NOPE|circ", "obj+|N|circ", "frobnicate")


@settings(max_examples=25, deadline=None)
@given(corpora, st.integers(0, 10_000))
def test_a_handed_over_configuration_converts_as_its_graph_does(graphs, seed):
    """``from_pure_dependency`` on a working configuration, built edge by
    edge in a random order as a parse builds it, gives the graph and the
    report it gives on that configuration's graph: on pure forms, with
    edges relabelled as bridges, with expansion flags and with malformed
    labels, and with edges to nodes that do not exist."""
    rng = random.Random(seed)
    for graph in graphs + [concatenate(graphs)]:
        pure, _ = to_pure_dependency(graph)
        n = len(pure)
        relabeled = _relabeled(pure, rng, RELABELS + MALFORMED)
        dangling = [
            Edge(rng.randrange(n), n + rng.randrange(3), rng.choice(RELABELS + ("obj",))),
            Edge(n + 1, rng.randrange(n), rng.choice(RELABELS)),
            Edge(Phrase(0, 0, "S"), rng.randrange(n), "+obj"),
        ]
        noisy = HybridGraph(pure.terminals, frozenset(), relabeled.edges | set(dangling))
        for candidate in (pure, relabeled, noisy):
            edges = sorted(candidate.edges, key=lambda e: (ref_key(e.dependent), ref_key(e.head), e.relation))
            rng.shuffle(edges)
            config = Configuration(candidate.terminals, edges=edges, front=n)
            expected = from_pure_dependency(config.graph)
            assert from_pure_dependency(config) == expected
