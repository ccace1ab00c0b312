from itertools import permutations

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
    graph_from,
)
from hybridparse.graph import GraphError, IllFormedPhraseError, TerminalEdit, Violation
from hybridparse.vocab import DEFAULT_TAGS

from conftest import load_graph


def seg(i, pos="N", form=None, **feats):
    feats.setdefault("SegType", "stem")
    return MorphSegment(Location(1, 1, i), form or f"w{i}", pos, feats)


def test_location_rendering():
    assert str(Location(6, 76)) == "(6:76:1)"
    assert str(Location(4, 68, 1)) == "(4:68:1)"
    assert str(Location(4, 68, 1, 2)) == "(4:68:1:2)"
    with pytest.raises(ValueError):
        Location(0, 1)


def test_head_of_english_fixture(english_tags):
    graph = load_graph("english/fig_9_2.conllx", english_tags)
    # w3 (the determiner) attaches to w4
    assert graph.head_of(2) == 3
    # the verb w2 is the root
    assert graph.head_of(1) is None


def test_head_of_single_node_graph():
    graph = graph_from([seg(1)])
    assert graph.head_of(0) is None


def test_head_of_hybrid_fixture_root():
    graph = load_graph("fig_9_11.conllx")
    assert graph.head_of(0) is None  # the conditional particle heads the graph
    assert graph.head_of(2) == 1


def test_head_of_unknown_node():
    graph = graph_from([seg(1)])
    with pytest.raises(GraphError):
        graph.head_of(5)


def test_subgraph_root_fixture_phrases():
    graph = load_graph("fig_9_11.conllx")
    vs = next(p for p in graph.phrases if p.tag == "VS")
    ns = next(p for p in graph.phrases if p.tag == "NS")
    pp = next(p for p in graph.phrases if p.tag == "PP")
    assert graph.subgraph_root(vs) == 1
    assert graph.subgraph_root(pp) == 7
    assert graph.subgraph_root(ns) == 4


def test_subgraph_root_pronoun_suffix():
    graph = load_graph("fig_9_4_hybrid.conllx")
    ns = next(p for p in graph.phrases if p.tag == "NS")
    root = graph.subgraph_root(ns)
    assert root == 2
    assert graph.terminals[root].pos == "PRON"
    assert graph.terminals[root].feature("SegType") == "suffix"


def test_subgraph_root_single_terminal():
    graph = graph_from([seg(1)], phrases=[Phrase(0, 0, "S")])
    assert graph.subgraph_root(Phrase(0, 0, "S")) == 0


def test_subgraph_root_ill_formed():
    # two disconnected headless nodes inside the span
    graph = graph_from([seg(1), seg(2)], phrases=[Phrase(0, 1, "S")])
    with pytest.raises(IllFormedPhraseError):
        graph.subgraph_root(Phrase(0, 1, "S"))


def test_subgraph_span_rooted():
    # w2 roots w1, w3, w4 (fig 9.10 shape)
    graph = graph_from(
        [seg(1), seg(2, "V"), seg(3), seg(4)],
        edges=[(0, 1, "subj"), (2, 1, "obj"), (3, 2, "adj")],
    )
    assert graph.subgraph_span(1) == (0, 3)
    assert graph.subgraph_span(3) == (3, 3)


def test_subgraph_span_non_projective():
    # crossing: edges (0,2) and (1,3)
    graph = graph_from(
        [seg(1), seg(2), seg(3), seg(4)],
        edges=[(0, 2, "obj"), (3, 1, "conj")],
    )
    assert graph.subgraph_span(1) is None


def test_validate_fixtures_clean():
    for name in ("fig_9_11.conllx", "table_8_2.conllx", "fig_6_22_hybrid.conllx"):
        assert load_graph(name).validate() == []


def test_validate_two_heads():
    graph = graph_from(
        [seg(1), seg(2, "V"), seg(3, "V")],
        edges=[(0, 1, "subj"), (0, 2, "subj")],
    )
    rules = {v.rule for v in graph.validate()}
    assert "single-governor" in rules


def test_validate_cycle():
    graph = HybridGraph(
        (seg(1), seg(2)),
        frozenset(),
        frozenset({Edge(0, 1, "subj"), Edge(1, 0, "obj")}),
    )
    rules = {v.rule for v in graph.validate()}
    assert "acyclicity" in rules


def test_validate_reports_not_raises():
    graph = HybridGraph(
        (seg(1),),
        frozenset({Phrase(0, 5, "S"), Phrase(0, 0, "XX")}),
        frozenset(),
    )
    rules = {v.rule for v in graph.validate()}
    assert "phrase-bounds" in rules and "unknown-phrase-tag" in rules


def test_validate_partial_overlap():
    graph = graph_from(
        [seg(i) for i in range(1, 5)],
        phrases=[Phrase(0, 2, "S"), Phrase(1, 3, "NS")],
    )
    assert any(v.rule == "phrase-overlap" for v in graph.validate())


def test_disconnected_graph_is_legal():
    graph = graph_from([seg(1, "CONJ"), seg(2, "V")])
    assert graph.validate() == []


def test_structural_equality():
    a = graph_from([seg(1), seg(2, "V")], edges=[(0, 1, "subj")])
    b = graph_from([seg(1), seg(2, "V")], edges=[(0, 1, "subj")])
    assert a == b and a is not b
    c = graph_from([seg(1), seg(2, "V")], edges=[(0, 1, "obj")])
    assert a != c


def test_insertion_shifts_spans_and_edges():
    graph = graph_from(
        [seg(1), seg(2, "V"), seg(3)],
        edges=[(0, 1, "subj"), (2, 1, "obj")],
        phrases=[Phrase(1, 2, "VS")],
    )
    grown = graph.edited(TerminalEdit(3, inserted=[(2, EmptyCategory("N", "*"))]))
    assert len(grown.terminals) == 4
    assert Phrase(1, 3, "VS") in grown.phrases
    assert Edge(3, 1, "obj") in grown.edges
    assert grown.validate() == []


def test_removal_shrinks_spans_and_drops_edges():
    graph = graph_from(
        [seg(1), seg(2, "V"), EmptyCategory("PRON", "huwa"), seg(3)],
        edges=[(0, 1, "subj"), (2, 1, "subj"), (3, 1, "obj")],
        phrases=[Phrase(1, 2, "VS")],
    )
    # The removed terminal ends the span.
    shrunk = graph.edited(TerminalEdit(4, deleted={2}))
    assert shrunk.phrases == {Phrase(1, 1, "VS")}
    assert shrunk.edges == {Edge(0, 1, "subj"), Edge(2, 1, "obj")}
    # The removed terminal starts the span.
    assert graph.edited(TerminalEdit(4, deleted={1})).phrases == {Phrase(1, 1, "VS")}
    assert graph.edited(TerminalEdit(4, deleted={0})).phrases == {Phrase(0, 1, "VS")}
    assert graph.edited(TerminalEdit(4, deleted={3})).phrases == graph.phrases
    with pytest.raises(GraphError):
        TerminalEdit(4, deleted={4})


def test_root_agrees_with_span():
    # subgraphRoot and subgraphSpan agree on projective phrases
    graph = load_graph("fig_9_11.conllx")
    for phrase in graph.phrases:
        root = graph.subgraph_root(phrase)
        assert graph.subgraph_span(root) == (phrase.start, phrase.end)


def test_phrase_rejects_a_negative_start():
    # A yield is a bitmask over terminal indices, which cannot hold -1.
    with pytest.raises(ValueError):
        Phrase(-1, 0, "NP")


def reference_yield(graph, ref):
    """Terminal indices covered by ``ref`` and its transitive dependents,
    found by walking the dependents: the yield computed from scratch."""
    seen = set()
    out = set()
    stack = [ref]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, Phrase):
            out.update(range(node.start, node.end + 1))
        else:
            out.add(node)
        stack.extend(graph.dependents(node))
    return frozenset(out)


def reference_span(graph, ref):
    covered = reference_yield(graph, ref)
    start, end = min(covered), max(covered)
    return (start, end) if len(covered) == end - start + 1 else None


NP = Phrase(1, 2, "NP")
HAND_BUILT = {
    # 2 has two heads and a dependent; the phrase overlaps 1's yield.
    "multi-head": [(0, 2, "subj"), (2, 1, "obj"), (2, 3, "obj"), (NP, 4, "obj"), (1, 4, "obj")],
    # 0 -> 1 -> 2 -> 0 is a cycle, with 3 and the phrase hanging off it.
    "cyclic": [(0, 1, "subj"), (1, 2, "obj"), (2, 0, "obj"), (3, 2, "obj"), (NP, 3, "obj")],
    # 2 covers 0, 2 and 4: a gapped, non-projective yield.
    "gapped": [(0, 2, "subj"), (4, 2, "obj"), (NP, 3, "obj")],
}


def assert_yields_match_the_walk(graph):
    """Yields as a walk finds them, and edge indices as the constructor
    builds them."""
    rebuilt = HybridGraph(graph.terminals, graph.phrases, graph.edges)
    for ref in list(range(len(graph))) + sorted(graph.phrases):
        assert graph.yield_of(ref) == reference_yield(graph, ref), ref
        assert graph.subgraph_span(ref) == reference_span(graph, ref), ref
        assert set(graph.head_edges(ref)) == set(rebuilt.head_edges(ref)), ref
        assert graph.dependent_edges(ref) == rebuilt.dependent_edges(ref), ref


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_yields_match_a_walk_of_the_dependents(name):
    """Built at once (masks computed on first use) or one edge at a time in
    every order (masks carried forward), each graph on the way has the
    yields of a walk; earlier graphs are left as they were."""
    terminals = [seg(i) for i in range(1, 6)]
    edges = HAND_BUILT[name]
    assert_yields_match_the_walk(graph_from(terminals, edges, [NP]))
    for order in permutations(edges):
        graph = graph_from(terminals, phrases=[NP])
        graph.subgraph_span(0)
        steps = [graph]
        for dep, head, rel in order:
            graph = graph.with_edge(Edge(dep, head, rel))
            steps.append(graph)
        for step in steps:
            assert_yields_match_the_walk(step)
    assert steps[-1] == graph_from(terminals, edges, [NP])


def test_adding_what_is_present_returns_the_graph():
    graph = graph_from([seg(1), seg(2)], [(0, 1, "subj")], [Phrase(0, 1, "S")])
    assert graph.with_edge(Edge(0, 1, "subj")) is graph
    assert graph.with_phrase(Phrase(0, 1, "S")) is graph


PHRASE_RULES = ("phrase-bounds", "unknown-phrase-tag", "phrase-overlap")


def _all_pairs_phrase_violations(graph, tags=DEFAULT_TAGS) -> list:
    """The phrase checks of ``validate`` written plainly: each phrase in
    order, then every later phrase tested for a crossing."""
    out = []
    n = len(graph.terminals)
    for phrase in sorted(graph.phrases):
        if not (0 <= phrase.start <= phrase.end < n):
            out.append(Violation("phrase-bounds", str(phrase)))
        if not tags.is_phrase_tag(phrase.tag):
            out.append(Violation("unknown-phrase-tag", str(phrase)))
        for other in sorted(graph.phrases):
            if other <= phrase:
                continue
            disjoint = other.end < phrase.start or other.start > phrase.end
            nested = (
                (other.start >= phrase.start and other.end <= phrase.end)
                or (phrase.start >= other.start and phrase.end <= other.end)
            )
            if not (disjoint or nested):
                out.append(Violation("phrase-overlap", f"{phrase} crosses {other}"))
    return out


phrases = st.builds(
    lambda start, length, tag: Phrase(start, start + length, tag),
    st.integers(0, 9),
    st.integers(0, 5),
    st.sampled_from(["S", "VS", "NS", "PP", "XX"]),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.lists(phrases, max_size=12))
def test_phrase_violations_match_an_all_pairs_check(n, spans):
    """Crossing, out-of-bounds and unknown-tag phrases, in the same order."""
    graph = HybridGraph(tuple(seg(i) for i in range(1, n + 1)), frozenset(spans))
    got = [v for v in graph.validate() if v.rule in PHRASE_RULES]
    assert got == _all_pairs_phrase_violations(graph)
