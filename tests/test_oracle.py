from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridparse import (
    HybridGraph,
    LeftArc,
    Location,
    MorphSegment,
    Phrase,
    Reduce,
    Shift,
    apply,
    graph_from,
    initial,
    legal,
    oracle_next,
    oracle_sequence,
)
from hybridparse.graph import Edge, EmptyCategory, GraphError
from hybridparse.metrics import elas
from hybridparse import oracle
from hybridparse.oracle import _alignment, _GoldIndex, _OracleState, _uncovered, step_budget
from hybridparse.synth import is_nonprojective
from hybridparse.transitions import AddPhrase, InsertEmpty, RightArc, step
from hybridparse import generate, Profile

from conftest import concatenate, corpora, load_graph, load_transitions


def seg(i, pos="N", **feats):
    feats.setdefault("SegType", "stem")
    return MorphSegment(Location(2, 3, i), f"w{i}", pos, feats)


def test_fig_9_3_sequence_reproduced(english_tags):
    gold = load_graph("english/fig_9_2.conllx", english_tags)
    expected = load_transitions("english/fig_9_3.transitions")
    outcome = oracle_sequence(gold, english_tags)
    assert outcome.reachable
    assert outcome.sequence == expected
    assert elas(gold, outcome.graph).f1 == 1


def test_fig_9_12_13_sequence_reproduced():
    gold = load_graph("fig_9_11.conllx")
    expected = load_transitions("fig_9_12_13.transitions")
    outcome = oracle_sequence(gold)
    assert outcome.reachable
    assert outcome.sequence == expected
    assert elas(gold, outcome.graph).f1 == 1


def test_oracle_next_after_four_shifts(english_tags):
    gold = load_graph("english/fig_9_2.conllx", english_tags)
    config = initial(gold.segments)
    for _ in range(4):
        config = apply(config, Shift(), english_tags)
    assert oracle_next(config, gold) == LeftArc("det")


def test_oracle_next_builds_pending_nested_phrase():
    gold = load_graph("fig_9_11.conllx")
    expected = load_transitions("fig_9_12_13.transitions")
    config = initial(gold.segments)
    seen_ns = False
    for t in expected:
        got = oracle_next(config, gold)
        if str(got) == "PHRASE(NS)":
            assert not config.queue  # queue exhausted, nested NS pending
            seen_ns = True
        config = apply(config, got)
    assert seen_ns


def test_isolated_node_is_reduced():
    gold = graph_from([seg(1, "CONJ"), seg(2, "V"), seg(3, "N", Case="NOM")],
                      edges=[(2, 1, "subj")])
    config = apply(initial(gold.segments), Shift())
    assert oracle_next(config, gold) == Reduce(1)


def test_table_8_2_graph_reachable():
    gold = load_graph("table_8_2.conllx")
    outcome = oracle_sequence(gold)
    assert outcome.reachable
    assert outcome.graph == gold


def test_non_projective_graph_unreachable():
    # crossing edges: (0,2) and (1,3)
    gold = graph_from(
        [seg(1, "V"), seg(2), seg(3), seg(4)],
        edges=[(2, 0, "obj"), (3, 1, "conj")],
    )
    assert is_nonprojective(gold)
    outcome = oracle_sequence(gold)
    assert not outcome.reachable
    assert outcome.uncovered_edges


def _scored_outcome(gold: HybridGraph, sequence) -> tuple:
    """(reachable, uncovered edges) of a walk by ELAS alone: it ends in a
    terminal configuration, its replay scores perfect ELAS and has as many
    phrases and terminals as the gold graph, and otherwise the gold edges
    no replayed edge covers are left over."""
    config = initial(gold.segments)
    for t in sequence:
        step(config, t)
    replayed = config.graph
    reachable = (
        config.is_terminal_state()
        and elas(gold, replayed).perfect
        and len(gold.phrases) == len(replayed.phrases)
        and len(gold.terminals) == len(replayed.terminals)
    )
    return reachable, frozenset() if reachable else _uncovered(gold, replayed)


def test_a_reachable_replay_is_not_scored(monkeypatch):
    """A walk that rebuilds its gold graph is reachable without an ELAS
    call; any other walk is judged as ELAS judges it, on the crossing edges
    above and on sentences read backwards, some of which are unreachable."""
    calls = Counter()

    def counted(gold, predicted):
        calls["elas"] += 1
        return elas(gold, predicted)

    monkeypatch.setattr(oracle, "elas", counted)
    for gold in generate(25, 40, Profile.parse("+phrases,+ellipsis")).graphs:
        outcome = oracle_sequence(gold)
        assert outcome.reachable and outcome.graph == gold
    assert calls["elas"] == 0
    crossing = graph_from(
        [seg(1, "V"), seg(2), seg(3), seg(4)],
        edges=[(2, 0, "obj"), (3, 1, "conj")],
    )
    backwards = [reversed_terminals(g) for g in generate(3, 40, "+disconnected").graphs]
    outcomes = Counter()
    for gold in [crossing, *backwards]:
        outcome = oracle_sequence(gold)
        outcomes[outcome.reachable] += 1
        assert (outcome.reachable, outcome.uncovered_edges) == _scored_outcome(gold, outcome.sequence)
    assert outcomes[True] and outcomes[False] > 1
    assert calls["elas"] == outcomes[False]


def test_non_projective_truly_unreachable_by_search():
    """Brute-force check on the four-node instance: no legal sequence
    within the budget builds both crossing edges."""
    from hybridparse.transitions import (
        AddPhrase,
        InsertEmpty,
        InsertPronoun,
        LeftArc,
        RightArc,
    )

    gold = graph_from(
        [seg(1, "V"), seg(2), seg(3), seg(4)],
        edges=[(2, 0, "obj"), (3, 1, "conj")],
    )
    candidates = [
        Shift(),
        Reduce(1),
        Reduce(2),
        LeftArc("obj"),
        LeftArc("conj"),
        RightArc("obj"),
        RightArc("conj"),
    ]
    budget = step_budget(4)
    start = initial(gold.segments)
    stack = [(start, 0)]
    seen = set()
    found = False
    while stack:
        config, depth = stack.pop()
        if elas(gold, config.graph).true_positives == 2:
            found = True
            break
        if depth >= budget:
            continue
        key = (config.queue, config.stack, config.graph.edges)
        if key in seen:
            continue
        seen.add(key)
        for t in candidates:
            if legal(config, t):
                stack.append((apply(config, t), depth + 1))
    assert not found


def test_oracle_deterministic():
    doc = generate(21, 10, Profile.parse("+phrases,+ellipsis"))
    for gold in doc.graphs:
        a = oracle_sequence(gold)
        b = oracle_sequence(gold)
        assert a.sequence == b.sequence and a.reachable == b.reachable


def test_every_emitted_transition_is_legal():
    doc = generate(22, 20, Profile.parse("+phrases,+ellipsis,+disconnected"))
    for gold in doc.graphs:
        outcome = oracle_sequence(gold)
        config = initial(gold.segments)
        for t in outcome.sequence:
            assert legal(config, t)
            config = apply(config, t)


def test_budget_respected_on_reachable_graphs():
    doc = generate(23, 50, Profile.parse("+phrases,+ellipsis"))
    for gold in doc.graphs:
        outcome = oracle_sequence(gold)
        assert outcome.reachable
        assert len(outcome.sequence) <= step_budget(len(gold.segments))


def test_each_gold_phrase_is_rooted_once(monkeypatch):
    """The oracle looks up the root of each gold phrase once per sentence,
    not at every step: a guard against a walk quadratic in its length."""
    gold = concatenate(generate(24, 30, Profile.parse("+phrases,+ellipsis")).graphs)
    assert len(gold.phrases) > 10
    calls = Counter()
    subgraph_root = HybridGraph.subgraph_root

    def counted(graph, phrase):
        if graph is gold:
            calls[phrase] += 1
        return subgraph_root(graph, phrase)

    monkeypatch.setattr(HybridGraph, "subgraph_root", counted)
    assert oracle_sequence(gold).reachable
    assert set(calls) <= gold.phrases
    assert max(calls.values()) == 1


def test_phrase_without_a_unique_root_is_unreachable():
    # The phrase covers two headless segments: the graph validates, but the
    # phrase has no root, so no sequence builds it.
    gold = graph_from([seg(1), seg(2)], phrases=[Phrase(0, 1, "NS")])
    assert gold.validate() == []
    outcome = oracle_sequence(gold)
    assert not outcome.reachable
    assert outcome.sequence == [Shift(), Reduce(1), Shift(), Reduce(1)]


def test_an_insertion_aligns_in_place_and_never_precedes_an_empty_category():
    """The alignment a state keeps across the walk's insertion, arc and
    phrase equals one computed from scratch. An insertion after a node that
    an empty category already follows would realign that one: the oracle
    never makes it, and the state refuses to follow it."""
    a, b = seg(1, "V"), seg(2)
    gold = HybridGraph((a, EmptyCategory("N", "*"), EmptyCategory("N", "*"), b))
    index = _GoldIndex(gold)
    config = initial([a, b])
    state = _OracleState(index, config)
    sequence = [Shift(), InsertEmpty("N"), RightArc("obj"), AddPhrase("NP"), Reduce(1), Reduce(1)]
    for t in sequence:
        assert legal(config, t)
        step(config, t)
        state.follow()
    assert state.working_to_gold == _alignment(config.terminals, index.segment_indices)
    assert state.working_to_gold == [0, 1, 3]
    step(config, InsertEmpty("N"))
    with pytest.raises(AssertionError):
        state.follow()


def reversed_terminals(graph: HybridGraph) -> HybridGraph:
    """The graph of a sentence read backwards; for graphs without phrases."""
    last = len(graph) - 1
    edges = frozenset(Edge(last - e.dependent, last - e.head, e.relation) for e in graph.edges)
    return HybridGraph(tuple(reversed(graph.terminals)), frozenset(), edges)


class _Reference:
    """The questions the oracle state answers, answered from sets built anew
    from the gold graph and the configuration's graph, in gold terms."""

    def __init__(self, gold: HybridGraph, roots: dict, config):
        graph = config.graph
        segments = [i for i, t in enumerate(gold.terminals) if isinstance(t, MorphSegment)]
        align = _alignment(graph.terminals, segments)

        def to_gold(ref):
            if isinstance(ref, Phrase):
                return Phrase(align[ref.start], align[ref.end], ref.tag)
            return align[ref]

        self.gold, self.roots, self.to_gold = gold, roots, to_gold
        self.edges = {(to_gold(e.dependent), to_gold(e.head), e.relation) for e in graph.edges}
        self.phrases = {to_gold(p) for p in graph.phrases}
        self.anchors = {
            to_gold(i) for i, t in enumerate(graph.terminals) if isinstance(t, EmptyCategory)
        }

    def built(self, edge) -> bool:
        return (edge.dependent, edge.head, edge.relation) in self.edges

    def missing_ec_after(self, ref):
        if not isinstance(ref, int):
            return None
        after, gold_terminals = self.to_gold(ref) + 1, self.gold.terminals
        expected = after < len(gold_terminals) and isinstance(gold_terminals[after], EmptyCategory)
        return after if expected and after not in self.anchors else None

    def finished(self, ref) -> bool:
        node = self.to_gold(ref)
        return (
            all(self.built(e) for e in self.gold.edges if node in (e.dependent, e.head))
            and self.missing_ec_after(ref) is None
            and all(p in self.phrases for p, root in self.roots.items() if root == node)
        )

    def top_saturated(self, ref, excluding) -> bool:
        node = self.to_gold(ref)
        return all(
            self.built(e) for e in self.gold.edges
            if e.head == node and e != excluding and not isinstance(e.dependent, Phrase)
        )


NO_EDGE = Edge(-2, -1, "none")


def checked_walk(gold: HybridGraph) -> Counter:
    """Walk the oracle on ``gold``, checking at every configuration the kept
    state of s1-s3 against ``_Reference``; the kinds of transition taken."""
    roots = {}
    for phrase in gold.phrases:
        try:
            roots[phrase] = gold.subgraph_root(phrase)
        except GraphError:
            pass
    index = _GoldIndex(gold)
    config = initial(gold.segments)
    state = _OracleState(index, config)
    taken: Counter = Counter()
    for _ in range(step_budget(len(gold.segments))):
        if config.is_terminal_state():
            break
        assert state.working_to_gold == _alignment(config.terminals, index.segment_indices)
        reference = _Reference(gold, roots, config)
        for ref in config.pushed[-3:]:
            assert state.finished(ref) == reference.finished(ref)
            assert state.missing_ec_after(ref) == reference.missing_ec_after(ref)
            node = reference.to_gold(ref)
            unbuilt = [e for e in gold.edges if node in (e.dependent, e.head) and not reference.built(e)]
            for excluding in [NO_EDGE, *unbuilt]:
                assert state.top_saturated(ref, excluding) == reference.top_saturated(ref, excluding)
        t = state.next_transition()
        step(config, t)
        state.follow()
        taken[type(t)] += 1
    return taken


reversed_corpora = st.builds(
    lambda seed, profile: [reversed_terminals(g) for g in generate(seed, 4, profile).graphs],
    st.integers(0, 10_000),
    st.sampled_from(["pure", "+disconnected"]),
)


@settings(max_examples=20, deadline=None)
@given(st.one_of(corpora, reversed_corpora))
def test_the_oracle_state_agrees_with_a_set_based_reference(graphs):
    """What the state reads from the configuration (finished, saturated,
    missing empty category) equals its definition over the built edges,
    phrases and anchors mapped to gold, on synthetic sentences, their
    concatenation, and sentences read backwards, whose head-final edges
    the oracle builds with LeftArc."""
    for graph in graphs + [concatenate(graphs)]:
        checked_walk(graph)


def test_only_reversed_sentences_take_left_arcs():
    graphs = generate(3, 100, "+disconnected").graphs
    assert checked_walk(concatenate(graphs))[LeftArc] == 0
    backwards = concatenate([reversed_terminals(g) for g in graphs])
    assert checked_walk(backwards)[LeftArc] > 0
