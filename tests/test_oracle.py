from collections import Counter

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
from hybridparse.metrics import elas
from hybridparse.oracle import step_budget
from hybridparse.synth import is_nonprojective
from hybridparse import generate, Profile

from conftest import concatenate, load_graph, load_transitions


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
    assert oracle_next(config, gold, english_tags) == LeftArc("det")


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
