import pytest

from hybridparse import (
    AddPhrase,
    EmptyCategory,
    InsertEmpty,
    InsertPronoun,
    LeftArc,
    Location,
    MorphSegment,
    Phrase,
    Reduce,
    RightArc,
    Shift,
    apply,
    generate,
    initial,
    legal,
)
from hybridparse.transitions import IllegalTransition, parse_transition

from conftest import load_graph, load_transitions, replay


def seg(i, pos="N", **feats):
    feats.setdefault("SegType", "stem")
    return MorphSegment(Location(1, 2, i), f"w{i}", pos, feats)


def verb(i, **phi):
    feats = {"SegType": "stem", "Aspect": "PERF", "Voice": "ACT"}
    feats.update(phi)
    return MorphSegment(Location(1, 2, i), f"v{i}", "V", feats)


def test_initial_configuration():
    sentence = [seg(i) for i in range(1, 6)]
    config = initial(sentence)
    assert config.queue == (0, 1, 2, 3, 4)
    assert config.stack == ()
    assert len(config.graph.edges) == 0 and len(config.graph.phrases) == 0
    assert not config.is_terminal_state()


def test_initial_single_segment():
    config = initial([seg(1)])
    assert config.queue == (0,)


def test_initial_empty_sentence():
    with pytest.raises(ValueError):
        initial([])


def test_legal_edge_needs_two_items():
    config = initial([seg(1), seg(2)])
    assert not legal(config, LeftArc("subj"))
    config = apply(apply(config, Shift()), Shift())
    assert legal(config, LeftArc("subj"))
    assert legal(config, RightArc("obj"))


def test_legal_pron_requires_verb():
    config = apply(initial([seg(1, "N"), verb(2)]), Shift())
    assert not legal(config, InsertPronoun())
    config = apply(config, Shift())
    assert legal(config, InsertPronoun())


def test_legal_pron_blocked_by_existing_subject():
    config = initial([seg(1), verb(2)])
    config = apply(apply(config, Shift()), Shift())
    config = apply(config, LeftArc("subj"))  # w1 becomes the verb's subject
    # now the verb on top already has a subject: wait, the verb is s1
    assert config.graph.head_of(0) == 1
    assert not legal(config, InsertPronoun())


def test_legal_empty_requires_segment_anchor():
    config = apply(apply(initial([verb(1), seg(2)]), Shift()), InsertEmpty("N"))
    # top of stack is now the empty category: no further insertion there
    assert not legal(config, InsertEmpty("N"))


def test_legal_phrase_requires_unique():
    config = apply(initial([seg(1)]), Shift())
    config = apply(config, AddPhrase("NS"))
    assert not legal(config, AddPhrase("NS"))  # top is now the phrase
    config = apply(config, Reduce(1))
    assert not legal(config, AddPhrase("NS"))  # identical phrase exists
    assert legal(config, AddPhrase("S"))  # same span, different tag


def test_edge_blocked_when_dependent_headed():
    config = initial([seg(1), verb(2), seg(3)])
    config = apply(apply(config, Shift()), Shift())
    config = apply(config, LeftArc("subj"))
    assert not legal(config, LeftArc("obj"))  # w1 already has a head
    config = apply(config, Reduce(2))
    config = apply(config, Shift())
    # verb under the new top keeps its dependents; new edge still fine
    assert legal(config, RightArc("obj"))


def test_cycle_blocked():
    config = initial([seg(1), seg(2)])
    config = apply(apply(config, Shift()), Shift())
    config = apply(config, LeftArc("adj"))
    assert not legal(config, RightArc("adj"))


def test_apply_illegal_raises_and_leaves_input():
    config = initial([seg(1)])
    with pytest.raises(IllegalTransition):
        apply(config, Reduce(1))
    assert config.queue == (0,)


def test_fig_9_3_replay_reaches_terminal(english_tags):
    gold = load_graph("english/fig_9_2.conllx", english_tags)
    sequence = load_transitions("english/fig_9_3.transitions")
    assert len(sequence) == 14
    config = replay(gold.segments, sequence, english_tags)
    assert config.is_terminal_state()
    assert config.graph == gold


def test_fig_9_12_13_replay(english_tags):
    gold = load_graph("fig_9_11.conllx")
    sequence = load_transitions("fig_9_12_13.transitions")
    config = replay(gold.segments, sequence)
    assert config.is_terminal_state()
    assert config.graph == gold


def test_pron_uses_verb_phi_features():
    config = apply(initial([verb(1, Person="3", Gender="M", Number="S")]), Shift())
    config = apply(config, InsertPronoun())
    ec = config.graph.terminals[1]
    assert isinstance(ec, EmptyCategory)
    assert ec.pos == "PRON" and ec.form == "huwa"
    edge = next(iter(config.graph.edges))
    assert edge.dependent == 1 and edge.head == 0 and edge.relation == "subj"


def test_pron_feminine_plural():
    config = apply(initial([verb(1, Person="3", Gender="F", Number="P")]), Shift())
    config = apply(config, InsertPronoun())
    assert config.graph.terminals[1].form == "hun~a"


def test_pron_first_person_dual_falls_back_to_plural():
    config = apply(initial([verb(1, Person="1", Number="D")]), Shift())
    config = apply(config, InsertPronoun())
    assert config.graph.terminals[1].form == "naHonu"


def test_insertion_shifts_configuration():
    config = initial([verb(1), seg(2), seg(3)])
    config = apply(config, Shift())
    config = apply(config, InsertEmpty("N"))
    assert config.stack == (1, 0)
    assert config.queue == (2, 3)
    assert config.graph.validate() == []


def test_phrase_transition_pushes_phrase():
    config = initial([seg(1), verb(2)])
    config = apply(apply(config, Shift()), Shift())
    config = apply(config, LeftArc("subj"))
    config = apply(config, Reduce(2))
    config = apply(config, AddPhrase("VS"))
    assert config.stack[0] == Phrase(0, 1, "VS")
    assert config.stack[1] == 1


def test_combined_operations_match_arc_standard():
    # LEFT then REDUCE(2) removes the buried dependent; RIGHT then
    # REDUCE(1) removes the top dependent.
    config = initial([seg(1), verb(2)])
    config = apply(apply(config, Shift()), Shift())
    left = apply(apply(config, LeftArc("subj")), Reduce(2))
    assert left.stack == (1,)
    assert next(iter(left.graph.edges)).dependent == 0
    right = apply(apply(config, RightArc("obj")), Reduce(1))
    assert right.stack == (0,)
    assert next(iter(right.graph.edges)).dependent == 1


def test_serialization_roundtrip():
    cases = [
        Shift(),
        Reduce(1),
        Reduce(2),
        LeftArc("subj"),
        RightArc("gen"),
        InsertEmpty("N"),
        InsertPronoun(),
        AddPhrase("VS"),
        RightArc("+link|N|circ"),
    ]
    for t in cases:
        assert parse_transition(str(t)) == t


def test_progress_always_possible():
    config = initial([seg(1), seg(2)])
    steps = 0
    while not config.is_terminal_state():
        t = Shift() if config.queue else Reduce(1)
        assert legal(config, t)
        config = apply(config, t)
        steps += 1
    assert steps == 4


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_no_legal_walk_ends_in_an_invalid_graph():
    """Every step of this walk over the first 3-segment synth sentence
    (V N N) passes ``apply`` today, and the walk ends in a graph that
    ``validate()`` rejects (``phrase-overlap``). A sound transition system
    rejects a step on the way or builds a valid graph."""
    gold = next(g for g in generate(5, 200, "+phrases,+ellipsis").graphs if len(g.segments) == 3)
    assert [s.pos for s in gold.segments] == ["V", "N", "N"]
    walk = (
        "SHIFT SHIFT SHIFT LEFT(subj) PHRASE(S) REDUCE(1) REDUCE(1) "
        "LEFT(subj) REDUCE(2) PHRASE(S) REDUCE(1) REDUCE(1)"
    )
    config = initial(gold.segments)
    try:
        for text in walk.split():
            config = apply(config, parse_transition(text))
    except IllegalTransition:
        return
    assert config.is_terminal_state()
    assert config.graph.validate() == []
