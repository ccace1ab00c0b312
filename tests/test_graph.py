import copy
import pickle
from dataclasses import dataclass
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
from hybridparse import graph as graph_module
from hybridparse.graph import GraphError, IllFormedPhraseError, TerminalEdit, Violation
from hybridparse.synth import generate
from hybridparse.transitions import Configuration, InsertEmpty, Reduce, step, successor, working
from hybridparse.vocab import DEFAULT_TAGS, MEMO_MAX

from conftest import (
    assert_working_state_equals_a_rebuild,
    concatenate,
    corpora,
    load_graph,
    mask_bits,
    working_state,
)


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


def test_validate_walks_head_chains_in_sorted_order():
    """Each dependent's chain is walked from its place in the sorted edges,
    so the violations and their order do not depend on the hash seed."""
    graph = HybridGraph(
        (seg(1), seg(2), seg(3)),
        frozenset(),
        frozenset({Edge(0, 1, "subj"), Edge(1, 0, "obj"), Edge(2, 1, "adj")}),
    )
    assert graph.validate() == [
        Violation("acyclicity", "cycle through 0"),
        Violation("acyclicity", "cycle through 1"),
        Violation("acyclicity", "cycle through 2"),
    ]


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


def edited(graph: HybridGraph, edit: TerminalEdit) -> HybridGraph:
    """``graph`` after ``edit``, applied in place to a working copy whose
    state equals a rebuild afterwards."""
    config = working(graph)
    config.edit(edit)
    assert_working_yields_match_the_walk(config)
    return config.graph


def test_insertion_shifts_spans_and_edges():
    graph = graph_from(
        [seg(1), seg(2, "V"), seg(3)],
        edges=[(0, 1, "subj"), (2, 1, "obj")],
        phrases=[Phrase(1, 2, "VS")],
    )
    grown = edited(graph, TerminalEdit(3, inserted=[(2, EmptyCategory("N", "*"))]))
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
    shrunk = edited(graph, TerminalEdit(4, deleted={2}))
    assert shrunk.phrases == {Phrase(1, 1, "VS")}
    assert shrunk.edges == {Edge(0, 1, "subj"), Edge(2, 1, "obj")}
    # The removed terminal starts the span.
    assert edited(graph, TerminalEdit(4, deleted={1})).phrases == {Phrase(1, 1, "VS")}
    assert edited(graph, TerminalEdit(4, deleted={0})).phrases == {Phrase(0, 1, "VS")}
    assert edited(graph, TerminalEdit(4, deleted={3})).phrases == graph.phrases
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
        stack.extend(e.dependent for e in graph.dependent_edges(node))
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
        assert mask_bits(graph.yield_masks()[ref]) == reference_yield(graph, ref), ref
        assert graph.subgraph_span(ref) == reference_span(graph, ref), ref
        assert set(graph.head_edges(ref)) == set(rebuilt.head_edges(ref)), ref
        assert graph.dependent_edges(ref) == rebuilt.dependent_edges(ref), ref


def assert_working_yields_match_the_walk(config):
    """A working graph's yields as a walk finds them, and its state as the
    constructor builds it."""
    assert_working_state_equals_a_rebuild(config)
    graph = config.graph
    for ref in list(range(len(graph))) + sorted(graph.phrases):
        assert config.span(ref) == reference_span(graph, ref), ref


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_yields_match_a_walk_of_the_dependents(name):
    """Built at once (masks computed on first use) or in a working graph one
    edge at a time in every order (masks spread as arcs spread them), each
    graph on the way has the yields of a walk."""
    terminals = [seg(i) for i in range(1, 6)]
    edges = [Edge(dep, head, rel) for dep, head, rel in HAND_BUILT[name]]
    assert_yields_match_the_walk(graph_from(terminals, HAND_BUILT[name], [NP]))
    for order in permutations(edges):
        for k in range(len(order) + 1):
            config = Configuration(terminals, [NP], order[:k], front=len(terminals))
            assert_working_yields_match_the_walk(config)
    assert config.graph == graph_from(terminals, HAND_BUILT[name], [NP])


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_removing_edges_keeps_the_yield_masks_exact(name):
    """Edges taken out one at a time, in every order, take their bits out
    of every mask above them, also round the cycle, where the dependents'
    masks hold the removed edge's bits; taking out the phrase takes its
    edges along."""
    terminals = [seg(i) for i in range(1, 6)]
    edges = [Edge(dep, head, rel) for dep, head, rel in HAND_BUILT[name]]
    for order in permutations(edges):
        config = Configuration(terminals, [NP], edges, front=len(terminals))
        for k, edge in enumerate(order):
            config.remove_edges([edge])
            assert_working_yields_match_the_walk(config)
            assert config.graph == HybridGraph(tuple(terminals), frozenset([NP]), frozenset(order[k + 1 :]))
    config = Configuration(terminals, [NP], edges, front=len(terminals))
    config.remove_phrase(NP)
    assert_working_yields_match_the_walk(config)
    assert config.graph.edges == {e for e in edges if NP not in (e.dependent, e.head)}
    assert not config.phrases


def edited_anew(graph: HybridGraph, edit: TerminalEdit) -> HybridGraph:
    """``graph`` after ``edit``, built anew: the terminals spliced, and the
    phrases and the edges between kept terminals renumbered by ``move``."""
    terminals = [t for i, t in enumerate(graph.terminals) if i not in edit.deleted]
    for at, (_, terminal) in zip(edit.landed, edit.inserted):
        terminals.insert(at, terminal)
    edges = [
        (edit.move(e.dependent), edit.move(e.head), e.relation)
        for e in graph.edges
        if e.dependent not in edit.deleted and e.head not in edit.deleted
    ]
    return graph_from(terminals, edges, map(edit.move, graph.phrases))


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_an_edit_in_one_pass_equals_a_rebuild(name):
    """A deletion together with one or two insertions, anywhere, including
    inside the phrase and at one index, leaves the masks exact and the
    graph that renumbering every reference gives."""
    graph = graph_from([seg(i) for i in range(1, 6)], HAND_BUILT[name], [NP])
    ec, pron = EmptyCategory("N", "*"), EmptyCategory("PRON", "huwa")
    for gone in [(), *((i,) for i in range(5)), (0, 3), (2, 4)]:
        for at in range(6):
            for inserted in ([(at, ec)], [(at, ec), (at, pron)], [(at, ec), (5 - at, pron)]):
                edit = TerminalEdit(5, deleted=gone, inserted=inserted)
                assert edited(graph, edit) == edited_anew(graph, edit), (gone, inserted)


def inserted_after(config, anchors) -> None:
    """Insert an empty category after each anchor in turn, ``anchors``
    descending, starting from a stack of the anchors, the first on top;
    after each insertion the working state equals a rebuild, and a copy
    stepped by ``successor`` reaches it, leaving the configuration as it
    was."""
    for _ in anchors:
        before = working_state(config)
        grown = successor(config, InsertEmpty("N"))
        assert working_state(config) == before
        step(config, InsertEmpty("N"))
        assert working_state(grown) == working_state(config)
        assert_working_yields_match_the_walk(config)
        step(config, Reduce(1))
        step(config, Reduce(1))


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_an_insertion_carries_the_yield_masks(name):
    """An insertion into a working graph keeps its masks exact, after every
    terminal and after two at once, renumbering the edges and the phrases
    behind the point. NP spans 1-2, so an insertion at 2 falls inside it and
    its heads gain the new terminal; it then takes the place of a second NP
    over 1-3, which moves on to 1-4."""
    terminals = [seg(i) for i in range(1, 6)]
    edges = [Edge(dep, head, rel) for dep, head, rel in HAND_BUILT[name]]
    n = len(terminals)

    def working(anchors):
        return Configuration(terminals, [NP, Phrase(1, 3, "NP")], edges, front=n, stack=anchors)

    for anchor in range(n):
        inserted_after(working((anchor,)), [anchor])
        for below in range(anchor):
            inserted_after(working((anchor, below)), [anchor, below])
    config = working((1,))
    step(config, InsertEmpty("N"))
    assert config.phrases == {Phrase(1, 3, "NP"), Phrase(1, 4, "NP")}
    heads = config.heads[Phrase(1, 3, "NP")]
    assert heads and all(config.yield_mask(edge.head) >> 2 & 1 for edge in heads)


@settings(max_examples=20, deadline=None)
@given(corpora, st.lists(st.integers(0, 1000), min_size=1, max_size=3))
def test_insertions_into_synthetic_graphs_carry_the_yield_masks(graphs, points):
    """After every segment of a whole graph, and after several in turn;
    phrases straddle insertion points wherever a point falls inside one."""
    for graph in graphs + [concatenate(graphs)]:
        n = len(graph)
        segments = [i for i, t in enumerate(graph.terminals) if isinstance(t, MorphSegment)]

        def working(anchors):
            return Configuration(graph.terminals, graph.phrases, graph.edges, front=n, stack=anchors)

        for anchor in segments:
            inserted_after(working((anchor,)), [anchor])
        anchors = sorted({segments[p % len(segments)] for p in points}, reverse=True)
        inserted_after(working(tuple(anchors)), anchors)


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


# -- compact values ----------------------------------------------------------


def test_graph_values_carry_no_instance_dict():
    location = Location(1, 1)
    values = (
        location,
        MorphSegment(location, "w", "N", {"SegType": "stem"}),
        EmptyCategory("PRON", "huwa"),
        Phrase(0, 1, "S"),
        Edge(0, 1, "subj"),
    )
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_equal_feature_sets_share_one_tuple():
    given = (("SegType", "stem"), ("Case", "NOM"), ("Number", "S"))
    segments = [
        MorphSegment(Location(1, 1), "w", "N", features)
        for order in permutations(given)
        for features in (order, dict(order), list(order))
    ]
    expected = tuple(sorted(given))
    shared = segments[0].features
    assert shared == expected
    for segment in segments:
        assert segment.features is shared
        assert segment == segments[0]
        # A value hashes as the tuple of its fields.
        assert hash(segment) == hash((Location(1, 1), "w", "N", expected, None, None, False))
        assert segment.feature_map == dict(given)
    assert repr(segments[0]) == (
        "MorphSegment(location=Location(chapter=1, verse=1, token=1, segment=1), "
        "form='w', pos='N', features=(('Case', 'NOM'), ('Number', 'S'), "
        "('SegType', 'stem')), lemma=None, root=None, is_reference=False)"
    )


def test_feature_sets_of_other_types_keep_their_own_values():
    # 1, 1.0 and True compare equal; each segment keeps the value it was given.
    for value in (1, 1.0, True):
        (pair,) = MorphSegment(Location(1, 1), "w", "N", {"n": value}).features
        assert type(pair[1]) is type(value)
    with pytest.raises(TypeError):
        MorphSegment(Location(1, 1), "w", "N", {"Case": ["NOM"]})


def test_a_repeated_feature_key_raises_on_every_construction(monkeypatch):
    monkeypatch.setattr(graph_module, "_FEATURES", {})
    valid = (("Case", "NOM"), ("SegType", "stem"))
    repeated = valid + (("Case", "ACC"),)
    for _ in range(2):
        MorphSegment(Location(1, 1), "w", "N", valid)
        for features in (repeated, list(repeated), repeated[::-1]):
            with pytest.raises(ValueError, match=r"^repeated feature key 'Case'$"):
                MorphSegment(Location(1, 1), "w", "N", features)
    memo = graph_module._FEATURES
    assert memo and all(len(dict(key)) == len(key) for key in memo)


def test_the_feature_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(graph_module, "_FEATURES", {})
    memo = graph_module._FEATURES
    for i in range(MEMO_MAX + 100):
        # Unsorted as given, so each new set adds two keys.
        MorphSegment(Location(1, 1), "w", "N", {"SegType": "stem", "Id": str(i)})
        assert len(memo) <= MEMO_MAX
    a = MorphSegment(Location(1, 1), "w", "N", {"SegType": "stem", "Id": "x"})
    b = MorphSegment(Location(1, 1), "w", "N", (("Id", "x"), ("SegType", "stem")))
    assert a.features is b.features


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_and_deepcopy_round_trip_a_synth_graph(protocol):
    graphs = generate(5, 20, "+phrases,+ellipsis").graphs
    graph = next(
        g for g in graphs
        if g.phrases and any(isinstance(t, EmptyCategory) for t in g.terminals)
    )
    graph.yield_masks()  # derived state travels with the value
    for copied in (pickle.loads(pickle.dumps(graph, protocol)), copy.deepcopy(graph)):
        assert copied == graph and hash(copied.edges) == hash(graph.edges)
        assert repr(copied.terminals) == repr(graph.terminals)
        assert [type(t) for t in copied.terminals] == [type(t) for t in graph.terminals]
        assert copied.yield_masks() == graph.yield_masks()
        assert copied.validate() == graph.validate() == []


# -- the values against the frozen dataclasses they were -----------------------


def _reference(order=False):
    """A frozen, slotted dataclass as the graph values were before they
    became tuples; its repr names the value it stands for (``RefPhrase``
    prints as ``Phrase``)."""

    def wrap(cls):
        cls.__qualname__ = cls.__name__.removeprefix("Ref")
        return dataclass(frozen=True, order=order, slots=True)(cls)

    return wrap


@_reference(order=True)
class RefLocation:
    chapter: int
    verse: int
    token: int = 1
    segment: int = 1

    def __post_init__(self):
        for name in ("chapter", "verse", "token", "segment"):
            if getattr(self, name) < 1:
                raise ValueError(f"location {name} must be >= 1")


@_reference()
class RefMorphSegment:
    location: RefLocation
    form: str
    pos: str
    features: tuple = ()
    lemma: str | None = None
    root: str | None = None
    is_reference: bool = False

    def __post_init__(self):
        object.__setattr__(self, "features", graph_module.shared_features(self.features))


@_reference()
class RefEmptyCategory:
    pos: str
    form: str

    def __post_init__(self):
        if not self.form:
            raise ValueError("empty category needs a non-empty form")


@_reference(order=True)
class RefPhrase:
    start: int
    end: int
    tag: str

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("phrase span start must be <= end")
        if self.start < 0:
            raise ValueError("phrase span start must be >= 0")


@_reference()
class RefEdge:
    dependent: object
    head: object
    relation: str

    def __post_init__(self):
        if self.dependent == self.head:
            raise ValueError("edge endpoints must differ")


VALUES = {
    cls.__name__: cls for cls in (Location, MorphSegment, EmptyCategory, Phrase, Edge)
}
REFERENCES = {
    cls.__qualname__: cls
    for cls in (RefLocation, RefMorphSegment, RefEmptyCategory, RefPhrase, RefEdge)
}

# Fields as plain data; a segment's location and a phrase endpoint are field
# tuples, built as values of the family under test. Locations and spans reach
# below their bounds, edges join equal endpoints, forms are empty, and
# feature sets repeat a key or hold an unhashable one.
_small = st.integers(-1, 3)
_tags = st.sampled_from(["S", "NP", "VS"])
_node = st.one_of(
    st.integers(0, 2),
    st.tuples(st.integers(0, 2), st.integers(0, 2), _tags).filter(lambda f: f[0] <= f[1]),
)
_feature = st.tuples(
    st.one_of(st.sampled_from(["Case", "Number", "SegType"]), st.builds(list, st.just("Case"))),
    st.sampled_from(["NOM", "S", "stem"]),
)
FIELDS = {
    "Location": st.tuples(_small, _small, _small, _small),
    "MorphSegment": st.tuples(
        st.tuples(*[st.integers(1, 2)] * 4),
        st.sampled_from(["w", "ka"]),
        st.sampled_from(["N", "V"]),
        st.lists(_feature, max_size=3) | st.lists(_feature, max_size=3).map(tuple),
        st.sampled_from([None, "kataba"]),
        st.sampled_from([None, "ktb"]),
        st.booleans(),
    ),
    "EmptyCategory": st.tuples(st.sampled_from(["PRON", "V"]), st.sampled_from(["", "*", "huwa"])),
    "Phrase": st.tuples(_small, _small, _tags),
    "Edge": st.tuples(_node, _node, st.sampled_from(["subj", "obj"])),
}
kinds_and_fields = st.sampled_from(sorted(FIELDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), FIELDS[kind])
)


def _fields(family: dict, kind: str, fields: tuple) -> tuple:
    """The fields with nested locations and phrases built in ``family``."""
    if kind == "MorphSegment":
        return (family["Location"](*fields[0]),) + fields[1:]
    if kind == "Edge":
        ends = (family["Phrase"](*f) if isinstance(f, tuple) else f for f in fields[:2])
        return (*ends, fields[2])
    return fields


def _outcome(build) -> tuple:
    """("built", repr, hash) of the value ``build()`` returns, or ("raised",
    type, message) of what it raises."""
    try:
        value = build()
    except (TypeError, ValueError) as error:
        return "raised", type(error), str(error)
    return "built", repr(value), hash(value)


@settings(max_examples=300, deadline=None)
@given(kinds_and_fields)
def test_values_build_and_fail_as_the_dataclasses_did(drawn):
    """Each value has its dataclass's repr and hash, or raises the same
    exception type with the same message, and a segment shares its feature
    tuple with the dataclass's."""
    kind, fields = drawn
    value, reference = VALUES[kind], REFERENCES[kind]
    got = _outcome(lambda: value(*_fields(VALUES, kind, fields)))
    assert got == _outcome(lambda: reference(*_fields(REFERENCES, kind, fields)))
    if kind == "MorphSegment" and got[0] == "built":
        built = value(*_fields(VALUES, kind, fields))
        assert built.features is reference(*_fields(REFERENCES, kind, fields)).features


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.lists(FIELDS[kind], min_size=2, max_size=6))
))
def test_values_compare_as_the_dataclasses_did(drawn):
    """Equality among the values of one kind, and for locations and phrases
    the ordering, are the dataclasses'."""
    kind, many = drawn
    values, references = [], []
    for fields in many:
        try:
            references.append(REFERENCES[kind](*_fields(REFERENCES, kind, fields)))
        except (TypeError, ValueError):
            continue
        values.append(VALUES[kind](*_fields(VALUES, kind, fields)))
    for a, ra in zip(values, references):
        for b, rb in zip(values, references):
            assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
            if kind in ("Location", "Phrase"):
                assert (a < b, a <= b, a > b, a >= b) == (ra < rb, ra <= rb, ra > rb, ra >= rb)


def _rebuilds(value) -> list:
    """The ways to build a value from another's fields besides the constructor."""
    return [
        lambda: type(value)._make(value),
        lambda: value._replace(),
        lambda: copy.copy(value),
        lambda: copy.deepcopy(value),
    ] + [
        lambda protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]


@settings(max_examples=300, deadline=None)
@given(kinds_and_fields)
def test_make_replace_copy_and_pickle_check_as_the_constructor(drawn):
    """A tuple of any fields, built without the checks, comes back from
    ``_make``, ``_replace``, a copy or a pickle round trip checked and with
    its features shared as the constructor gives them, or raises as the
    constructor does."""
    kind, fields = drawn
    cls = VALUES[kind]
    given_fields = _fields(VALUES, kind, fields)
    unchecked = tuple.__new__(cls, given_fields)
    expected = _outcome(lambda: cls(*given_fields))
    for rebuild in _rebuilds(unchecked):
        assert _outcome(rebuild) == expected
        if kind == "MorphSegment" and expected[0] == "built":
            assert rebuild().features is cls(*given_fields).features


def test_replace_checks_the_new_fields():
    phrase = Phrase(1, 2, "S")
    assert phrase._replace(tag="NP") == Phrase(1, 2, "NP")
    with pytest.raises(ValueError, match=r"^phrase span start must be <= end$"):
        phrase._replace(start=3)
    with pytest.raises(ValueError, match=r"^location token must be >= 1$"):
        Location(1, 1)._replace(token=0)
    with pytest.raises(ValueError, match=r"^edge endpoints must differ$"):
        Edge(0, 1, "subj")._replace(head=0)
    segment = MorphSegment(Location(1, 1), "w", "N", {"SegType": "stem", "Case": "NOM"})
    again = segment._replace(features=[("Case", "NOM"), ("SegType", "stem")])
    assert again.features is segment.features


def test_values_compare_as_tuples():
    """The values are tuples: a phrase equals the tuple of its fields, and an
    edge equals a phrase only when its relation is spelled as a phrase tag,
    which no default relation is."""
    assert Phrase(0, 1, "S") == (0, 1, "S")
    assert Edge(0, 1, "S") == Phrase(0, 1, "S")
    assert not DEFAULT_TAGS.relations & DEFAULT_TAGS.phrase_tags
