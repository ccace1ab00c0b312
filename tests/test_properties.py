"""Property tests over synthetic graphs drawn by seed and profile."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridparse.convert import from_pure_dependency, is_convertible, lossless_pure_graphs
from hybridparse.corpus_io import (
    FeatureNotationError,
    TreebankFormatError,
    dumps_treebank,
    format_feature_line,
    read_feature_notation,
    read_treebank,
)
from hybridparse.engine import _greedy_parse, parse_integrated, parse_multi_step
from hybridparse.graph import (
    ELLIPTICAL_FORM,
    EmptyCategory,
    HybridGraph,
    Location,
    MorphSegment,
    TerminalEdit,
)
from hybridparse.learning import FeatureSetSpec, Model, _partition_key, extract_features, train
from hybridparse.oracle import oracle_next, oracle_sequence, step_budget
from hybridparse.synth import generate
from hybridparse.transitions import (
    PURE_KINDS,
    InsertEmpty,
    InsertPronoun,
    apply,
    initial,
    legal,
    step,
    successor,
    working,
)
from hybridparse.vocab import COPULA_GROUP, DEFAULT_TAGS

from conftest import (
    CANDIDATES,
    assert_working_state_equals_a_rebuild,
    concatenate,
    corpora,
    replay,
    working_state,
)

empty_categories = st.sampled_from(
    [EmptyCategory("PRON", "huwa"), EmptyCategory("N", ELLIPTICAL_FORM)]
)

SETTINGS = settings(max_examples=20, deadline=None)


@SETTINGS
@given(corpora, empty_categories)
def test_removing_an_inserted_terminal_restores_the_graph(graphs, ec):
    for graph in graphs:
        for at in range(len(graph) + 1):
            config = working(graph)
            config.edit(TerminalEdit(len(graph), inserted=[(at, ec)]))
            assert_working_state_equals_a_rebuild(config)
            config.edit(TerminalEdit(len(graph) + 1, deleted={at}))
            assert_working_state_equals_a_rebuild(config)
            assert config.graph == graph


@SETTINGS
@given(corpora)
def test_oracle_replay_rebuilds_reachable_graphs(graphs):
    for graph in graphs:
        outcome = oracle_sequence(graph)
        if outcome.reachable:
            assert outcome.graph == graph
            assert replay(graph.segments, outcome.sequence).graph == graph


@SETTINGS
@given(corpora)
def test_oracle_walk_agrees_with_a_fresh_oracle(graphs):
    """The state oracle_sequence keeps across its walk gives, at every
    configuration, the transition that oracle_next computes from scratch;
    long sentences give the kept state the most room to drift."""
    for graph in graphs + [concatenate(graphs), concatenate(graphs * 3)]:
        config = initial(graph.segments)
        for t in oracle_sequence(graph).sequence:
            assert oracle_next(config, graph) == t
            config = apply(config, t)


@SETTINGS
@given(corpora)
def test_synthetic_graphs_are_convertible(graphs):
    for graph in graphs:
        assert is_convertible(graph)


@pytest.fixture(scope="module")
def training_graphs():
    return generate(11, 60, "+phrases,+ellipsis,+disconnected").graphs


@pytest.fixture(scope="module")
def model(training_graphs):
    return train(training_graphs, FeatureSetSpec("lemma"), seed=1, epochs=10)


@pytest.fixture(scope="module")
def pure_model(training_graphs):
    pure = lossless_pure_graphs(training_graphs)
    return train(pure, FeatureSetSpec("lemma"), seed=1, epochs=10)


@SETTINGS
@given(corpora)
def test_parser_outputs_are_valid(model, pure_model, graphs):
    for graph in graphs + [concatenate(graphs)]:
        assert parse_integrated(model, graph.segments)[0].validate() == []
        assert parse_multi_step(pure_model, graph.segments)[0].validate() == []


@st.composite
def segment_sequences(draw):
    """1 to 60 segments, each with a POS tag drawn from the whole tag set
    (so partitions the models never saw), and some features and lemmas."""
    out = []
    for i in range(draw(st.integers(1, 60))):
        pos = draw(st.sampled_from(sorted(DEFAULT_TAGS.pos_tags)))
        feats = {"SegType": draw(st.sampled_from(["prefix", "stem", "suffix"]))}
        for key, values in (
            ("Case", ["NOM", "ACC", "GEN"]),
            ("SP", [COPULA_GROUP, "<in~"]),
            ("Person", ["1", "2", "3"]),
            ("Number", ["S", "D", "P"]),
        ):
            if draw(st.booleans()):
                feats[key] = draw(st.sampled_from(values))
        lemma = draw(st.sampled_from([None, "qaAla", "kaAna", "x"]))
        out.append(MorphSegment(Location(1, 1, i + 1), f"w{i}", pos, feats, lemma))
    return out


@settings(max_examples=40, deadline=None)
@given(segment_sequences())
def test_both_pipelines_are_total(model, pure_model, sentence):
    """Any segment sequence parses to a valid graph within the step budget;
    the multi-step pipeline hands its conversion whatever labels the model
    predicts, expandable or not, and its configuration, which converts in
    place to what a copy of its graph converts to."""
    for parse, parser_model in ((parse_integrated, model), (parse_multi_step, pure_model)):
        graph, report = parse(parser_model, sentence)
        assert graph.validate() == []
        assert report.predictive_steps <= step_budget(len(sentence))
    config, _ = _greedy_parse(pure_model, sentence, DEFAULT_TAGS, PURE_KINDS)
    copied = from_pure_dependency(config.graph)
    assert from_pure_dependency(config) == copied
    assert_working_state_equals_a_rebuild(config)


def assert_same_as_rebuilt(graph):
    """The state a graph carried forward from its parent agrees, node by
    node, with the state the constructor builds from the same value."""
    rebuilt = HybridGraph(graph.terminals, graph.phrases, graph.edges)
    for ref in list(range(len(graph))) + sorted(graph.phrases):
        assert graph.subgraph_span(ref) == rebuilt.subgraph_span(ref)
        assert graph.yield_masks()[ref] == rebuilt.yield_masks()[ref]
        assert graph.head_of(ref) == rebuilt.head_of(ref)
        assert graph.dependent_edges(ref) == rebuilt.dependent_edges(ref)


@SETTINGS
@given(corpora)
def test_carried_graph_state_equals_a_rebuild(model, graphs):
    """At every step of the oracle's walk and of a parse, stepped in place,
    the working graph equals a rebuild. ``successor`` and ``apply`` leave
    their argument as it was and reach the state ``step`` reaches. A graph
    taken from the configuration before a step is unchanged by it and by
    every later step."""
    for graph in graphs + [concatenate(graphs)]:
        parsed = parse_integrated(model, graph.segments)[1].trace
        for sequence in (oracle_sequence(graph).sequence, parsed):
            config = initial(graph.segments)
            taken = []
            for t in sequence:
                assert_working_state_equals_a_rebuild(config)
                before = working_state(config)
                stepped = successor(config, t), apply(config, t)
                assert working_state(config) == before
                value = config.graph
                taken.append((value, (value.terminals, value.phrases, value.edges)))
                step(config, t)
                assert all(working_state(other) == working_state(config) for other in stepped)
            assert_working_state_equals_a_rebuild(config)
            assert config.is_terminal_state()
            for value, parts in taken:
                assert (value.terminals, value.phrases, value.edges) == parts
            # The derived state too, where the most has happened since.
            for value, _ in taken[:: max(1, len(taken) // 8)]:
                assert_same_as_rebuilt(value)


@SETTINGS
@given(corpora, st.integers(0, 2**32 - 1))
def test_random_legal_walks_keep_the_working_graph_exact(graphs, seed):
    """Walks of random legal transitions over a long sentence pop nodes
    before inserting after them, so insertions fall before the queue front
    and renumber edges, masks and straddled phrases, which the oracle's and
    a trained parser's walks hardly do. After every step the working graph
    equals a rebuild, and ``successor`` reaches the same state as ``step``
    without changing its argument."""
    rng = random.Random(seed)
    sentence = concatenate(graphs).segments
    config = initial(sentence)
    for _ in range(6 * len(sentence)):
        if config.is_terminal_state():
            break
        t = rng.choice([t for t in CANDIDATES if legal(config, t)])
        before = working_state(config)
        copied = successor(config, t)
        assert working_state(config) == before
        step(config, t)
        assert working_state(copied) == working_state(config)
        assert_working_state_equals_a_rebuild(config)


def test_parse_steps_do_not_rebuild_the_graph(model, monkeypatch):
    """On a long sentence with insertions and phrases, the parse runs the
    constructor once, for the graph it returns, and never asks a
    ``HybridGraph`` for a span, a yield or dependent edges: each step reads
    and changes the working graph."""
    sentence = concatenate(generate(3, 30, "+phrases,+ellipsis,+disconnected").graphs)
    counts: Counter = Counter()
    build = HybridGraph.__post_init__

    def counted_build(self):
        counts["builds"] += 1
        build(self)

    monkeypatch.setattr(HybridGraph, "__post_init__", counted_build)
    for name in ("yield_masks", "subgraph_span", "dependent_edges", "head_of"):
        monkeypatch.setattr(HybridGraph, name, lambda *args, name=name: counts.update([name]))
    graph, report = parse_integrated(model, sentence.segments)
    insertions = sum(isinstance(t, (InsertEmpty, InsertPronoun)) for t in report.trace)
    assert len(graph.edges) > 100 and len(graph.phrases) > 10 and insertions > 0
    assert counts == {"builds": 1}


@settings(max_examples=10, deadline=None)
@given(corpora)
def test_model_survives_serialization(model, graphs):
    text = model.serialize()
    loaded = Model.deserialize(text)
    assert loaded.serialize() == text
    for graph in graphs:
        outcome = oracle_sequence(graph)
        config = initial(graph.segments)
        for t in outcome.sequence:
            partition = _partition_key(config)
            if partition in model.classifiers:
                feats = extract_features(config, model.feature_set)
                scores = []
                for m in (model, loaded):
                    clf = m.classifiers[partition]
                    scores.append(clf.score(m.vocabulary.encode(feats) & clf.known))
                assert scores[0] == scores[1]
            config = apply(config, t)


# A valid treebank and a valid notation file, mutated line by line below.
VALID_TREEBANK = dumps_treebank(generate(7, 6, "+phrases,+ellipsis,+disconnected"))


def _notation_text(graphs) -> str:
    lines = []
    for graph in graphs:
        tokens: dict = {}
        for segment in graph.segments:
            loc = segment.location
            tokens.setdefault((loc.chapter, loc.verse, loc.token), []).append(segment)
        for (chapter, verse, token), segments in tokens.items():
            lines.append(f"({chapter}:{verse}:{token}) {format_feature_line(segments)}")
    return "\n".join(lines) + "\n"


VALID_NOTATION = _notation_text(generate(7, 6, "+phrases,+ellipsis").graphs)

fragments = st.one_of(
    st.sampled_from([
        "", "_", "0", "-1", "99", "1-1", "3-2", "T", "E", "P", "XX", "loc=1:1", "Case=",
        "subj", "(1:1:1)", "[]", "POS:N", "POS:ZZ", "PRON:9", "+PRON:3MS", "PCPL",
        "(XIII)", "LEM:", "MOOD:IND", "w:CONJ+", "q+", "3MS", "+VOC",
    ]),
    st.text(max_size=6),
)


@st.composite
def mutated(draw, text: str, separator: str):
    """``text`` with one line changed: one character, one digit or one
    ``separator``-split field replaced, a field copied over another (a row
    headed by itself), or the line replaced, dropped or doubled."""
    lines = text.split("\n")
    at = draw(st.integers(0, len(lines) - 2))
    line = lines[at]
    fields = line.split(separator)
    k, j = draw(st.integers(0, len(fields) - 1)), draw(st.integers(0, len(fields) - 1))
    digits = [i for i, c in enumerate(line) if c.isdigit()]
    kind = draw(st.sampled_from(["char", "digit", "field", "copy", "line", "drop", "double"]))
    if kind == "digit" and digits:
        i = draw(st.sampled_from(digits))
        line = line[:i] + draw(st.sampled_from("0x9")) + line[i + 1 :]
    elif kind in ("char", "digit"):
        i = draw(st.integers(0, max(len(line) - 1, 0)))
        line = line[:i] + draw(st.sampled_from("0123456789x-:|=_ \t")) + line[i + 1 :]
    elif kind in ("field", "copy"):
        fields[k] = draw(fragments) if kind == "field" else fields[j]
        line = separator.join(fields)
    elif kind == "line":
        line = draw(fragments)
    elif kind == "double":
        line = line + "\n" + line
    else:
        line = None
    lines[at : at + 1] = [] if line is None else [line]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated(VALID_TREEBANK, "\t"))
def test_malformed_treebank_raises_only_the_typed_error(text):
    try:
        read_treebank(text)
    except TreebankFormatError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated(VALID_NOTATION, " "))
def test_malformed_notation_raises_only_the_typed_errors(text):
    try:
        read_feature_notation(text)
    except (TreebankFormatError, FeatureNotationError):
        pass
