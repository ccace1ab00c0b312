"""Property tests over synthetic graphs drawn by seed and profile."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridparse.convert import is_convertible, lossless_pure_graphs
from hybridparse.engine import parse_integrated, parse_multi_step
from hybridparse.graph import ELLIPTICAL_FORM, EmptyCategory
from hybridparse.learning import FeatureSetSpec, Model, _partition_key, extract_features, train
from hybridparse.oracle import oracle_next, oracle_sequence
from hybridparse.synth import generate
from hybridparse.transitions import apply, initial, replay

from conftest import concatenate

PROFILES = (
    "pure",
    "+phrases",
    "+ellipsis",
    "+phrases,+ellipsis",
    "+phrases,+ellipsis,+disconnected",
)

corpora = st.builds(
    lambda seed, profile: generate(seed, 4, profile).graphs,
    st.integers(0, 10_000),
    st.sampled_from(PROFILES),
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
            assert graph.with_terminal_inserted(at, ec).without_terminal(at) == graph


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
                want = model.classifiers[partition].score(feats)
                assert loaded.classifiers[partition].score(feats) == want
            config = apply(config, t)
