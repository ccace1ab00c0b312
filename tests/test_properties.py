"""Property tests over synthetic graphs drawn by seed and profile."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridparse.convert import is_convertible
from hybridparse.graph import ELLIPTICAL_FORM, EmptyCategory
from hybridparse.learning import FeatureSetSpec, Model, _partition_key, extract_features, train
from hybridparse.oracle import oracle_sequence
from hybridparse.synth import generate
from hybridparse.transitions import apply, initial, replay

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
def test_synthetic_graphs_are_convertible(graphs):
    for graph in graphs:
        assert is_convertible(graph)


@pytest.fixture(scope="module")
def model():
    graphs = generate(11, 60, "+phrases,+ellipsis,+disconnected").graphs
    return train(graphs, FeatureSetSpec("lemma"), seed=1, epochs=10)


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
