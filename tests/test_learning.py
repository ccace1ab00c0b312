import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridparse import (
    FeatureSetSpec,
    Location,
    MorphSegment,
    Model,
    Reduce,
    Shift,
    apply,
    extract_features,
    generate,
    initial,
    predict,
    train,
)
from hybridparse import learning
from hybridparse.convert import lossless_pure_graphs
from hybridparse.engine import parse_integrated
from hybridparse.learning import (
    EDGE_PAIRS,
    AveragedPerceptron,
    TrainingError,
    _fittable,
    _slot_ref,
    training_pairs,
)
from hybridparse.oracle import oracle_sequence, step_budget
from hybridparse.vocab import DEFAULT_TAGS
from hybridparse.metrics import elas
from hybridparse.transitions import LeftArc, RightArc

from conftest import concatenate, load_graph


def seg(i, pos="N", **feats):
    feats.setdefault("SegType", "stem")
    return MorphSegment(Location(6, 1, i), f"w{i}", pos, feats, feats.pop("lemma", None))


def test_feature_set_nesting():
    specs = [FeatureSetSpec(n) for n in ("pos", "morph6", "morph9", "lemma", "phi")]
    for smaller, larger in zip(specs, specs[1:]):
        assert larger.level >= smaller.level
    with pytest.raises(ValueError):
        FeatureSetSpec("mega")


def test_extract_features_initial_config():
    config = initial([seg(1, "N")])
    feats = extract_features(config, FeatureSetSpec("pos"))
    assert "q1:pos=N" in feats
    assert "s1:absent" in feats and "s2:absent" in feats and "s3:absent" in feats


def test_extract_features_deprel():
    config = initial([seg(1, "N", Case="NOM"), seg(2, "V")])
    config = apply(apply(config, Shift()), Shift())
    config = apply(config, LeftArc("subj"))
    config = apply(config, Reduce(2))
    feats = extract_features(config, FeatureSetSpec("pos"))
    assert "s1:deprel(subj)" in feats
    assert "s1:isroot" in feats


def test_extract_features_edge_predicate():
    config = initial([seg(1), seg(2, "V")])
    config = apply(apply(config, Shift()), Shift())
    config = apply(config, LeftArc("subj"))
    feats = extract_features(config, FeatureSetSpec("pos"))
    assert "graph:edge(s1,s2)" in feats


def _scanned_features(config, spec):
    """extract_features with each graph:edge predicate recomputed by a scan
    over every edge of the graph."""
    out = {f for f in extract_features(config, spec) if not f.startswith("graph:edge(")}
    for a, b in EDGE_PAIRS:
        ra, rb = _slot_ref(config, a), _slot_ref(config, b)
        if ra is None or rb is None:
            continue
        if any({e.dependent, e.head} == {ra, rb} for e in config.graph.edges):
            out.add(f"graph:edge({a},{b})")
    return frozenset(out)


def test_edge_predicate_matches_a_scan_of_all_edges(english_tags):
    """Along oracle walks: synthetic graphs build right arcs only, so the
    English figure adds left arcs."""
    graphs = generate(58, 20, "+phrases,+ellipsis,+disconnected").graphs
    cases = [(gold, DEFAULT_TAGS) for gold in graphs + [concatenate(graphs)]]
    cases.append((load_graph("english/fig_9_2.conllx", english_tags), english_tags))
    spec = FeatureSetSpec("lemma")
    linked = set()
    for gold, tags in cases:
        config = initial(gold.segments)
        for t in oracle_sequence(gold, tags).sequence:
            feats = extract_features(config, spec)
            assert feats == _scanned_features(config, spec)
            linked.update(f for f in feats if f.startswith("graph:edge("))
            config = apply(config, t, tags)
    assert {"graph:edge(s1,s2)", "graph:edge(s2,s3)"} <= linked


def test_feature_vectors_nest_by_spec():
    doc = generate(51, 15, "+phrases,+ellipsis")
    specs = [FeatureSetSpec(n) for n in ("pos", "morph6", "morph9", "lemma", "phi")]
    for gold in doc.graphs:
        pairs = training_pairs(gold, specs[0])
        config = initial(gold.segments)
        from hybridparse.oracle import oracle_sequence

        for t in oracle_sequence(gold).sequence:
            vectors = [extract_features(config, s) for s in specs]
            for smaller, larger in zip(vectors, vectors[1:]):
                assert smaller <= larger
            config = apply(config, t)


def test_perceptron_learns_separable_data():
    clf = AveragedPerceptron(["a", "b"], epochs=10, seed=1)
    rows = [
        (frozenset({"s1:pos=N"}), "a"),
        (frozenset({"s1:pos=V"}), "b"),
    ]
    clf.fit(rows * 5)
    for feats, gold in rows:
        scores = clf.score(feats)
        other = "b" if gold == "a" else "a"
        assert scores[gold] > scores[other]


def fits(clf, pairs):
    """Whether every pair's gold label scores strictly above all others."""
    for feats, gold in pairs:
        scores = clf.score(feats)
        if any(scores[gold] <= v for label, v in scores.items() if label != gold):
            return False
    return True


def test_fit_stops_once_averaged_weights_fit():
    pairs = [
        (frozenset({"s1:pos=N", "q1:pos=V"}), "SHIFT"),
        (frozenset({"s1:pos=N", "q1:absent"}), "REDUCE(1)"),
        (frozenset({"s1:pos=V", "q1:pos=N"}), "LEFT(subj)"),
        (frozenset({"s1:pos=V", "q1:absent"}), "REDUCE(1)"),
        (frozenset({"s1:pos=P", "q1:pos=N"}), "SHIFT"),
    ] * 3
    clf = AveragedPerceptron(sorted({label for _, label in pairs}), epochs=50, seed=4)
    ran = clf.fit(pairs)
    assert 1 <= ran < 50
    assert fits(clf, pairs)


def test_fit_waits_for_the_averaged_weights():
    # The raw weights fit both pairs after epoch 1, but the averaged ones
    # still tie on the second pair after epoch 2, the first without mistakes.
    pairs = [
        (frozenset({"s1:pos=N", "q1:pos=V", "s3:absent"}), "SHIFT"),
        (frozenset({"s1:pos=N", "q1:pos=V", "s3:pos=P"}), "REDUCE(1)"),
    ]
    clf = AveragedPerceptron(["REDUCE(1)", "SHIFT"], epochs=50, seed=0)
    assert clf.fit(pairs) == 3
    assert fits(clf, pairs)


def test_fit_leaves_out_pairs_labelled_two_ways():
    fittable = [
        (frozenset({"s1:pos=V"}), "b"),
        (frozenset({"s1:pos=P"}), "a"),
    ]
    conflicting = [
        (frozenset({"s1:pos=N"}), "a"),
        (frozenset({"s1:pos=N"}), "b"),
    ]
    clf = AveragedPerceptron(["a", "b"], epochs=50, seed=0)
    ran = clf.fit((fittable + conflicting) * 3)
    assert ran < 50
    assert fits(clf, fittable)


def test_fit_runs_to_the_cap_on_non_separable_data():
    # b must outscore a on {x, y} but lose to it on {x} and on {y}: no
    # weights fit all three, so no epoch is free of mistakes.
    pairs = [
        (frozenset({"q1:x"}), "a"),
        (frozenset({"q1:y"}), "a"),
        (frozenset({"q1:x", "q1:y"}), "b"),
    ]
    clf = AveragedPerceptron(["a", "b"], epochs=12, seed=0)
    assert clf.fit(pairs) == 12


predicates = st.sampled_from(
    ["s1:pos=N", "s1:pos=V", "s1:case=NOM", "s2:pos=N", "s2:absent", "q1:pos=P", "q1:absent"]
)
labelled_pairs = st.lists(
    st.tuples(st.frozensets(predicates, min_size=1, max_size=4), st.sampled_from("abc")),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(labelled_pairs, st.integers(0, 3))
def test_fit_below_the_cap_fits_every_fittable_pair(pairs, seed):
    clf = AveragedPerceptron(sorted({label for _, label in pairs}), epochs=15, seed=seed)
    if clf.fit(pairs) < 15:
        assert fits(clf, [pair for pair, ok in zip(pairs, _fittable(pairs)) if ok])


def test_fit_expands_each_pair_once(monkeypatch):
    calls = []

    def counted(features):
        calls.append(features)
        return conjoined(features)

    conjoined = learning._conjoined
    monkeypatch.setattr(learning, "_conjoined", counted)
    pairs = [
        (frozenset({"s1:pos=N", "q1:pos=V", "s3:absent"}), "SHIFT"),
        (frozenset({"s1:pos=N", "q1:pos=V", "s3:pos=P"}), "REDUCE(1)"),
    ]
    assert AveragedPerceptron(["REDUCE(1)", "SHIFT"], epochs=50, seed=0).fit(pairs) > 1
    assert len(calls) == len(pairs)


# Serialized models on two fixed corpora. A learner change that moves one
# weight or one partition's epoch count moves these hashes.
MODEL_SHA256 = {
    "hybrid-lemma": "7fcb93b7375365d2bf677e8cdc5d32e8ac93ed5a0bf5432e0ab50f4b8446cd23",
    "pure-morph6": "5db8755bb56b8984b53066445206dc0dffe730357bf82747a473f8a60c97c99e",
}


@pytest.mark.parametrize("case", sorted(MODEL_SHA256))
def test_model_is_pinned(case):
    graphs = generate(11, 100, "+phrases,+ellipsis,+disconnected").graphs
    if case == "pure-morph6":
        graphs, spec = lossless_pure_graphs(graphs), FeatureSetSpec("morph6")
    else:
        spec = FeatureSetSpec("lemma")
    text = train(graphs, spec).serialize()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MODEL_SHA256[case]


MINIMAL_MODEL = {
    "format": "hybridparse-model",
    "feature_set": "pos",
    "hyperparameters": {},
    "transitions": ["SHIFT"],
    "relations": [],
    "classifiers": {"N": {"labels": ["REDUCE(1)", "SHIFT"], "epochs": 1, "seed": 0,
                          "weights": {"SHIFT": {"q1:absent": 1.5}}}},
}


def _model_text(**changes) -> str:
    return json.dumps({**MINIMAL_MODEL, **changes})


def test_minimal_model_loads():
    clf = Model.deserialize(_model_text()).classifiers["N"]
    assert clf.score(frozenset({"q1:absent", "q1:pos=N"})) == {"REDUCE(1)": 0.0, "SHIFT": 1.5}
    assert clf.weights_by_label() == {"REDUCE(1)": {}, "SHIFT": {"q1:absent": 1.5}}


@pytest.mark.parametrize("text", [
    "{",
    "[]",
    '{"format": "hybridparse-model"}',
    _model_text(classifiers={"N": {"labels": ["SHIFT"], "epochs": 1, "seed": 0,
                                   "weights": {"REDUCE(1)": {"q1:absent": 1.0}}}}),
    _model_text(classifiers={"N": {"labels": ["SHIFT"], "epochs": 1, "seed": 0,
                                   "weights": {"SHIFT": {"q1:absent": "heavy"}}}}),
    _model_text(feature_set="mega"),
], ids=["not-json", "not-an-object", "missing-keys", "unknown-label", "text-weight",
        "unknown-feature-set"])
def test_malformed_model_raises_training_error(text):
    with pytest.raises(TrainingError):
        Model.deserialize(text)


def test_counts_record_epochs_per_partition():
    doc = generate(57, 25, "+phrases,+ellipsis,+disconnected")
    model = train(doc.graphs, FeatureSetSpec("lemma"), seed=3, epochs=30)
    ran = model.counts["epochs_per_partition"]
    assert ran.keys() == model.counts["pairs_per_partition"].keys()
    assert all(1 <= n <= 30 for n in ran.values())
    assert any(n < 30 for n in ran.values())
    reloaded = Model.deserialize(model.serialize())
    assert reloaded.counts["epochs_per_partition"] == ran
    assert all(clf.epochs == 30 for clf in reloaded.classifiers.values())


def test_training_deterministic_and_serializable(tmp_path):
    doc = generate(52, 30, "+phrases,+ellipsis")
    spec = FeatureSetSpec("lemma")
    a = train(doc.graphs, spec, seed=7).serialize()
    b = train(doc.graphs, spec, seed=7).serialize()
    assert a == b
    model = Model.deserialize(a)
    assert model.feature_set.name == "lemma"
    assert model.hyperparameters["penalty_c"] == 0.5
    assert model.hyperparameters["kernel_degree"] == 2
    # a reloaded model predicts identically
    doc2 = generate(53, 5, "+phrases,+ellipsis")
    fresh = train(doc.graphs, spec, seed=7)
    for gold in doc2.graphs:
        g1, _ = parse_integrated(model, gold.segments)
        g2, _ = parse_integrated(fresh, gold.segments)
        assert g1 == g2


def test_memorization_single_graph(english_tags):
    gold = load_graph("english/fig_9_2.conllx", english_tags)
    model = train([gold], FeatureSetSpec("pos"), seed=0, tags=english_tags)
    config = initial(gold.segments)
    assert predict(model, config, english_tags) == Shift()
    parsed, report = parse_integrated(model, gold.segments, english_tags)
    assert parsed == gold


def test_predict_is_always_legal():
    doc = generate(54, 20, "+phrases,+ellipsis")
    model = train(doc.graphs, FeatureSetSpec("lemma"), seed=2, epochs=3)
    from hybridparse.transitions import legal

    for gold in doc.graphs[:5]:
        config = initial(gold.segments)
        for _ in range(40):
            if config.is_terminal_state():
                break
            t = predict(model, config)
            assert legal(config, t)
            config = apply(config, t)


def test_predict_fallback_on_empty_model():
    doc = generate(55, 3, "pure")
    model = train(doc.graphs, FeatureSetSpec("pos"), seed=0, epochs=1)
    config = initial([seg(1, "INL")])  # partition never seen in training
    config = apply(config, Shift())
    assert predict(model, config) == Reduce(1)


def test_train_empty_corpus_rejected():
    with pytest.raises(TrainingError):
        train([], FeatureSetSpec("pos"))


def test_unreachable_graphs_excluded():
    doc = generate(56, 40, "+non-projective")
    model = train(doc.graphs, FeatureSetSpec("lemma"), seed=0, epochs=2)
    counts = model.counts
    assert counts["graphs_used"] + counts["graphs_excluded"] == 40
    from hybridparse.synth import is_nonprojective

    assert counts["graphs_excluded"] == sum(
        1 for g in doc.graphs if is_nonprojective(g)
    )


def test_memorization_small_corpus():
    doc = generate(57, 25, "+phrases,+ellipsis,+disconnected")
    model = train(doc.graphs, FeatureSetSpec("lemma"), seed=3)
    for gold in doc.graphs:
        parsed, _ = parse_integrated(model, gold.segments)
        assert elas(gold, parsed).f1 == 1


def _looping_model() -> Model:
    """A verb on top always inserts EMPTY(N), which then always pops."""
    verb = AveragedPerceptron(["EMPTY(N)", "SHIFT"])
    verb.load({"EMPTY(N)": {"s1:pos=V": 1.0}})
    noun = AveragedPerceptron(["REDUCE(1)", "SHIFT"])
    noun.load({"REDUCE(1)": {"s1:pos=N": 1.0}})
    labels = ["EMPTY(N)", "REDUCE(1)", "SHIFT"]
    return Model(FeatureSetSpec("pos"), labels, {"V": verb, "N": noun})


def test_budget_exhaustion_drains_to_a_valid_graph():
    graph, report = parse_integrated(_looping_model(), [seg(1, "V")])
    assert report.budget_exhausted
    assert report.predictive_steps == 24 == step_budget(1)
    assert report.trace[report.predictive_steps:] == [Reduce(1), Reduce(1)]
    assert len(graph.terminals) == 13
    assert graph.validate() == []
