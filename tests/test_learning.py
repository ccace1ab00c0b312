import functools
import hashlib
import json
import sys
from collections import Counter

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
from hybridparse.engine import parse_integrated, parse_multi_step
from hybridparse.graph import EmptyCategory, HybridGraph, Phrase
from hybridparse.learning import (
    EDGE_PAIRS,
    SLOTS,
    AveragedPerceptron,
    TrainingError,
    _fittable,
    training_pairs,
)
from hybridparse.oracle import oracle_sequence, step_budget
from hybridparse.vocab import COPULA_GROUP, DEFAULT_TAGS
from hybridparse.metrics import elas
from hybridparse.transitions import LeftArc, RightArc, successor

from conftest import concatenate, corpora, load_graph


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


def _slot_ref(config, slot: str):
    """The node in a slot, or None when it is empty: the slots that
    ``extract_features`` reads by position, defined by name."""
    items = config.queue if slot == "q1" else config.stack[int(slot[1]) - 1 :]
    return items[0] if items else None


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


PROFILE = "+phrases,+ellipsis,+disconnected"

# Serialized models on two fixed corpora. A learner change that moves one
# weight or one partition's epoch count moves these hashes.
MODEL_SHA256 = {
    "hybrid-lemma": "7fcb93b7375365d2bf677e8cdc5d32e8ac93ed5a0bf5432e0ab50f4b8446cd23",
    "pure-morph6": "5db8755bb56b8984b53066445206dc0dffe730357bf82747a473f8a60c97c99e",
}


@functools.lru_cache(maxsize=None)
def _pinned_model(case: str) -> Model:
    """The model MODEL_SHA256 pins, trained once and shared by the tests."""
    graphs = generate(11, 100, PROFILE).graphs
    if case == "pure-morph6":
        return train(lossless_pure_graphs(graphs), FeatureSetSpec("morph6"))
    return train(graphs, FeatureSetSpec("lemma"))


@pytest.mark.parametrize("case", sorted(MODEL_SHA256))
def test_model_is_pinned(case):
    text = _pinned_model(case).serialize()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MODEL_SHA256[case]


# Each pipeline's output graphs for a held-out corpus, parsed with the pinned
# models. A change to featurization, to a score's float additions or to the
# parser's tie-breaking that moves one edge moves these hashes.
PARSE_SHA256 = {
    "integrated": "ba0bd44c4a434692da6ecf6ed988332b3d52fc589aacbd70496e3b3f1048e3f8",
    "multistep": "a9c29eefcb34e9f6d5bd1383dde0e47c445fe7f5d623894f5b6aacd2d4ab329b",
}


def _graph_lines(graph: HybridGraph) -> list:
    """A graph as text: its terminals, then its sorted phrases and edges."""
    return (
        [repr(t) for t in graph.terminals]
        + [repr(p) for p in sorted(graph.phrases)]
        + sorted(repr(e) for e in graph.edges)
    )


@pytest.mark.parametrize("pipeline", sorted(PARSE_SHA256))
def test_parse_outputs_are_pinned(pipeline):
    held_out = generate(12, 40, PROFILE).graphs
    sentences = held_out + [concatenate(held_out[:20]), concatenate(held_out[20:])]
    if pipeline == "multistep":
        model, parse = _pinned_model("pure-morph6"), parse_multi_step
    else:
        model, parse = _pinned_model("hybrid-lemma"), parse_integrated
    lines = []
    for gold in sentences:
        lines.extend(_graph_lines(parse(model, gold.segments)[0]))
        lines.append("")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == PARSE_SHA256[pipeline]


# The featurizer and the scorer written plainly, as references that
# extract_features and AveragedPerceptron.score must reproduce exactly: a
# dict of slot refs, a feature_map per slot, the sorted dependent edges, and
# every s1 x s2 conjunction built as a string and looked up.
_MORPH6 = ("Voice", "Mood", "Case", "State")
_MORPH9 = ("PronType", "SegType")
_PHI = ("Person", "Gender", "Number")


def _reference_static(config, slot, ref, spec):
    if ref is None:
        return [f"{slot}:absent"]
    if isinstance(ref, Phrase):
        return [f"{slot}:phrase={ref.tag}"]
    term = config.graph.terminals[ref]
    out = [f"{slot}:pos={term.pos}"]
    if isinstance(term, EmptyCategory):
        return out
    feats = term.feature_map
    if spec.level >= 1:
        out += [f"{slot}:{key.lower()}={feats[key]}" for key in _MORPH6 if key in feats]
    if spec.level >= 2:
        out += [f"{slot}:{key.lower()}={feats[key]}" for key in _MORPH9 if key in feats]
        if feats.get("SP") == COPULA_GROUP:
            out.append(f"{slot}:copula")
    if spec.level >= 3 and term.lemma:
        out.append(f"{slot}:lemma={term.lemma}")
    if spec.level >= 4:
        out += [f"{slot}:{key.lower()}={feats[key]}" for key in _PHI if key in feats]
    return out


def _reference_dynamic(config, slot, ref):
    if ref is None:
        return []
    graph = config.graph
    out = [f"{slot}:deprel({edge.relation})" for edge in graph.dependent_edges(ref)]
    if graph.head_of(ref) is None and graph.subgraph_span(ref) is not None:
        out.append(f"{slot}:isroot")
    return out


def _reference_features(config, spec) -> frozenset:
    refs = {slot: _slot_ref(config, slot) for slot in SLOTS}
    out = []
    for slot in SLOTS:
        out += _reference_static(config, slot, refs[slot], spec)
        out += _reference_dynamic(config, slot, refs[slot])
    graph = config.graph
    for a, b in EDGE_PAIRS:
        ra, rb = refs[a], refs[b]
        if ra is None or rb is None:
            continue
        if any(e.head == rb for e in graph.head_edges(ra)) or any(
            e.head == ra for e in graph.head_edges(rb)
        ):
            out.append(f"graph:edge({a},{b})")
    return frozenset(out)


def _reference_score(clf, features) -> dict:
    """Per label, the weights of the sorted features and then of each s1 x s2
    conjunction string, added one at a time."""
    items = sorted(features)
    expanded = items + [
        f"{a}&{b}" for a in items if a.startswith("s1:") for b in items if b.startswith("s2:")
    ]
    ids = [clf.index[f] for f in expanded if f in clf.index]
    scores = {}
    for label, row in zip(clf.labels, clf.rows):
        total = 0.0
        for i in ids:
            total += row[i]
        scores[label] = total
    return scores


def _hex(scores: dict) -> dict:
    return {label: value.hex() for label, value in scores.items()}


def assert_matches_the_reference(model, config):
    feats = extract_features(config, model.feature_set)
    assert feats == _reference_features(config, model.feature_set)
    for clf in model.classifiers.values():
        assert _hex(clf.score(feats)) == _hex(_reference_score(clf, feats))


@settings(max_examples=20, deadline=None)
@given(corpora)
def test_features_and_scores_match_the_reference(graphs):
    """At every configuration of the oracle's walk and of each pipeline's
    parse, scored by every classifier of the pinned models."""
    pipelines = (("hybrid-lemma", parse_integrated), ("pure-morph6", parse_multi_step))
    for case, parse in pipelines:
        model = _pinned_model(case)
        for graph in graphs + [concatenate(graphs)]:
            parsed = parse(model, graph.segments)[1].trace
            for sequence in (oracle_sequence(graph).sequence, parsed):
                config = initial(graph.segments)
                for t in sequence:
                    assert_matches_the_reference(model, config)
                    config = successor(config, t)


def test_conjunctions_are_found_at_every_split():
    """A lemma may hold "&", even "&s2:", so one stored string can be the
    conjunction of more than one s1 and s2 predicate pair."""
    weights = {
        "s1:lemma=x&y": 1.0,
        "s1:lemma=x&y&s2:pos=N": 2.0,
        # The lemma "x&s2:pos=N" alone, or the lemma x with s2:pos=N.
        "s1:lemma=x&s2:pos=N": 4.0,
        # The lemma "x&s2:pos=N" with s2:pos=V: found at the second split.
        "s1:lemma=x&s2:pos=N&s2:pos=V": 8.0,
        "s1:lemma=x&s2:pos=N&s2:pos=N": 16.0,
    }
    classifier = {"labels": ["REDUCE(1)", "SHIFT"], "epochs": 1, "seed": 0,
                  "weights": {"SHIFT": weights, "REDUCE(1)": {"s2:pos=V": 0.5}}}
    model = Model.deserialize(_model_text(feature_set="lemma", classifiers={"N": classifier}))
    got = {}
    for lemma in ("x", "x&y", "x&s2:pos=N"):
        for pos in ("N", "V"):
            config = initial([seg(1, pos), seg(2, "N", lemma=lemma)])
            config = apply(apply(config, Shift()), Shift())
            assert_matches_the_reference(model, config)
            got[lemma, pos] = model.classifiers["N"].score(extract_features(config, model.feature_set))
    assert got["x", "N"]["SHIFT"] == 4.0
    assert got["x&y", "N"]["SHIFT"] == 1.0 + 2.0
    assert got["x&s2:pos=N", "N"]["SHIFT"] == 4.0 + 16.0
    assert got["x&s2:pos=N", "V"]["SHIFT"] == 4.0 + 8.0


def test_a_repeated_feature_key_is_rejected():
    """A segment holds one value per feature key, so ``feature``,
    ``feature_map``, the predicates and a written row all agree."""
    with pytest.raises(ValueError, match="repeated feature key 'SP'"):
        MorphSegment(
            Location(6, 1, 1), "w1", "V",
            (("SP", "kaAn"), ("SegType", "stem"), ("SP", "laysa")),
        )


def test_parsing_expands_no_feature_set_and_sorts_no_edges(monkeypatch):
    """Scoring finds conjunctions in the classifier's pair table, and the
    dynamic predicates read the graph's edge lists as they are: a long parse
    builds no conjunction string and has learning sort no dependent edges."""
    model = _pinned_model("hybrid-lemma")
    sentence = concatenate(generate(3, 30, PROFILE).graphs)
    counts: Counter = Counter()
    conjoined = learning._conjoined
    dependent_edges = HybridGraph.dependent_edges

    def counted_conjoined(features):
        counts["_conjoined"] += 1
        return conjoined(features)

    def counted_dependent_edges(self, ref):
        counts["dependent_edges from learning"] += (
            sys._getframe(1).f_globals["__name__"] == learning.__name__
        )
        return dependent_edges(self, ref)

    monkeypatch.setattr(learning, "_conjoined", counted_conjoined)
    monkeypatch.setattr(HybridGraph, "dependent_edges", counted_dependent_edges)
    graph, report = parse_integrated(model, sentence.segments)
    assert len(report.trace) > 500 and len(graph.edges) > 100
    assert counts["_conjoined"] == 0
    assert counts["dependent_edges from learning"] == 0


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
