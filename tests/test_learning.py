import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import replace

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
from hybridparse import features, learning, transitions
from hybridparse.engine import parse_integrated, parse_multi_step
from hybridparse.features import EDGE_PAIRS, FEATURE_SETS, SLOTS, Vocabulary, _static_predicates
from hybridparse.graph import EmptyCategory, HybridGraph, Phrase, mask_span
from hybridparse.learning import (
    AveragedPerceptron,
    TrainingError,
    featurize,
    training_pairs,
)
from hybridparse.oracle import oracle_sequence, step_budget
from hybridparse.vocab import COPULA_GROUP, DEFAULT_TAGS
from hybridparse.metrics import elas
from hybridparse.transitions import LeftArc, RightArc, successor

from conftest import concatenate, corpora, load_graph, pinned_model, record_calls


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
        config = initial(gold.segments)
        from hybridparse.oracle import oracle_sequence

        for t in oracle_sequence(gold).sequence:
            vectors = [extract_features(config, s) for s in specs]
            for smaller, larger in zip(vectors, vectors[1:]):
                assert smaller <= larger
            config = apply(config, t)


def _conjoined(features) -> list:
    """A predicate set expanded as the learner expands it: its predicates
    in sorted order, then each s1 x s2 conjunction string."""
    items = sorted(features)
    s1 = [f for f in items if f.startswith("s1:")]
    s2 = [f for f in items if f.startswith("s2:")]
    return items + [f"{a}&{b}" for a in s1 for b in s2]


def _fit(clf, pairs) -> int:
    """Fit a classifier to (predicate set, label) pairs, each set given as
    the bits of a growing vocabulary."""
    vocabulary = Vocabulary(grow=True)
    return clf.fit([(vocabulary.encode(feats), label) for feats, label in pairs], vocabulary.names)


def _score(clf, feats) -> dict:
    """A classifier's scores of a predicate set: the key of its known
    predicates, over its vocabulary or, unbound, over one of its own."""
    if clf.vocabulary is None:
        clf.bind(Vocabulary(sorted(clf.predicates)))
    return clf.score(clf.vocabulary.encode(feats) & clf.known)


def test_perceptron_learns_separable_data():
    clf = AveragedPerceptron(["a", "b"], epochs=10, seed=1)
    rows = [
        (frozenset({"s1:pos=N"}), "a"),
        (frozenset({"s1:pos=V"}), "b"),
    ]
    _fit(clf, rows * 5)
    for feats, gold in rows:
        scores = _score(clf, feats)
        other = "b" if gold == "a" else "a"
        assert scores[gold] > scores[other]


def fits(clf, pairs):
    """Whether every pair's gold label scores strictly above all others."""
    for feats, gold in pairs:
        scores = _score(clf, feats)
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
    ran = _fit(clf, pairs)
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
    assert _fit(clf, pairs) == 3
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
    ran = _fit(clf, (fittable + conflicting) * 3)
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
    assert _fit(clf, pairs) == 12


def _fittable(pairs) -> list:
    """Per pair, False when its feature set also occurs with another label."""
    labels_of = {}
    for feats, label in pairs:
        labels_of.setdefault(feats, set()).add(label)
    return [len(labels_of[feats]) == 1 for feats, _ in pairs]


predicates = st.sampled_from(
    ["s1:pos=N", "s1:pos=V", "s1:case=NOM", "s2:pos=N", "s2:absent", "q1:pos=P", "q1:absent"]
)
feature_sets = st.frozensets(predicates, min_size=1, max_size=4)
labelled_pairs = st.lists(
    st.tuples(feature_sets, st.sampled_from("abc")),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(labelled_pairs, st.integers(0, 3))
def test_fit_below_the_cap_fits_every_fittable_pair(pairs, seed):
    clf = AveragedPerceptron(sorted({label for _, label in pairs}), epochs=15, seed=seed)
    if _fit(clf, pairs) < 15:
        assert fits(clf, [pair for pair, ok in zip(pairs, _fittable(pairs)) if ok])


def _reference_fit(labels, epochs, seed, pairs) -> tuple:
    """AveragedPerceptron.fit written plainly, as (epochs run, index,
    weights by label): every pair expanded, interned and scored on its own
    at every step, the weights kept per label as dicts of ints."""
    index = {}
    ids_of = []
    for feats, _ in pairs:
        ids_of.append([index.setdefault(f, len(index)) for f in _conjoined(feats)])
    raw = {label: Counter() for label in labels}
    sums = {label: Counter() for label in labels}
    fittable = _fittable(pairs)
    rng = random.Random(seed)
    order = list(range(len(pairs)))
    step = 0

    def numerators():
        return {label: {i: step * raw[label][i] - sums[label][i] for i in index.values()}
                for label in labels}

    def fits_all(weights):
        for (_, gold), ids, ok in zip(pairs, ids_of, fittable):
            scores = {label: sum(weights[label][i] for i in ids) for label in labels}
            if ok and any(scores[label] >= scores[gold] for label in labels if label != gold):
                return False
        return True

    epoch = 0
    for epoch in range(1, epochs + 1):
        rng.shuffle(order)
        mistakes = 0
        for idx in order:
            step += 1
            gold, ids = pairs[idx][1], ids_of[idx]
            scores = {label: sum(raw[label][i] for i in ids) for label in labels}
            # The best wrong label, if any; a tie goes to the lexically largest.
            best, rival = max(
                ((scores[label], label) for label in labels if label != gold),
                default=(float("-inf"), None),
            )
            if best >= scores[gold]:
                mistakes += fittable[idx]
                for i in ids:
                    raw[gold][i] += 1
                    sums[gold][i] += step
                    raw[rival][i] -= 1
                    sums[rival][i] -= step
        if not mistakes and fits_all(numerators()):
            break
    averaged = numerators()
    kept = [f for f, i in index.items() if any(averaged[label][i] for label in labels)]
    weights = {
        label: {f: averaged[label][index[f]] / step for f in kept if averaged[label][index[f]]}
        for label in labels
    }
    return epoch, {f: k for k, f in enumerate(kept)}, weights


def _hex_weights(weights: dict) -> dict:
    return {label: {f: w.hex() for f, w in row.items()} for label, row in weights.items()}


# Lemma predicates that spell a conjunction of the pool: a set holding one
# of them and a set holding "s1:lemma=x" and "s2:pos=N" intern one string.
spelling_sets = st.frozensets(
    st.one_of(
        predicates,
        st.sampled_from(["s1:lemma=x", "s1:lemma=x&s2:pos=N", "s1:lemma=x&s2:absent"]),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(spelling_sets, st.sampled_from("abc")), min_size=1, max_size=12),
    st.integers(1, 4),
    st.lists(spelling_sets, max_size=3),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_fit_matches_the_per_pair_reference(pairs, times, conflicting, seed, shuffler):
    """Repeated feature sets, mixed with sets labelled two ways, give the
    epochs, index and weights of a fit that treats every pair on its own,
    also when a lemma predicate and a conjunction intern one string; and the
    fitted classifier scores every set as the reference scorer does, so fit
    and score expand both spellings alike."""
    pairs = pairs * times + [(feats, label) for feats in conflicting for label in "ab"]
    shuffler.shuffle(pairs)
    labels = sorted({label for _, label in pairs})
    clf = AveragedPerceptron(labels, epochs=15, seed=seed)
    epoch, index, weights = _reference_fit(labels, 15, seed, pairs)
    assert _fit(clf, pairs) == epoch
    assert list(clf.index.items()) == list(index.items())
    assert _hex_weights(clf.weights_by_label()) == _hex_weights(weights)
    for feats, _ in pairs:
        assert _hex(_score(clf, feats)) == _hex(_reference_score(clf, feats))


def test_fit_decodes_no_feature_set(monkeypatch):
    """fit reads a set's predicates by bit position from the vocabulary's
    names: training a model decodes no feature set."""
    def decode(self, bits):
        raise AssertionError("fit decoded a feature set")

    monkeypatch.setattr(Vocabulary, "decode", decode)
    pairs = [
        (frozenset({"s1:pos=N", "s2:pos=V", "q1:pos=V", "s3:absent"}), "SHIFT"),
        (frozenset({"s1:pos=N", "s2:pos=N", "q1:pos=V", "s3:pos=P"}), "REDUCE(1)"),
    ] * 3
    assert _fit(AveragedPerceptron(["REDUCE(1)", "SHIFT"], epochs=50, seed=0), pairs) > 1
    model = train(generate(5, 20, PROFILE).graphs, FeatureSetSpec("lemma"))
    assert sum(model.counts["pairs_per_partition"].values()) > 100


PROFILE = "+phrases,+ellipsis,+disconnected"

# Serialized models on two fixed corpora. A learner change that moves one
# weight or one partition's epoch count moves these hashes.
MODEL_SHA256 = {
    "hybrid-lemma": "7fcb93b7375365d2bf677e8cdc5d32e8ac93ed5a0bf5432e0ab50f4b8446cd23",
    # 84% of its pairs repeat a feature set, and its V partition runs 15
    # epochs: the corpus that reuses shared scores most.
    "hybrid-pos": "bd94b6f31bcaaf9a421ef5cecff92c5b3d464d7b0d3d7de326380144b637b507",
    "pure-morph6": "5db8755bb56b8984b53066445206dc0dffe730357bf82747a473f8a60c97c99e",
}


@pytest.mark.parametrize("case", sorted(MODEL_SHA256))
def test_model_is_pinned(case):
    text = pinned_model(case).serialize()
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
        model, parse = pinned_model("pure-morph6"), parse_multi_step
    else:
        model, parse = pinned_model("hybrid-lemma"), parse_integrated
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
    ids = [clf.index[f] for f in _conjoined(features) if f in clf.index]
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
        assert _hex(_score(clf, feats)) == _hex(_reference_score(clf, feats))


@settings(max_examples=20, deadline=None)
@given(corpora)
def test_features_and_scores_match_the_reference(graphs):
    """At every configuration of the oracle's walk and of each pipeline's
    parse, scored by every classifier of the pinned models."""
    pipelines = (("hybrid-lemma", parse_integrated), ("pure-morph6", parse_multi_step))
    for case, parse in pipelines:
        model = pinned_model(case)
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
            got[lemma, pos] = _score(model.classifiers["N"], extract_features(config, model.feature_set))
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
    """The dynamic predicates read the graph's edge lists as they are: a
    long parse has learning sort no dependent edges."""
    model = pinned_model("hybrid-lemma")
    sentence = concatenate(generate(3, 30, PROFILE).graphs)
    counts: Counter = Counter()
    dependent_edges = HybridGraph.dependent_edges

    def counted_dependent_edges(self, ref):
        counts["dependent_edges from learning"] += (
            sys._getframe(1).f_globals["__name__"] == learning.__name__
        )
        return dependent_edges(self, ref)

    monkeypatch.setattr(HybridGraph, "dependent_edges", counted_dependent_edges)
    graph, report = parse_integrated(model, sentence.segments)
    assert len(report.trace) > 500 and len(graph.edges) > 100
    assert counts["dependent_edges from learning"] == 0


def test_featurization_asks_no_checked_span(monkeypatch):
    """isroot reads the working graph's yield masks: featurizing a parse
    makes no ``subgraph_span`` call, from learning or anywhere else, while a
    call on the returned graph is counted."""
    model = pinned_model("hybrid-lemma")
    sentence = concatenate(generate(3, 30, PROFILE).graphs)
    from_learning = Counter()
    subgraph_span = HybridGraph.subgraph_span

    def counted(self, ref):
        from_learning[sys._getframe(1).f_globals["__name__"] == learning.__name__] += 1
        return subgraph_span(self, ref)

    monkeypatch.setattr(HybridGraph, "subgraph_span", counted)
    graph, _ = parse_integrated(model, sentence.segments)
    assert not from_learning
    graph.subgraph_span(0)
    assert from_learning == {False: 1}


def test_training_walks_each_graph_once(monkeypatch):
    """Training pairs come from the oracle's own walk: one oracle walk per
    graph, in graph order, and one in-place ``step`` per oracle step, with no
    ``successor`` copy, where a replay of each sequence would take two."""
    graphs = generate(13, 12, PROFILE).graphs + generate(56, 10, "+non-projective").graphs
    steps = sum(len(oracle_sequence(g).sequence) for g in graphs)
    walks = record_calls(monkeypatch, learning, "oracle_sequence")
    stepped = record_calls(monkeypatch, transitions, "step")
    copies = record_calls(monkeypatch, transitions, "successor")
    model = train(graphs, FeatureSetSpec("lemma"), epochs=2)
    assert model.counts["graphs_excluded"] > 0
    assert [args[0] for args in walks] == graphs
    assert all(a is b for (a, *_), b in zip(walks, graphs))
    assert len(stepped) == steps and not copies


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
    assert _score(clf, {"q1:absent", "q1:pos=N"}) == {"REDUCE(1)": 0.0, "SHIFT": 1.5}
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
    assert predict(model, config) == Shift()
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


# The ranking memo: predict ranks a classifier's labels once per key, the
# bits of the predicates it knows, and filters by kind afterwards.


def _reference_predict(model, config, allowed_kinds=None):
    """predict with no memo: score, sort by (-score, label), filter, then
    the first legal transition or the forced one."""
    clf = model.classifiers.get(learning._partition_key(config))
    candidates = []
    if clf is not None:
        scores = _score(clf, extract_features(config, model.feature_set))
        for label, score in scores.items():
            t = model.parsed_labels[label]
            if allowed_kinds and not isinstance(t, allowed_kinds):
                continue
            candidates.append((-score, label, t))
    for _, _, t in sorted(candidates):
        if transitions.legal(config, t):
            return t
    return transitions.forced(config)


def _fresh(model: Model) -> Model:
    """The same model with empty ranking memos."""
    return Model.deserialize(model.serialize())


@settings(max_examples=20, deadline=None)
@given(corpora)
def test_predict_matches_the_reference(graphs):
    """At every configuration of each pipeline's parse, predict gives the
    reference's transition for both kind filters, from one memo per model.
    The parses run on the shared model and the checks on a fresh one, where
    the filtered call comes first, so a memo that kept filtered rankings
    would lose the other kinds."""
    pipelines = (("hybrid-lemma", parse_integrated), ("pure-morph6", parse_multi_step))
    for case, parse in pipelines:
        model = _fresh(pinned_model(case))
        for graph in graphs + [concatenate(graphs)]:
            config = initial(graph.segments)
            for t in parse(pinned_model(case), graph.segments)[1].trace:
                for kinds in (transitions.PURE_KINDS, None):
                    expected = _reference_predict(model, config, kinds)
                    assert predict(model, config, kinds) == expected
                config = successor(config, t)


def _known(clf) -> set:
    """The predicates a classifier's scores can read: each indexed string,
    and the two sides of an indexed s1 string split at any "&s2:" in it."""
    out = set(clf.index)
    for feat in clf.index:
        if feat.startswith("s1:"):
            parts = feat.split("&s2:")
            for k in range(1, len(parts)):
                out.update(("&s2:".join(parts[:k]), "s2:" + "&s2:".join(parts[k:])))
    return out


@pytest.mark.parametrize("case", ["hybrid-lemma", "pure-morph6"])
def test_a_second_parse_scores_nothing(monkeypatch, case):
    """The first parse calls no extract_features, and each classifier scores
    once per key it adds to its ranking memo, so at most once per distinct
    set of known predicates; the same parse again scores nothing."""
    model = _fresh(pinned_model(case))
    parse = parse_multi_step if case == "pure-morph6" else parse_integrated
    sentence = concatenate(generate(3, 30, PROFILE).graphs)
    described = record_calls(monkeypatch, learning, "extract_features")
    scored = []
    score = AveragedPerceptron.score

    def counted(self, key):
        scored.append(self)
        return score(self, key)

    monkeypatch.setattr(AveragedPerceptron, "score", counted)
    first, report = parse(model, sentence.segments)
    first_calls = len(scored)
    assert not described
    for clf in model.classifiers.values():
        assert sum(s is clf for s in scored) == len(clf.rankings)
    config, seen = initial(sentence.segments), set()
    for t in report.trace[: report.predictive_steps]:
        partition = learning._partition_key(config)
        clf = model.classifiers.get(partition)
        if clf is not None:
            feats = extract_features(config, model.feature_set)
            seen.add((partition, frozenset(feats & _known(clf))))
        config = successor(config, t)
    assert 0 < first_calls <= len(seen) < report.predictive_steps
    second, _ = parse(model, sentence.segments)
    assert len(scored) == first_calls
    assert _graph_lines(second) == _graph_lines(first)


def test_the_memo_tells_apart_sets_that_differ_in_a_conjunction_only():
    """No predicate below is weighted alone, so only the conjunctions tell
    the sets apart: by the s1 lemma, then by the s2 part of speech. The lemma
    z is unknown: its labels tie, and the smaller one ranks first."""
    weights = {
        "SHIFT": {"s1:lemma=x&s2:pos=V": 1.0},
        "REDUCE(1)": {"s1:lemma=y&s2:pos=V": 1.0, "s1:lemma=x&s2:pos=N": 2.0},
    }
    classifier = {"labels": ["REDUCE(1)", "SHIFT"], "epochs": 1, "seed": 0, "weights": weights}
    model = Model.deserialize(_model_text(feature_set="lemma", classifiers={"N": classifier}))
    got = []
    for pos, lemma in (("V", "x"), ("V", "y"), ("N", "x"), ("V", "x"), ("V", "z")):
        config = initial([seg(1, pos), seg(2, "N", lemma=lemma), seg(3)])
        config = apply(apply(config, Shift()), Shift())
        assert predict(model, config) == _reference_predict(model, config)
        got.append(predict(model, config))
    assert got == [Shift(), Reduce(1), Reduce(1), Shift(), Reduce(1)]


def _predictions(clf, configs) -> list:
    model = Model(FeatureSetSpec("lemma"), clf.labels, {"N": clf})
    return [predict(model, config) for config in configs]


def test_a_refit_classifier_predicts_as_a_fresh_one():
    """Fitting again clears the rankings of the old weights, also in a model
    that holds the classifier already. The second fit swaps the first one's
    labels, so the classifier knows the same predicates before and after,
    and a ranking kept from before would be found again."""
    labels = ["REDUCE(1)", "SHIFT"]
    pairs = [
        (frozenset({"s1:pos=N", "q1:pos=V"}), "SHIFT"),
        (frozenset({"s1:pos=N", "q1:pos=N"}), "REDUCE(1)"),
    ] * 3
    swapped = [(feats, labels[label == "REDUCE(1)"]) for feats, label in pairs]
    configs = [apply(initial([seg(1), seg(2, pos)]), Shift()) for pos in ("V", "N")]

    def fitted(pairs):
        clf = AveragedPerceptron(labels, epochs=5)
        _fit(clf, pairs)
        return clf

    clf = fitted(pairs)
    assert _predictions(clf, configs) == [Shift(), Reduce(1)]
    # A model made before the refit binds the refit classifier again.
    before = Model(FeatureSetSpec("lemma"), clf.labels, {"N": clf})
    known = _known(clf)
    _fit(clf, swapped)
    assert _known(clf) == known
    assert [predict(before, config) for config in configs] == [Reduce(1), Shift()]
    assert _predictions(clf, configs) == _predictions(fitted(swapped), configs) == [Reduce(1), Shift()]


def test_a_reloaded_classifier_predicts_as_a_fresh_one():
    """Loading again clears the rankings of the old weights. The second load
    negates the first one's weights, so the classifier knows the same
    predicates before and after, and a ranking kept from before would be
    found again."""
    spec = FeatureSetSpec("lemma")
    graphs = generate(21, 30, PROFILE).graphs
    vocabulary = Vocabulary(grow=True)
    triples = [t for g in graphs for t in training_pairs(g, spec, DEFAULT_TAGS, vocabulary)]
    pairs = [(feats, label) for partition, feats, label in triples if partition == "N"]
    labels = sorted({label for _, label in pairs})
    configs = []
    for graph in graphs:
        config = initial(graph.segments)
        for t in oracle_sequence(graph).sequence:
            if learning._partition_key(config) == "N":
                configs.append(config)
            config = successor(config, t)
    trained = AveragedPerceptron(labels, epochs=5)
    trained.fit(pairs, vocabulary.names)
    weights = trained.weights_by_label()
    negated = {label: {f: -w for f, w in row.items()} for label, row in weights.items()}
    fresh = AveragedPerceptron(labels)
    fresh.load(negated)
    expected = _predictions(fresh, configs)

    clf = AveragedPerceptron(labels)
    clf.load(weights)
    assert _predictions(clf, configs) != expected
    known = _known(clf)
    clf.load(negated)
    assert _known(clf) == known
    assert _predictions(clf, configs) == expected


# Predicates as bits of the model's vocabulary: featurize, the key scorer and
# predict against the string references above.


def _string_keyed_predict(model, config, memo, allowed_kinds=None):
    """predict with its memo keyed by the partition and the classifier's
    known predicates as strings, and each ranking scored by
    ``_reference_score``."""
    partition = learning._partition_key(config)
    clf = model.classifiers.get(partition)
    if clf is not None:
        feats = extract_features(config, model.feature_set)
        key = (partition, frozenset(feats & _known(clf)))
        ranking = memo.get(key)
        if ranking is None:
            scores = _reference_score(clf, feats)
            ranked = sorted((-score, label) for label, score in scores.items())
            ranking = memo[key] = [model.parsed_labels[label] for _, label in ranked]
        for t in ranking:
            if allowed_kinds and not isinstance(t, allowed_kinds):
                continue
            if transitions.legal(config, t):
                return t
    return transitions.forced(config)


@settings(max_examples=10, deadline=None)
@given(corpora)
def test_bits_keys_and_predictions_match_the_string_references(graphs):
    """At every configuration of the oracle's walk and of each pipeline's
    parse: the bits decode to extract_features's set restricted to the
    model's predicates, every classifier scores its key as the reference
    scores the set, and predict gives the string-keyed predict's transition
    for both kind filters."""
    pipelines = (("hybrid-lemma", parse_integrated), ("pure-morph6", parse_multi_step))
    for case, parse in pipelines:
        model = _fresh(pinned_model(case))
        vocabulary = model.vocabulary
        names = set(vocabulary.names)
        memo = {}
        for graph in graphs + [concatenate(graphs)]:
            parsed = parse(pinned_model(case), graph.segments)[1].trace
            for sequence in (oracle_sequence(graph).sequence, parsed):
                config = initial(graph.segments)
                for t in sequence:
                    feats = extract_features(config, model.feature_set)
                    bits = featurize(config, model.feature_set, vocabulary)
                    assert vocabulary.decode(bits) == feats & names
                    for clf in model.classifiers.values():
                        got = clf.score(bits & clf.known)
                        assert _hex(got) == _hex(_reference_score(clf, feats))
                    for kinds in (transitions.PURE_KINDS, None):
                        expected = _string_keyed_predict(model, config, memo, kinds)
                        assert predict(model, config, kinds) == expected
                    config = successor(config, t)


def test_the_vocabulary_is_every_known_predicate_in_sorted_order():
    model = pinned_model("hybrid-lemma")
    known = set().union(*(_known(clf) for clf in model.classifiers.values()))
    assert model.vocabulary.names == sorted(known)
    for clf in model.classifiers.values():
        assert model.vocabulary.decode(clf.known) == _known(clf)


@pytest.mark.parametrize("parse", [parse_integrated, parse_multi_step])
def test_the_report_counts_illegal_top_labels_and_forced_steps(parse):
    """LEFT(subj) always ranks first. It is illegal on a one-item stack and
    once s2 has its head, and the first step has no classifier:

    SHIFT (forced), SHIFT (top illegal), LEFT(subj), REDUCE(1) (top illegal,
    forced), REDUCE(1) (top illegal, forced)."""
    clf = AveragedPerceptron(["LEFT(subj)", "SHIFT"])
    clf.load({"LEFT(subj)": {"s1:pos=N": 1.0}})
    model = Model(FeatureSetSpec("pos"), clf.labels, {"N": clf})
    _, report = parse(model, [seg(1), seg(2)])
    assert [str(t) for t in report.trace] == ["SHIFT", "SHIFT", "LEFT(subj)", "REDUCE(1)", "REDUCE(1)"]
    assert (report.illegal_top_steps, report.forced_steps) == (3, 3)
    # The second step takes SHIFT, the second allowed label.
    assert report.fallback_ranks == {2: 1}


def _reference_static_bits(vocabulary, term, level) -> tuple:
    return tuple(vocabulary.encode(_static_predicates(term, slot, level)) for slot in SLOTS)


# Terminals that the synthetic corpora may lack: an empty category, a copula,
# a lemma that no vocabulary below knows, a segment without a lemma, and
# three segments of one (pos, features) tag with different lemmas, the first
# one known in slot s2 only.
_HAND_TERMINALS = [
    EmptyCategory("PRON", "huwa"),
    seg(1, "V", SP=COPULA_GROUP, lemma="kaAn"),
    seg(2, "N", Case="NOM", lemma="kitAb"),
    seg(3, "N", Case="NOM", lemma="qalam"),
    seg(4, "N", Case="NOM", lemma="unseen"),
    seg(5, "N", Case="NOM"),
]
_ONE_SLOT_LEMMA = sorted(["s2:lemma=kitAb", "s1:lemma=kaAn", "s1:pos=N", "q1:case=NOM", "s1:copula"])


@settings(max_examples=10, deadline=None)
@given(corpora)
def test_memoized_static_bits_match_their_predicates(graphs):
    """At every feature set level, over the pinned model's vocabulary, a
    hand-made fixed one and a growing one: the memoized static bits of every
    terminal in every slot are its predicates encoded, both from the memo
    and from the static_cache of the oracle's walk of the concatenation,
    featurized at every level in turn."""
    sentence = concatenate(graphs)
    terminals = list(sentence.terminals) + _HAND_TERMINALS
    levels = range(len(FEATURE_SETS))
    for names, grow in (
        (pinned_model("hybrid-lemma").vocabulary.names, False),
        (_ONE_SLOT_LEMMA, False),
        ((), True),
    ):
        vocabulary = Vocabulary(names, grow)
        for level in levels:
            memoized = [vocabulary.static_bits(term, level) for term in terminals]
            for term, bits in zip(terminals, memoized):
                assert bits == _reference_static_bits(vocabulary, term, level), (term, level)
        config = initial(sentence.segments)
        for t in oracle_sequence(sentence).sequence:
            for level in levels:
                featurize(config, FeatureSetSpec(FEATURE_SETS[level]), vocabulary)
                for term, bits in zip(config.terminals, config.static_cache):
                    if bits is not None:
                        assert bits == _reference_static_bits(vocabulary, term, level), (term, level)
            config = successor(config, t)


def test_a_parse_builds_static_strings_once_per_memo_key(monkeypatch):
    """A terminal's static predicate strings are built once per slot and
    distinct (level, pos, features, known lemma or None), not once per
    terminal of each walk."""
    model = _fresh(pinned_model("hybrid-lemma"))
    sentence = concatenate(generate(3, 30, PROFILE).graphs)
    names = set(model.vocabulary.names)
    built = record_calls(monkeypatch, features, "_static_predicates")
    parse_integrated(model, sentence.segments)

    def key(term, slot, level):
        if isinstance(term, EmptyCategory):
            return slot, level, term.pos, (), None
        known = any(f"{s}:lemma={term.lemma}" in names for s in SLOTS)
        return slot, level, term.pos, term.features, term.lemma if known else None

    counts = Counter(key(*args) for args in built)
    assert len(sentence.segments) > 100 and counts
    assert max(counts.values()) == 1


def test_the_static_memo_does_not_grow_with_word_types():
    """Parsing the same sentence again with a fresh lemma on every segment
    adds at most one memo entry per (pos, features) tag, keyed without a
    lemma, and the memo keeps at most the tags times (the known lemmas + 1)
    entries."""
    model = _fresh(pinned_model("hybrid-lemma"))
    vocabulary = model.vocabulary
    segments = concatenate(generate(3, 30, PROFILE).graphs).segments
    memo = vocabulary.static[model.feature_set.level]
    parse_integrated(model, segments)
    first = set(memo)
    renamed = [replace(term, lemma=f"fresh{i}") for i, term in enumerate(segments)]
    parse_integrated(model, renamed)
    added = set(memo) - first
    assert first and added
    assert all(lemma is None for _, _, lemma in added)
    assert {lemma for _, _, lemma in memo} - {None} <= vocabulary.lemmas
    tags = {(pos, feats) for pos, feats, _ in memo}
    assert len(memo) <= len(tags) * (len(vocabulary.lemmas) + 1)
    assert sum(map(len, vocabulary.static)) == len(memo)


def test_fit_sums_again_only_the_rows_an_update_changed(monkeypatch):
    """An update changes the gold and the rival label's rows, and a reused
    set sums again only the rows changed since it was last brought up to
    date. Recomputing every row of a set after any update made 42,740 row
    sums on this corpus."""
    sums = Counter()
    getter = learning._getter

    def counting(ids):
        get = getter(ids)

        def counted(row):
            sums["rows"] += 1
            return get(row)

        return counted

    monkeypatch.setattr(learning, "_getter", counting)
    model = train(generate(13, 40, PROFILE).graphs, FeatureSetSpec("lemma"))
    assert max(model.counts["epochs_per_partition"].values()) > 2
    assert sums["rows"] <= 23_976


@pytest.mark.parametrize("case", ["hybrid-lemma", "pure-morph6"])
def test_a_parse_featurizes_only_for_classifiers_that_read_a_bit(monkeypatch, case):
    """A classifier that knows no predicate, like those of the empty stack,
    CONJ and RSLT here, keys every configuration as 0, so predict does not
    featurize for it."""
    model = _fresh(pinned_model(case))
    parse = parse_multi_step if case == "pure-morph6" else parse_integrated
    sentence = concatenate(generate(3, 30, PROFILE).graphs)
    featurized = record_calls(monkeypatch, learning, "featurize")
    _, report = parse(model, sentence.segments)
    config, reads = initial(sentence.segments), Counter()
    for t in report.trace[: report.predictive_steps]:
        clf = model.classifiers.get(learning._partition_key(config))
        if clf is not None:
            reads[bool(clf.known)] += 1
        config = successor(config, t)
    assert reads[False] > 0
    assert len(featurized) == reads[True]


def test_the_id_memos_hold_at_most_one_entry_per_ranking_and_bind_empties_them():
    """A ranking-memo miss adds at most one entry to each run memo and to
    the conjunction memo, and misses share entries."""
    model = _fresh(pinned_model("hybrid-lemma"))
    parse_integrated(model, concatenate(generate(3, 30, PROFILE).graphs).segments)
    for clf in model.classifiers.values():
        memos = [memo for _, memo in clf.expansion.runs] + [clf.expansion.conjunctions]
        assert all(len(memo) <= len(clf.rankings) for memo in memos)
    n = model.classifiers["N"]
    runs = n.expansion.runs
    assert len(n.rankings) > 100 and min(len(memo) for _, memo in runs) < len(n.rankings) / 2
    model.bind()
    for clf in model.classifiers.values():
        assert not clf.rankings and not clf.expansion.conjunctions
        assert not any(memo for _, memo in clf.expansion.runs)


def test_the_runs_cover_the_bits_with_an_id_one_per_prefix():
    """Each bound classifier's runs cover exactly its bits that have an id,
    one run per name prefix, in position order."""
    model = _fresh(pinned_model("hybrid-lemma"))
    names = model.vocabulary.names
    prefixes = set()
    for clf in model.classifiers.values():
        masks = [mask for mask, _ in clf.expansion.runs]
        covered = [p for mask in masks for p in features.positions(mask)]
        assert covered == sorted(model.vocabulary.ids[f] for f in clf.index)
        heads = [names[features.positions(mask)[0]].partition(":")[0] for mask in masks]
        assert len(set(heads)) == len(heads)
        for mask, head in zip(masks, heads):
            assert {names[p].partition(":")[0] for p in features.positions(mask)} == {head}
        prefixes.update(heads)
    assert len(prefixes) > 1


_RUNS = st.builds(lambda start, length: ((1 << length) - 1) << start, st.integers(0, 300), st.integers(1, 300))


@given(st.one_of(_RUNS, st.integers(1, (1 << 600) - 1)))
def test_the_inline_root_test_is_mask_span(mask):
    """featurize sets s1:isroot on a headless node exactly when its yield
    mask is one run."""
    vocabulary = Vocabulary(["s1:isroot"])
    config = apply(initial([seg(1), seg(2)]), Shift())
    config.masks[0] = mask
    assert featurize(config, FeatureSetSpec("pos"), vocabulary) == (mask_span(mask) is not None)
