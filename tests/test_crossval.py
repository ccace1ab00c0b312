"""Cross-validation: folds partition the corpus, counts are pooled, and each
graph is converted and walked once per call."""

import hashlib
import random

import pytest

from hybridparse import convert, corpus_io, crossval, oracle
from hybridparse.convert import lossless_pure_graphs, to_pure_dependency
from hybridparse.engine import parse_integrated, parse_multi_step
from hybridparse.graph import Edge, EmptyCategory, HybridGraph, Location, MorphSegment
from hybridparse.learning import FeatureSetSpec, train
from hybridparse.metrics import EvalReport, elas
from hybridparse.synth import generate

from conftest import record_calls

SPEC = FeatureSetSpec("lemma")


def _split_report(train_graphs, eval_graphs, pipeline, seed, epochs):
    """Train on one split and score ELAS counts on the other, one split at a
    time: the reference that cross_validate's shared pairs must match."""
    if pipeline == "multistep":
        model = train(lossless_pure_graphs(train_graphs), SPEC, seed=seed, epochs=epochs)
        parse = parse_multi_step
    else:
        model = train(list(train_graphs), SPEC, seed=seed, epochs=epochs)
        parse = parse_integrated
    return EvalReport.combine(elas(g, parse(model, g.segments)[0]) for g in eval_graphs)


def _recording_folds(monkeypatch) -> list:
    """Record, per fold, the model fitted and the (gold, report) pairs
    scored, by wrapping cross_validate's fit and ELAS functions."""
    folds = []
    fit, score = crossval.train_from_pairs, crossval.elas

    def fitting(graphs, pairs, *args):
        model = fit(graphs, pairs, *args)
        folds.append((list(graphs), model, []))
        return model

    def scoring(gold, predicted):
        report = score(gold, predicted)
        folds[-1][2].append((gold, report))
        return report

    monkeypatch.setattr(crossval, "train_from_pairs", fitting)
    monkeypatch.setattr(crossval, "elas", scoring)
    return folds


@pytest.mark.parametrize("pipeline", crossval.PIPELINES)
def test_report_pools_the_folds(monkeypatch, pipeline):
    graphs = list(generate(8, 11, "+phrases,+ellipsis").graphs)
    folds, seed = 4, 3
    # 11 graphs in 4 folds: sizes 3, 3, 3, 2 over one seeded shuffle.
    order = list(range(len(graphs)))
    random.Random(seed).shuffle(order)
    shuffled = [graphs[i] for i in order]
    cuts = [0, 3, 6, 9, 11]
    expected = [shuffled[a:b] for a, b in zip(cuts, cuts[1:])]

    calls = _recording_folds(monkeypatch)
    report = crossval.cross_validate(graphs, folds, SPEC, pipeline, seed=seed, epochs=3)

    held_out = [[gold for gold, _ in scored] for _, _, scored in calls]
    sizes = [len(ev) for ev in held_out]
    assert max(sizes) - min(sizes) <= 1
    assert held_out == expected
    scored = [id(g) for ev in held_out for g in ev]
    assert sorted(scored) == sorted(id(g) for g in graphs)
    for (train_graphs, _, _), eval_graphs in zip(calls, held_out):
        ids = {id(g) for g in eval_graphs}
        complement = [g for g in shuffled if id(g) not in ids]
        if pipeline == "multistep":
            assert train_graphs == lossless_pure_graphs(complement)
        else:
            assert sorted(map(id, train_graphs)) == sorted(map(id, complement))
    assert report == EvalReport.combine(
        _split_report([g for j, f in enumerate(expected) if j != k for g in f], fold,
                      pipeline, seed, epochs=3)
        for k, fold in enumerate(expected)
    )


def _seg(i, pos="N"):
    return MorphSegment(Location(3, 1, i), f"w{i}", pos, {"SegType": "stem"})


# Synth graphs, non-projective ones among which one is oracle-unreachable,
# and a graph whose pure dependency form is lossy (an empty category with
# two dependents), so that both the excluded paths are taken.
PINNED_CORPUS = (
    generate(5, 24, "+phrases,+ellipsis,+disconnected").graphs
    + generate(56, 10, "+non-projective").graphs
    + [
        HybridGraph(
            (_seg(1, "V"), EmptyCategory("N", "*"), _seg(2), _seg(3)),
            frozenset(),
            frozenset({Edge(1, 0, "circ"), Edge(2, 1, "adj"), Edge(3, 1, "adj")}),
        )
    ]
)

# Per fold, the sha256 of the serialized fold model and of its held-out
# graphs' ELAS counts ("tp gold predicted" per graph), for 3 folds, seed 2
# and the default epoch cap. Computed when each fold trained from scratch.
FOLD_SHA256 = {
    "integrated": [
        ("9b9475fbbf709f81d80c2af6f67aad52031b6463111a8ffc05b299351a678e91",
         "06f9c97ddc78e86a906015c18e3aeebec3930c8b588768eec73fdeb786509e39"),
        ("6fe9598ee3b5819e9de353d99b61b0a1e79cef11c28af15384f8d08f8bfa2197",
         "918d6c2e9f4f87c02fe09b33a6e1a905fff5bdd6ae9feef8ce300f1ea8abaab6"),
        ("77860b331c2b2e010871af6edf5448cb6dfe94870a8dd50a9971865201ef7f8a",
         "a149060ada26273a65af2ad3a6204a66449da4edeac79a8354d874893d58473b"),
    ],
    "multistep": [
        ("9d1dab02e42f79469c64d9468c0e3dd4058d79bf8661ff27ba5e59979ae0dffa",
         "afb5959ed95df03cc0134c718e0a00ec6b36ea3b8a42aa240b5a366aa7046c3e"),
        ("b7c5ea0fca1ea9c3e7694dbe64df103c05ece1d49d2a4a268aff5027db789fa7",
         "10e91ad0bac76936eca38d18fa75ce0e49fc42d371839053e2a94fe2fb726a77"),
        ("678e465af5ccb08890b84f799e955457b8725c8282c759bf41eee579de5b0cc4",
         "a2b4641ce29b2624ee2a090e4a5e1c015dbea4d07a14a2477119f63c6cb187aa"),
    ],
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("pipeline", crossval.PIPELINES)
def test_fold_models_and_counts_are_pinned(monkeypatch, pipeline):
    calls = _recording_folds(monkeypatch)
    crossval.cross_validate(PINNED_CORPUS, 3, SPEC, pipeline, seed=2)
    assert sum(model.counts["graphs_excluded"] for _, model, _ in calls) > 0
    got = [
        (
            _sha256(model.serialize()),
            _sha256("\n".join(
                f"{r.true_positives} {r.gold_count} {r.predicted_count}" for _, r in scored
            )),
        )
        for _, model, scored in calls
    ]
    assert got == FOLD_SHA256[pipeline]


@pytest.mark.parametrize("pipeline", crossval.PIPELINES)
def test_each_graph_is_converted_and_walked_once(monkeypatch, pipeline):
    """Each graph's training form, pairs and treebank block (which the
    fold models' fingerprints hash) are derived once for all the folds, not
    once per fold that trains on it."""
    graphs = PINNED_CORPUS
    lossless = [g for g in graphs if not to_pure_dependency(g)[1].lossy]
    assert len(lossless) < len(graphs)
    walks = record_calls(monkeypatch, oracle, "oracle_sequence")
    conversions = record_calls(monkeypatch, convert, "to_pure_dependency")
    serialized = record_calls(monkeypatch, corpus_io, "dumps_treebank")
    crossval.cross_validate(graphs, 4, SPEC, pipeline, epochs=2)
    assert [len(doc.graphs) for (doc,) in serialized] == [1] * len(walks)
    assert [doc.graphs[0] for (doc,) in serialized] == [args[0] for args in walks]
    if pipeline == "multistep":
        assert sorted(id(args[0]) for args in conversions) == sorted(map(id, graphs))
        assert len(walks) == len(lossless)
    else:
        assert conversions == []
        assert sorted(id(args[0]) for args in walks) == sorted(map(id, graphs))
