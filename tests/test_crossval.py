"""Cross-validation: folds partition the corpus and counts are pooled."""

import random

from hybridparse import crossval
from hybridparse.learning import FeatureSetSpec
from hybridparse.metrics import EvalReport
from hybridparse.synth import generate

SPEC = FeatureSetSpec("lemma")


def test_report_pools_the_folds(monkeypatch):
    graphs = list(generate(8, 11, "+phrases,+ellipsis").graphs)
    folds, seed = 4, 3
    # 11 graphs in 4 folds: sizes 3, 3, 3, 2 over one seeded shuffle.
    order = list(range(len(graphs)))
    random.Random(seed).shuffle(order)
    cuts = [0, 3, 6, 9, 11]
    expected = [[graphs[i] for i in order[a:b]] for a, b in zip(cuts, cuts[1:])]

    calls = []
    real = crossval.evaluate_split

    def recording(train_graphs, eval_graphs, *args):
        calls.append((train_graphs, eval_graphs))
        return real(train_graphs, eval_graphs, *args)

    monkeypatch.setattr(crossval, "evaluate_split", recording)
    report = crossval.cross_validate(graphs, folds, SPEC, "integrated", seed=seed, epochs=3)

    sizes = [len(ev) for _, ev in calls]
    assert max(sizes) - min(sizes) <= 1
    assert [ev for _, ev in calls] == expected
    scored = [id(g) for _, ev in calls for g in ev]
    assert sorted(scored) == sorted(id(g) for g in graphs)
    for train_graphs, eval_graphs in calls:
        held_out = {id(g) for g in eval_graphs}
        assert sorted(map(id, train_graphs)) == sorted(
            id(g) for g in graphs if id(g) not in held_out
        )
    assert report == EvalReport.combine(
        real([g for j, f in enumerate(expected) if j != k for g in f], fold,
             SPEC, "integrated", seed, epochs=3)
        for k, fold in enumerate(expected)
    )
