"""K-fold cross-validation with aggregate-then-score reporting.

The corpus is shuffled once with a seeded generator, sliced into
contiguous folds, and each fold is scored by a model trained on its
complement. True-positive, gold and predicted edge counts are summed
across folds before computing precision/recall/F1; this differs from
averaging per-fold F1 scores and is the only aggregation offered.

Once per call, each graph is put in the pipeline's training form (the
multi-step pipeline converts it to pure dependency, dropping it when that is
lossy), walked once by the oracle for its training pairs, featurized over
one growing vocabulary, and serialized once for the corpus fingerprint
(``treebank_blocks``). Once per fold, a model is fitted to the other folds'
pairs in shuffled order, as ``train`` would fit it (``train_from_pairs``),
and the held-out graphs are parsed.
"""

from __future__ import annotations

import random

from .convert import lossless_pure_graphs
from .engine import parse_integrated, parse_multi_step
from .learning import (
    DEFAULT_EPOCHS,
    FeatureSetSpec,
    Vocabulary,
    train_from_pairs,
    training_pairs,
    treebank_blocks,
)
from .metrics import EvalReport, elas
from .vocab import DEFAULT_TAGS, TagSet

PIPELINES = ("integrated", "multistep")


def cross_validate(
    corpus,
    folds: int,
    spec: FeatureSetSpec,
    pipeline: str,
    seed: int = 0,
    tags: TagSet = DEFAULT_TAGS,
    epochs: int = DEFAULT_EPOCHS,
) -> EvalReport:
    graphs = list(corpus.graphs if hasattr(corpus, "graphs") else corpus)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(graphs) < folds:
        raise ValueError("corpus smaller than the number of folds")
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    shuffled = list(graphs)
    random.Random(seed).shuffle(shuffled)
    base, extra = divmod(len(shuffled), folds)
    cuts = [k * base + min(k, extra) for k in range(folds + 1)]
    slices = [shuffled[a:b] for a, b in zip(cuts, cuts[1:])]
    multistep = pipeline == "multistep"
    forms = [lossless_pure_graphs(s, tags) for s in slices] if multistep else slices
    parse = parse_multi_step if multistep else parse_integrated
    vocabulary = Vocabulary(grow=True)
    pairs = [[training_pairs(g, spec, tags, vocabulary) for g in form] for form in forms]
    blocks = [treebank_blocks(form) for form in forms]
    reports = []
    for k, held_out in enumerate(slices):
        rest = [j for j in range(folds) if j != k]
        model = train_from_pairs(
            [g for j in rest for g in forms[j]],
            [p for j in rest for p in pairs[j]],
            vocabulary,
            [b for j in rest for b in blocks[j]],
            spec,
            seed,
            epochs,
        )
        for gold in held_out:
            predicted, _ = parse(model, gold.segments, tags)
            reports.append(elas(gold, predicted))
    return EvalReport.combine(reports)
