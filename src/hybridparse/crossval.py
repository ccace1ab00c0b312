"""K-fold cross-validation with aggregate-then-score reporting.

The corpus is shuffled once with a seeded generator, sliced into
contiguous folds, and each fold is scored by a model trained on its
complement. True-positive, gold and predicted edge counts are summed
across folds before computing precision/recall/F1; this differs from
averaging per-fold F1 scores and is the only aggregation offered.
"""

from __future__ import annotations

import random

from .convert import lossless_pure_graphs
from .engine import parse_integrated, parse_multi_step
from .learning import DEFAULT_EPOCHS, FeatureSetSpec, train
from .metrics import EvalReport, elas
from .vocab import DEFAULT_TAGS, TagSet

PIPELINES = ("integrated", "multistep")


def evaluate_split(
    train_graphs,
    eval_graphs,
    spec: FeatureSetSpec,
    pipeline: str,
    seed: int,
    tags: TagSet = DEFAULT_TAGS,
    epochs: int = DEFAULT_EPOCHS,
) -> EvalReport:
    """Train on one split and score ELAS counts on the other."""
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    if pipeline == "multistep":
        converted = lossless_pure_graphs(train_graphs, tags)
        model = train(converted, spec, seed=seed, epochs=epochs, tags=tags)
        parse = parse_multi_step
    else:
        model = train(list(train_graphs), spec, seed=seed, epochs=epochs, tags=tags)
        parse = parse_integrated
    reports = []
    for gold in eval_graphs:
        predicted, _ = parse(model, gold.segments, tags)
        reports.append(elas(gold, predicted))
    return EvalReport.combine(reports)


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
    order = list(range(len(graphs)))
    random.Random(seed).shuffle(order)
    shuffled = [graphs[i] for i in order]
    slices = []
    base, extra = divmod(len(shuffled), folds)
    start = 0
    for k in range(folds):
        size = base + (1 if k < extra else 0)
        slices.append(shuffled[start : start + size])
        start += size
    fold_reports = []
    for k in range(folds):
        train_graphs = [g for j, s in enumerate(slices) if j != k for g in s]
        fold_reports.append(
            evaluate_split(train_graphs, slices[k], spec, pipeline, seed, tags, epochs)
        )
    return EvalReport.combine(fold_reports)
