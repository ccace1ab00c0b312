"""The trainable classifier bank: training, scoring and prediction.

Configurations are described by the binary predicates of ``features``, as
bits of a predicate ``Vocabulary``. One multiclass scorer is trained per
part-of-speech at the top of the stack; the reference scorer is an averaged
perceptron over the binary predicates plus explicit pairwise conjunctions
of the s1 and s2 slot predicates, standing in for a quadratic-kernel
maximum-margin machine whose hyperparameters are carried as model metadata.

Each configuration the oracle's walk visits gives one training pair
(``training_pairs``). Training featurizes with ``featurize``, as parsing
does, over one growing vocabulary per training run, so a feature set is an
int. ``train_from_pairs`` fits a model to graphs and their pairs, so
cross-validation derives each graph's pairs once. Training follows the
perceptron rule: a pair is a mistake unless its gold transition scores
strictly above every other, so a tie is a mistake. Each partition trains
until its averaged weights fit every pair whose feature set is not also
labelled with another transition, or until the epoch cap.

Each classifier interns its expanded feature strings to integer ids, once
per distinct feature set of its training pairs (``fit`` numbers the
distinct ints and decodes each one once), and holds one row of weights per
transition, indexed by id. A
feature set expands to its sorted predicates followed by each s1 x s2
conjunction ``f"{a}&{b}"`` (``_conjoined``). Training keeps the raw weights
and, per weight, the sum of each update times the step it was made at, all
as Python ints. After ``step`` steps the averaged weight is
(step * raw - sum) / step: the averaging is exact, the check that the
averaged weights fit is made on the integer numerators, and each stored
weight is one quotient rounded once. Pairs that share a feature set share
its raw scores until the next update, which the integer weights make exact
(see ``AveragedPerceptron.fit``). Model files list the weights label-major
(transition -> feature -> weight), as strings.

A classifier knows each indexed string, conjunctions included, since a
lemma predicate may spell one, and each s1 and s2 predicate of its pair
table (``_pair_table``). The table registers each indexed string that
starts with "s1:" at every "&s2:" in it, since a lemma may hold "&s2:" as
well; so (a, b) is in the table exactly when ``f"{a}&{b}"`` is indexed. The
``Model`` numbers every predicate any of its classifiers knows, in sorted
order, as its ``vocabulary``: bit p of a key is ``vocabulary.names[p]``. It
binds each classifier to it, and the classifier keeps ``known``, the int of
its bits, and its ids and pair table by bit position.

A score reads a key: the bits of a set's known predicates. It takes the ids
of the key's bits in ascending order, then, for each bit with a pair row in
ascending order, the row's hits among the key's s2 bits in ascending order.
The vocabulary is numbered in sorted predicate order, so ascending bits are
the sorted predicates and this is the expanded order of ``_conjoined``
without its strings. A transition's weights are added one at a time in that
order. Float addition is not associative, so the order fixes the result;
``sum()`` is never used, as its float rounding differs between Python
versions.

Parsing ranks each distinct key once per classifier. ``predict`` featurizes
over the model's vocabulary, where a predicate no classifier knows gets no
bit, and keys ``rankings`` by ``bits & clf.known``, which maps a key to the
labels as transitions, best first. This is exact: a score reads only the
known predicates, so two sets with one key give the same ids in the same
order and bit-identical sums. ``predict`` scores the key itself on a miss,
skips the kinds ``allowed_kinds`` excludes after the ranking, so that one
memo serves both pipelines, and returns the first legal transition.
``fit`` and ``load`` unbind a classifier, binding clears its memo, and
``predict`` binds the model again when a classifier is not bound to its
vocabulary. The memo otherwise grows by one entry per distinct key.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .corpus_io import TreebankDocument, dumps_treebank
# extract_features, SLOTS and EDGE_PAIRS are re-exported: the benchmark's
# tracer rebinds ``learning.extract_features`` by name.
from .features import (
    EDGE_PAIRS,
    SLOTS,
    FeatureSetSpec,
    Vocabulary,
    extract_features,
    featurize,
    positions,
)
from .graph import HybridGraph, Phrase
from .oracle import oracle_sequence
from .transitions import (
    Configuration,
    Transition,
    forced,
    legal,
    parse_transition,
)
from .vocab import DEFAULT_TAGS, TagSet, parse_label

# Stands in for the gold label's score, so that max() gives the best wrong one.
_BELOW_ALL = float("-inf")

# Cap on training epochs per partition. It bounds the work on partitions that
# never fit; those that fit stop earlier (see AveragedPerceptron.fit).
DEFAULT_EPOCHS = 50

HYPERPARAMETERS = {
    "penalty_c": 0.5,
    "termination_epsilon": 1,
    "kernel_gamma": 0.2,
    "kernel_r": 0,
    "kernel_degree": 2,
}


class TrainingError(Exception):
    pass


def _conjoined(features: frozenset) -> List[str]:
    """Feature vector expanded with s1 x s2 predicate conjunctions."""
    items = sorted(features)
    s1 = [f for f in items if f.startswith("s1:")]
    s2 = [f for f in items if f.startswith("s2:")]
    out = list(items)
    for a in s1:
        for b in s2:
            out.append(f"{a}&{b}")
    return out


def _pair_table(index: Dict[str, int]) -> Dict[str, Dict[str, int]]:
    """s1 predicate -> s2 predicate -> id of the indexed ``f"{a}&{b}"``.

    An indexed string is registered at every "&s2:" it holds, because a
    lemma may contain "&s2:" too: (a, b) is registered for a string exactly
    when the string is a + "&" + b."""
    pairs: Dict[str, Dict[str, int]] = {}
    for feat, i in index.items():
        if not feat.startswith("s1:"):
            continue
        at = feat.find("&s2:")
        while at >= 0:
            pairs.setdefault(feat[:at], {})[feat[at + 1 :]] = i
            at = feat.find("&s2:", at + 1)
    return pairs


class AveragedPerceptron:
    """One-vs-rest averaged perceptron over sparse binary features.

    ``epochs`` caps the passes over the data; ``fit`` stops earlier once the
    weights it returns fit every pair that can be fitted.
    """

    def __init__(self, labels: Sequence[str], epochs: int = DEFAULT_EPOCHS, seed: int = 0):
        self.labels = list(labels)
        self.epochs = epochs
        self.seed = seed
        # Expanded feature -> id, and per label its weights by id.
        self.index: Dict[str, int] = {}
        self.rows: List[List[float]] = [[] for _ in self.labels]
        # s1 predicate -> s2 predicate -> id of their conjunction, and every
        # predicate a score reads.
        self.pairs: Dict[str, Dict[str, int]] = {}
        self.predicates: frozenset = frozenset()
        self._unbind()

    def fit(self, pairs: Sequence[Tuple[int, str]], decode: Callable[[int], frozenset]) -> int:
        """Train on (features, label) pairs and return the epochs run. The
        features are an int that ``decode`` maps to a set of predicates.

        A pair is a mistake, and updates the weights, unless its gold label
        scores strictly above the best wrong label, so a tie is a mistake.
        Training stops after an epoch with no mistakes once the averaged
        weights fit every pair too; they lag behind the raw weights and may
        need further epochs. Pairs whose feature set also occurs with another
        label can never be fitted: they are trained on but left out of both
        checks.

        Each distinct feature set is numbered in order of first appearance
        and decoded, expanded, interned and given its getter once, so the
        index is the one a pass pair by pair would build. Pairs that share a set share its
        raw scores: they are kept with the number of updates made when they
        were computed and reused until the next mistake updates the weights.
        The raw weights are ints, so a reused sum is the sum recomputed. The
        averaged-weights check scores each fittable set once, since all the
        pairs of such a set carry its one label.
        """
        number: dict = {}
        set_of = [number.setdefault(feats, len(number)) for feats, _ in pairs]
        index: Dict[str, int] = {}
        ids_of = [
            [index.setdefault(f, len(index)) for f in _conjoined(decode(key))]
            for key in number
        ]
        getters = [_getter(ids) for ids in ids_of]
        position = {label: j for j, label in enumerate(self.labels)}
        golds = [position[label] for _, label in pairs]
        # Per set, its labels: one labelled two ways can never be fitted.
        labelled: List[set] = [set() for _ in number]
        for k, gold in zip(set_of, golds):
            labelled[k].add(gold)
        fittable = [len(labels) == 1 for labels in labelled]
        checked = [(get, min(labels)) for get, labels in zip(getters, labelled) if len(labels) == 1]
        # Wrong labels are searched lexically largest first, which wins a tie.
        by_rank = sorted(range(len(self.labels)), key=self.labels.__getitem__, reverse=True)
        # Raw weights, and the sums of each update times the step it was made
        # at: the averaged weights are (step * raw - sums) / step.
        raw = [[0] * len(index) for _ in self.labels]
        sums = [[0] * len(index) for _ in self.labels]
        # Per set, (updates made when its raw scores were computed, scores).
        memo: List[Tuple[int, List[int]]] = [(-1, [])] * len(number)
        updates = 0
        rng = random.Random(self.seed)
        order = list(range(len(pairs)))
        step = 0

        def numerators() -> List[List[int]]:
            return [[step * w - u for w, u in zip(*rows)] for rows in zip(raw, sums)]

        epoch = 0
        for epoch in range(1, self.epochs + 1):
            rng.shuffle(order)
            mistakes = 0
            for idx in order:
                step += 1
                k, gold = set_of[idx], golds[idx]
                at, scores = memo[k]
                if at != updates:
                    get = getters[k]
                    scores = [sum(get(row)) for row in raw]
                    memo[k] = (updates, scores)
                top = scores[gold]
                # The memo keeps the scores: the gold one is masked in a copy.
                scores = scores.copy()
                scores[gold] = _BELOW_ALL
                best = max(scores)
                if best >= top:
                    mistakes += fittable[k]
                    updates += 1
                    rival = next(j for j in by_rank if scores[j] == best)
                    up, up_sums = raw[gold], sums[gold]
                    down, down_sums = raw[rival], sums[rival]
                    for i in ids_of[k]:
                        up[i] += 1
                        up_sums[i] += step
                        down[i] -= 1
                        down_sums[i] -= step
            if not mistakes:
                averaged = numerators()
                if all(_fits([sum(get(row)) for row in averaged], gold) for get, gold in checked):
                    break
        else:
            averaged = numerators()
        kept = {feat: i for feat, i in index.items() if any(row[i] for row in averaged)}
        self.index = {feat: k for k, feat in enumerate(kept)}
        self.rows = [[row[i] / step for i in kept.values()] for row in averaged]
        self._derive_tables()
        return epoch

    def load(self, weights: Dict[str, Dict[str, float]]) -> None:
        """Set the weights from their label-major form, as stored."""
        unknown = set(weights) - set(self.labels)
        if unknown:
            raise TrainingError(f"weights for unknown labels {sorted(unknown)}")
        index: Dict[str, int] = {}
        for table in weights.values():
            for feat in table:
                index.setdefault(feat, len(index))
        self.index = index
        self.rows = []
        for label in self.labels:
            row = [0.0] * len(index)
            for feat, w in weights.get(label, {}).items():
                row[index[feat]] = float(w)
            self.rows.append(row)
        self._derive_tables()

    def _derive_tables(self) -> None:
        """The pair table and the predicates of the current index, unbound."""
        self.pairs = _pair_table(self.index)
        inner = {b for hits in self.pairs.values() for b in hits}
        self.predicates = frozenset(self.index).union(self.pairs, inner)
        self._unbind()

    def _unbind(self) -> None:
        self.vocabulary: Optional[Vocabulary] = None
        self.known = self.s2_bits = 0
        # Per bit position: its id, and its pair row (s2 position -> id), or None.
        self.plain: List[Optional[int]] = []
        self.pair_rows: List[Optional[Dict[int, int]]] = []
        # The ranking memo: key -> labels as transitions, best first (predict).
        self.rankings: Dict[int, Tuple[Transition, ...]] = {}

    def bind(self, vocabulary: Vocabulary) -> None:
        """Key scores by the bits of ``vocabulary``, a fixed vocabulary in
        sorted predicate order that holds every predicate this classifier
        knows, and empty the ranking memo."""
        ids = vocabulary.ids
        plain: list = [None] * len(ids)
        pair_rows: list = [None] * len(ids)
        known = s2 = 0
        for f, i in self.index.items():
            p = ids[f]
            plain[p] = i
            known |= 1 << p
        for a, hits in self.pairs.items():
            p = ids[a]
            known |= 1 << p
            row = pair_rows[p] = {}
            for b, i in hits.items():
                q = ids[b]
                row[q] = i
                s2 |= 1 << q
        self.plain, self.pair_rows = plain, pair_rows
        self.known, self.s2_bits = known | s2, s2
        self.vocabulary = vocabulary
        self.rankings = {}

    def score(self, key: int) -> Dict[str, float]:
        """Per-label weight sums over the expanded features of a key, the
        bits of known predicates over the bound vocabulary, each added one
        at a time in expanded feature order (see ``_conjoined``)."""
        bits = positions(key)
        ids = [i for i in map(self.plain.__getitem__, bits) if i is not None]
        s2 = positions(key & self.s2_bits)
        for row in map(self.pair_rows.__getitem__, bits):
            if row is not None:
                for q in s2:
                    i = row.get(q)
                    if i is not None:
                        ids.append(i)
        scores = {}
        for label, row in zip(self.labels, self.rows):
            total = 0.0
            for i in ids:
                total += row[i]
            scores[label] = total
        return scores

    def weights_by_label(self) -> Dict[str, Dict[str, float]]:
        """The weights label-major (label -> feature -> weight), as stored."""
        return {
            label: {feat: row[i] for feat, i in self.index.items() if row[i]}
            for label, row in zip(self.labels, self.rows)
        }


def _getter(ids: List[int]):
    """A function from a row to the tuple of its values at ``ids``."""
    if len(ids) == 1:
        only = ids[0]
        return lambda row: (row[only],)
    return itemgetter(*ids) if ids else lambda row: ()


def _fits(scores: List, gold: int) -> bool:
    """Whether the gold label scores strictly above every other one."""
    top = scores[gold]
    scores[gold] = _BELOW_ALL
    return max(scores) < top


@dataclass
class Model:
    feature_set: FeatureSetSpec
    transition_vocabulary: List[str]
    classifiers: Dict[str, AveragedPerceptron]
    hyperparameters: dict = field(default_factory=lambda: dict(HYPERPARAMETERS))
    relation_vocab: List[str] = field(default_factory=list)
    corpus_fingerprint: str = ""
    counts: dict = field(default_factory=dict)
    # Each classifier label parsed once, for predict.
    parsed_labels: Dict[str, Transition] = field(init=False, repr=False, compare=False)
    # Every predicate a classifier knows, in sorted order (see bind).
    vocabulary: Vocabulary = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.bind()

    def bind(self) -> None:
        """Parse each classifier label, number every predicate any classifier
        knows, in sorted order, and bind each classifier to that
        vocabulary."""
        self.parsed_labels = {
            label: parse_transition(label)
            for clf in self.classifiers.values()
            for label in clf.labels
        }
        known: set = set()
        for clf in self.classifiers.values():
            known.update(clf.predicates)
        self.vocabulary = Vocabulary(sorted(known))
        for clf in self.classifiers.values():
            clf.bind(self.vocabulary)

    def serialize(self) -> str:
        payload = {
            "format": "hybridparse-model",
            "version": 1,
            "feature_set": self.feature_set.name,
            "hyperparameters": self.hyperparameters,
            "transitions": self.transition_vocabulary,
            "relations": sorted(self.relation_vocab),
            "fingerprint": self.corpus_fingerprint,
            "counts": self.counts,
            "classifiers": {
                pos: {
                    "labels": clf.labels,
                    "epochs": clf.epochs,
                    "seed": clf.seed,
                    "weights": clf.weights_by_label(),
                }
                for pos, clf in sorted(self.classifiers.items())
            },
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @staticmethod
    def deserialize(text: str, tags: TagSet = DEFAULT_TAGS) -> "Model":
        """The model a ``serialize`` text describes. Any malformed text
        raises TrainingError."""
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict) or payload.get("format") != "hybridparse-model":
                raise TrainingError("not a model file")
            known = set(tags.relations)
            for rel in payload["relations"]:
                if rel not in known:
                    try:
                        parse_label(rel, tags)
                    except ValueError:
                        raise TrainingError(f"model relation vocabulary mismatch: {rel!r}")
            classifiers = {}
            for pos, data in payload["classifiers"].items():
                clf = AveragedPerceptron(data["labels"], data["epochs"], data["seed"])
                clf.load(data["weights"])
                classifiers[pos] = clf
            return Model(
                FeatureSetSpec(payload["feature_set"]),
                list(payload["transitions"]),
                classifiers,
                dict(payload["hyperparameters"]),
                list(payload["relations"]),
                payload.get("fingerprint", ""),
                dict(payload.get("counts", {})),
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise TrainingError(f"malformed model file: {exc!r}") from exc


EMPTY_PARTITION = "(empty)"


def _partition_key(config: Configuration) -> str:
    """The part of speech of s1, or the phrase tag when s1 is a phrase."""
    if not config.pushed:
        return EMPTY_PARTITION
    s1 = config.pushed[-1]
    return s1.tag if isinstance(s1, Phrase) else config.terminals[s1].pos


def training_pairs(
    gold: HybridGraph,
    spec: FeatureSetSpec,
    tags: TagSet,
    vocabulary: Vocabulary,
) -> Optional[list]:
    """(partition, features, transition) triples, one per configuration of
    the oracle's walk, or None when the graph is oracle-unreachable. The
    features are the bits of ``vocabulary``, a growing one."""
    out = []
    outcome = oracle_sequence(gold, tags, visit=lambda config, t: out.append(
        (_partition_key(config), featurize(config, spec, vocabulary), str(t))
    ))
    return out if outcome.reachable else None


def train(
    corpus,
    spec: FeatureSetSpec,
    seed: int = 0,
    epochs: int = DEFAULT_EPOCHS,
    tags: TagSet = DEFAULT_TAGS,
) -> Model:
    """Fit a model to each graph's ``training_pairs`` (``train_from_pairs``),
    featurized over one growing vocabulary."""
    graphs = list(corpus.graphs if hasattr(corpus, "graphs") else corpus)
    vocabulary = Vocabulary(grow=True)
    pairs = [training_pairs(gold, spec, tags, vocabulary) for gold in graphs]
    return train_from_pairs(graphs, pairs, vocabulary, treebank_blocks(graphs), spec, seed, epochs)


def train_from_pairs(
    graphs: list,
    pairs: list,
    vocabulary: Vocabulary,
    blocks: List[str],
    spec: FeatureSetSpec,
    seed: int = 0,
    epochs: int = DEFAULT_EPOCHS,
) -> Model:
    """Fit one classifier per POS partition to each graph's ``training_pairs``,
    where None marks an oracle-unreachable graph, counted as excluded. The
    pairs' features are bits of ``vocabulary``. The corpus fingerprint hashes
    the graphs' ``treebank_blocks``.

    ``epochs`` caps the training of each partition. A partition stops earlier
    once its averaged weights score the gold transition strictly highest on
    every pair whose feature set is not also labelled otherwise; a tie counts
    as a mistake. ``counts["epochs_per_partition"]`` records the epochs each
    partition ran; one that stopped below the cap fits its pairs."""
    if not graphs:
        raise TrainingError("empty corpus")
    by_partition: Dict[str, list] = {}
    transitions: set = set()
    relations: set = set()
    used = excluded = 0
    for gold, triples in zip(graphs, pairs):
        if triples is None:
            excluded += 1
            continue
        used += 1
        for partition, feats, label in triples:
            by_partition.setdefault(partition, []).append((feats, label))
            transitions.add(label)
        relations.update(edge.relation for edge in gold.edges)
    if not by_partition:
        raise TrainingError("no trainable graphs in corpus")
    vocab = sorted(transitions)
    classifiers: Dict[str, AveragedPerceptron] = {}
    epochs_run: Dict[str, int] = {}
    for partition in sorted(by_partition):
        partition_pairs = by_partition[partition]
        labels = sorted({label for _, label in partition_pairs})
        clf = AveragedPerceptron(labels, epochs=epochs, seed=seed)
        epochs_run[partition] = clf.fit(partition_pairs, vocabulary.decode)
        classifiers[partition] = clf
    fingerprint = _corpus_fingerprint(blocks)
    counts = {
        "graphs_used": used,
        "graphs_excluded": excluded,
        "pairs_per_partition": {k: len(v) for k, v in sorted(by_partition.items())},
        "epochs_per_partition": epochs_run,
    }
    return Model(
        spec,
        vocab,
        classifiers,
        dict(HYPERPARAMETERS),
        sorted(relations),
        fingerprint,
        counts,
    )


def treebank_blocks(graphs) -> List[str]:
    """Each graph's lines in a treebank document: joined in order, they are
    the document of the graphs."""
    return [dumps_treebank(TreebankDocument([graph])) for graph in graphs]


def _corpus_fingerprint(blocks: List[str]) -> str:
    """The sha256 of the treebank document the blocks make up."""
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block.encode("utf-8"))
    return digest.hexdigest()


def predict(
    model: Model,
    config: Configuration,
    tags: TagSet = DEFAULT_TAGS,
    allowed_kinds: Optional[tuple] = None,
    report=None,
) -> Transition:
    """Highest-scoring legal transition; total via the ``forced`` fallback.

    The classifier's labels are ranked once per key (``rankings``) and the
    kinds ``allowed_kinds`` excludes are skipped afterwards, which keeps the
    order, so one ranking serves both pipelines. ``report``, if given, counts
    a step whose best-ranked allowed transition is illegal in its
    ``illegal_top_steps`` and a step that falls back to ``forced`` in its
    ``forced_steps``."""
    clf = model.classifiers.get(_partition_key(config))
    if clf is not None:
        if clf.vocabulary is not model.vocabulary:
            model.bind()
        key = featurize(config, model.feature_set, model.vocabulary) & clf.known
        ranking = clf.rankings.get(key)
        if ranking is None:
            # (-score, label): labels are unique, so ties go to the smaller label.
            ranked = sorted((-score, label) for label, score in clf.score(key).items())
            parsed = model.parsed_labels
            ranking = clf.rankings[key] = tuple(parsed[label] for _, label in ranked)
        top = True
        for t in ranking:
            if allowed_kinds and not isinstance(t, allowed_kinds):
                continue
            if legal(config, t, tags):
                return t
            if top and report is not None:
                report.illegal_top_steps += 1
            top = False
    if report is not None:
        report.forced_steps += 1
    return forced(config)
