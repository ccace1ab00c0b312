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

Each classifier holds one row of weights per transition, indexed by the
integer ids of its expanded features. A feature set expands to its sorted
predicates followed by each s1 x s2 conjunction ``f"{a}&{b}"``, by s1 then
s2 predicate. One ``_Expansion`` gives a key's ids in that order, by bit
position over the vocabulary's ``names``, for ``fit`` and ``score`` alike:
the positions with an id, ordered by name, split into runs that share a
name prefix (``graph:``, ``q1:``, ``s1:``, ...), and ids are memoized per
run part, per s1 and s2 part and per (s1, s2) position pair, so each
string is built and looked up once. ``fit`` expands each distinct feature
set of its pairs once, over the positions its sets use, ranked by name,
and interns each string when first met (``index.setdefault``), as a pass
over the expanded strings would. A bound classifier expands over the
model's vocabulary, whose positions ascend in name order, and looks ids up
(``index.get``); its runs cover the bits with an id, and its s1 and s2
masks the sides of its indexed conjunctions: each indexed string that
starts with "s1:" split at every "&s2:" in it, since a lemma may hold
"&s2:" too (``_sides``). A lemma predicate that spells a conjunction shares
the conjunction's id both ways.

Training keeps the raw weights and, per weight, the sum of each update
times the step it was made at, all as Python ints. After ``step`` steps the
averaged weight is (step * raw - sum) / step: the averaging is exact, the
check that the averaged weights fit is made on the integer numerators, and
each stored weight is one quotient rounded once. Every update adds to the
gold row what it takes from the rival row, so each column of the raw
weights, and of the numerators, sums to zero. Pairs that share a feature
set share its raw scores; a reuse sums again only the rows updated since,
and of those all but one, which is minus the sum of the others. The integer
weights make both exact (see ``AveragedPerceptron.fit``). Model files list
the weights label-major (transition -> feature -> weight), as strings.

A classifier knows each indexed string and each conjunction side. The
``Model`` numbers every predicate any of its classifiers knows, in sorted
order, as its ``vocabulary``: bit p of a key is ``vocabulary.names[p]``, so
ascending bits are sorted predicates. It binds each classifier to it, and
the classifier keeps ``known``, the int of its bits. A score reads a key,
the bits of a set's known predicates, and adds a transition's weights one
at a time in expanded order. Float addition is not associative, so the
order fixes the result; ``sum()`` is never used, as its float rounding
differs between Python versions.

Parsing ranks each distinct key once per classifier. ``predict`` featurizes
over the model's vocabulary, where a predicate no classifier knows gets no
bit, and keys ``rankings`` by ``bits & clf.known``, which maps a key to the
labels as transitions, best first. This is exact: a score reads only the
known predicates, so two sets with one key give the same ids in the same
order and bit-identical sums. A classifier that knows no predicate keys
every configuration as 0 and is not featurized for. ``predict`` scores the
key itself on a miss, skips the kinds ``allowed_kinds`` excludes after the
ranking, so that one memo serves both pipelines, and returns the first
legal transition. ``fit`` and ``load`` unbind a classifier, binding gives
it a new expansion and an empty ranking memo, and ``predict`` binds the
model again when a classifier is not bound to its vocabulary. A
ranking-memo miss otherwise adds one ranking and at most one entry to each
id memo.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus_io import TreebankDocument, dumps_treebank
# extract_features is re-exported: the benchmark's tracer rebinds
# ``learning.extract_features`` by name.
from .features import (
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


class _Expansion:
    """The ids of a key's expanded features, by bit position over ``names``
    (see the module docstring). ``order`` lists the positions with an id by
    name, ``s1`` and ``s2`` are the masks of the conjunction sides, and
    ``lookup`` gives a feature string's id, or None. ``rank``, a sort key,
    orders positions by name; it is None where ascending positions are in
    name order already, as over a sorted vocabulary."""

    def __init__(self, names: Sequence[str], order: List[int], s1: int, s2: int, lookup, rank):
        self.names, self.s1, self.s2, self.lookup, self.rank = names, s1, s2, lookup, rank
        # Per run, (its mask, its part of a key -> ids).
        runs = groupby(order, key=lambda p: names[p].partition(":")[0])
        self.runs = [(sum(1 << p for p in run), {}) for _, run in runs]
        # The s1 and s2 part of a key -> its conjunction ids.
        self.conjunctions: Dict[int, Tuple[int, ...]] = {}
        # Per s1 position, s2 position -> the id of their conjunction, or None.
        self.by_pair: Dict[int, Dict[int, Optional[int]]] = {}

    def ids(self, key: int) -> Tuple[int, ...]:
        ids: tuple = ()
        for mask, memo in self.runs:
            part = key & mask
            got = memo.get(part)
            if got is None:
                ranked = sorted(positions(part), key=self.rank)
                got = memo[part] = tuple(map(self.lookup, map(self.names.__getitem__, ranked)))
            ids += got
        part = key & (self.s1 | self.s2)
        got = self.conjunctions.get(part)
        if got is None:
            got = self.conjunctions[part] = self._conjoin(part)
        return ids + got

    def _conjoin(self, part: int) -> Tuple[int, ...]:
        names = self.names
        seconds = sorted(positions(part & self.s2), key=self.rank)
        out = []
        for a in sorted(positions(part & self.s1), key=self.rank):
            row = self.by_pair.get(a)
            if row is None:
                row = self.by_pair[a] = {}
            for b in seconds:
                i = row.get(b)
                if i is None and b not in row:
                    i = row[b] = self.lookup(f"{names[a]}&{names[b]}")
                if i is not None:
                    out.append(i)
        return tuple(out)


def _sides(index: Dict[str, int]) -> Tuple[frozenset, frozenset]:
    """The s1 and s2 predicates whose conjunction ``f"{a}&{b}"`` is indexed.

    An indexed string that starts with "s1:" is split at every "&s2:" it
    holds, because a lemma may contain "&s2:" too: (a, b) is a split of a
    string exactly when the string is a + "&" + b."""
    firsts, seconds = set(), set()
    for feat in index:
        if not feat.startswith("s1:"):
            continue
        at = feat.find("&s2:")
        while at >= 0:
            firsts.add(feat[:at])
            seconds.add(feat[at + 1 :])
            at = feat.find("&s2:", at + 1)
    return frozenset(firsts), frozenset(seconds)


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
        # The s1 and s2 sides of the indexed conjunctions (``_sides``), and
        # every predicate a score reads.
        self.sides: Tuple[frozenset, frozenset] = (frozenset(), frozenset())
        self.predicates: frozenset = frozenset()
        self._unbind()

    def fit(self, pairs: Sequence[Tuple[int, str]], names: Sequence[str]) -> int:
        """Train on (features, label) pairs and return the epochs run. The
        features are an int whose bit p is the predicate ``names[p]``.

        A pair is a mistake, and updates the weights, unless its gold label
        scores strictly above the best wrong label, so a tie is a mistake.
        Training stops after an epoch with no mistakes once the averaged
        weights fit every pair too; they lag behind the raw weights and may
        need further epochs. Pairs whose feature set also occurs with another
        label can never be fitted: they are trained on but left out of both
        checks.

        Each distinct feature set is numbered in order of first appearance
        and its expanded ids are found once (``_Expansion``), so the index is
        the one a pass pair by pair would build. Pairs that share a set
        share its raw scores: they are kept with the number of updates made
        when they were last brought up to date. An update changes two rows,
        the gold label's and the rival's, and each label keeps the number of
        updates made by its row's last change, so a reuse sums again only
        the rows changed since. An update adds 1 to the gold row and takes 1
        from the rival row at the same ids, and the update sums follow the
        same rule, so in every column the raw rows, and the averaged
        numerators, sum to zero: of the rows to sum, the last is minus the
        sum of all the others and is not summed. The raw weights are ints,
        so a reused or derived sum is the sum recomputed. The averaged-weights
        check scores each fittable set once, since all the pairs of such a
        set carry its one label, and derives its last row the same way.
        """
        number: dict = {}
        set_of = [number.setdefault(feats, len(number)) for feats, _ in pairs]
        union = 0
        for feats in number:
            union |= feats
        used = sorted(positions(union), key=names.__getitem__)
        s1 = sum(1 << p for p in used if names[p].startswith("s1:"))
        s2 = sum(1 << p for p in used if names[p].startswith("s2:"))
        rank = dict(zip(used, range(len(used))))
        index: Dict[str, int] = {}
        expansion = _Expansion(
            names, used, s1, s2, lambda feat: index.setdefault(feat, len(index)), rank.__getitem__
        )
        ids_of = list(map(expansion.ids, number))
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
        # Per set, [updates made when its raw scores were last brought up to
        # date, scores], and per label the updates made by its row's last
        # change. A set starts at -1, so its first use brings every row up
        # to date.
        memo = [[-1, [0] * len(self.labels)] for _ in number]
        changed = [0] * len(self.labels)
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
                entry = memo[k]
                at, scores = entry
                if at != updates:
                    get = getters[k]
                    # The last stale row is minus the sum of all the others.
                    last = -1
                    for j, when in enumerate(changed):
                        if when > at:
                            if last >= 0:
                                scores[last] = sum(get(raw[last]))
                            last = j
                    scores[last] = 0
                    scores[last] = -sum(scores)
                    entry[0] = updates
                top = scores[gold]
                # The memo keeps the scores: the gold one is masked in a copy.
                scores = scores.copy()
                scores[gold] = _BELOW_ALL
                best = max(scores)
                if best >= top:
                    mistakes += fittable[k]
                    updates += 1
                    rival = next(j for j in by_rank if scores[j] == best)
                    changed[gold] = changed[rival] = updates
                    up, up_sums = raw[gold], sums[gold]
                    down, down_sums = raw[rival], sums[rival]
                    for i in ids_of[k]:
                        up[i] += 1
                        up_sums[i] += step
                        down[i] -= 1
                        down_sums[i] -= step
            if not mistakes:
                averaged = numerators()
                if all(_fits(_row_sums(get, averaged), gold) for get, gold in checked):
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
        """The conjunction sides and the predicates of the current index,
        unbound."""
        self.sides = _sides(self.index)
        self.predicates = frozenset(self.index).union(*self.sides)
        self._unbind()

    def _unbind(self) -> None:
        self.vocabulary: Optional[Vocabulary] = None
        self.known = 0
        self.expansion: Optional[_Expansion] = None
        # The ranking memo: key -> labels as transitions, best first (predict).
        self.rankings: Dict[int, Tuple[Transition, ...]] = {}

    def bind(self, vocabulary: Vocabulary) -> None:
        """Key scores by the bits of ``vocabulary``, a fixed vocabulary in
        sorted predicate order that holds every predicate this classifier
        knows, with a new expansion and an empty ranking memo."""
        firsts, seconds = self.sides
        self.expansion = _Expansion(
            vocabulary.names,
            sorted(map(vocabulary.ids.__getitem__, self.index)),
            vocabulary.encode(firsts),
            vocabulary.encode(seconds),
            self.index.get,
            None,
        )
        self.known = vocabulary.encode(self.predicates)
        self.vocabulary = vocabulary
        self.rankings = {}

    def score(self, key: int) -> Dict[str, float]:
        """Per-label weight sums over the expanded features of a key, the
        bits of known predicates over the bound vocabulary, each added one
        at a time in expanded feature order."""
        ids = self.expansion.ids(key)
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


def _row_sums(get, rows: List[List[int]]) -> List[int]:
    """Per row, the sum of its values that ``get`` reads, for rows whose
    columns sum to zero: the last is minus the sum of the others."""
    out = [sum(get(row)) for row in rows[:-1]]
    out.append(-sum(out))
    return out


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
        epochs_run[partition] = clf.fit(partition_pairs, vocabulary.names)
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
    allowed_kinds: Optional[tuple] = None,
    report=None,
) -> Transition:
    """Highest-scoring legal transition; total via the ``forced`` fallback.

    The classifier's labels are ranked once per key (``rankings``) and the
    kinds ``allowed_kinds`` excludes are skipped afterwards, which keeps the
    order, so one ranking serves both pipelines. ``report``, if given, counts
    a step whose best-ranked allowed transition is illegal in its
    ``illegal_top_steps``, the rank among the allowed transitions (the best
    is 1) of the one taken instead in its ``fallback_ranks``, and a step
    that falls back to ``forced`` in its ``forced_steps``."""
    clf = model.classifiers.get(_partition_key(config))
    if clf is not None:
        if clf.vocabulary is not model.vocabulary:
            model.bind()
        # A classifier that knows no predicate reads no bit of a key.
        key = clf.known and featurize(config, model.feature_set, model.vocabulary) & clf.known
        ranking = clf.rankings.get(key)
        if ranking is None:
            # (-score, label): labels are unique, so ties go to the smaller label.
            ranked = sorted((-score, label) for label, score in clf.score(key).items())
            parsed = model.parsed_labels
            ranking = clf.rankings[key] = tuple(parsed[label] for _, label in ranked)
        # Allowed transitions found illegal so far.
        passed = 0
        for t in ranking:
            if allowed_kinds and not isinstance(t, allowed_kinds):
                continue
            if legal(config, t):
                if passed and report is not None:
                    report.fallback_ranks[passed + 1] += 1
                return t
            if not passed and report is not None:
                report.illegal_top_steps += 1
            passed += 1
    if report is not None:
        report.forced_steps += 1
    return forced(config)
