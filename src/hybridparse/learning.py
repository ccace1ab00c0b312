"""Feature extraction, binarization and the trainable classifier bank.

Configurations are described by binary predicates over the top three
stack items and the queue front. Static predicates follow the nested
feature sets Pos < Morph6 < Morph9 < Lemma < Phi; dynamic predicates
describe the partially built graph (existing dependent relations, rooted
subgraphs, and previously parsed edges between slot pairs).

``extract_features`` makes one pass over the four slots, reading s1-s3 from
the stack and q1 from the queue by position. A terminal's morphological
predicates come from its sorted ``features`` pairs, through a table per
feature set level and slot of the predicate prefix of each key, so no dict
is built per slot. The dynamic predicates and ``graph:edge`` read the
graph's edge lists by dependent and by head as the graph carries them
(``HybridGraph.edge_indices``), unsorted, since the result is a set, and
``isroot`` the yield masks (``mask_span``), all unchecked: every ref comes
from the configuration.

One multiclass scorer is trained per part-of-speech at the top of the
stack; the reference scorer is an averaged perceptron over the binary
predicates plus explicit pairwise conjunctions of the s1 and s2 slot
predicates, standing in for a quadratic-kernel maximum-margin machine
whose hyperparameters are carried as model metadata.

Each configuration the oracle's walk visits gives one training pair
(``training_pairs``). ``train_from_pairs`` fits a model to graphs and their
pairs, so cross-validation derives each graph's pairs once. Training
follows the perceptron rule: a pair is a mistake unless its gold
transition scores strictly above every other, so a tie is a mistake. Each
partition trains until its averaged weights fit every pair whose feature
set is not also labelled with another transition, or until the epoch cap.

Each classifier interns its expanded feature strings to integer ids, once
per distinct feature set of its training pairs, and holds one row of
weights per transition, indexed by id. A feature set expands to its sorted
predicates followed by each s1 x s2 conjunction ``f"{a}&{b}"``
(``_conjoined``). Training keeps the raw weights and, per weight, the sum of
each update times the step it was made at, all as Python ints. After
``step`` steps the averaged weight is (step * raw - sum) / step: the
averaging is exact, the check that the averaged weights fit is made on the
integer numerators, and each stored weight is one quotient rounded once.
Pairs that share a feature set share its raw scores until the next update,
which the integer weights make exact (see ``AveragedPerceptron.fit``).

Scoring builds no conjunction string. When a classifier is fitted or
loaded it derives a table s1 predicate -> s2 predicate -> id from its index
(``_pair_table``), registering each indexed string that starts with "s1:"
at every "&s2:" in it, since a lemma may hold "&s2:" as well; so (a, b) is
in the table exactly when ``f"{a}&{b}"`` is indexed. A score takes the ids
of the sorted predicates, then the table's hits for each s1 predicate
against each s2 predicate, which is the expanded order, and adds a
transition's weights one at a time in that order. Float addition is not
associative, so the order fixes the result; ``sum()`` is never used, as its
float rounding differs between Python versions. Model files list the
weights label-major (transition -> feature -> weight).

Parsing ranks each distinct feature set once per classifier. A classifier
gives one bit to each predicate it knows: each indexed string and each s1
and s2 predicate of the pair table. A set's key is the int mask of the bits
of its known predicates (``AveragedPerceptron.mask``), and ``rankings`` maps
a key to the labels as transitions, best first. This is exact: a score reads
only the set's known predicates, so two sets with one mask give the same ids
in the same order and bit-identical sums. ``predict`` ranks on a miss,
skips the kinds ``allowed_kinds`` excludes after the ranking, so that one
memo serves both pipelines, and returns the first legal transition.
``fit`` and ``load`` assign the bits afresh and clear the memo, which
otherwise grows by one entry per distinct mask the classifier sees.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus_io import TreebankDocument, dumps_treebank
from .graph import EmptyCategory, HybridGraph, Phrase, mask_span
from .oracle import oracle_sequence
from .transitions import (
    Configuration,
    Transition,
    forced,
    legal,
    parse_transition,
)
from .vocab import COPULA_GROUP, DEFAULT_TAGS, TagSet, parse_label

FEATURE_SETS = ("pos", "morph6", "morph9", "lemma", "phi")

# Static morphological predicates added by each nested feature set.
_SET_LEVELS = {name: i for i, name in enumerate(FEATURE_SETS)}
_MORPH6 = ("Voice", "Mood", "Case", "State")
_MORPH9 = ("PronType", "SegType")
_PHI = ("Person", "Gender", "Number")

SLOTS = ("s1", "s2", "s3", "q1")
EDGE_PAIRS = (("s1", "s2"), ("s1", "q1"), ("s2", "s3"))

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


@dataclass(frozen=True)
class FeatureSetSpec:
    name: str

    def __post_init__(self):
        if self.name not in FEATURE_SETS:
            raise ValueError(f"unknown feature set {self.name!r}")

    @property
    def level(self) -> int:
        return _SET_LEVELS[self.name]


def _morph_keys(level: int) -> tuple:
    """The morphological keys a feature set level describes."""
    return (
        (_MORPH6 if level >= 1 else ())
        + (_MORPH9 if level >= 2 else ())
        + (_PHI if level >= 4 else ())
    )


# Per level and slot, morphological key -> predicate prefix ("s1:case=").
_PREFIXES = tuple(
    {slot: {key: f"{slot}:{key.lower()}=" for key in _morph_keys(level)} for slot in SLOTS}
    for level in range(len(FEATURE_SETS))
)

# The graph:edge predicates, each with the positions of its two slots.
_EDGE_PREDICATES = tuple(
    (SLOTS.index(a), SLOTS.index(b), f"graph:edge({a},{b})") for a, b in EDGE_PAIRS
)


def extract_features(config: Configuration, spec: FeatureSetSpec) -> frozenset:
    """Binary predicate set describing a configuration under a feature set."""
    stack, queue = config.stack, config.queue
    depth = len(stack)
    refs = (
        stack[0] if depth > 0 else None,
        stack[1] if depth > 1 else None,
        stack[2] if depth > 2 else None,
        queue[0] if queue else None,
    )
    graph = config.graph
    terminals = graph.terminals
    heads, deps = graph.edge_indices()
    level = spec.level
    prefixes_of = _PREFIXES[level]
    out: List[str] = []
    add = out.append
    for slot, ref in zip(SLOTS, refs):
        if ref is None:
            add(f"{slot}:absent")
            continue
        if isinstance(ref, Phrase):
            add(f"{slot}:phrase={ref.tag}")
        else:
            term = terminals[ref]
            add(f"{slot}:pos={term.pos}")
            if not isinstance(term, EmptyCategory):
                prefixes = prefixes_of[slot]
                copula = False
                for key, value in term.features:
                    prefix = prefixes.get(key)
                    if prefix is None:
                        if key == "SP":
                            copula = value == COPULA_GROUP
                    else:
                        add(prefix + value)
                if copula and level >= 2:
                    add(f"{slot}:copula")
                if level >= 3 and term.lemma:
                    add(f"{slot}:lemma={term.lemma}")
        for edge in deps.get(ref, ()):
            add(f"{slot}:deprel({edge.relation})")
        if not heads.get(ref) and mask_span(graph.yield_masks()[ref]) is not None:
            add(f"{slot}:isroot")
    for a, b, name in _EDGE_PREDICATES:
        ra, rb = refs[a], refs[b]
        if ra is not None and rb is not None and _linked(heads, ra, rb):
            add(name)
    return frozenset(out)


def _linked(heads: dict, a, b) -> bool:
    """Whether an edge joins ``a`` and ``b``, in either direction, given the
    edges by dependent."""
    for edge in heads.get(a, ()):
        if edge.head == b:
            return True
    for edge in heads.get(b, ()):
        if edge.head == a:
            return True
    return False


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
        # s1 predicate -> s2 predicate -> id of their conjunction.
        self.pairs: Dict[str, Dict[str, int]] = {}
        # Known predicate -> its bit, and the ranking memo: mask -> labels as
        # transitions, best first (see predict).
        self.bits: Dict[str, int] = {}
        self.rankings: Dict[int, Tuple[Transition, ...]] = {}

    def fit(self, pairs: Sequence[Tuple[frozenset, str]]) -> int:
        """Train on (features, label) pairs and return the epochs run.

        A pair is a mistake, and updates the weights, unless its gold label
        scores strictly above the best wrong label, so a tie is a mistake.
        Training stops after an epoch with no mistakes once the averaged
        weights fit every pair too; they lag behind the raw weights and may
        need further epochs. Pairs whose feature set also occurs with another
        label can never be fitted: they are trained on but left out of both
        checks.

        Each distinct feature set is numbered in order of first appearance
        and expanded, interned and given its getter once, so the index is the
        one a pass pair by pair would build. Pairs that share a set share its
        raw scores: they are kept with the number of updates made when they
        were computed and reused until the next mistake updates the weights.
        The raw weights are ints, so a reused sum is the sum recomputed. The
        averaged-weights check scores each fittable set once, since all the
        pairs of such a set carry its one label.
        """
        number: Dict[frozenset, int] = {}
        set_of = [number.setdefault(feats, len(number)) for feats, _ in pairs]
        index: Dict[str, int] = {}
        ids_of = [[index.setdefault(f, len(index)) for f in _conjoined(feats)] for feats in number]
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
        """The pair table and the predicate bits of the current index, and
        an empty ranking memo."""
        self.pairs = _pair_table(self.index)
        known = dict.fromkeys(self.pairs)
        for hits in self.pairs.values():
            known.update(dict.fromkeys(hits))
        known.update(dict.fromkeys(self.index))
        self.bits = {feat: 1 << k for k, feat in enumerate(known)}
        self.rankings = {}

    def mask(self, features: frozenset) -> int:
        """The bits of the predicates in ``features`` that this classifier
        knows: sets with the same mask get the same scores."""
        bits = self.bits
        mask = 0
        for feat in features:
            bit = bits.get(feat)
            if bit is not None:
                mask |= bit
        return mask

    def score(self, features: frozenset) -> Dict[str, float]:
        """Per-label weight sums over the expanded features, each added one
        at a time in expanded feature order (see ``_conjoined``)."""
        index = self.index
        items = sorted(features)
        ids = [index[f] for f in items if f in index]
        s2 = [f for f in items if f.startswith("s2:")]
        pairs = self.pairs
        for a in items:
            hits = pairs.get(a)
            if hits is not None:
                for b in s2:
                    i = hits.get(b)
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

    def __post_init__(self):
        self.parsed_labels = {
            label: parse_transition(label)
            for clf in self.classifiers.values()
            for label in clf.labels
        }

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
    s1 = config.s1
    if s1 is None:
        return EMPTY_PARTITION
    return config.graph.pos_of(s1)


def training_pairs(
    gold: HybridGraph, spec: FeatureSetSpec, tags: TagSet = DEFAULT_TAGS
) -> Optional[list]:
    """(partition, features, transition) triples, one per configuration of
    the oracle's walk, or None when the graph is oracle-unreachable."""
    out = []
    outcome = oracle_sequence(gold, tags, visit=lambda config, t: out.append(
        (_partition_key(config), extract_features(config, spec), str(t))
    ))
    return out if outcome.reachable else None


def train(
    corpus,
    spec: FeatureSetSpec,
    seed: int = 0,
    epochs: int = DEFAULT_EPOCHS,
    tags: TagSet = DEFAULT_TAGS,
) -> Model:
    """Fit a model to each graph's ``training_pairs`` (``train_from_pairs``)."""
    graphs = list(corpus.graphs if hasattr(corpus, "graphs") else corpus)
    pairs = [training_pairs(gold, spec, tags) for gold in graphs]
    return train_from_pairs(graphs, pairs, treebank_blocks(graphs), spec, seed, epochs)


def train_from_pairs(
    graphs: list,
    pairs: list,
    blocks: List[str],
    spec: FeatureSetSpec,
    seed: int = 0,
    epochs: int = DEFAULT_EPOCHS,
) -> Model:
    """Fit one classifier per POS partition to each graph's ``training_pairs``,
    where None marks an oracle-unreachable graph, counted as excluded. The
    corpus fingerprint hashes the graphs' ``treebank_blocks``.

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
        epochs_run[partition] = clf.fit(partition_pairs)
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
) -> Transition:
    """Highest-scoring legal transition; total via the ``forced`` fallback.

    The classifier's labels are ranked once per mask (``rankings``) and the
    kinds ``allowed_kinds`` excludes are skipped afterwards, which keeps the
    order, so one ranking serves both pipelines."""
    clf = model.classifiers.get(_partition_key(config))
    if clf is not None:
        features = extract_features(config, model.feature_set)
        key = clf.mask(features)
        ranking = clf.rankings.get(key)
        if ranking is None:
            # (-score, label): labels are unique, so ties go to the smaller label.
            ranked = sorted((-score, label) for label, score in clf.score(features).items())
            parsed = model.parsed_labels
            ranking = clf.rankings[key] = tuple(parsed[label] for _, label in ranked)
        for t in ranking:
            if allowed_kinds and not isinstance(t, allowed_kinds):
                continue
            if legal(config, t, tags):
                return t
    return forced(config)
