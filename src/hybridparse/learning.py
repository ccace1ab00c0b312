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
integer ids of its expanded features: a feature set's predicates and each
s1 x s2 conjunction ``f"{a}&{b}"``. One ``_Expansion`` gives a key's ids by
bit position over the vocabulary's ``names``, for ``fit`` and ``score``
alike: the block's (the conjunctions and the s1 and s2 predicates), which
read only the bits of the block mask, then the rest's (``graph:``, ``q1:``,
``s3:``). Ids are memoized per part of a key and per (s1, s2) position
pair, so each string is built and looked up once, and a conjunction-memo
miss visits, per s1 position, only its partners: the s2 positions it
conjoins with. ``fit`` makes every s2 position a partner of every s1
position and interns each string when first met. A bound classifier looks
ids up; its partners are those of its indexed conjunctions, each indexed
string that starts with "s1:" split at every "&s2:" in it, since a lemma
may hold "&s2:" too (``_splits``). A lemma predicate that spells a
conjunction shares the conjunction's id both ways.

Scores are exact. Training keeps the raw weights and, per weight, the sum
of each update times the step it was made at, all as Python ints: after
``step`` steps the averaged weight is (step * raw - sum) / step. A
classifier keeps these integer numerators over one positive denominator,
``step``, and ranks by numerator sums, which rank as the averaged weights
do. Its rows hold the numerators as integral floats. Every weight must be
an int and each row's sum of |weight| below 2**53 (``_store``, which
``fit`` and ``load`` share), so any sum of a row's weights is an integer
that a float holds exactly, in any order or grouping of its additions. A
model file (version 2) gives each classifier's denominator and its weights
label-major (transition -> feature -> weight), as ints.

A classifier knows each indexed string and each conjunction side. The
``Model`` numbers every predicate any of its classifiers knows as its
``vocabulary``, bit p of a key being ``vocabulary.names[p]``: first the
plain predicates, then the strings that can be conjunctions (those that
start with "s1:" and hold "&s2:"), each group in sorted order.
``featurize`` sets a conjunction string's bit only where a lemma spells it,
so a key reaches past the plain predicates only then. Each classifier,
bound to the vocabulary, keeps ``known``, the int of its bits. A score
reads a key, the bits of a set's known predicates: each label starts from
its block partial, memoized per block part (``partials``), and adds the
rest's weights.

Parsing ranks each distinct key once per classifier. ``predict`` featurizes
over the model's vocabulary, where a predicate no classifier knows gets no
bit, and keys ``rankings`` by ``bits & clf.known``, which maps a key to the
labels as transitions, best first: the labels, pre-sorted once at bind, in
a stable sort by descending score, so a tie goes to the smaller label. The
ranking needs unique labels, so a model file with a repeated label does not
load. A score reads only the known predicates, so two sets with one key
have one ranking. A classifier that knows no predicate keys every
configuration as 0 and is not featurized for. ``predict`` scores the key
itself on a miss, skips the kinds ``allowed_kinds`` excludes after the
ranking, so that one memo serves both pipelines, and returns the first
legal transition. ``fit`` and ``load`` unbind a classifier, binding gives
it a new expansion and empty ranking and block memos, and ``predict`` binds
the model again when a classifier is not bound to its vocabulary. A
ranking-memo miss otherwise adds one ranking and at most one entry to each
id memo and to the block memo.
"""

from __future__ import annotations

import random
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
from .graph import HybridGraph, Phrase, _Record
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
    """The ids of a key's expanded features, by bit position over ``names``:
    the block's ids, which read only the bits of ``block``, then the rest's,
    which read only the bits of ``rest``. ``partners`` maps each s1 position
    to the mask of the s2 positions it conjoins with, ``plain`` is the mask
    of the s1 and s2 positions with an id, and ``lookup`` gives a feature
    string's id."""

    def __init__(self, names: Sequence[str], ided: int, partners: Dict[int, int], lookup):
        self.names, self.partners, self.lookup = names, partners, lookup
        # The masks of the conjunction sides.
        self.s1 = self.s2 = 0
        for a, seconds in partners.items():
            self.s1 |= 1 << a
            self.s2 |= seconds
        self.plain = sum(1 << p for p in positions(ided) if names[p].startswith(("s1:", "s2:")))
        self.rest = ided ^ self.plain
        self.block = self.s1 | self.s2 | self.plain
        # The conjunction sides of a key -> their ids; the plain and the
        # rest part of a key -> their ids.
        self.conjunctions: Dict[int, Tuple[int, ...]] = {}
        self.plain_memo: Dict[int, Tuple[int, ...]] = {}
        self.rest_memo: Dict[int, Tuple[int, ...]] = {}
        # Per s1 position, s2 position -> the id of their conjunction.
        self.by_pair: Dict[int, Dict[int, int]] = {}

    def ids(self, key: int) -> Tuple[int, ...]:
        return self.block_ids(key & self.block) + self.rest_ids(key)

    def block_ids(self, part: int) -> Tuple[int, ...]:
        """The conjunction ids, then the s1 and s2 ids, of the block part of
        a key."""
        sides = part & (self.s1 | self.s2)
        got = self.conjunctions.get(sides)
        if got is None:
            got = self.conjunctions[sides] = self._conjoin(sides)
        return got + self._plain(self.plain_memo, part & self.plain)

    def rest_ids(self, key: int) -> Tuple[int, ...]:
        """The ids outside the block."""
        return self._plain(self.rest_memo, key & self.rest)

    def _plain(self, memo: Dict[int, Tuple[int, ...]], part: int) -> Tuple[int, ...]:
        got = memo.get(part)
        if got is None:
            got = memo[part] = tuple(map(self.lookup, map(self.names.__getitem__, positions(part))))
        return got

    def _conjoin(self, part: int) -> Tuple[int, ...]:
        """The ids of the conjunctions of a key's s1 and s2 part: each s1
        position visits only its partners in the part."""
        names, partners = self.names, self.partners
        out = []
        for a in positions(part & self.s1):
            row = self.by_pair.setdefault(a, {})
            for b in positions(part & partners[a]):
                i = row.get(b)
                if i is None:
                    i = row[b] = self.lookup(f"{names[a]}&{names[b]}")
                out.append(i)
        return tuple(out)


def _splits(index: Dict[str, int]) -> Tuple[Tuple[str, str], ...]:
    """The (s1, s2) predicate pairs whose conjunction ``f"{a}&{b}"`` is
    indexed.

    An indexed string that starts with "s1:" is split at every "&s2:" it
    holds, because a lemma may contain "&s2:" too: (a, b) is a split of a
    string exactly when the string is a + "&" + b."""
    out = []
    for feat in index:
        if not feat.startswith("s1:"):
            continue
        at = feat.find("&s2:")
        while at >= 0:
            out.append((feat[:at], feat[at + 1 :]))
            at = feat.find("&s2:", at + 1)
    return tuple(out)


class AveragedPerceptron:
    """One-vs-rest averaged perceptron over sparse binary features.

    ``epochs`` caps the passes over the data; ``fit`` stops earlier once the
    weights it returns fit every pair that can be fitted.
    """

    def __init__(self, labels: Sequence[str], epochs: int = DEFAULT_EPOCHS, seed: int = 0):
        self.labels = list(labels)
        self.epochs = epochs
        self.seed = seed
        self._store((), [[] for _ in self.labels], 1)

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

        Each distinct feature set is numbered in order of first appearance and
        its expanded ids are found once (``_Expansion``). The weights kept are
        the averaged numerators over ``step`` (``_store``). Pairs that share a
        set share its raw scores: they are kept with the number of updates
        made when they were last brought up to date. An update changes two
        rows, the gold label's and the rival's, and each label keeps the
        number of updates made by its row's last change, so a reuse sums again
        only the rows changed since. An update adds 1 to the gold row and
        takes 1 from the rival row at the same ids, and the update sums follow
        the same rule, so in every column the raw rows, and the averaged
        numerators, sum to zero: of the rows to sum, the last is minus the sum
        of all the others and is not summed. The raw weights are ints, so a
        reused or derived sum is the sum recomputed. A visit masks the gold
        score in the memo's list for the search of the best wrong one and puts
        it back, so no list is copied; the rival search skips the gold label.
        The averaged-weights check scores each fittable set once, since all
        the pairs of such a set carry its one label, and derives its last row
        the same way.
        """
        number: dict = {}
        set_of = [number.setdefault(feats, len(number)) for feats, _ in pairs]
        union = 0
        for feats in number:
            union |= feats
        used = positions(union)
        # Every pair is interned, so each s1 position conjoins with every s2.
        s2 = sum(1 << p for p in used if names[p].startswith("s2:"))
        partners = {p: s2 for p in used if names[p].startswith("s1:")}
        index: Dict[str, int] = {}
        expansion = _Expansion(names, union, partners, lambda feat: index.setdefault(feat, len(index)))
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
            _shuffle(order, rng)
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
                # The memo keeps the scores: the gold one is masked in place
                # for the search and put back.
                top = scores[gold]
                scores[gold] = _BELOW_ALL
                best = max(scores)
                scores[gold] = top
                if best >= top:
                    mistakes += fittable[k]
                    updates += 1
                    rival = next(j for j in by_rank if j != gold and scores[j] == best)
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
        # No step, as with no pairs, leaves every numerator 0.
        self._store(kept, [[row[i] for i in kept.values()] for row in averaged], step or 1)
        return epoch

    def load(self, weights: Dict[str, Dict[str, int]], denominator: int) -> None:
        """Set the weight numerators from their label-major form, as stored,
        over ``denominator``."""
        unknown = set(weights) - set(self.labels)
        if unknown:
            raise TrainingError(f"weights for unknown labels {sorted(unknown)}")
        index: Dict[str, int] = {}
        for table in weights.values():
            for feat in table:
                index.setdefault(feat, len(index))
        rows = []
        for label in self.labels:
            row = [0] * len(index)
            for feat, w in weights.get(label, {}).items():
                row[index[feat]] = w
            rows.append(row)
        self._store(index, rows, denominator)

    def _store(self, feats, rows: List[List[int]], denominator: int) -> None:
        """Keep the integer numerators ``rows``, one per label, whose columns
        follow the order of ``feats``, over one positive int denominator,
        unbound. Each row's sum of |weight| must be below 2**53, so that any
        sum of its weights, as integral floats, is exact."""
        if type(denominator) is not int or denominator < 1:
            raise TrainingError(f"denominator {denominator!r} is not a positive int")
        for label, row in zip(self.labels, rows):
            if not {int}.issuperset(map(type, row)):
                raise TrainingError(f"a weight for {label!r} is not an int")
            if sum(map(abs, row)) >= 2**53:
                raise TrainingError(f"the |weights| for {label!r} sum to 2**53 or more")
        # Expanded feature -> id, and per label its numerators by id.
        self.index: Dict[str, int] = {feat: k for k, feat in enumerate(feats)}
        self.rows: List[List[float]] = [list(map(float, row)) for row in rows]
        self.denominator = denominator
        # The (s1, s2) splits of the indexed conjunctions (``_splits``), and
        # every predicate a score reads.
        self.splits = _splits(self.index)
        self.predicates = frozenset(self.index).union(*self.splits)
        self.vocabulary: Optional[Vocabulary] = None
        self.known = 0
        self.expansion: Optional[_Expansion] = None
        # The ranking memo: key -> labels as transitions, best first (predict).
        self.rankings: Dict[int, Tuple[Transition, ...]] = {}
        # The block memo: the block part of a key -> per label, the sum of
        # its weights at the block's ids (score).
        self.partials: Dict[int, List[float]] = {}

    def bind(self, vocabulary: Vocabulary) -> None:
        """Key scores by the bits of ``vocabulary``, a fixed vocabulary that
        holds every predicate this classifier knows, in any order, with a
        new expansion and empty ranking and block memos. The expansion
        pairs each s1 side with the s2 sides of its indexed conjunctions.
        ``by_label`` lists the labels in sorted order, for ``predict``'s
        ranking."""
        ids = vocabulary.ids
        self.known = vocabulary.encode(self.predicates)
        partners: Dict[int, int] = {}
        for a, b in self.splits:
            p = ids[a]
            partners[p] = partners.get(p, 0) | 1 << ids[b]
        self.expansion = _Expansion(
            vocabulary.names, vocabulary.encode(self.index), partners, self.index.__getitem__
        )
        self.by_label = sorted(self.labels)
        self.vocabulary = vocabulary
        self.rankings = {}
        self.partials = {}

    def score(self, key: int) -> Dict[str, float]:
        """Per-label sums of the weight numerators over the expanded
        features of a key, the bits of known predicates over the bound
        vocabulary: each label starts from its block partial, summed once
        per block part (``partials``), and adds the rest's weights."""
        expansion = self.expansion
        part = key & expansion.block
        partials = self.partials.get(part)
        if partials is None:
            ids = expansion.block_ids(part)
            partials = self.partials[part] = []
            for row in self.rows:
                total = 0.0
                for i in ids:
                    total += row[i]
                partials.append(total)
        ids = expansion.rest_ids(key)
        scores = {}
        for label, row, total in zip(self.labels, self.rows, partials):
            for i in ids:
                total += row[i]
            scores[label] = total
        return scores

    def weights_by_label(self) -> Dict[str, Dict[str, int]]:
        """The weight numerators label-major (label -> feature -> weight), as
        stored."""
        return {
            label: {feat: int(row[i]) for feat, i in self.index.items() if row[i]}
            for label, row in zip(self.labels, self.rows)
        }


def _shuffle(items: list, rng: random.Random) -> None:
    """Shuffle ``items`` in place by Fisher-Yates from the end, drawing each
    index below ``n = i + 1`` as ``n.bit_length()`` bits of
    ``rng.getrandbits`` until a draw is below ``n``. This is
    ``random.Random.shuffle``'s permutation, and leaves the generator in the
    same state, on Python 3.10 to 3.13; training depends only on the
    generator's bits, not on a stdlib algorithm that may change."""
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


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


class Model(_Record):
    """A trained model. ``==`` and the ``repr`` leave out what ``bind``
    derives: ``parsed_labels``, each classifier label parsed once for
    predict, and ``vocabulary``, every predicate a classifier knows, in
    sorted order."""

    _fields = (
        "feature_set", "transition_vocabulary", "classifiers", "hyperparameters",
        "relation_vocab", "corpus_fingerprint", "counts",
    )

    def __init__(
        self,
        feature_set: FeatureSetSpec,
        transition_vocabulary: List[str],
        classifiers: Dict[str, AveragedPerceptron],
        hyperparameters: Optional[dict] = None,
        relation_vocab: Optional[List[str]] = None,
        corpus_fingerprint: str = "",
        counts: Optional[dict] = None,
    ):
        self.feature_set = feature_set
        self.transition_vocabulary = transition_vocabulary
        self.classifiers = classifiers
        self.hyperparameters = dict(HYPERPARAMETERS) if hyperparameters is None else hyperparameters
        self.relation_vocab = [] if relation_vocab is None else relation_vocab
        self.corpus_fingerprint = corpus_fingerprint
        self.counts = {} if counts is None else counts
        self.bind()

    def bind(self) -> None:
        """Parse each classifier label, number every predicate any classifier
        knows, and bind each classifier to that vocabulary. The strings that
        can be conjunctions, those that start with "s1:" and hold "&s2:"
        (``_splits``), come after all the others, each group in sorted
        order: ``featurize`` sets a conjunction's bit only where a lemma
        spells it, so the other keys stay narrow."""
        self.parsed_labels = {
            label: parse_transition(label)
            for clf in self.classifiers.values()
            for label in clf.labels
        }
        known: set = set()
        for clf in self.classifiers.values():
            known.update(clf.predicates)
        tail = {feat for feat in known if feat.startswith("s1:") and "&s2:" in feat}
        self.vocabulary = Vocabulary(sorted(known - tail) + sorted(tail))
        for clf in self.classifiers.values():
            clf.bind(self.vocabulary)

    def serialize(self) -> str:
        """The model as JSON text. ``json`` is imported here, so importing
        the package does not load it."""
        import json

        payload = {
            "format": "hybridparse-model",
            "version": 2,
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
                    "denominator": clf.denominator,
                    "weights": clf.weights_by_label(),
                }
                for pos, clf in sorted(self.classifiers.items())
            },
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @staticmethod
    def deserialize(text: str, tags: TagSet = DEFAULT_TAGS) -> "Model":
        """The model a ``serialize`` text describes. Any malformed text
        raises TrainingError. ``json`` is imported here, as in
        ``serialize``."""
        import json

        try:
            payload = json.loads(text)
            if not isinstance(payload, dict) or payload.get("format") != "hybridparse-model":
                raise TrainingError("not a model file")
            version = payload.get("version")
            if version != 2:
                raise TrainingError(f"model file version {version!r}; this reader reads 2")
            known = set(tags.relations)
            for rel in payload["relations"]:
                if rel not in known:
                    try:
                        parse_label(rel, tags)
                    except ValueError:
                        raise TrainingError(f"model relation vocabulary mismatch: {rel!r}")
            classifiers = {}
            for pos, data in payload["classifiers"].items():
                labels = data["labels"]
                if len(set(labels)) != len(labels):
                    raise TrainingError(f"repeated label in classifier {pos!r}: {labels}")
                clf = AveragedPerceptron(labels, data["epochs"], data["seed"])
                clf.load(data["weights"], data["denominator"])
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
    """The sha256 of the treebank document the blocks make up. ``hashlib``
    is imported here, so importing the package does not load it."""
    import hashlib

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

    The partition of s1 is read inline, as ``_partition_key`` gives it. Its
    classifier's labels are ranked, by one ``score``, once per key
    (``rankings``); the kinds ``allowed_kinds`` excludes are skipped after,
    which keeps the order, so one ranking serves both pipelines, and the
    rest go to ``legal`` in rank order. ``report``, if given, counts a step
    whose best-ranked allowed transition is illegal in its
    ``illegal_top_steps``, the rank among the allowed transitions (the best
    is 1) of the one taken instead in its ``fallback_ranks``, and a step
    that falls back to ``forced`` in its ``forced_steps``."""
    s1 = config.pushed[-1] if config.pushed else None
    clf = model.classifiers.get(
        config.terminals[s1].pos if isinstance(s1, int) else s1.tag if s1 else EMPTY_PARTITION
    )
    if clf is not None:
        if clf.vocabulary is not model.vocabulary:
            model.bind()
        # A classifier that knows no predicate reads no bit of a key.
        key = clf.known and featurize(config, model.feature_set, model.vocabulary) & clf.known
        ranking = clf.rankings.get(key)
        if ranking is None:
            # A reverse sort is stable, so tied labels keep their sorted order.
            totals = clf.score(key)
            ranked = sorted(clf.by_label, key=totals.__getitem__, reverse=True)
            ranking = clf.rankings[key] = tuple(map(model.parsed_labels.__getitem__, ranked))
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
