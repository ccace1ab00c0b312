"""Configuration predicates, and their bits in a predicate vocabulary.

Configurations are described by binary predicates over the top three
stack items and the queue front. Static predicates follow the nested
feature sets Pos < Morph6 < Morph9 < Lemma < Phi; dynamic predicates
describe the partially built graph (existing dependent relations, rooted
subgraphs, and previously parsed edges between slot pairs).

A ``Vocabulary`` gives each predicate it knows one bit, its position, and
a set of predicates is the int of their bits. A fixed vocabulary knows the
predicates it was built with, in the order given, and gives any other one no
bit; a growing one gives a new predicate the next position. Positions need
not ascend in name order: a model's vocabulary numbers the s1 x s2
conjunction strings after every other predicate (``learning.Model.bind``),
since a configuration holds one only where a lemma spells it, so the ints
``featurize`` builds stay about as wide as the plain predicates.
``featurize`` describes a configuration as that int and builds no string or
set on the way:

- ``absent`` and ``isroot`` have one bit per slot, and ``graph:edge`` one
  per pair that can hold an edge (``edge12``, ``edge23``), computed when the
  vocabulary is made; ``phrase=<tag>`` and ``deprel(<rel>)`` have a table
  per slot, tag or relation -> bit, filled on first use.
- A terminal's static predicates (pos, morphology, copula, lemma) read
  only its pos, features and lemma, so the vocabulary memoizes their bits
  per feature set level by those fields (``static_bits``): one miss builds
  the predicates as strings and encodes them for all four slots, a tuple of
  one int per slot position. A fixed vocabulary keys a lemma that no slot's
  ``lemma=`` predicate holds, and every lemma below the lemma level, as
  None: such a lemma has no bit in any slot, so the bits are the same. A
  memo level therefore holds at most the distinct (pos, features) tags it
  has seen times (the known lemmas + 1) entries, and does not grow with the
  word types that are parsed. A growing vocabulary keys every lemma. The
  morphological predicates come from the sorted ``features`` pairs, through
  a table per level and slot of the predicate prefix of each key.
- The configuration's ``static_cache`` keeps each terminal's tuple for the
  walk, exact because terminals are frozen values. It belongs to one memo
  level of one vocabulary (``static_owner``); another one empties it first.
- ``featurize`` reads q1 first. The queue front carries no edge (a
  ``Configuration`` invariant), so q1 takes only its static bits and its
  ``isroot`` bit, and ``graph:edge(s1,q1)`` is never looked for. Then it
  reads s1, s2 and s3 in turn, each through one helper (``_slot_bits``: the
  static or phrase bit, the deprel bits, the isroot bit), and returns with
  the ``absent`` bits of the slots left once the stack runs out.
- The dynamic predicates read the working graph's edge lists by dependent
  and by head, and its yield masks: ``graph:edge(s1,s2)`` and
  ``graph:edge(s2,s3)`` look for an edge either way between the pair's
  nodes in their lists by dependent (``_joined``), and ``isroot`` holds for
  a headless node whose mask is one run, the test of ``mask_span`` written
  as ``not (m + (m & -m)) & m``. A predicate without a bit is not computed.

``extract_features`` is the same description as a frozenset of strings: the
decode of ``featurize`` over a fresh growing vocabulary. Neither training
nor parsing calls it; the tests compare the bits against it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, List

from .graph import EmptyCategory, _Value
from .transitions import Configuration, _Kind
from .vocab import COPULA_GROUP

FEATURE_SETS = ("pos", "morph6", "morph9", "lemma", "phi")

# Static morphological predicates added by each nested feature set.
_SET_LEVELS = {name: i for i, name in enumerate(FEATURE_SETS)}
_MORPH6 = ("Voice", "Mood", "Case", "State")
_MORPH9 = ("PronType", "SegType")
_PHI = ("Person", "Gender", "Number")

SLOTS = ("s1", "s2", "s3", "q1")


class FeatureSetSpec(_Kind, _Value, namedtuple("FeatureSetSpec", "name")):
    """Equal only to a ``FeatureSetSpec``, as a transition is only to its
    own kind (``transitions._Kind``): as a tuple, it would equal
    ``InsertEmpty(name)`` one way and not the other."""

    __slots__ = ()

    def __new__(cls, name: str):
        if name not in FEATURE_SETS:
            raise ValueError(f"unknown feature set {name!r}")
        return tuple.__new__(cls, (name,))

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

# The predicate prefix of a lemma in each slot.
_LEMMA_PREFIXES = tuple(f"{slot}:lemma=" for slot in SLOTS)
_LEMMA_LEVEL = _SET_LEVELS["lemma"]


def positions(bits: int) -> List[int]:
    """The positions of the set bits, ascending."""
    out = []
    while bits:
        p = bits.bit_length() - 1
        out.append(p)
        bits ^= 1 << p
    out.reverse()
    return out


class Vocabulary:
    """Predicate <-> bit position, and the per-slot bit tables of
    ``featurize``. ``names`` lists the predicates by position."""

    def __init__(self, predicates: Iterable[str] = (), grow: bool = False):
        self.names: List[str] = list(predicates)
        self.ids: Dict[str, int] = {name: p for p, name in enumerate(self.names)}
        self.grow = grow
        self.absent = tuple(self.bit(f"{slot}:absent") for slot in SLOTS)
        self.isroot = tuple(self.bit(f"{slot}:isroot") for slot in SLOTS)
        # The graph:edge bits of the pairs that can hold one: no edge
        # reaches q1 (featurize).
        self.edge12 = self.bit("graph:edge(s1,s2)")
        self.edge23 = self.bit("graph:edge(s2,s3)")
        # Per slot position, phrase tag or relation -> bit.
        self.phrase: tuple = tuple({} for _ in SLOTS)
        self.deprel: tuple = tuple({} for _ in SLOTS)
        # Every lemma some slot's lemma predicate holds, or None when the
        # vocabulary grows and keys every lemma.
        self.lemmas = None if grow else frozenset(
            name.partition("=")[2] for name in self.names if name.startswith(_LEMMA_PREFIXES)
        )
        # Per feature set level, (pos, features, lemma) -> static bits per
        # slot position (static_bits).
        self.static: tuple = tuple({} for _ in FEATURE_SETS)

    def bit(self, name: str) -> int:
        """The predicate's bit: 0 when a fixed vocabulary does not know it."""
        p = self.ids.get(name)
        if p is None:
            if not self.grow:
                return 0
            p = self.ids[name] = len(self.names)
            self.names.append(name)
        return 1 << p

    def encode(self, predicates: Iterable[str]) -> int:
        bits = 0
        for name in predicates:
            bits |= self.bit(name)
        return bits

    def decode(self, bits: int) -> frozenset:
        names = self.names
        return frozenset(names[p] for p in positions(bits))

    def static_bits(self, term, level: int) -> tuple:
        """The bits of a terminal's static predicates at a feature set level,
        one int per slot position, memoized by the fields they read. Per
        level, the memo holds at most the distinct (pos, features) tags seen
        times (the known lemmas + 1) entries."""
        if isinstance(term, EmptyCategory):
            # Its predicates are those of a segment without features or lemma.
            key = (term.pos, (), None)
        else:
            lemma = term.lemma
            if level < _LEMMA_LEVEL or (self.lemmas is not None and lemma not in self.lemmas):
                lemma = None
            key = (term.pos, term.features, lemma)
        memo = self.static[level]
        bits = memo.get(key)
        if bits is None:
            bits = memo[key] = tuple(
                self.encode(_static_predicates(term, slot, level)) for slot in SLOTS
            )
        return bits


def _static_predicates(term, slot: str, level: int) -> tuple:
    """A terminal's predicates in a slot that do not depend on the graph:
    pos, morphology, copula and lemma."""
    out = [f"{slot}:pos={term.pos}"]
    if not isinstance(term, EmptyCategory):
        prefixes = _PREFIXES[level][slot]
        copula = False
        for key, value in term.features:
            prefix = prefixes.get(key)
            if prefix is None:
                if key == "SP":
                    copula = value == COPULA_GROUP
            else:
                out.append(prefix + value)
        if copula and level >= 2:
            out.append(f"{slot}:copula")
        if level >= _LEMMA_LEVEL and term.lemma:
            out.append(f"{slot}:lemma={term.lemma}")
    return tuple(out)


def _slot_bits(config: Configuration, vocabulary: Vocabulary, k: int, ref, level: int) -> int:
    """The bits of stack slot ``k`` holding node ``ref``: its static or
    phrase bit, its deprel bits and its isroot bit."""
    if isinstance(ref, int):
        static = config.static_cache[ref]
        if static is None:
            static = config.static_cache[ref] = vocabulary.static_bits(config.terminals[ref], level)
        bits = static[k]
    else:
        tags = vocabulary.phrase[k]
        bits = tags.get(ref.tag)
        if bits is None:
            bits = tags[ref.tag] = vocabulary.bit(f"{SLOTS[k]}:phrase={ref.tag}")
    edges = config.deps.get(ref)
    if edges:
        relations = vocabulary.deprel[k]
        for edge in edges:
            bit = relations.get(edge.relation)
            if bit is None:
                bit = relations[edge.relation] = vocabulary.bit(f"{SLOTS[k]}:deprel({edge.relation})")
            bits |= bit
    # A node with no mask yields its own extent, which is one run. A nonzero
    # mask is one run exactly when adding its lowest bit carries past all of
    # it (mask_span).
    isroot = vocabulary.isroot[k]
    if isroot and ref not in config.heads:
        m = config.masks.get(ref)
        if m is None or not (m + (m & -m)) & m:
            bits |= isroot
    return bits


def _joined(heads: dict, a, b) -> bool:
    """Whether an edge joins ``a`` and ``b`` either way; ``heads`` lists the
    edges by dependent."""
    for edge in heads.get(a, ()):
        if edge.head == b:
            return True
    for edge in heads.get(b, ()):
        if edge.head == a:
            return True
    return False


def featurize(config: Configuration, spec: FeatureSetSpec, vocabulary: Vocabulary) -> int:
    """The bits of the predicates describing a configuration under a
    feature set, over ``vocabulary``.

    Precondition: a queue terminal carries no edge, as in every
    configuration a walk from ``initial`` reaches (``Configuration``). So q1
    has no dependents and no head and yields only itself: it takes its
    static bits and its ``isroot`` bit, and ``graph:edge(s1,q1)`` never
    holds."""
    pushed, terminals, cache = config.pushed, config.terminals, config.static_cache
    level = spec.level
    memo = vocabulary.static[level]
    if config.static_owner is not memo:
        config.static_owner = memo
        cache = config.static_cache = [None] * len(terminals)
    absent = vocabulary.absent
    front = config.front
    if front < len(terminals):
        static = cache[front]
        if static is None:
            static = cache[front] = vocabulary.static_bits(terminals[front], level)
        bits = static[3] | vocabulary.isroot[3]
    else:
        bits = absent[3]
    depth = len(pushed)
    if not depth:
        return bits | absent[0] | absent[1] | absent[2]
    s1 = pushed[-1]
    bits |= _slot_bits(config, vocabulary, 0, s1, level)
    if depth == 1:
        return bits | absent[1] | absent[2]
    s2 = pushed[-2]
    bits |= _slot_bits(config, vocabulary, 1, s2, level)
    heads = config.heads
    if vocabulary.edge12 and _joined(heads, s1, s2):
        bits |= vocabulary.edge12
    if depth == 2:
        return bits | absent[2]
    s3 = pushed[-3]
    bits |= _slot_bits(config, vocabulary, 2, s3, level)
    if vocabulary.edge23 and _joined(heads, s2, s3):
        bits |= vocabulary.edge23
    return bits


def extract_features(config: Configuration, spec: FeatureSetSpec) -> frozenset:
    """Binary predicate set describing a configuration under a feature set."""
    vocabulary = Vocabulary(grow=True)
    return vocabulary.decode(featurize(config, spec, vocabulary))
