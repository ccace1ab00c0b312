"""Configuration predicates, and their bits in a predicate vocabulary.

Configurations are described by binary predicates over the top three
stack items and the queue front. Static predicates follow the nested
feature sets Pos < Morph6 < Morph9 < Lemma < Phi; dynamic predicates
describe the partially built graph (existing dependent relations, rooted
subgraphs, and previously parsed edges between slot pairs).

A ``Vocabulary`` gives each predicate it knows one bit, its position, and
a set of predicates is the int of their bits. A fixed vocabulary knows the
predicates it was built with and gives any other one no bit; a growing one
gives a new predicate the next position. ``featurize`` describes a
configuration as that int and builds no string or set on the way:

- ``absent``, ``isroot`` and ``graph:edge`` have one bit per slot or slot
  pair, computed when the vocabulary is made; ``phrase=<tag>`` and
  ``deprel(<rel>)`` have a table per slot, tag or relation -> bit, filled on
  first use.
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
- The dynamic predicates read the working graph's edge lists by dependent
  and by head, and its yield masks, inline: ``graph:edge`` looks for an
  edge either way between a pair's nodes in their lists by dependent, and
  ``isroot`` holds for a headless node whose mask is one run, the test of
  ``mask_span`` written as ``not (m + (m & -m)) & m``. A predicate without
  a bit is not computed.

``extract_features`` is the same description as a frozenset of strings: the
decode of ``featurize`` over a fresh growing vocabulary. Neither training
nor parsing calls it; the tests compare the bits against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from .graph import EmptyCategory, Phrase
from .transitions import Configuration
from .vocab import COPULA_GROUP

FEATURE_SETS = ("pos", "morph6", "morph9", "lemma", "phi")

# Static morphological predicates added by each nested feature set.
_SET_LEVELS = {name: i for i, name in enumerate(FEATURE_SETS)}
_MORPH6 = ("Voice", "Mood", "Case", "State")
_MORPH9 = ("PronType", "SegType")
_PHI = ("Person", "Gender", "Number")

SLOTS = ("s1", "s2", "s3", "q1")
EDGE_PAIRS = (("s1", "s2"), ("s1", "q1"), ("s2", "s3"))


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
        # The graph:edge bits that exist, each with the positions of its slots.
        self.edges = tuple(
            (SLOTS.index(a), SLOTS.index(b), bit)
            for a, b in EDGE_PAIRS
            if (bit := self.bit(f"graph:edge({a},{b})"))
        )
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


def featurize(config: Configuration, spec: FeatureSetSpec, vocabulary: Vocabulary) -> int:
    """The bits of the predicates describing a configuration under a
    feature set, over ``vocabulary``."""
    pushed, terminals = config.pushed, config.terminals
    depth = len(pushed)
    refs = (
        pushed[-1] if depth > 0 else None,
        pushed[-2] if depth > 1 else None,
        pushed[-3] if depth > 2 else None,
        config.front if config.front < len(terminals) else None,
    )
    heads, deps, masks = config.heads, config.deps, config.masks
    level = spec.level
    memo = vocabulary.static[level]
    if config.static_owner is not memo:
        config.static_owner = memo
        config.static_cache = [None] * len(terminals)
    cache = config.static_cache
    isroot = vocabulary.isroot
    bits = 0
    for k, ref in enumerate(refs):
        if ref is None:
            bits |= vocabulary.absent[k]
            continue
        if isinstance(ref, Phrase):
            tags = vocabulary.phrase[k]
            bit = tags.get(ref.tag)
            if bit is None:
                bit = tags[ref.tag] = vocabulary.bit(f"{SLOTS[k]}:phrase={ref.tag}")
            bits |= bit
        else:
            static = cache[ref]
            if static is None:
                static = cache[ref] = vocabulary.static_bits(terminals[ref], level)
            bits |= static[k]
        edges = deps.get(ref)
        if edges:
            relations = vocabulary.deprel[k]
            for edge in edges:
                bit = relations.get(edge.relation)
                if bit is None:
                    bit = relations[edge.relation] = vocabulary.bit(
                        f"{SLOTS[k]}:deprel({edge.relation})"
                    )
                bits |= bit
        # A node with no mask yields its own extent, which is one run. A
        # nonzero mask is one run exactly when adding its lowest bit carries
        # past all of it (mask_span).
        if isroot[k] and ref not in heads:
            m = masks.get(ref)
            if m is None or not (m + (m & -m)) & m:
                bits |= isroot[k]
    # An edge joins the pair's nodes in either direction; heads lists the
    # edges by dependent.
    for a, b, bit in vocabulary.edges:
        ra, rb = refs[a], refs[b]
        if ra is None or rb is None:
            continue
        for edge in heads.get(ra, ()):
            if edge.head == rb:
                bits |= bit
                break
        else:
            for edge in heads.get(rb, ()):
                if edge.head == ra:
                    bits |= bit
                    break
    return bits


def extract_features(config: Configuration, spec: FeatureSetSpec) -> frozenset:
    """Binary predicate set describing a configuration under a feature set."""
    vocabulary = Vocabulary(grow=True)
    return vocabulary.decode(featurize(config, spec, vocabulary))
