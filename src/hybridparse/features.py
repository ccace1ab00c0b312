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
- A terminal's static predicates (pos, morphology, copula, lemma) are one
  int per slot and feature set level, kept in the configuration's
  ``static_cache``, which is exact because terminals are frozen values. The
  cache belongs to one vocabulary (``static_owner``): another one empties it
  first. On a miss, the predicates are built as strings and encoded, once
  per terminal, slot and level of a walk. The morphological predicates come
  from the sorted ``features`` pairs, through a table per level and slot of
  the predicate prefix of each key.
- The dynamic predicates and ``graph:edge`` read the working graph's edge
  lists by dependent and by head, and ``isroot`` its yield masks
  (``mask_span``). A predicate without a bit is not computed.

``extract_features`` is the same description as a frozenset of strings: the
decode of ``featurize`` over a fresh growing vocabulary. Neither training
nor parsing calls it; the tests compare the bits against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from .graph import EmptyCategory, Phrase, mask_span
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

# Entries per terminal in ``Configuration.static_cache``: one per slot
# position and feature set level.
_CACHE_WIDTH = len(SLOTS) * len(FEATURE_SETS)


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
        if level >= 3 and term.lemma:
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
    if config.static_owner is not vocabulary:
        config.static_owner = vocabulary
        config.static_cache = [None] * len(terminals)
    cache = config.static_cache
    level = spec.level
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
            entry = cache[ref]
            if entry is None:
                entry = cache[ref] = [None] * _CACHE_WIDTH
            at = k * len(FEATURE_SETS) + level
            static = entry[at]
            if static is None:
                static = entry[at] = vocabulary.encode(
                    _static_predicates(terminals[ref], SLOTS[k], level)
                )
            bits |= static
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
        # A node with no mask yields its own extent, which is one run.
        if isroot[k] and ref not in heads and (ref not in masks or mask_span(masks[ref]) is not None):
            bits |= isroot[k]
    for a, b, bit in vocabulary.edges:
        ra, rb = refs[a], refs[b]
        if ra is not None and rb is not None and _linked(heads, ra, rb):
            bits |= bit
    return bits


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


def extract_features(config: Configuration, spec: FeatureSetSpec) -> frozenset:
    """Binary predicate set describing a configuration under a feature set."""
    vocabulary = Vocabulary(grow=True)
    return vocabulary.decode(featurize(config, spec, vocabulary))
