"""Hybrid dependency-constituency graph model.

Terminals are an ordered sequence of morphological segments and empty
categories; empty categories occupy real indices. Phrase nodes are
inclusive spans over terminal indices. Edges point from dependents to
heads. Node identity is structural: a terminal is addressed by its
0-based index, a phrase by its (start, end, tag) triple.

The values a corpus holds by the thousand (``Location``, ``MorphSegment``,
``EmptyCategory``, ``Phrase`` and ``Edge``) are named tuples whose
``__new__`` checks the fields (``_Value``); ``_make``, ``_replace``, copying
and unpickling go through it too. They carry no per-instance ``__dict__``,
and building one is a single tuple build, while hashing, equality and field
reads run in C. Their hash, ``repr`` and the ordering of locations and of
phrases are those of the field tuple, as the frozen dataclasses they
replace had. They compare as tuples, so a phrase equals the 3-tuple of its
fields, and an edge would equal a phrase only if its relation were spelled
as a phrase tag, which no default relation is. A ``Violation`` is a named
tuple too. ``HybridGraph`` is a slotted class whose equality, hash and
``repr`` are those of its three fields, and mutable records elsewhere are
plain classes that take a dataclass's ``==`` and ``repr`` from
``_Record``; none of them loads ``dataclasses`` on import. Equal feature sets
share one validated, sorted tuple (``shared_features``): a process-wide
memo maps the given tuple, and the sorted one, to it. Feature keys and
values must therefore be hashable; a segment with an unhashable one raises
``TypeError`` when it is built. Only sets of string keys and values are
shared. Two such tuples that compare equal hold the same characters in
the same order, so a shared tuple has the sort, the ``repr``, the hash
and the written form of the one the segment would have built: the sharing
is exact. Values of other types may compare equal and still differ
(``1``, ``1.0``, ``True``), so their sets are sorted per segment. Feature
sets come from a small closed inventory, so the memo is bounded and
cleared like ``vocab.read_label``'s, at ``vocab.MEMO_MAX`` entries.

A graph keeps derived state beside its value:

- Edge indices by dependent and by head, built with one pass over the
  edges on first use, since most graphs are only compared, scored or
  written.
- Yield masks: each node's yield as an int bitmask over terminal indices,
  so a terminal covered twice (a phrase and its root) counts once. They are
  computed on first use (``yield_masks``), each edge added by ``spread``:
  it ORs the dependent's mask into the head and up every head chain until a
  mask stops changing, which keeps mask(head) a superset of mask(dependent)
  for every edge, so it is exact on any graph, multi-headed and cyclic ones
  included. ``mask_span`` is the one contiguity test. The working graph
  that is edited in place (``transitions.Configuration``) keeps its masks
  by the same rule.

One rule renumbers references across an edit that deletes or inserts
terminals (``TerminalEdit.move``; ``Configuration.edit`` applies it). With
all indices taken before the edit, an index or span start ``i`` becomes
``i - #{deleted < i} + #{insert points <= i}`` and a span end ``e`` becomes
``e - #{deleted <= e} + #{insert points <= e}``. It composes the
one-terminal edits, so one edit equals its terminals edited one at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Mapping
from operator import itemgetter
from typing import Iterable, Optional, Union

from .vocab import DEFAULT_TAGS, MEMO_MAX, TagSet, read_label

# Surface form of a reconstructed word other than a dropped pronoun.
ELLIPTICAL_FORM = "*"


class GraphError(Exception):
    """Invalid reference or ill-formed structure."""


class IllFormedPhraseError(GraphError):
    """Phrase span does not cover a uniquely-rooted subgraph."""


class NonProjectiveError(GraphError):
    """Subgraph yield is not a contiguous interval."""


class _Value:
    """Routes ``_make``, and with it ``_replace``, and copying and unpickling
    under every pickle protocol through ``__new__``, so a value built from
    fields is checked, and its features shared, as by its constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class _Record:
    """A mutable record with a dataclass's ``==`` and ``repr`` over the
    attributes ``_fields`` names, in ``__init__``'s order; unhashable, as a
    dataclass with ``==`` is."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Location(_Value, namedtuple("Location", "chapter verse token segment")):
    """Chapter:verse:token[:segment] reference. All components >= 1."""

    __slots__ = ()

    def __new__(cls, chapter: int, verse: int, token: int = 1, segment: int = 1):
        fields = (chapter, verse, token, segment)
        if chapter < 1 or verse < 1 or token < 1 or segment < 1:
            name = next(n for n, v in zip(cls._fields, fields) if v < 1)
            raise ValueError(f"location {name} must be >= 1")
        return tuple.__new__(cls, fields)

    def __str__(self) -> str:
        if self.segment != 1:
            return f"({self.chapter}:{self.verse}:{self.token}:{self.segment})"
        return f"({self.chapter}:{self.verse}:{self.token})"


# Feature set as given, and sorted -> its validated, sorted tuple; only
# sets of strings that passed the repeated-key check are stored.
_FEATURES: dict = {}


def shared_features(given) -> tuple:
    """The sorted tuple of the feature set ``given``, (key, value) pairs as a
    tuple, a Mapping or another iterable, shared among equal sets of strings
    (see the module docstring). ValueError on a repeated key."""
    # Most features come as tuples; the Mapping check is the slower one.
    if not isinstance(given, tuple):
        given = tuple(given.items() if isinstance(given, Mapping) else given)
    feats = _FEATURES.get(given)
    if feats is not None:
        return feats
    feats = tuple(sorted(given))
    if len(dict(feats)) < len(feats):
        key = next(a for (a, _), (b, _) in zip(feats, feats[1:]) if a == b)
        raise ValueError(f"repeated feature key {key!r}")
    if all(type(key) is str and type(value) is str for key, value in feats):
        if len(_FEATURES) > MEMO_MAX - 2:
            _FEATURES.clear()
        feats = _FEATURES[given] = _FEATURES.setdefault(feats, feats)
    return feats


class MorphSegment(
    _Value,
    namedtuple("MorphSegment", "location form pos features lemma root is_reference"),
):
    """One syntactic unit: a prefix, stem or suffix of a word-form."""

    __slots__ = ()

    def __new__(
        cls,
        location: Location,
        form: str,
        pos: str,
        features=(),
        lemma: Optional[str] = None,
        root: Optional[str] = None,
        is_reference: bool = False,
    ):
        return tuple.__new__(
            cls, (location, form, pos, shared_features(features), lemma, root, is_reference)
        )

    def feature(self, name: str, default: str = "") -> str:
        for key, value in self.features:
            if key == name:
                return value
        return default

    @property
    def feature_map(self) -> dict:
        return dict(self.features)


class EmptyCategory(_Value, namedtuple("EmptyCategory", "pos form")):
    """Terminal node for a reconstructed word. Position in the terminal
    sequence carries its anchoring; the form is the reconstructed surface.
    """

    __slots__ = ()

    def __new__(cls, pos: str, form: str):
        if not form:
            raise ValueError("empty category needs a non-empty form")
        return tuple.__new__(cls, (pos, form))


Terminal = Union[MorphSegment, EmptyCategory]


class Phrase(_Value, namedtuple("Phrase", "start end tag")):
    """Phrase node: inclusive (start, end) span over terminal indices."""

    __slots__ = ()

    def __new__(cls, start: int, end: int, tag: str):
        if start > end:
            raise ValueError("phrase span start must be <= end")
        if start < 0:
            raise ValueError("phrase span start must be >= 0")
        return tuple.__new__(cls, (start, end, tag))


NodeRef = Union[int, Phrase]


class Edge(_Value, namedtuple("Edge", "dependent head relation")):
    """A dependent -> head edge; either end is a terminal index or a phrase."""

    __slots__ = ()

    def __new__(cls, dependent: NodeRef, head: NodeRef, relation: str):
        if dependent == head:
            raise ValueError("edge endpoints must differ")
        return tuple.__new__(cls, (dependent, head, relation))


class Violation(namedtuple("Violation", "rule subject")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.rule}: {self.subject}"


def empty_category(
    pos: str, anchor: Optional[Terminal], tags: TagSet = DEFAULT_TAGS
) -> EmptyCategory:
    """A reconstructed word anchored at ``anchor``: a pronoun after a verb
    takes its form from the verb's phi features, anything else the
    elliptical placeholder."""
    if pos == "PRON" and isinstance(anchor, MorphSegment) and anchor.pos == "V":
        return EmptyCategory(pos, tags.pronoun_form(anchor.feature_map))
    return EmptyCategory(pos, ELLIPTICAL_FORM)


class TerminalEdit:
    """An edit of ``n`` terminals: those at the indices ``deleted`` go, and
    each ``(at, terminal)`` of ``inserted`` goes before index ``at``
    (``n`` appends), several at one index in the given order; an index
    outside the terminals raises ``GraphError``. ``move`` is the
    renumbering rule of the module docstring; ``landed`` gives where each
    inserted terminal ends up, and no index below ``first`` moves."""

    def __init__(self, n: int, deleted=(), inserted=()):
        self.deleted = frozenset(deleted)
        self.gone = gone = sorted(self.deleted)
        self.inserted = sorted(inserted, key=itemgetter(0))
        self._points = points = [at for at, _ in self.inserted]
        if (
            gone and not 0 <= gone[0] <= gone[-1] < n
            or points and not 0 <= points[0] <= points[-1] <= n
        ):
            raise GraphError(f"edit outside the {n} terminals")
        # After the terminals kept before it and those inserted before it.
        self.landed = [at - bisect_left(gone, at) + k for k, at in enumerate(points)]
        self.first = min(gone[0] if gone else n, points[0] if points else n)

    def move(self, ref: NodeRef) -> NodeRef:
        """The reference after the edit."""
        if isinstance(ref, Phrase):
            if ref.end < self.first:
                return ref
            end = self.move(ref.end) - (ref.end in self.deleted)
            return Phrase(self.move(ref.start), end, ref.tag)
        if ref < self.first:
            return ref
        return ref - bisect_left(self.gone, ref) + bisect_right(self._points, ref)


def ref_key(ref: NodeRef) -> tuple:
    """Deterministic sort key over mixed terminal/phrase references."""
    if isinstance(ref, Phrase):
        return (1, ref.start, ref.end, ref.tag)
    return (0, ref, 0, "")


class HybridGraph:
    """Immutable hybrid graph value. Equality, the hash and the ``repr`` are
    those of the three fields; the lazy indices and masks are left out."""

    __slots__ = ("terminals", "phrases", "edges", "_head_index", "_dep_index", "_masks", "_starts")

    def __init__(self, terminals=(), phrases=frozenset(), edges=frozenset()):
        init = object.__setattr__
        init(self, "terminals", terminals)
        init(self, "phrases", phrases)
        init(self, "edges", edges)
        init(self, "_head_index", None)
        init(self, "_dep_index", None)
        init(self, "_masks", None)
        init(self, "_starts", None)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "terminals", tuple(self.terminals))
        object.__setattr__(self, "phrases", frozenset(self.phrases))
        object.__setattr__(self, "edges", frozenset(self.edges))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.terminals, self.phrases, self.edges) == (
                other.terminals, other.phrases, other.edges
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.terminals, self.phrases, self.edges))

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(terminals={self.terminals!r}, "
            f"phrases={self.phrases!r}, edges={self.edges!r})"
        )

    def __reduce__(self):
        return type(self), (self.terminals, self.phrases, self.edges)

    def _indices(self) -> tuple:
        """(edges by dependent, edges by head), built on first use."""
        if self._head_index is None:
            heads: dict = {}
            deps: dict = {}
            for edge in self.edges:
                heads.setdefault(edge.dependent, []).append(edge)
                deps.setdefault(edge.head, []).append(edge)
            object.__setattr__(self, "_head_index", heads)
            object.__setattr__(self, "_dep_index", deps)
        return self._head_index, self._dep_index

    # -- node access ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.terminals)

    @property
    def segments(self) -> tuple:
        return tuple(t for t in self.terminals if isinstance(t, MorphSegment))

    def has_node(self, ref: NodeRef) -> bool:
        if isinstance(ref, Phrase):
            return ref in self.phrases
        return 0 <= ref < len(self.terminals)

    def _check_node(self, ref: NodeRef) -> None:
        if not self.has_node(ref):
            raise GraphError(f"unknown node {ref!r}")

    @staticmethod
    def extent(ref: NodeRef) -> tuple:
        """Surface interval occupied by the node itself (not its subgraph)."""
        if isinstance(ref, Phrase):
            return (ref.start, ref.end)
        return (ref, ref)

    # -- subgraph functions ----------------------------------------------

    def head_of(self, ref: NodeRef) -> Optional[NodeRef]:
        """Head of ``ref`` if it is a dependent in some edge, else None."""
        self._check_node(ref)
        edges = self._indices()[0].get(ref, ())
        return edges[0].head if edges else None

    def head_edges(self, ref: NodeRef) -> tuple:
        return tuple(self._indices()[0].get(ref, ()))

    def dependent_edges(self, ref: NodeRef) -> tuple:
        """Edges in which ``ref`` is the head, sorted for determinism."""
        return tuple(
            sorted(
                self._indices()[1].get(ref, ()),
                key=lambda e: (ref_key(e.dependent), e.relation),
            )
        )

    def yield_masks(self) -> dict:
        """Node -> yield bitmask, computed on first use. Unchecked: callers
        only read it."""
        masks = self._masks
        if masks is None:
            masks = {i: 1 << i for i in range(len(self.terminals))}
            for phrase in self.phrases:
                masks[phrase] = own_mask(phrase)
            heads = self._indices()[0]
            for edge in self.edges:
                dependent = edge.dependent
                bits = masks.get(dependent) or own_mask(dependent)
                spread(masks, heads, edge.head, bits)
            object.__setattr__(self, "_masks", masks)
        return masks

    def subgraph_span(self, ref: NodeRef) -> Optional[tuple]:
        """Contiguous (start, end) interval of the node's subgraph yield, or
        None when the yield has gaps (the subgraph is non-projective)."""
        self._check_node(ref)
        return mask_span(self.yield_masks()[ref])

    def subgraph_root(self, phrase: Phrase) -> NodeRef:
        """The unique headless node whose subgraph the phrase spans."""
        self._check_node(phrase)
        self._check_node(phrase.end)  # a phrase past the last terminal has no root
        if self._starts is None:
            object.__setattr__(self, "_starts", phrases_by(self.phrases))
        return subgraph_root(phrase, self._starts, self._indices()[0], self.yield_masks().__getitem__)

    # -- validation --------------------------------------------------------

    def validate(self, tags: TagSet = DEFAULT_TAGS) -> list:
        """All invariant violations, as data. Never raises on bad structure."""
        out: list[Violation] = []
        n = len(self.terminals)
        for i, term in enumerate(self.terminals):
            if not tags.is_pos(term.pos):
                out.append(Violation("unknown-pos", f"terminal {i}: {term.pos}"))
        phrases = sorted(self.phrases)
        for k, phrase in enumerate(phrases):
            if not (0 <= phrase.start <= phrase.end < n):
                out.append(Violation("phrase-bounds", str(phrase)))
            if not tags.is_phrase_tag(phrase.tag):
                out.append(Violation("unknown-phrase-tag", str(phrase)))
            # Later phrases start no earlier; from the first that starts
            # after this one ends, all are disjoint from it.
            for other in phrases[k + 1 :]:
                if other.start > phrase.end:
                    break
                if other.end > phrase.end and other.start > phrase.start:
                    out.append(Violation("phrase-overlap", f"{phrase} crosses {other}"))
        first_head: dict = {}  # dependent -> its head in the sorted edges
        for edge in sorted(self.edges, key=lambda e: (ref_key(e.dependent), ref_key(e.head))):
            for ref in (edge.dependent, edge.head):
                if not self.has_node(ref):
                    out.append(Violation("dangling-edge", f"{edge} references {ref!r}"))
            if read_label(edge.relation, tags)[1] is not None:
                out.append(Violation("unknown-relation", edge.relation))
            if edge.dependent in first_head:
                out.append(
                    Violation("single-governor", f"{edge.dependent!r} has two heads")
                )
            else:
                first_head[edge.dependent] = edge.head
        for start in first_head:
            node, trail = start, set()
            while node in first_head and node not in trail:
                trail.add(node)
                node = first_head[node]
            if node in trail:
                out.append(Violation("acyclicity", f"cycle through {start!r}"))
        return out


def mask_span(mask: int) -> Optional[tuple]:
    """(first, last) bit of a non-empty mask whose bits form one run, else None."""
    start = (mask & -mask).bit_length() - 1
    run = mask >> start
    if run & (run + 1):
        return None
    return (start, start + run.bit_length() - 1)


def own_mask(ref: NodeRef) -> int:
    """Bitmask of the terminals the node itself occupies."""
    if isinstance(ref, Phrase):
        return ((1 << (ref.end - ref.start + 1)) - 1) << ref.start
    return 1 << ref


def spread(masks: dict, heads: dict, node: NodeRef, bits: int) -> None:
    """OR ``bits`` into ``node``'s mask and up every head chain, stopping
    wherever a mask does not change."""
    stack = [node]
    while stack:
        node = stack.pop()
        # A node with no mask starts from its own extent: the working
        # graph keeps none for a node whose yield is its extent, and
        # a constructed graph may hold an edge to a node it lacks (see
        # ``validate``).
        old = masks.get(node) or own_mask(node)
        new = old | bits
        if new == old:
            continue
        masks[node] = new
        for edge in heads.get(node, ()):
            stack.append(edge.head)


def phrases_by(phrases, side: str = "start") -> dict:
    """Index -> the phrases that start (or end) there."""
    out: dict = {}
    for phrase in phrases:
        out.setdefault(getattr(phrase, side), []).append(phrase)
    return out


def nodes_within(starts: dict, start: int, end: int):
    """The terminals from ``start`` to ``end``, then the phrases of
    ``starts`` (``phrases_by``) that lie within them."""
    yield from range(start, end + 1)
    for i in range(start, end + 1):
        for phrase in starts.get(i, ()):
            if phrase.end <= end:
                yield phrase


def subgraph_root(phrase: Phrase, starts: dict, heads: dict, mask_of) -> NodeRef:
    """The unique headless node whose subgraph ``phrase`` spans, in a graph
    with the edges ``heads`` by dependent, the phrases ``starts`` by start
    index and the yield masks ``mask_of(node)``. Only the nodes within the
    span are looked at."""
    outside = ~own_mask(phrase)
    candidates: list = []
    for node in nodes_within(starts, phrase.start, phrase.end):
        if node != phrase and node not in heads and not mask_of(node) & outside:
            candidates.append((node, mask_of(node)))
    # A headless node whose yield sits strictly inside another candidate's
    # yield is covered by that subgraph (e.g. a preposition under an
    # attached prepositional phrase), not a root of its own.
    roots = [
        cand for cand, covered in candidates
        if not any(covered != other and covered & other == covered for _, other in candidates)
    ]
    if len(roots) != 1:
        raise IllFormedPhraseError(f"phrase {phrase} covers {len(roots)} headless root(s)")
    return roots[0]


def graph_from(
    terminals: Iterable[Terminal],
    edges: Iterable[tuple] = (),
    phrases: Iterable[Phrase] = (),
) -> HybridGraph:
    """Convenience constructor: edges given as (dependent, head, relation)."""
    return HybridGraph(
        tuple(terminals),
        frozenset(phrases),
        frozenset(Edge(d, h, r) for d, h, r in edges),
    )
