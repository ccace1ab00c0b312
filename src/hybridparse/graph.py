"""Hybrid dependency-constituency graph model.

Terminals are an ordered sequence of morphological segments and empty
categories; empty categories occupy real indices. Phrase nodes are
inclusive spans over terminal indices. Edges point from dependents to
heads. Node identity is structural: a terminal is addressed by its
0-based index, a phrase by its (start, end, tag) triple.

A graph keeps derived state beside its value and carries it forward:

- Edge indices by dependent and by head. The constructor builds them
  with one pass over the edges. ``with_edge`` and ``with_phrase`` start
  from the parent's indices instead: a shallow copy plus the one new
  entry, never mutating a list the parent still holds.
- Yield masks: each node's yield as an int bitmask over terminal
  indices, so a terminal covered twice (a phrase and its root) counts
  once. A graph from the constructor computes its masks on the first
  ``subgraph_span`` or ``yield_of`` call. ``with_edge`` ORs the
  dependent's mask into the head and up every head chain until a mask
  stops changing; the lazy computation adds each edge by the same rule.
  It keeps mask(head) a superset of mask(dependent) for every edge, so
  it is exact on any graph, multi-headed and cyclic ones included.
  ``with_phrase`` adds the phrase's own extent.

One rule renumbers references across an edit that deletes or inserts
terminals (``TerminalEdit.move``; ``HybridGraph.edited`` applies it). With
all indices taken before the edit, an index or span start ``i`` becomes
``i - #{deleted < i} + #{insert points <= i}`` and a span end ``e`` becomes
``e - #{deleted <= e} + #{insert points <= e}``. It composes the
one-terminal edits, so one edit equals its terminals edited one at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Union

from .vocab import DEFAULT_TAGS, TagSet, parse_label

# Surface form of a reconstructed word other than a dropped pronoun.
ELLIPTICAL_FORM = "*"


class GraphError(Exception):
    """Invalid reference or ill-formed structure."""


class IllFormedPhraseError(GraphError):
    """Phrase span does not cover a uniquely-rooted subgraph."""


class NonProjectiveError(GraphError):
    """Subgraph yield is not a contiguous interval."""


@dataclass(frozen=True, order=True)
class Location:
    """Chapter:verse:token[:segment] reference. All components >= 1."""

    chapter: int
    verse: int
    token: int = 1
    segment: int = 1

    def __post_init__(self):
        for name in ("chapter", "verse", "token", "segment"):
            if getattr(self, name) < 1:
                raise ValueError(f"location {name} must be >= 1")

    def __str__(self) -> str:
        if self.segment != 1:
            return f"({self.chapter}:{self.verse}:{self.token}:{self.segment})"
        return f"({self.chapter}:{self.verse}:{self.token})"


@dataclass(frozen=True)
class MorphSegment:
    """One syntactic unit: a prefix, stem or suffix of a word-form."""

    location: Location
    form: str
    pos: str
    features: tuple = ()
    lemma: Optional[str] = None
    root: Optional[str] = None
    is_reference: bool = False

    def __post_init__(self):
        feats = self.features
        if isinstance(feats, Mapping):
            feats = tuple(sorted(feats.items()))
        else:
            feats = tuple(sorted(feats))
        if len(dict(feats)) < len(feats):
            key = next(a for (a, _), (b, _) in zip(feats, feats[1:]) if a == b)
            raise ValueError(f"repeated feature key {key!r}")
        object.__setattr__(self, "features", feats)

    def feature(self, name: str, default: str = "") -> str:
        for key, value in self.features:
            if key == name:
                return value
        return default

    @property
    def feature_map(self) -> dict:
        return dict(self.features)


@dataclass(frozen=True)
class EmptyCategory:
    """Terminal node for a reconstructed word. Position in the terminal
    sequence carries its anchoring; the form is the reconstructed surface.
    """

    pos: str
    form: str

    def __post_init__(self):
        if not self.form:
            raise ValueError("empty category needs a non-empty form")


Terminal = Union[MorphSegment, EmptyCategory]


@dataclass(frozen=True, order=True)
class Phrase:
    """Phrase node: inclusive (start, end) span over terminal indices."""

    start: int
    end: int
    tag: str

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("phrase span start must be <= end")
        if self.start < 0:
            raise ValueError("phrase span start must be >= 0")


NodeRef = Union[int, Phrase]


@dataclass(frozen=True)
class Edge:
    dependent: NodeRef
    head: NodeRef
    relation: str

    def __post_init__(self):
        if self.dependent == self.head:
            raise ValueError("edge endpoints must differ")


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str

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
    renumbering rule of the module docstring."""

    def __init__(self, n: int, deleted=(), inserted=()):
        self.deleted = frozenset(deleted)
        self._gone = gone = sorted(self.deleted)
        self.inserted = sorted(inserted, key=itemgetter(0))
        self._points = points = [at for at, _ in self.inserted]
        if (
            gone and not 0 <= gone[0] <= gone[-1] < n
            or points and not 0 <= points[0] <= points[-1] <= n
        ):
            raise GraphError(f"edit outside the {n} terminals")
        # No index before the first deleted index or insertion point moves.
        self._first = gone[0] if gone else n
        if points and points[0] < self._first:
            self._first = points[0]

    def move(self, ref: NodeRef) -> NodeRef:
        """The reference after the edit."""
        if isinstance(ref, Phrase):
            if ref.end < self._first:
                return ref
            end = self.move(ref.end) - (ref.end in self.deleted)
            return Phrase(self.move(ref.start), end, ref.tag)
        if ref < self._first:
            return ref
        return ref - bisect_left(self._gone, ref) + bisect_right(self._points, ref)


def ref_key(ref: NodeRef) -> tuple:
    """Deterministic sort key over mixed terminal/phrase references."""
    if isinstance(ref, Phrase):
        return (1, ref.start, ref.end, ref.tag)
    return (0, ref, 0, "")


@dataclass(frozen=True)
class HybridGraph:
    """Immutable hybrid graph value. Equality is structural."""

    terminals: tuple = ()
    phrases: frozenset = frozenset()
    edges: frozenset = frozenset()
    _head_index: dict = field(init=False, compare=False, repr=False, default=None)
    _dep_index: dict = field(init=False, compare=False, repr=False, default=None)
    _masks: dict = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "terminals", tuple(self.terminals))
        object.__setattr__(self, "phrases", frozenset(self.phrases))
        object.__setattr__(self, "edges", frozenset(self.edges))
        heads: dict = {}
        deps: dict = {}
        for edge in self.edges:
            heads.setdefault(edge.dependent, []).append(edge)
            deps.setdefault(edge.head, []).append(edge)
        object.__setattr__(self, "_head_index", heads)
        object.__setattr__(self, "_dep_index", deps)

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

    def pos_of(self, ref: NodeRef) -> str:
        """POS tag of a terminal, or the phrase tag for phrase nodes."""
        self._check_node(ref)
        if isinstance(ref, Phrase):
            return ref.tag
        return self.terminals[ref].pos

    def extent(self, ref: NodeRef) -> tuple:
        """Surface interval occupied by the node itself (not its subgraph)."""
        if isinstance(ref, Phrase):
            return (ref.start, ref.end)
        return (ref, ref)

    # -- subgraph functions ----------------------------------------------

    def head_of(self, ref: NodeRef) -> Optional[NodeRef]:
        """Head of ``ref`` if it is a dependent in some edge, else None."""
        self._check_node(ref)
        edges = self._head_index.get(ref, ())
        return edges[0].head if edges else None

    def head_edges(self, ref: NodeRef) -> tuple:
        return tuple(self._head_index.get(ref, ()))

    def edge_indices(self) -> tuple:
        """(edges by dependent, edges by head): node -> list of edges, the
        lists unsorted and every list non-empty. Unchecked, for callers that
        only read; the lists are shared with the graphs this one came from
        or gives rise to, so they must not be changed."""
        return self._head_index, self._dep_index

    def dependent_edges(self, ref: NodeRef) -> tuple:
        """Edges in which ``ref`` is the head, sorted for determinism."""
        return tuple(
            sorted(
                self._dep_index.get(ref, ()),
                key=lambda e: (ref_key(e.dependent), e.relation),
            )
        )

    def dependents(self, ref: NodeRef) -> tuple:
        return tuple(e.dependent for e in self.dependent_edges(ref))

    def _yield_masks(self) -> dict:
        """Yield bitmask of every node, computed on first use."""
        masks = self._masks
        if masks is None:
            masks = {i: 1 << i for i in range(len(self.terminals))}
            for phrase in self.phrases:
                masks[phrase] = _own_mask(phrase)
            for edge in self.edges:
                dependent = edge.dependent
                bits = masks.get(dependent) or _own_mask(dependent)
                _spread(masks, self._head_index, edge.head, bits)
            object.__setattr__(self, "_masks", masks)
        return masks

    def yield_of(self, ref: NodeRef) -> frozenset:
        """Terminal indices covered by the node and its transitive dependents."""
        self._check_node(ref)
        mask = self._yield_masks()[ref]
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return frozenset(out)

    def subgraph_span(self, ref: NodeRef) -> Optional[tuple]:
        """Contiguous (start, end) interval of the node's subgraph yield, or
        None when the yield has gaps (the subgraph is non-projective)."""
        self._check_node(ref)
        mask = self._yield_masks()[ref]
        start = (mask & -mask).bit_length() - 1
        run = mask >> start
        if run & (run + 1):
            return None
        return (start, start + run.bit_length() - 1)

    def subgraph_root(self, phrase: Phrase) -> NodeRef:
        """The unique headless node whose subgraph the phrase spans."""
        self._check_node(phrase)
        masks = self._yield_masks()
        outside = ~_own_mask(phrase)
        candidates: list = []
        for node in list(range(phrase.start, phrase.end + 1)) + sorted(
            p for p in self.phrases
            if p != phrase and p.start >= phrase.start and p.end <= phrase.end
        ):
            if self.head_of(node) is None and not masks[node] & outside:
                candidates.append((node, masks[node]))
        # A headless node whose yield sits strictly inside another
        # candidate's yield is covered by that subgraph (e.g. a preposition
        # under an attached prepositional phrase), not a root of its own.
        roots = [
            cand for cand, covered in candidates
            if not any(
                covered != other and covered & other == covered
                for _, other in candidates
            )
        ]
        if len(roots) != 1:
            raise IllFormedPhraseError(
                f"phrase {phrase} covers {len(roots)} headless root(s)"
            )
        return roots[0]

    # -- construction ----------------------------------------------------

    def _carried(self, phrases, edges, heads, deps, masks) -> "HybridGraph":
        """A graph over the same terminals whose derived state is given,
        not rebuilt: the constructor's pass over every edge is skipped."""
        graph = object.__new__(HybridGraph)
        put = object.__setattr__
        put(graph, "terminals", self.terminals)
        put(graph, "phrases", phrases)
        put(graph, "edges", edges)
        put(graph, "_head_index", heads)
        put(graph, "_dep_index", deps)
        put(graph, "_masks", masks)
        return graph

    def with_edge(self, edge: Edge) -> "HybridGraph":
        self._check_node(edge.dependent)
        self._check_node(edge.head)
        if edge in self.edges:
            return self
        heads = dict(self._head_index)
        heads[edge.dependent] = heads.get(edge.dependent, []) + [edge]
        deps = dict(self._dep_index)
        deps[edge.head] = deps.get(edge.head, []) + [edge]
        masks = self._masks
        if masks is not None:
            masks = dict(masks)
            _spread(masks, heads, edge.head, masks[edge.dependent])
        return self._carried(self.phrases, self.edges | {edge}, heads, deps, masks)

    def with_phrase(self, phrase: Phrase) -> "HybridGraph":
        if phrase in self.phrases:
            return self
        masks = self._masks
        if masks is not None:
            masks = {**masks, phrase: _own_mask(phrase)}
        return self._carried(
            self.phrases | {phrase}, self.edges, self._head_index, self._dep_index, masks
        )

    def edited(self, edit: TerminalEdit, removed=frozenset(), added=()) -> "HybridGraph":
        """The graph after ``edit`` of its terminals, whose deleted terminals
        take their edges along. ``removed`` edges, numbered as before the
        edit, are left out; ``added`` ones, numbered as after it, are put in.
        An empty edit returns the graph itself."""
        if not (edit.deleted or edit.inserted or removed or added):
            return self
        gone, move = edit._gone, edit.move
        terminals = list(self.terminals)
        for index in reversed(gone):
            del terminals[index]
        for k, (at, terminal) in enumerate(edit.inserted):
            terminals.insert(at - bisect_left(gone, at) + k, terminal)
        kept = self.edges - removed if removed else self.edges
        if gone:
            kept = [e for e in kept if e.dependent not in edit.deleted and e.head not in edit.deleted]
        edges = set(added)
        for e in kept:
            dep, head = move(e.dependent), move(e.head)
            # An edge whose endpoints stay put is kept as it is.
            if (dep, head) != (e.dependent, e.head):
                e = Edge(dep, head, e.relation)
            edges.add(e)
        return HybridGraph(tuple(terminals), frozenset(map(move, self.phrases)), frozenset(edges))

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
        seen_dependents = set()
        for edge in sorted(self.edges, key=lambda e: (ref_key(e.dependent), ref_key(e.head))):
            for ref in (edge.dependent, edge.head):
                if not self.has_node(ref):
                    out.append(Violation("dangling-edge", f"{edge} references {ref!r}"))
            base = edge.relation
            if not tags.is_relation(base) and not _is_enriched(base, tags):
                out.append(Violation("unknown-relation", edge.relation))
            if edge.dependent in seen_dependents:
                out.append(
                    Violation("single-governor", f"{edge.dependent!r} has two heads")
                )
            seen_dependents.add(edge.dependent)
        out.extend(self._cycle_violations())
        return out

    def _cycle_violations(self) -> list:
        out = []
        for start in list(self._head_index):
            node = start
            trail = set()
            while node is not None:
                if node in trail:
                    out.append(Violation("acyclicity", f"cycle through {start!r}"))
                    break
                trail.add(node)
                edges = self._head_index.get(node, ())
                node = edges[0].head if edges else None
        return out

    def would_cycle(self, dependent: NodeRef, head: NodeRef) -> bool:
        """True if adding dependent->head would close a head-chain cycle."""
        node = head
        while node is not None:
            if node == dependent:
                return True
            edges = self._head_index.get(node, ())
            node = edges[0].head if edges else None
        return False


def _own_mask(ref: NodeRef) -> int:
    """Bitmask of the terminals the node itself occupies."""
    if isinstance(ref, Phrase):
        return ((1 << (ref.end - ref.start + 1)) - 1) << ref.start
    return 1 << ref


def _spread(masks: dict, heads: dict, node: NodeRef, bits: int) -> None:
    """OR ``bits`` into ``node``'s mask and up every head chain, stopping
    wherever a mask does not change."""
    stack = [node]
    while stack:
        node = stack.pop()
        # A constructed graph may hold an edge to a node it lacks (see
        # ``validate``); such a node starts from its own extent.
        old = masks.get(node) or _own_mask(node)
        new = old | bits
        if new == old:
            continue
        masks[node] = new
        for edge in heads.get(node, ()):
            stack.append(edge.head)


def _is_enriched(label: str, tags: TagSet) -> bool:
    try:
        parsed = parse_label(label, tags)
    except ValueError:
        return False
    return parsed is not None


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
