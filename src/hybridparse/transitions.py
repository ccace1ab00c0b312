"""Parser configurations and the seven transitions.

The configuration is a queue of unread terminals, a working stack and the
partial graph, all held as mutable working state (``Configuration``), so a
transition costs what it changes: a shift or a reduce moves one item, an
arc appends two list entries and spreads one yield mask, a phrase adds one
entry, and an insertion renumbers only what lies at or right of its point
and runs no graph constructor.

Who may mutate a configuration: ``step`` takes a transition in place, and
only the walk that made the configuration calls it: the parser
(``engine``) and the oracle (``oracle_sequence``), each on the one
configuration of its walk. Everything else reads. ``successor`` and
``apply`` are pure: they step a copy and leave their argument as it was, so
a caller may branch from one configuration. ``config.graph`` is a
``HybridGraph`` value that later steps do not change.

``legal`` decides whether a transition may be taken. ``step`` and
``successor`` take it without that check, for callers that have already
made it (the parser's prediction returns only legal transitions); ``apply``
is the check followed by ``successor`` and raises ``IllegalTransition``.
``forced`` is the transition taken when nothing else is: reduce(1) on a
non-empty stack, else shift, and always legal in a non-terminal
configuration.

Transitions: shift, reduce(n) for n in {1, 2}, a left edge (head on top),
a right edge (head below top), empty-category insertion after s1, the
combined dropped-pronoun operation, and phrase construction over the
subgraph rooted at s1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .graph import (
    Edge,
    HybridGraph,
    MorphSegment,
    NodeRef,
    Phrase,
    TerminalEdit,
    empty_category,
    mask_span,
    own_mask,
    spread,
)
from .vocab import DEFAULT_TAGS, TagSet


class IllegalTransition(Exception):
    pass


@dataclass(frozen=True)
class Shift:
    def __str__(self):
        return "SHIFT"


@dataclass(frozen=True)
class Reduce:
    n: int

    def __str__(self):
        return f"REDUCE({self.n})"


@dataclass(frozen=True)
class LeftArc:
    """Head is s1, dependent is s2."""

    relation: str

    def __str__(self):
        return f"LEFT({self.relation})"


@dataclass(frozen=True)
class RightArc:
    """Head is s2, dependent is s1."""

    relation: str

    def __str__(self):
        return f"RIGHT({self.relation})"


@dataclass(frozen=True)
class InsertEmpty:
    pos: str

    def __str__(self):
        return f"EMPTY({self.pos})"


@dataclass(frozen=True)
class InsertPronoun:
    def __str__(self):
        return "PRON"


@dataclass(frozen=True)
class AddPhrase:
    tag: str

    def __str__(self):
        return f"PHRASE({self.tag})"


Transition = Union[Shift, Reduce, LeftArc, RightArc, InsertEmpty, InsertPronoun, AddPhrase]

PURE_KINDS = (Shift, Reduce, LeftArc, RightArc)


def parse_transition(text: str) -> Transition:
    """Inverse of str(); used by fixture files and trace logs."""
    text = text.strip()
    if text == "SHIFT":
        return Shift()
    if text == "PRON":
        return InsertPronoun()
    for name, cls in (
        ("REDUCE", Reduce),
        ("LEFT", LeftArc),
        ("RIGHT", RightArc),
        ("EMPTY", InsertEmpty),
        ("PHRASE", AddPhrase),
    ):
        if text.startswith(name + "(") and text.endswith(")"):
            arg = text[len(name) + 1 : -1]
            return cls(int(arg)) if cls is Reduce else cls(arg)
    raise ValueError(f"unknown transition {text!r}")


class Configuration:
    """A parser configuration, changed in place by ``step``.

    - ``terminals`` is a list. The queue is the run from ``front`` to the
      last terminal, and a queue terminal carries no edge.
    - ``pushed`` is the stack in push order, so s1 is ``pushed[-1]``.
    - ``heads`` and ``deps`` list the edges by dependent and by head; no
      list is empty. ``phrases`` is a set.
    - ``masks`` holds each node's yield as a bitmask over terminal indices,
      exact at every step, but only for a node whose yield goes beyond its
      own extent (``own_mask``), so an edge-less terminal costs nothing.
    - ``static_cache`` runs parallel to the terminals: each one's static
      predicates per slot and feature set level, as bits of the vocabulary
      ``static_owner`` (``features.featurize``).

    ``queue`` and ``stack`` (top first) are tuples, and ``graph`` is a
    ``HybridGraph`` built on first use after a step. The constructor takes
    the terminals and, for a partial graph, adds the edges as arcs do.
    """

    __slots__ = (
        "terminals", "front", "pushed", "heads", "deps", "phrases", "masks",
        "static_cache", "static_owner", "_graph",
    )

    def __init__(self, terminals, phrases=(), edges=(), front: int = 0, stack=()):
        self.terminals = list(terminals)
        self.front = front
        self.pushed = list(reversed(stack))
        self.heads: dict = {}
        self.deps: dict = {}
        self.phrases = set(phrases)
        self.masks: dict = {}
        self.static_cache: list = [None] * len(self.terminals)
        self.static_owner = None
        self._graph: Optional[HybridGraph] = None
        for edge in edges:
            self._add_edge(edge)

    @property
    def queue(self) -> tuple:
        return tuple(range(self.front, len(self.terminals)))

    @property
    def stack(self) -> tuple:
        return tuple(reversed(self.pushed))

    @property
    def graph(self) -> HybridGraph:
        if self._graph is None:
            edges = frozenset(e for edges in self.heads.values() for e in edges)
            self._graph = HybridGraph(tuple(self.terminals), frozenset(self.phrases), edges)
        return self._graph

    def is_terminal_state(self) -> bool:
        return self.front == len(self.terminals) and not self.pushed

    def yield_mask(self, ref: NodeRef) -> int:
        return self.masks.get(ref) or own_mask(ref)

    def span(self, ref: NodeRef) -> Optional[tuple]:
        """The node's yield as an interval, or None when it has gaps."""
        return mask_span(self.yield_mask(ref))

    def copy(self) -> "Configuration":
        other = object.__new__(Configuration)
        other.terminals = list(self.terminals)
        other.front = self.front
        other.pushed = list(self.pushed)
        other.heads = {ref: list(edges) for ref, edges in self.heads.items()}
        other.deps = {ref: list(edges) for ref, edges in self.deps.items()}
        other.phrases = set(self.phrases)
        other.masks = dict(self.masks)
        other.static_cache = list(self.static_cache)
        other.static_owner = self.static_owner
        other._graph = self._graph
        return other

    # -- mutation, by ``step`` only ------------------------------------------

    def _add_edge(self, edge: Edge) -> None:
        """Two list entries and one spread mask."""
        heads, masks, dependent = self.heads, self.masks, edge.dependent
        heads.setdefault(dependent, []).append(edge)
        self.deps.setdefault(edge.head, []).append(edge)
        spread(masks, heads, edge.head, masks.get(dependent) or own_mask(dependent))

    def _insert(self, at: int, terminal) -> None:
        """Insert ``terminal`` before index ``at``, at most the queue front,
        renumbering by ``TerminalEdit.move`` what lies at or right of it.

        Queue terminals carry nothing and the queue is a run, so only the
        terminals in ``[at, front)`` with edges and the phrases ending at or
        after ``at`` move, and only they and the nodes above them hold mask
        bits at or after ``at``, which move up by one. A phrase that spans
        ``at`` gains the new terminal, and the nodes above it its bit. Stack
        items never move: the ends of their extents never decrease toward
        the top, so none ends after s1, and insertions go after s1."""
        terminals = self.terminals
        front = self.front
        terminals.insert(at, terminal)
        self.static_cache.insert(at, None)
        self.front = front + 1
        if at == front:
            return
        heads, deps, masks = self.heads, self.deps, self.masks
        moved = [i for i in range(at, front) if i in heads or i in deps]
        moved += sorted(p for p in self.phrases if p.end >= at)
        if not moved:
            return
        move = TerminalEdit(len(terminals) - 1, inserted=((at, terminal),)).move
        above = set(moved)
        todo = list(moved)
        while todo:
            for edge in heads.get(todo.pop(), ()):
                if edge.head not in above:
                    above.add(edge.head)
                    todo.append(edge.head)
        for node in above:
            mask = masks.get(node)
            if mask is not None:
                masks[node] = mask + (mask >> at << at)
        # Each node's entries, taken out before any goes back under its new ref.
        entries = [(ref, heads.pop(ref, ()), deps.pop(ref, ()), masks.pop(ref, None)) for ref in moved]
        renamed: dict = {}
        for _, up, down, _ in entries:
            for edge in (*up, *down):
                if edge not in renamed:
                    renamed[edge] = Edge(move(edge.dependent), move(edge.head), edge.relation)
        for old, new in renamed.items():
            for index, ref in ((heads, old.dependent), (deps, old.head)):
                edges = index.get(ref)
                if edges is not None:
                    edges[edges.index(old)] = new
        for ref, up, down, mask in entries:
            new_ref = move(ref)
            if up:
                heads[new_ref] = [renamed[e] for e in up]
            if down:
                deps[new_ref] = [renamed[e] for e in down]
            if mask is not None:
                masks[new_ref] = mask
        phrases = [ref for ref in moved if isinstance(ref, Phrase)]
        self.phrases.difference_update(phrases)
        self.phrases.update(map(move, phrases))
        bit = 1 << at
        for phrase in phrases:
            if phrase.start < at:
                phrase = move(phrase)
                if phrase in masks:
                    masks[phrase] |= bit
                for edge in heads.get(phrase, ()):
                    spread(masks, heads, edge.head, bit)


def initial(sentence: Sequence[MorphSegment]) -> Configuration:
    """Starting configuration: all segments queued, stack empty, no edges."""
    segments = list(sentence)
    if not segments:
        raise ValueError("cannot initialize parser on an empty sentence")
    return Configuration(segments)


def _is_segment(config: Configuration, ref: NodeRef) -> bool:
    return isinstance(ref, int) and isinstance(config.terminals[ref], MorphSegment)


def legal(config: Configuration, t: Transition, tags: TagSet = DEFAULT_TAGS) -> bool:
    pushed = config.pushed
    if isinstance(t, Shift):
        return config.front < len(config.terminals)
    if isinstance(t, Reduce):
        return t.n in (1, 2) and len(pushed) >= t.n
    if isinstance(t, (LeftArc, RightArc)):
        if len(pushed) < 2:
            return False
        s1, s2 = pushed[-1], pushed[-2]
        dep, head = (s2, s1) if isinstance(t, LeftArc) else (s1, s2)
        heads = config.heads
        if dep in heads:
            return False
        # The new edge closes a cycle if dep is on head's chain of heads.
        node = head
        while node is not None:
            if node == dep:
                return False
            edges = heads.get(node)
            node = edges[0].head if edges else None
        return True
    if isinstance(t, InsertEmpty):
        # The paper anchors insertions at morphological segments only.
        return bool(pushed) and _is_segment(config, pushed[-1])
    if isinstance(t, InsertPronoun):
        if not pushed or not _is_segment(config, pushed[-1]):
            return False
        s1 = pushed[-1]
        if config.terminals[s1].pos != "V":
            return False
        return not any(e.relation in ("subj", "subjx") for e in config.deps.get(s1, ()))
    if isinstance(t, AddPhrase):
        if not pushed or not isinstance(pushed[-1], int):
            return False
        span = config.span(pushed[-1])
        return span is not None and Phrase(span[0], span[1], t.tag) not in config.phrases
    return False


def apply(config: Configuration, t: Transition, tags: TagSet = DEFAULT_TAGS) -> Configuration:
    """Apply a legal transition, returning the successor configuration."""
    if not legal(config, t, tags):
        raise IllegalTransition(f"{t} is not legal here")
    return successor(config, t, tags)


def forced(config: Configuration) -> Transition:
    """Pop when the stack is non-empty, else shift."""
    return Reduce(1) if config.pushed else Shift()


def successor(config: Configuration, t: Transition, tags: TagSet = DEFAULT_TAGS) -> Configuration:
    """The configuration after ``t``, which the caller knows to be legal:
    ``step`` on a copy, so ``config`` is left as it was."""
    out = config.copy()
    step(out, t, tags)
    return out


def step(config: Configuration, t: Transition, tags: TagSet = DEFAULT_TAGS) -> None:
    """Take ``t``, which the caller knows to be legal, in place."""
    config._graph = None
    pushed = config.pushed
    if isinstance(t, Shift):
        pushed.append(config.front)
        config.front += 1
    elif isinstance(t, Reduce):
        del pushed[-t.n]
    elif isinstance(t, LeftArc):
        config._add_edge(Edge(pushed[-2], pushed[-1], t.relation))
    elif isinstance(t, RightArc):
        config._add_edge(Edge(pushed[-1], pushed[-2], t.relation))
    elif isinstance(t, InsertEmpty):
        _insert_after_top(config, t.pos, tags)
    elif isinstance(t, InsertPronoun):
        _insert_after_top(config, "PRON", tags)
        config._add_edge(Edge(pushed[-1], pushed[-2], "subj"))
    elif isinstance(t, AddPhrase):
        start, end = config.span(pushed[-1])
        phrase = Phrase(start, end, t.tag)
        config.phrases.add(phrase)
        pushed.append(phrase)
    else:
        raise IllegalTransition(f"unhandled transition {t!r}")


def _insert_after_top(config: Configuration, pos: str, tags: TagSet) -> None:
    """Insert an empty category after s1 and push it; a pronoun after a verb
    takes the verb's phi features (see ``graph.empty_category``)."""
    s1 = config.pushed[-1]
    config._insert(s1 + 1, empty_category(pos, config.terminals[s1], tags))
    config.pushed.append(s1 + 1)
