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
configuration of its walk. Conversion (``convert``) edits one working graph
per conversion, a ``working`` copy or the configuration the multi-step
parser hands over, through ``add_edge``, ``remove_edges``, ``replace_edge``,
``remove_phrase`` and ``edit``. Everything else reads. ``successor`` and
``apply`` are pure: they step a copy and leave their argument as it was, so
a caller may branch from one configuration. ``config.graph`` is a
``HybridGraph`` value that later changes do not change.

``legal`` decides whether a transition may be taken. ``step`` and
``successor`` take it without that check, for callers that have already
made it (the parser's prediction returns only legal transitions); ``apply``
is the check followed by ``successor`` and raises ``IllegalTransition``.
``legal`` and ``step`` dispatch on the transition's class through one table
each (``_LEGAL``, ``_STEP``), one function per kind, which reads the
argument by index.
``forced`` is the transition taken when nothing else is: reduce(1) on a
non-empty stack, else shift, and always legal in a non-terminal
configuration.

Transitions: shift, reduce(n) for n in {1, 2}, a left edge (head on top),
a right edge (head below top), empty-category insertion after s1, the
combined dropped-pronoun operation, and phrase construction over the
subgraph rooted at s1. Each is a named tuple of its argument, if any. A
transition equals only one of its own kind (``Shift()`` is not
``InsertPronoun()``, nor ``LeftArc(r)`` ``RightArc(r)``) and no plain tuple,
and every transition is true. The hash and the ``repr`` are the frozen
dataclasses' they replace. Like any tuple they are iterable and orderable;
no code here sorts or unpacks them.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
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


class _Kind:
    """A transition equals only a transition of its own kind: as tuples,
    ``Shift()`` would equal ``InsertPronoun()``, and ``LeftArc(r)`` would
    equal ``RightArc(r)`` and ``InsertEmpty(r)``. The hash is the field
    tuple's, and every transition is true, as the dataclasses were."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        if isinstance(other, tuple):
            return type(other) is type(self) and tuple.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other):
        if isinstance(other, tuple):
            return type(other) is not type(self) or tuple.__ne__(self, other)
        return NotImplemented

    def __bool__(self):
        return True


class Shift(_Kind, namedtuple("Shift", "")):
    __slots__ = ()

    def __str__(self):
        return "SHIFT"


class Reduce(_Kind, namedtuple("Reduce", "n")):
    __slots__ = ()

    def __str__(self):
        return f"REDUCE({self.n})"


class LeftArc(_Kind, namedtuple("LeftArc", "relation")):
    """Head is s1, dependent is s2."""

    __slots__ = ()

    def __str__(self):
        return f"LEFT({self.relation})"


class RightArc(_Kind, namedtuple("RightArc", "relation")):
    """Head is s2, dependent is s1."""

    __slots__ = ()

    def __str__(self):
        return f"RIGHT({self.relation})"


class InsertEmpty(_Kind, namedtuple("InsertEmpty", "pos")):
    __slots__ = ()

    def __str__(self):
        return f"EMPTY({self.pos})"


class InsertPronoun(_Kind, namedtuple("InsertPronoun", "")):
    __slots__ = ()

    def __str__(self):
        return "PRON"


class AddPhrase(_Kind, namedtuple("AddPhrase", "tag")):
    __slots__ = ()

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
    """A parser configuration, changed in place by ``step`` (and, as a
    working graph, by conversion).

    - ``terminals`` is a list. The queue is the run from ``front`` to the
      last terminal, and a queue terminal carries no edge.
    - ``pushed`` is the stack in push order, so s1 is ``pushed[-1]``.
    - ``heads`` and ``deps`` list the edges by dependent and by head; no
      list is empty. ``phrases`` is a set.
    - ``masks`` holds each node's yield as a bitmask over terminal indices,
      exact at every step, but only for a node whose yield goes beyond its
      own extent (``own_mask``), so an edge-less terminal costs nothing.
    - ``static_cache`` runs parallel to the terminals: each one's static
      predicate bits, one int per slot position, as ``static_owner`` gives
      them. The owner is one feature set level's memo of a vocabulary
      (``features.Vocabulary.static_bits``); ``featurize`` empties the
      cache when another owner comes, so it serves one walk's vocabulary
      and level.

    ``queue`` and ``stack`` (top first) are tuples, and ``graph`` builds a
    ``HybridGraph`` of the configuration on each read. The constructor takes
    the terminals and, for a partial graph, adds the edges as arcs do.
    """

    __slots__ = (
        "terminals", "front", "pushed", "heads", "deps", "phrases", "masks",
        "static_cache", "static_owner",
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
        for edge in edges:
            self.add_edge(edge)

    @property
    def queue(self) -> tuple:
        return tuple(range(self.front, len(self.terminals)))

    @property
    def stack(self) -> tuple:
        return tuple(reversed(self.pushed))

    @property
    def graph(self) -> HybridGraph:
        edges = frozenset(chain.from_iterable(self.heads.values()))
        return HybridGraph(tuple(self.terminals), frozenset(self.phrases), edges)

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
        return other

    # -- mutation, by ``step`` and by conversion ------------------------------

    def add_edge(self, edge: Edge) -> None:
        """Two list entries and one spread mask."""
        heads, masks, dependent = self.heads, self.masks, edge.dependent
        heads.setdefault(dependent, []).append(edge)
        self.deps.setdefault(edge.head, []).append(edge)
        spread(masks, heads, edge.head, masks.get(dependent) or own_mask(dependent))

    def remove_edges(self, edges) -> None:
        """Take out the collection ``edges``. A mask can shrink, and round a
        cycle a dependent's mask holds the removed bits too, so the masks of
        the heads and of every node above them are reset, and then their
        dependents' masks are spread into them again."""
        heads, deps, masks = self.heads, self.deps, self.masks
        for edge in edges:
            for index, ref in ((heads, edge.dependent), (deps, edge.head)):
                index[ref].remove(edge)
                if not index[ref]:
                    del index[ref]
        above = list(dict.fromkeys(edge.head for edge in edges))
        seen = set(above)
        for node in above:
            for edge in heads.get(node, ()):
                if edge.head not in seen:
                    seen.add(edge.head)
                    above.append(edge.head)
        for node in above:
            masks.pop(node, None)
        for node in above:
            for edge in deps.get(node, ()):
                spread(masks, heads, node, self.yield_mask(edge.dependent))

    def replace_edge(self, old: Edge, new: Edge) -> None:
        """Put ``new`` in the place of ``old``. The caller vouches that the
        two have one head and that ``new``'s dependent, which has no head
        edge yet, yields what ``old``'s does without ``old``, so no mask
        changes and none is spread."""
        heads, dependent = self.heads, old.dependent
        heads[dependent].remove(old)
        if not heads[dependent]:
            del heads[dependent]
        heads[new.dependent] = [new]
        listed = self.deps[old.head]
        listed[listed.index(old)] = new

    def remove_phrase(self, phrase: Phrase) -> None:
        """Take out ``phrase`` with its edges."""
        self.remove_edges([*self.heads.get(phrase, ()), *self.deps.get(phrase, ())])
        self.phrases.discard(phrase)

    def edit(self, edit: TerminalEdit) -> None:
        """Apply ``edit``, whose indices lie at or before the queue front.

        Queue terminals carry nothing, so only the terminals in
        ``[edit.first, front)`` with edges and the phrases ending at or
        after ``edit.first`` move: their edges are taken out (a deleted
        terminal's for good) and put back renumbered by ``TerminalEdit.move``,
        so a phrase spanning an insertion point spreads the new bit. In a
        parse no stack item moves: the ends of their extents never decrease
        toward the top, so none ends after s1, and insertions go after s1."""
        for i in reversed(edit.gone):
            del self.terminals[i], self.static_cache[i]
        for at, (_, terminal) in zip(edit.landed, edit.inserted):
            self.terminals.insert(at, terminal)
            self.static_cache.insert(at, None)
        front, self.front = self.front, self.front - len(edit.gone) + len(edit.inserted)
        if edit.first >= front:
            return  # nothing moves: no edge or phrase reaches the queue
        heads, deps = self.heads, self.deps
        moved = [i for i in range(edit.first, front) if i in heads or i in deps]
        moved += sorted(p for p in self.phrases if p.end >= edit.first)
        edges = list(dict.fromkeys(e for ref in moved for e in (*heads.get(ref, ()), *deps.get(ref, ()))))
        self.remove_edges(edges)
        phrases = [ref for ref in moved if isinstance(ref, Phrase)]
        self.phrases.difference_update(phrases)
        self.phrases.update(map(edit.move, phrases))
        for e in edges:
            if e.dependent not in edit.deleted and e.head not in edit.deleted:
                self.add_edge(Edge(edit.move(e.dependent), edit.move(e.head), e.relation))


def working(graph: HybridGraph) -> Configuration:
    """A working copy of ``graph`` to edit in place: every terminal read
    and the stack empty."""
    return Configuration(graph.terminals, graph.phrases, graph.edges, front=len(graph))


def initial(sentence: Sequence[MorphSegment]) -> Configuration:
    """Starting configuration: all segments queued, stack empty, no edges."""
    segments = list(sentence)
    if not segments:
        raise ValueError("cannot initialize parser on an empty sentence")
    return Configuration(segments)


def _is_segment(config: Configuration, ref: NodeRef) -> bool:
    return isinstance(ref, int) and isinstance(config.terminals[ref], MorphSegment)


def _shift_legal(config: Configuration, t: Shift) -> bool:
    return config.front < len(config.terminals)


def _reduce_legal(config: Configuration, t: Reduce) -> bool:
    n = t[0]
    return n in (1, 2) and len(config.pushed) >= n


def _arc_legal(dep: NodeRef, head: NodeRef, heads: dict) -> bool:
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


def _left_legal(config: Configuration, t: LeftArc) -> bool:
    pushed = config.pushed
    return len(pushed) >= 2 and _arc_legal(pushed[-2], pushed[-1], config.heads)


def _right_legal(config: Configuration, t: RightArc) -> bool:
    pushed = config.pushed
    return len(pushed) >= 2 and _arc_legal(pushed[-1], pushed[-2], config.heads)


def _empty_legal(config: Configuration, t: InsertEmpty) -> bool:
    # The paper anchors insertions at morphological segments only.
    pushed = config.pushed
    return bool(pushed) and _is_segment(config, pushed[-1])


def _pronoun_legal(config: Configuration, t: InsertPronoun) -> bool:
    pushed = config.pushed
    if not pushed or not _is_segment(config, pushed[-1]):
        return False
    s1 = pushed[-1]
    if config.terminals[s1].pos != "V":
        return False
    return not any(e.relation in ("subj", "subjx") for e in config.deps.get(s1, ()))


def _phrase_legal(config: Configuration, t: AddPhrase) -> bool:
    pushed = config.pushed
    if not pushed or not isinstance(pushed[-1], int):
        return False
    span = config.span(pushed[-1])
    return span is not None and Phrase(span[0], span[1], t[0]) not in config.phrases


# Transition class -> its legality test.
_LEGAL = {
    Shift: _shift_legal,
    Reduce: _reduce_legal,
    LeftArc: _left_legal,
    RightArc: _right_legal,
    InsertEmpty: _empty_legal,
    InsertPronoun: _pronoun_legal,
    AddPhrase: _phrase_legal,
}


def legal(config: Configuration, t: Transition) -> bool:
    """Whether ``t`` may be taken in ``config``; False for a value that is
    no transition."""
    test = _LEGAL.get(type(t))
    return test is not None and test(config, t)


def apply(config: Configuration, t: Transition, tags: TagSet = DEFAULT_TAGS) -> Configuration:
    """Apply a legal transition, returning the successor configuration."""
    if not legal(config, t):
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


def _shift(config: Configuration, t: Shift, tags: TagSet) -> None:
    config.pushed.append(config.front)
    config.front += 1


def _reduce(config: Configuration, t: Reduce, tags: TagSet) -> None:
    del config.pushed[-t[0]]


def _left(config: Configuration, t: LeftArc, tags: TagSet) -> None:
    pushed = config.pushed
    config.add_edge(Edge(pushed[-2], pushed[-1], t[0]))


def _right(config: Configuration, t: RightArc, tags: TagSet) -> None:
    pushed = config.pushed
    config.add_edge(Edge(pushed[-1], pushed[-2], t[0]))


def _empty(config: Configuration, t: InsertEmpty, tags: TagSet) -> None:
    _insert_after_top(config, t[0], tags)


def _pronoun(config: Configuration, t: InsertPronoun, tags: TagSet) -> None:
    _insert_after_top(config, "PRON", tags)
    pushed = config.pushed
    config.add_edge(Edge(pushed[-1], pushed[-2], "subj"))


def _phrase(config: Configuration, t: AddPhrase, tags: TagSet) -> None:
    start, end = config.span(config.pushed[-1])
    phrase = Phrase(start, end, t[0])
    config.phrases.add(phrase)
    config.pushed.append(phrase)


# Transition class -> the function that takes it in place.
_STEP = {
    Shift: _shift,
    Reduce: _reduce,
    LeftArc: _left,
    RightArc: _right,
    InsertEmpty: _empty,
    InsertPronoun: _pronoun,
    AddPhrase: _phrase,
}


def step(config: Configuration, t: Transition, tags: TagSet = DEFAULT_TAGS) -> None:
    """Take ``t``, which the caller knows to be legal, in place."""
    take = _STEP.get(type(t))
    if take is None:
        raise IllegalTransition(f"unhandled transition {t!r}")
    take(config, t, tags)


def _insert_after_top(config: Configuration, pos: str, tags: TagSet) -> None:
    """Insert an empty category after s1 and push it; a pronoun after a verb
    takes the verb's phi features (see ``graph.empty_category``)."""
    s1 = config.pushed[-1]
    inserted = ((s1 + 1, empty_category(pos, config.terminals[s1], tags)),)
    config.edit(TerminalEdit(len(config.terminals), inserted=inserted))
    config.pushed.append(s1 + 1)
