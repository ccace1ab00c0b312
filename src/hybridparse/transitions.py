"""Parser configurations and the seven transitions.

The configuration is a queue of unread terminals, a working stack and the
partial graph. Stacks are stored top-first, so ``stack[0]`` is s1. All
values are immutable; ``apply`` returns a fresh configuration.

``legal`` decides whether a transition may be taken. ``successor`` takes it
without that check, for callers that have already made it (the parser's
prediction returns only legal transitions); ``apply`` is the check followed
by ``successor`` and raises ``IllegalTransition``. ``forced`` is the
transition taken when nothing else is: reduce(1) on a non-empty stack, else
shift, and always legal in a non-terminal configuration.

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


@dataclass(frozen=True)
class Configuration:
    queue: tuple
    stack: tuple
    graph: HybridGraph

    @property
    def s1(self) -> Optional[NodeRef]:
        return self.stack[0] if self.stack else None

    def is_terminal_state(self) -> bool:
        return not self.queue and not self.stack


def initial(sentence: Sequence[MorphSegment]) -> Configuration:
    """Starting configuration: all segments queued, stack empty, no edges."""
    segments = tuple(sentence)
    if not segments:
        raise ValueError("cannot initialize parser on an empty sentence")
    graph = HybridGraph(segments)
    return Configuration(tuple(range(len(segments))), (), graph)


def _is_segment(graph: HybridGraph, ref: NodeRef) -> bool:
    return isinstance(ref, int) and isinstance(graph.terminals[ref], MorphSegment)


def legal(config: Configuration, t: Transition, tags: TagSet = DEFAULT_TAGS) -> bool:
    graph = config.graph
    if isinstance(t, Shift):
        return bool(config.queue)
    if isinstance(t, Reduce):
        return t.n in (1, 2) and len(config.stack) >= t.n
    if isinstance(t, (LeftArc, RightArc)):
        if len(config.stack) < 2:
            return False
        s1, s2 = config.stack[0], config.stack[1]
        dep, head = (s2, s1) if isinstance(t, LeftArc) else (s1, s2)
        if graph.head_of(dep) is not None:
            return False
        if graph.would_cycle(dep, head):
            return False
        return True
    if isinstance(t, InsertEmpty):
        # The paper anchors insertions at morphological segments only.
        return bool(config.stack) and _is_segment(graph, config.stack[0])
    if isinstance(t, InsertPronoun):
        if not config.stack or not _is_segment(graph, config.stack[0]):
            return False
        s1 = config.stack[0]
        if graph.terminals[s1].pos != "V":
            return False
        return not any(
            e.relation in ("subj", "subjx") for e in graph.dependent_edges(s1)
        )
    if isinstance(t, AddPhrase):
        if not config.stack or not isinstance(config.stack[0], int):
            return False
        span = graph.subgraph_span(config.stack[0])
        return span is not None and Phrase(span[0], span[1], t.tag) not in graph.phrases
    return False


def apply(config: Configuration, t: Transition, tags: TagSet = DEFAULT_TAGS) -> Configuration:
    """Apply a legal transition, returning the successor configuration."""
    if not legal(config, t, tags):
        raise IllegalTransition(f"{t} is not legal here")
    return successor(config, t, tags)


def forced(config: Configuration) -> Transition:
    """Pop when the stack is non-empty, else shift."""
    return Reduce(1) if config.stack else Shift()


def successor(config: Configuration, t: Transition, tags: TagSet = DEFAULT_TAGS) -> Configuration:
    """The configuration after ``t``, which the caller knows to be legal."""
    graph = config.graph
    if isinstance(t, Shift):
        return Configuration(config.queue[1:], (config.queue[0],) + config.stack, graph)
    if isinstance(t, Reduce):
        stack = config.stack[: t.n - 1] + config.stack[t.n :]
        return Configuration(config.queue, stack, graph)
    if isinstance(t, LeftArc):
        edge = Edge(config.stack[1], config.stack[0], t.relation)
        return Configuration(config.queue, config.stack, graph.with_edge(edge))
    if isinstance(t, RightArc):
        edge = Edge(config.stack[0], config.stack[1], t.relation)
        return Configuration(config.queue, config.stack, graph.with_edge(edge))
    if isinstance(t, InsertEmpty):
        return _insert_after_top(config, t.pos, tags)
    if isinstance(t, InsertPronoun):
        grown = _insert_after_top(config, "PRON", tags)
        ec = grown.stack[0]
        head = grown.stack[1]
        edge = Edge(ec, head, "subj")
        return Configuration(grown.queue, grown.stack, grown.graph.with_edge(edge))
    if isinstance(t, AddPhrase):
        s1 = config.stack[0]
        span = graph.subgraph_span(s1)
        phrase = Phrase(span[0], span[1], t.tag)
        stack = (phrase,) + config.stack
        return Configuration(config.queue, stack, graph.with_phrase(phrase))
    raise IllegalTransition(f"unhandled transition {t!r}")


def _insert_after_top(config: Configuration, pos: str, tags: TagSet) -> Configuration:
    """Insert an empty category after s1 and push it; a pronoun after a verb
    takes the verb's phi features (see ``graph.empty_category``)."""
    s1 = config.stack[0]
    at = s1 + 1
    terminal = empty_category(pos, config.graph.terminals[s1], tags)
    edit = TerminalEdit(len(config.graph.terminals), inserted=((at, terminal),))
    queue = tuple(map(edit.move, config.queue))
    stack = (at,) + tuple(map(edit.move, config.stack))
    return Configuration(queue, stack, config.graph.edited(edit))
