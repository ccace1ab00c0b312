"""Gold-graph oracle: derives the canonical transition sequence.

The oracle walks a working configuration against the expected graph and
picks the next transition from contextual rules, in precedence order:

1. an edge between the top two items, when the top item has already
   collected its own non-phrase dependents;
2. reduce(2) when the buried item is finished but the top item is not;
3. phrase construction when the top item roots a subgraph that is exactly
   the span of an expected phrase;
4. the dropped-pronoun operation at the end of the queue;
5. empty-category insertion when one is expected directly after the top;
6. reduce(1) when the top item is finished;
7. shift while the queue is non-empty;
8. reduce(2) when the top and third items form an expected edge;
9. reduce(1) as the default.

A node is *finished* when all its expected edges are built, no expected
empty category directly after it is missing, and it does not root a
still-missing expected phrase.

Every rule yields a legal transition: rules 1 and 3-5 check it, rules 2, 6
and 8 need a deep enough stack, and rule 9 is reached only when the queue
is empty, so the stack is not. The walk checks each one with ``legal``
before it steps, so a wrong rule raises ``IllegalTransition``.

What is built is read from the configuration, through the alignment of
working to gold terminals. The rules build only gold edges and phrases, and
a gold node pair has at most one edge. So a working edge between two nodes
is the gold edge between their counterparts, a node has all its gold edges
when it has as many working ones, and the gold empty category after a node
is anchored when an empty category follows it in the configuration.

Cost. What the rules ask of the gold graph is computed once per sentence
(``_GoldIndex``): the root of each gold phrase, the gold edges by endpoint
(``edge_at[a][b]``, the first gold edge between ``a`` and ``b`` either way,
so a lookup builds no key), the edge counts, the gold phrases by span, and
the ``subj`` edges. The alignment is the only state ``_OracleState`` keeps
across the walk of ``oracle_sequence``, which steps one configuration in
place (``transitions.step``); an insertion aligns the new terminal and
leaves every other alignment as it is. A step takes the gold counterparts
of s1 and s2 once and asks whether s1 is finished at most once.
``oracle_next`` builds the same index and alignment from scratch and runs
the same rules. A walk that ends in a terminal configuration whose graph
equals the gold one is reachable without ELAS scoring: equal graphs score
perfect ELAS and have as many phrases and terminals. Only a replay that
differs is scored.

A caller that needs each configuration of the walk (training-pair
extraction) passes ``oracle_sequence`` a ``visit`` hook rather than replaying
the sequence; the hook changes no output. The configuration it is given is
valid only during the call: the walk steps it on afterwards, so a hook that
keeps one must keep ``config.copy()``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Callable, List, Optional

from .graph import EmptyCategory, GraphError, HybridGraph, MorphSegment, NodeRef, Phrase, _Record
from .metrics import edge_signatures, elas
from .transitions import (
    AddPhrase,
    Configuration,
    IllegalTransition,
    InsertEmpty,
    InsertPronoun,
    LeftArc,
    Reduce,
    RightArc,
    Shift,
    Transition,
    initial,
    legal,
    step,
)
from .vocab import DEFAULT_TAGS, TagSet


def step_budget(n_segments: int) -> int:
    return 8 * n_segments + 16


class OracleOutcome(_Record):
    _fields = ("sequence", "reachable", "uncovered_edges", "graph")

    def __init__(
        self,
        sequence: List[Transition],
        reachable: bool,
        uncovered_edges: frozenset = frozenset(),
        graph: Optional[HybridGraph] = None,
    ):
        self.sequence = sequence
        self.reachable = reachable
        self.uncovered_edges = uncovered_edges
        self.graph = graph


class _GoldIndex:
    """What the oracle asks of a gold graph, computed once per sentence."""

    def __init__(self, gold: HybridGraph):
        self.gold = gold
        self.segment_indices = [
            i for i, t in enumerate(gold.terminals) if isinstance(t, MorphSegment)
        ]
        # Node -> node -> the first gold edge between the two, either way.
        self.edge_at: dict = {}
        self.edge_count: Counter = Counter()
        self.terminal_dependents: Counter = Counter()
        self.subj_pairs: set = set()
        for edge in gold.edges:
            a, b = edge.dependent, edge.head
            self.edge_at.setdefault(a, {}).setdefault(b, edge)
            self.edge_at.setdefault(b, {}).setdefault(a, edge)
            self.edge_count[edge.dependent] += 1
            self.edge_count[edge.head] += 1
            if isinstance(edge.dependent, int):
                self.terminal_dependents[edge.head] += 1
            if edge.relation == "subj":
                self.subj_pairs.add((edge.dependent, edge.head))
        self.phrases_by_span: dict = {}
        for phrase in sorted(gold.phrases):
            self.phrases_by_span.setdefault((phrase.start, phrase.end), []).append(phrase)
        # A phrase whose root cannot be determined never blocks a node.
        self.phrases_by_root: dict = {}
        for phrase in gold.phrases:
            try:
                root = gold.subgraph_root(phrase)
            except GraphError:
                continue
            self.phrases_by_root.setdefault(root, []).append(phrase)


def _alignment(terminals, gold_segments: list) -> list:
    """Gold terminal index of each working terminal.

    Working graphs start from the gold segments (gold empty categories
    excluded) and acquire empty categories as the oracle inserts them;
    segments align in order, an inserted node aligns to the index after
    its left neighbour's.
    """
    segments = iter(gold_segments)
    mapping: list = []
    for term in terminals:
        if isinstance(term, MorphSegment):
            mapping.append(next(segments))
        else:
            mapping.append(mapping[-1] + 1 if mapping else 0)
    return mapping


class _OracleState:
    """A working configuration seen in gold terms: the alignment of its
    terminals to the gold ones, which increases, and what it has built,
    read from the configuration itself (see the module docstring)."""

    def __init__(self, index: _GoldIndex, config: Configuration):
        self.index = index
        self.gold = index.gold
        self.config = config
        self.working_to_gold = _alignment(config.terminals, index.segment_indices)

    def follow(self) -> None:
        """Follow the configuration, which has just taken a step in place.

        A step that adds a terminal inserts it after s1 and pushes it; it is
        aligned one past its left neighbour, and no other alignment changes.
        The rules insert after s1 only when the gold empty category that
        follows it has no anchor, and a working empty category right after
        s1 would anchor it; so a segment, or nothing, follows the new one."""
        mapping, terminals = self.working_to_gold, self.config.terminals
        if len(terminals) > len(mapping):
            at = self.config.pushed[-1]
            assert at + 1 == len(terminals) or not isinstance(terminals[at + 1], EmptyCategory)
            mapping.insert(at, mapping[at - 1] + 1)

    # -- helpers over gold vs working ------------------------------------

    def to_gold(self, ref: NodeRef):
        mapping = self.working_to_gold
        if isinstance(ref, Phrase):
            return Phrase(mapping[ref.start], mapping[ref.end], ref.tag)
        return mapping[ref]

    def joined(self, a, b) -> bool:
        """A working edge joins the two nodes, in either direction."""
        heads = self.config.heads
        return any(e.head == b for e in heads.get(a, ())) or any(e.head == a for e in heads.get(b, ()))

    def gold_edge_between(self, a, b):
        row = self.index.edge_at.get(a)
        return row.get(b) if row else None

    def gold_phrase_with_span(self, span) -> Optional[Phrase]:
        """An expected phrase over the gold counterpart of the working
        ``span`` that is not built over it."""
        start, end = span
        gold_span = (self.to_gold(start), self.to_gold(end))
        for phrase in self.index.phrases_by_span.get(gold_span, ()):
            if Phrase(start, end, phrase.tag) not in self.config.phrases:
                return phrase
        return None

    def missing_ec_after(self, working_ref, gold_ref=None) -> Optional[int]:
        """Gold index of an expected empty category directly after the node.
        ``gold_ref``, when given, is the node's gold counterpart."""
        if not isinstance(working_ref, int):
            return None
        if gold_ref is None:
            gold_ref = self.to_gold(working_ref)
        nxt, gold_terminals = gold_ref + 1, self.gold.terminals
        if nxt >= len(gold_terminals) or not isinstance(gold_terminals[nxt], EmptyCategory):
            return None
        terminals, after = self.config.terminals, working_ref + 1
        anchored = after < len(terminals) and isinstance(terminals[after], EmptyCategory)
        return None if anchored else nxt

    def roots_missing_phrase(self, gold_ref) -> bool:
        """Some gold phrase the node roots is not built over the working
        terminals aligned to its ends (``bisect``: the alignment increases)."""
        mapping = self.working_to_gold
        for phrase in self.index.phrases_by_root.get(gold_ref, ()):
            start, end = bisect_left(mapping, phrase.start), bisect_left(mapping, phrase.end)
            if (
                end == len(mapping) or mapping[start] != phrase.start or mapping[end] != phrase.end
                or Phrase(start, end, phrase.tag) not in self.config.phrases
            ):
                return True
        return False

    def finished(self, working_ref, gold_ref=None) -> bool:
        config = self.config
        if gold_ref is None:
            gold_ref = self.to_gold(working_ref)
        built = len(config.heads.get(working_ref, ())) + len(config.deps.get(working_ref, ()))
        return (
            built == self.index.edge_count[gold_ref]
            and self.missing_ec_after(working_ref, gold_ref) is None
            and not self.roots_missing_phrase(gold_ref)
        )

    def top_saturated(self, working_ref, excluding, gold_ref=None) -> bool:
        """All non-phrase dependents of the node are already attached, the
        unbuilt edge ``excluding`` aside.

        Phrase dependents arrive only after the phrase itself is built, so
        they do not block an edge at the top of the stack.
        """
        if gold_ref is None:
            gold_ref = self.to_gold(working_ref)
        expected = self.index.terminal_dependents[gold_ref]
        if excluding.head == gold_ref and isinstance(excluding.dependent, int):
            expected -= 1
        attached = sum(isinstance(e.dependent, int) for e in self.config.deps.get(working_ref, ()))
        return attached == expected

    # -- rule evaluation ---------------------------------------------------

    def next_transition(self) -> Transition:
        """The first rule that applies. The gold counterparts of s1 and s2
        and the empty category missing after s1 are taken once per step, and
        ``finished(s1)`` at most once: no rule changes the configuration."""
        config = self.config
        pushed = config.pushed
        depth = len(pushed)
        s1 = g1 = s2 = g2 = None
        if depth > 0:
            s1 = pushed[-1]
            g1 = self.to_gold(s1)
            if depth > 1:
                s2 = pushed[-2]
                g2 = self.to_gold(s2)
        queued = config.front < len(config.terminals)
        s1_finished = None

        # 1. edge between s1 and s2
        if s2 is not None:
            gold_edge = self.gold_edge_between(g1, g2)
            if (
                gold_edge is not None and not self.joined(s1, s2)
                and self.top_saturated(s1, gold_edge, g1)
            ):
                arc = LeftArc if gold_edge.dependent == g2 else RightArc
                t = arc(gold_edge.relation)
                if legal(config, t):
                    return t

        # 2. reduce the finished item below an unfinished top
        if s2 is not None and self.finished(s2, g2):
            s1_finished = self.finished(s1, g1)
            if not s1_finished:
                return Reduce(2)

        # 3. top roots a subgraph spanned by an expected phrase
        if isinstance(s1, int) and s1 not in config.heads:
            span = config.span(s1)
            if span is not None:
                phrase = self.gold_phrase_with_span(span)
                if phrase is not None:
                    t = AddPhrase(phrase.tag)
                    if legal(config, t):
                        return t

        ec_at = self.missing_ec_after(s1, g1)

        # 4. dropped subject pronoun once the queue is exhausted
        if not queued and ec_at is not None:
            ec = self.gold.terminals[ec_at]
            if ec.pos == "PRON" and (ec_at, g1) in self.index.subj_pairs:
                t = InsertPronoun()
                if legal(config, t):
                    return t

        # 5. expected empty category directly after the top item
        if ec_at is not None:
            t = InsertEmpty(self.gold.terminals[ec_at].pos)
            if legal(config, t):
                return t

        # 6. pop the finished top
        if s1 is not None:
            if s1_finished is None:
                s1_finished = self.finished(s1, g1)
            if s1_finished:
                return Reduce(1)

        # 7. shift
        if queued:
            return Shift()

        # 8. clear a blocked pair: s1 and s3 form an expected edge
        if depth > 2:
            s3 = pushed[-3]
            gold_edge = self.gold_edge_between(g1, self.to_gold(s3))
            if gold_edge is not None and not self.joined(s1, s3):
                return Reduce(2)

        # 9. default
        return Reduce(1)


def oracle_next(config: Configuration, gold: HybridGraph) -> Transition:
    """Next transition toward the gold graph. Total: rule 9 always applies.

    Precondition: ``config`` was reached from ``initial(gold.segments)`` by
    transitions that build only gold edges and gold phrases, as the
    oracle's own do; what is built is read from it in gold terms."""
    return _OracleState(_GoldIndex(gold), config).next_transition()


def oracle_sequence(
    gold: HybridGraph, tags: TagSet = DEFAULT_TAGS, *, visit: Optional[Callable] = None
) -> OracleOutcome:
    """Derive the full canonical sequence and check it rebuilds the graph.
    ``visit(config, t)``, if given, is called with each configuration the
    walk reaches and the transition it takes there, on unreachable graphs
    too; the configuration is valid only during the call."""
    segments = gold.segments
    if not segments:
        return OracleOutcome([], False)
    config = initial(segments)
    state = _OracleState(_GoldIndex(gold), config)
    budget = step_budget(len(segments))
    sequence: List[Transition] = []
    while not config.is_terminal_state() and len(sequence) < budget:
        t = state.next_transition()
        if visit is not None:
            visit(config, t)
        if not legal(config, t):
            raise IllegalTransition(f"{t} is not legal here")
        step(config, t, tags)
        state.follow()
        sequence.append(t)
    replayed = config.graph
    # A replay equal to its gold graph scores perfect ELAS and has as many
    # phrases and terminals, so only a replay that differs is scored. A
    # perfect report also has as many replayed edges as gold ones.
    reachable = config.is_terminal_state() and (
        replayed == gold
        or (
            elas(gold, replayed).perfect
            and len(gold.phrases) == len(replayed.phrases)
            and len(gold.terminals) == len(replayed.terminals)
        )
    )
    uncovered = frozenset() if reachable else _uncovered(gold, replayed)
    return OracleOutcome(sequence, reachable, uncovered, replayed)


def _uncovered(gold: HybridGraph, replayed: HybridGraph) -> frozenset:
    """Gold edges left over once each replayed edge has covered one gold
    edge with the same signature."""
    available = Counter(sig for _, sig in edge_signatures(replayed))
    missing = []
    for edge, sig in edge_signatures(gold):
        if available[sig]:
            available[sig] -= 1
        else:
            missing.append(edge)
    return frozenset(missing)
