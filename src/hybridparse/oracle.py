"""Gold-graph oracle: derives the canonical transition sequence.

The oracle walks a working configuration against the expected graph and
picks the next transition from contextual rules, in precedence order:

1. an edge between the top two items, when the top item has already
   collected its own non-phrase dependents;
2. reduce(2) when the buried item is finished but the top item is not;
3. phrase construction when the top two items are adjacent and span an
   expected phrase rooted at the top item;
4. phrase construction when the top item roots a subgraph that is exactly
   the span of an expected phrase;
5. the dropped-pronoun operation at the end of the queue;
6. empty-category insertion when one is expected directly after the top;
7. reduce(1) when the top item is finished;
8. shift while the queue is non-empty;
9. reduce(2) when the top and third items form an expected edge;
10. reduce(1) as the default.

A node is *finished* when all its expected edges are built, no expected
empty category directly after it is missing, and it does not root a
still-missing expected phrase.

Every rule yields a legal transition: rules 1 and 3-6 check it, rules 2, 7
and 9 need a deep enough stack, and rule 10 is reached only when the queue
is empty, so the stack is not. The walk checks each one with ``legal``
before it steps, so a wrong rule raises ``IllegalTransition``.

Cost. What the rules ask of the gold graph is computed once per sentence
(``_GoldIndex``): the root of each gold phrase, the gold edges by unordered
endpoint pair, by node and by head, the gold phrases by span, and the
``subj`` edges. What they ask of the working configuration is kept by
``_OracleState`` across the whole walk of ``oracle_sequence``: the
alignment of working to gold terminals, and the built edges, phrases and
empty-category anchors in gold terms. Shift and reduce change none of
these, an arc adds one edge and a phrase one phrase; an insertion
renumbers terminals, so the state is rebuilt from the configuration.
``oracle_next`` builds the same index and state from scratch and runs the
same rules. The walk steps one configuration in place (``transitions.step``)
and the rules read its working state.

A caller that needs each configuration of the walk (training-pair
extraction) passes ``oracle_sequence`` a ``visit`` hook rather than replaying
the sequence; the hook changes no output. The configuration it is given is
valid only during the call: the walk steps it on afterwards, so a hook that
keeps one must keep ``config.copy()``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional

from .graph import EmptyCategory, GraphError, HybridGraph, MorphSegment, NodeRef, Phrase
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


@dataclass
class OracleOutcome:
    sequence: List[Transition]
    reachable: bool
    uncovered_edges: frozenset = frozenset()
    graph: Optional[HybridGraph] = None


class _GoldIndex:
    """What the oracle asks of a gold graph, computed once per sentence."""

    def __init__(self, gold: HybridGraph):
        self.gold = gold
        self.segment_indices = [
            i for i, t in enumerate(gold.terminals) if isinstance(t, MorphSegment)
        ]
        self.edge_by_pair: dict = {}
        self.edges_at: dict = {}
        self.edges_by_head: dict = {}
        self.subj_pairs: set = set()
        for edge in gold.edges:
            self.edge_by_pair.setdefault(frozenset((edge.dependent, edge.head)), edge)
            self.edges_at.setdefault(edge.dependent, []).append(edge)
            self.edges_at.setdefault(edge.head, []).append(edge)
            self.edges_by_head.setdefault(edge.head, []).append(edge)
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
    """A working configuration seen in gold terms: its alignment and the
    edges, phrases and empty-category anchors it has built, each mapped to
    gold references."""

    def __init__(self, index: _GoldIndex, config: Configuration, tags: TagSet):
        self.index = index
        self.gold = index.gold
        self.tags = tags
        self._rebuild(config)

    def _rebuild(self, config: Configuration) -> None:
        self.config = config
        terminals = config.terminals
        self.working_to_gold = _alignment(terminals, self.index.segment_indices)
        to_gold = self.to_gold
        self.built_edges = {
            (to_gold(e.dependent), to_gold(e.head), e.relation)
            for edges in config.heads.values()
            for e in edges
        }
        self.built_phrases = {to_gold(p) for p in config.phrases}
        self.built_anchors = {
            to_gold(i)
            for i, t in enumerate(terminals)
            if isinstance(t, EmptyCategory)
        }

    def advance(self, t: Transition) -> None:
        """Follow the configuration, which has just taken ``t`` in place.

        An arc adds one built edge and a phrase one built phrase. An
        insertion renumbers terminals and may realign earlier empty
        categories, so the state is rebuilt.
        """
        config = self.config
        if isinstance(t, (InsertEmpty, InsertPronoun)):
            self._rebuild(config)
        elif isinstance(t, (LeftArc, RightArc)):
            s1, s2 = config.pushed[-1], config.pushed[-2]
            dep, head = (s2, s1) if isinstance(t, LeftArc) else (s1, s2)
            self.built_edges.add((self.to_gold(dep), self.to_gold(head), t.relation))
        elif isinstance(t, AddPhrase):
            self.built_phrases.add(self.to_gold(config.pushed[-1]))

    # -- helpers over gold vs working ------------------------------------

    def to_gold(self, ref: NodeRef):
        mapping = self.working_to_gold
        if isinstance(ref, Phrase):
            return Phrase(mapping[ref.start], mapping[ref.end], ref.tag)
        return mapping[ref]

    def built(self, gold_edge) -> bool:
        return (gold_edge.dependent, gold_edge.head, gold_edge.relation) in self.built_edges

    def gold_edge_between(self, a, b):
        return self.index.edge_by_pair.get(frozenset((a, b)))

    def unbuilt_edges_at(self, gold_ref) -> list:
        return [e for e in self.index.edges_at.get(gold_ref, ()) if not self.built(e)]

    def gold_phrase_with_span(self, span) -> Optional[Phrase]:
        for phrase in self.index.phrases_by_span.get(span, ()):
            if phrase not in self.built_phrases:
                return phrase
        return None

    def missing_ec_after(self, working_ref) -> Optional[int]:
        """Gold index of an expected empty category directly after the node."""
        if not isinstance(working_ref, int):
            return None
        gold_index = self.to_gold(working_ref)
        nxt = gold_index + 1
        if nxt >= len(self.gold.terminals):
            return None
        if not isinstance(self.gold.terminals[nxt], EmptyCategory):
            return None
        return None if nxt in self.built_anchors else nxt

    def roots_missing_phrase(self, working_ref) -> bool:
        rooted = self.index.phrases_by_root.get(self.to_gold(working_ref), ())
        return any(phrase not in self.built_phrases for phrase in rooted)

    def subj_edge(self, ec_index: int, verb_index: int) -> bool:
        return (ec_index, verb_index) in self.index.subj_pairs

    def finished(self, working_ref) -> bool:
        gold_ref = self.to_gold(working_ref)
        if self.unbuilt_edges_at(gold_ref):
            return False
        if self.missing_ec_after(working_ref) is not None:
            return False
        if self.roots_missing_phrase(working_ref):
            return False
        return True

    def top_saturated(self, working_ref, excluding) -> bool:
        """All non-phrase dependents of the node are already attached.

        Phrase dependents arrive only after the phrase itself is built, so
        they do not block an edge at the top of the stack.
        """
        gold_ref = self.to_gold(working_ref)
        for edge in self.index.edges_by_head.get(gold_ref, ()):
            if edge == excluding:
                continue
            if isinstance(edge.dependent, Phrase):
                continue
            if not self.built(edge):
                return False
        return True

    # -- rule evaluation ---------------------------------------------------

    def next_transition(self) -> Transition:
        config = self.config
        pushed = config.pushed
        depth = len(pushed)
        s1 = pushed[-1] if depth > 0 else None
        s2 = pushed[-2] if depth > 1 else None
        s3 = pushed[-3] if depth > 2 else None
        queued = config.front < len(config.terminals)

        # 1. edge between s1 and s2
        if s1 is not None and s2 is not None:
            gold_edge = self.gold_edge_between(self.to_gold(s1), self.to_gold(s2))
            if gold_edge is not None and not self.built(gold_edge):
                if self.top_saturated(s1, gold_edge):
                    if gold_edge.dependent == self.to_gold(s2):
                        t = LeftArc(gold_edge.relation)
                    else:
                        t = RightArc(gold_edge.relation)
                    if legal(config, t, self.tags):
                        return t

        # 2. reduce the finished item below an unfinished top
        if s2 is not None and self.finished(s2) and not self.finished(s1):
            return Reduce(2)

        # 3. adjacent pair spanning an expected phrase rooted on top
        if s1 is not None and s2 is not None:
            ext1, ext2 = HybridGraph.extent(s1), HybridGraph.extent(s2)
            span = config.span(s1) if ext2[1] + 1 == ext1[0] else None
            if span is not None:
                gold_span = (self.to_gold(span[0]), self.to_gold(span[1]))
                if gold_span == (self.to_gold(ext2[0]), self.to_gold(ext1[1])):
                    phrase = self.gold_phrase_with_span(gold_span)
                    if phrase is not None:
                        t = AddPhrase(phrase.tag)
                        if legal(config, t, self.tags):
                            return t

        # 4. top roots a subgraph spanned by an expected phrase
        if isinstance(s1, int) and s1 not in config.heads:
            span = config.span(s1)
            if span is not None:
                gold_span = (self.to_gold(span[0]), self.to_gold(span[1]))
                phrase = self.gold_phrase_with_span(gold_span)
                if phrase is not None:
                    t = AddPhrase(phrase.tag)
                    if legal(config, t, self.tags):
                        return t

        # 5. dropped subject pronoun once the queue is exhausted
        if not queued and s1 is not None and isinstance(s1, int):
            ec_at = self.missing_ec_after(s1)
            if ec_at is not None:
                ec = self.gold.terminals[ec_at]
                if ec.pos == "PRON" and self.subj_edge(ec_at, self.to_gold(s1)):
                    t = InsertPronoun()
                    if legal(config, t, self.tags):
                        return t

        # 6. expected empty category directly after the top item
        if s1 is not None and isinstance(s1, int):
            ec_at = self.missing_ec_after(s1)
            if ec_at is not None:
                t = InsertEmpty(self.gold.terminals[ec_at].pos)
                if legal(config, t, self.tags):
                    return t

        # 7. pop the finished top
        if s1 is not None and self.finished(s1):
            return Reduce(1)

        # 8. shift
        if queued:
            return Shift()

        # 9. clear a blocked pair: s1 and s3 form an expected edge
        if s1 is not None and s3 is not None:
            gold_edge = self.gold_edge_between(self.to_gold(s1), self.to_gold(s3))
            if gold_edge is not None and not self.built(gold_edge):
                return Reduce(2)

        # 10. default
        return Reduce(1)


def oracle_next(config: Configuration, gold: HybridGraph, tags: TagSet = DEFAULT_TAGS) -> Transition:
    """Next transition toward the gold graph. Total: rule 10 always applies."""
    return _OracleState(_GoldIndex(gold), config, tags).next_transition()


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
    state = _OracleState(_GoldIndex(gold), config, tags)
    budget = step_budget(len(segments))
    sequence: List[Transition] = []
    while not config.is_terminal_state() and len(sequence) < budget:
        t = state.next_transition()
        if visit is not None:
            visit(config, t)
        if not legal(config, t, tags):
            raise IllegalTransition(f"{t} is not legal here")
        step(config, t, tags)
        state.advance(t)
        sequence.append(t)
    replayed = config.graph
    report = elas(gold, replayed)
    counts_match = (
        len(gold.edges) == len(replayed.edges)
        and len(gold.phrases) == len(replayed.phrases)
        and len(gold.terminals) == len(replayed.terminals)
    )
    reachable = config.is_terminal_state() and report.f1 == 1 and counts_match
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
