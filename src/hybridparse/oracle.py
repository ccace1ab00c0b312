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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

from .graph import (
    EmptyCategory,
    HybridGraph,
    MorphSegment,
    NodeRef,
    NonProjectiveError,
    Phrase,
)
from .metrics import edge_signatures, elas
from .transitions import (
    AddPhrase,
    Configuration,
    InsertEmpty,
    InsertPronoun,
    LeftArc,
    Reduce,
    RightArc,
    Shift,
    Transition,
    apply,
    initial,
    legal,
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


class _Alignment:
    """Maps working-graph terminal indices to gold terminal indices.

    Working graphs start from the gold segments (gold empty categories
    excluded) and acquire empty categories as the oracle inserts them;
    segments align in order, inserted nodes align to the gold empty
    category at the matching anchor.
    """

    def __init__(self, config: Configuration, gold: HybridGraph):
        gold_segments = [
            i for i, t in enumerate(gold.terminals) if isinstance(t, MorphSegment)
        ]
        mapping = []
        seg_iter = iter(gold_segments)
        for term in config.graph.terminals:
            if isinstance(term, MorphSegment):
                mapping.append(next(seg_iter))
            else:
                mapping.append(None)
        # Anchor inserted empty categories after their left neighbour.
        for i, term in enumerate(config.graph.terminals):
            if mapping[i] is not None:
                continue
            left = mapping[i - 1] if i else -1
            mapping[i] = left + 1 if left is not None else 0
        self.working_to_gold = mapping

    def gold_of(self, ref: NodeRef):
        if isinstance(ref, Phrase):
            start = self.working_to_gold[ref.start]
            end = self.working_to_gold[ref.end]
            return Phrase(start, end, ref.tag)
        return self.working_to_gold[ref]


def _gold_edge_between(gold: HybridGraph, a, b):
    for edge in gold.edges:
        if {edge.dependent, edge.head} == {a, b}:
            return edge
    return None


class _OracleState:
    def __init__(self, gold: HybridGraph, config: Configuration, tags: TagSet):
        self.gold = gold
        self.tags = tags
        self.config = config
        self.align = _Alignment(config, gold)

    # -- helpers over gold vs working ------------------------------------

    def to_gold(self, ref: NodeRef):
        return self.align.gold_of(ref)

    def built(self, gold_edge) -> bool:
        for edge in self.config.graph.edges:
            if (
                self.to_gold(edge.dependent) == gold_edge.dependent
                and self.to_gold(edge.head) == gold_edge.head
                and edge.relation == gold_edge.relation
            ):
                return True
        return False

    def unbuilt_edges_at(self, gold_ref) -> list:
        out = []
        for edge in self.gold.edges:
            if gold_ref in (edge.dependent, edge.head) and not self.built(edge):
                out.append(edge)
        return out

    def gold_phrase_with_span(self, span) -> Optional[Phrase]:
        built = {self.to_gold(p) for p in self.config.graph.phrases}
        for phrase in sorted(self.gold.phrases):
            if (phrase.start, phrase.end) == span and phrase not in built:
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
        built_anchors = {
            self.to_gold(i)
            for i, t in enumerate(self.config.graph.terminals)
            if isinstance(t, EmptyCategory)
        }
        return None if nxt in built_anchors else nxt

    def roots_missing_phrase(self, working_ref) -> bool:
        gold_ref = self.to_gold(working_ref)
        built = {self.to_gold(p) for p in self.config.graph.phrases}
        for phrase in self.gold.phrases:
            if phrase in built:
                continue
            try:
                root = self.gold.subgraph_root(phrase)
            except Exception:
                continue
            if root == gold_ref:
                return True
        return False

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
        for edge in self.gold.edges:
            if edge.head != gold_ref or edge == excluding:
                continue
            if isinstance(edge.dependent, Phrase):
                continue
            if not self.built(edge):
                return False
        return True

    # -- rule evaluation ---------------------------------------------------

    def next_transition(self) -> Transition:
        config = self.config
        stack, graph = config.stack, config.graph
        s1 = stack[0] if stack else None
        s2 = stack[1] if len(stack) > 1 else None
        s3 = stack[2] if len(stack) > 2 else None

        # 1. edge between s1 and s2
        if s1 is not None and s2 is not None:
            gold_edge = _gold_edge_between(self.gold, self.to_gold(s1), self.to_gold(s2))
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
            ext1, ext2 = graph.extent(s1), graph.extent(s2)
            if ext2[1] + 1 == ext1[0]:
                try:
                    span = graph.subgraph_span(s1)
                except NonProjectiveError:
                    span = None
                if span is not None:
                    gold_span = (self.to_gold(span[0]), self.to_gold(span[1]))
                    if gold_span == (self.to_gold(ext2[0]), self.to_gold(ext1[1])):
                        phrase = self.gold_phrase_with_span(gold_span)
                        if phrase is not None:
                            t = AddPhrase(phrase.tag)
                            if legal(config, t, self.tags):
                                return t

        # 4. top roots a subgraph spanned by an expected phrase
        if s1 is not None and isinstance(s1, int) and graph.head_of(s1) is None:
            try:
                span = graph.subgraph_span(s1)
            except NonProjectiveError:
                span = None
            if span is not None:
                gold_span = (self.to_gold(span[0]), self.to_gold(span[1]))
                phrase = self.gold_phrase_with_span(gold_span)
                if phrase is not None:
                    t = AddPhrase(phrase.tag)
                    if legal(config, t, self.tags):
                        return t

        # 5. dropped subject pronoun once the queue is exhausted
        if not config.queue and s1 is not None and isinstance(s1, int):
            ec_at = self.missing_ec_after(s1)
            if ec_at is not None:
                ec = self.gold.terminals[ec_at]
                if ec.pos == "PRON" and _gold_subj_edge(self.gold, ec_at, self.to_gold(s1)):
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
        if config.queue:
            return Shift()

        # 9. clear a blocked pair: s1 and s3 form an expected edge
        if s1 is not None and s3 is not None:
            gold_edge = _gold_edge_between(self.gold, self.to_gold(s1), self.to_gold(s3))
            if gold_edge is not None and not self.built(gold_edge):
                return Reduce(2)

        # 10. default
        return Reduce(1)


def _gold_subj_edge(gold: HybridGraph, ec_index: int, verb_index: int) -> bool:
    for edge in gold.edges:
        if edge.dependent == ec_index and edge.head == verb_index and edge.relation == "subj":
            return True
    return False


def oracle_next(config: Configuration, gold: HybridGraph, tags: TagSet = DEFAULT_TAGS) -> Transition:
    """Next transition toward the gold graph. Total: rule 10 always applies."""
    return _OracleState(gold, config, tags).next_transition()


def oracle_sequence(gold: HybridGraph, tags: TagSet = DEFAULT_TAGS) -> OracleOutcome:
    """Derive the full canonical sequence and check it rebuilds the graph."""
    segments = gold.segments
    if not segments:
        return OracleOutcome([], False)
    config = initial(segments)
    budget = step_budget(len(segments))
    sequence: List[Transition] = []
    while not config.is_terminal_state() and len(sequence) < budget:
        t = oracle_next(config, gold, tags)
        if not legal(config, t, tags):
            # The default reduce may be illegal on an empty stack.
            t = Shift() if config.queue else Reduce(1)
            if not legal(config, t, tags):
                break
        config = apply(config, t, tags)
        sequence.append(t)
    replayed = config.graph
    report = elas(gold, replayed)
    counts_match = (
        len(gold.edges) == len(replayed.edges)
        and len(gold.phrases) == len(replayed.phrases)
        and len(gold.terminals) == len(replayed.terminals)
    )
    reachable = (
        config.is_terminal_state() and report.f1 == 1 and counts_match
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
