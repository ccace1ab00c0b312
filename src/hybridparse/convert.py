"""Reversible transformation between hybrid and pure dependency graphs.

Hybrid-to-pure removes dropped subject pronouns, folds phrase nodes into
``+r`` / ``r+`` / ``+r+`` enriched labels anchored at the subgraph root,
and collapses two-edge chains through an empty category into a single
``r1|pos|r2`` bridge label. Pure-to-hybrid runs the inverse in the order
bridges, then phrase expansions, then dropped-pronoun reinsertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .graph import (
    Edge,
    EmptyCategory,
    GraphError,
    HybridGraph,
    MorphSegment,
    NonProjectiveError,
    Phrase,
    empty_category,
    ref_key,
    shifted_ref,
)
from .vocab import DEFAULT_TAGS, EnrichedLabel, TagSet, parse_label


@dataclass
class ConversionReport:
    converted_phrases: int = 0
    converted_empty_categories: int = 0
    dropped_pronouns: int = 0
    loss_details: list = field(default_factory=list)
    reconstruction_errors: list = field(default_factory=list)

    @property
    def lossy(self) -> bool:
        return bool(self.loss_details)


def _drop_subject_pronouns(graph: HybridGraph) -> tuple:
    """Remove dependent-less PRON empty categories with a subj edge to a verb."""
    dropped = 0
    while True:
        target = None
        for i, term in enumerate(graph.terminals):
            if not isinstance(term, EmptyCategory) or term.pos != "PRON":
                continue
            head_edges = graph.head_edges(i)
            if len(head_edges) != 1 or head_edges[0].relation != "subj":
                continue
            head = head_edges[0].head
            if isinstance(head, Phrase):
                continue
            head_term = graph.terminals[head]
            if not isinstance(head_term, MorphSegment) or head_term.pos != "V":
                continue
            if graph.dependents(i):
                continue
            if any(p.start == i == p.end for p in graph.phrases):
                continue
            target = i
            break
        if target is None:
            return graph, dropped
        graph = graph.without_terminal(target)
        dropped += 1


def _fold_phrases(graph: HybridGraph, report: ConversionReport) -> HybridGraph:
    """Remove phrase nodes bottom-up, re-anchoring their edges at the root."""
    for phrase in sorted(graph.phrases, key=lambda p: (p.end - p.start, p.start, p.tag)):
        try:
            root = graph.subgraph_root(phrase)
        except GraphError as exc:
            report.loss_details.append((str(phrase), f"no unique root: {exc}"))
            edges = frozenset(
                e for e in graph.edges if phrase not in (e.dependent, e.head)
            )
            for e in sorted(graph.edges - edges, key=lambda e: ref_key(e.dependent)):
                report.loss_details.append((_edge_str(e), "edge dropped with phrase"))
            graph = HybridGraph(graph.terminals, graph.phrases - {phrase}, edges)
            continue
        edges = set(graph.edges)
        for edge in graph.head_edges(phrase):
            edges.discard(edge)
            edges.add(Edge(root, edge.head, "+" + edge.relation))
        for edge in graph.dependent_edges(phrase):
            edges.discard(edge)
            edges.add(Edge(edge.dependent, root, edge.relation + "+"))
        graph = HybridGraph(graph.terminals, graph.phrases - {phrase}, frozenset(edges))
        report.converted_phrases += 1
    return graph


def _collapse_chains(graph: HybridGraph, report: ConversionReport) -> HybridGraph:
    """Fold each a -> e -> b chain through an empty category into one edge."""
    while True:
        target = None
        for i, term in enumerate(graph.terminals):
            if not isinstance(term, EmptyCategory):
                continue
            incoming = graph.dependent_edges(i)
            outgoing = graph.head_edges(i)
            if any(p.start == i == p.end for p in graph.phrases):
                continue
            if len(incoming) == 1 and len(outgoing) == 1:
                a_edge, b_edge = incoming[0], outgoing[0]
                endpoints_ok = not any(
                    isinstance(r, int) and isinstance(graph.terminals[r], EmptyCategory)
                    for r in (a_edge.dependent, b_edge.head)
                )
                if endpoints_ok:
                    target = (i, a_edge, b_edge)
                    break
        if target is None:
            break
        index, a_edge, b_edge = target
        bridged = Edge(
            a_edge.dependent,
            b_edge.head,
            f"{a_edge.relation}|{graph.terminals[index].pos}|{b_edge.relation}",
        )
        # Removing the empty category drops both chain edges.
        graph = graph.with_edge(bridged).without_terminal(index)
        report.converted_empty_categories += 1
    for i, term in enumerate(graph.terminals):
        if isinstance(term, EmptyCategory):
            report.loss_details.append(
                (f"terminal {i} ({term.pos} {term.form})", "unconverted empty category")
            )
    return graph


def _edge_str(edge: Edge) -> str:
    return f"{edge.dependent!r} -{edge.relation}-> {edge.head!r}"


def to_pure_dependency(
    hybrid: HybridGraph, tags: TagSet = DEFAULT_TAGS
) -> tuple:
    """Convert a hybrid graph to pure dependency with enriched labels.

    Returns (pure_graph, report). Residue outside the conversion rules is
    recorded in the report; unconverted empty categories are passed
    through, phrase nodes are always removed.
    """
    violations = hybrid.validate(tags)
    if violations:
        raise GraphError(f"invalid input graph: {violations[0]}")
    report = ConversionReport()
    graph, report.dropped_pronouns = _drop_subject_pronouns(hybrid)
    graph = _fold_phrases(graph, report)
    graph = _collapse_chains(graph, report)
    return graph, report


# ---------------------------------------------------------------------------
# Inverse direction
# ---------------------------------------------------------------------------

def _phrase_tag_for(graph: HybridGraph, root, span) -> str:
    """Phrase tags are reassigned from the subgraph: PP when the root is a
    preposition; VS when the root is a verb with a subject dependent; NS
    when the span contains a pred or predx edge; CS when the root is a
    conditional particle or time adverb; SC when the root is a
    subordinating conjunction; otherwise S."""
    root_pos = graph.pos_of(root)
    if root_pos == "P":
        return "PP"
    if root_pos == "V" and any(
        e.relation in ("subj", "subjx") for e in graph.dependent_edges(root)
    ):
        return "VS"
    start, end = span
    for edge in graph.edges:
        if edge.relation in ("pred", "predx"):
            dep_ext = graph.extent(edge.dependent)
            head_ext = graph.extent(edge.head)
            if start <= dep_ext[0] and dep_ext[1] <= end and start <= head_ext[0] and head_ext[1] <= end:
                return "NS"
    if root_pos in ("COND", "T"):
        return "CS"
    if root_pos == "SUB":
        return "SC"
    return "S"


def _enriched(graph: HybridGraph, tags: TagSet, wanted: Callable[[EnrichedLabel], bool]):
    """(edge, parsed label) of each edge, by dependent then relation, whose
    enriched label is ``wanted``."""
    for edge in sorted(graph.edges, key=lambda e: (ref_key(e.dependent), e.relation)):
        try:
            parsed = parse_label(edge.relation, tags)
        except ValueError:
            continue
        if parsed and wanted(parsed):
            yield edge, parsed


def expand_bridges(pure: HybridGraph, tags: TagSet = DEFAULT_TAGS) -> HybridGraph:
    """First restoration stage: bridge labels become an empty category and
    two edges. The restored node is inserted directly before its dependent.
    """
    while True:
        target = next(_enriched(pure, tags, lambda parsed: parsed.bridge), None)
        if target is None:
            return pure
        edge, parsed = target
        rel1, pos, rel2 = parsed.bridge
        ec = edge.dependent.start if isinstance(edge.dependent, Phrase) else edge.dependent
        anchor = pure.terminals[edge.head] if isinstance(edge.head, int) else None
        without = HybridGraph(pure.terminals, pure.phrases, pure.edges - {edge})
        grown = without.with_terminal_inserted(ec, empty_category(pos, anchor, tags))
        dep = shifted_ref(edge.dependent, ec)
        head = shifted_ref(edge.head, ec)
        pure = grown.with_edge(Edge(dep, ec, rel1)).with_edge(Edge(ec, head, rel2))


def _phrase_over(graph: HybridGraph, root) -> Phrase:
    span = graph.subgraph_span(root)
    if span is None:
        covered = sorted(graph.yield_of(root))
        raise NonProjectiveError(f"subgraph of {root!r} yields a non-contiguous set {covered}")
    return Phrase(span[0], span[1], _phrase_tag_for(graph, root, span))


def expand_phrases(
    graph: HybridGraph, tags: TagSet = DEFAULT_TAGS, report: Optional[ConversionReport] = None
) -> HybridGraph:
    """Second restoration stage: expansion flags materialize phrase nodes
    over the flagged endpoint's subgraph span.

    Edges are expanded in one pass, by dependent then relation. An expansion
    only replaces its own edge with a plain-labelled one, so the order of
    the remaining flagged edges holds. An edge that cannot be expanded is
    recorded in ``report`` and kept with its label verbatim.
    """
    flagged = _enriched(graph, tags, lambda p: p.dependent_expansion or p.head_expansion)
    for edge, parsed in list(flagged):
        edges = graph.edges - {edge}
        # Spans are measured without the edge being expanded, so the
        # re-anchored endpoint's subtree does not leak into the other side.
        stripped = HybridGraph(graph.terminals, graph.phrases, edges)
        dep, head = edge.dependent, edge.head
        try:
            if parsed.dependent_expansion:
                dep = _phrase_over(stripped, dep)
            if parsed.head_expansion:
                head = _phrase_over(stripped, head)
            if dep == head:
                # Both endpoints expanded onto one identical span.
                raise GraphError("expansion collapses endpoints")
        except GraphError as exc:
            if report is not None:
                report.reconstruction_errors.append((_edge_str(edge), str(exc)))
            continue
        phrases = graph.phrases | {ref for ref in (dep, head) if isinstance(ref, Phrase)}
        graph = HybridGraph(graph.terminals, phrases, edges | {Edge(dep, head, parsed.base)})
    return graph


def reinsert_dropped_pronouns(
    graph: HybridGraph, tags: TagSet = DEFAULT_TAGS
) -> HybridGraph:
    """Give every plain verb without a subject a dropped-pronoun subject.

    Verbs carrying a special-group (SP) feature are skipped: the copula
    group takes subjx/predx instead of a subject.
    """
    index = 0
    while index < len(graph.terminals):
        term = graph.terminals[index]
        if (
            isinstance(term, MorphSegment)
            and term.pos == "V"
            and not term.feature("SP")
            and not any(
                e.relation in ("subj", "subjx") for e in graph.dependent_edges(index)
            )
        ):
            graph = graph.with_terminal_inserted(
                index + 1, empty_category("PRON", term, tags)
            )
            graph = graph.with_edge(Edge(index + 1, index, "subj"))
            index += 2
            continue
        index += 1
    return graph


def from_pure_dependency(
    pure: HybridGraph, tags: TagSet = DEFAULT_TAGS
) -> tuple:
    """Reconstruct a hybrid graph from an enriched pure dependency graph.

    Returns (hybrid, report); reconstruction errors are recorded per edge
    with the enriched label kept verbatim. Dropped pronouns are restored
    before phrase expansion so that a clause-final pronoun falls inside
    its clause's reconstructed span.
    """
    if pure.phrases:
        raise GraphError("input already contains phrase nodes")
    report = ConversionReport()
    graph = expand_bridges(pure, tags)
    graph = reinsert_dropped_pronouns(graph, tags)
    return expand_phrases(graph, tags, report), report


def lossless_pure_graphs(graphs, tags: TagSet = DEFAULT_TAGS) -> list:
    """Pure dependency forms of the graphs that convert without loss: the
    training set of the multi-step pipeline."""
    out = []
    for graph in graphs:
        pure, report = to_pure_dependency(graph, tags)
        if not report.lossy:
            out.append(pure)
    return out


def is_convertible(hybrid: HybridGraph, tags: TagSet = DEFAULT_TAGS) -> bool:
    """True when the hybrid->pure->hybrid roundtrip is lossless and exact."""
    try:
        pure, report = to_pure_dependency(hybrid, tags)
    except GraphError:
        return False
    if report.lossy:
        return False
    restored, back_report = from_pure_dependency(pure, tags)
    if back_report.reconstruction_errors:
        return False
    return restored == hybrid
