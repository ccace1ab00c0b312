"""Reversible transformation between hybrid and pure dependency graphs.

Hybrid-to-pure removes dropped subject pronouns, folds phrase nodes into
``+r`` / ``r+`` / ``+r+`` enriched labels anchored at the subgraph root,
and collapses two-edge chains through an empty category into a single
``r1|pos|r2`` bridge label. Pure-to-hybrid runs the inverse in the order
bridges, then phrase expansions, then dropped-pronoun reinsertion.

Each stage that deletes or inserts terminals makes one ascending scan and
one ``HybridGraph.edited`` call. That equals editing one terminal at a time
because no edit makes another candidate eligible: a dropped pronoun has no
dependents, a chain's endpoints are not empty categories, restored bridge
edges are not bridges, and a reinserted subject concerns only its verb.
How one drop can keep a later pronoun is noted at ``_drop_subject_pronouns``.
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
    TerminalEdit,
    empty_category,
    ref_key,
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
    """Remove dependent-less PRON empty categories with a subj edge to a verb.

    A pronoun stays when the drops before it would leave it the only
    terminal of a phrase span: the phrase ends at it and every earlier
    terminal of the span is dropped.
    """
    dropped: set = set()
    for i, term in enumerate(graph.terminals):
        if not isinstance(term, EmptyCategory) or term.pos != "PRON":
            continue
        heads = graph.head_edges(i)
        if len(heads) != 1 or heads[0].relation != "subj" or isinstance(heads[0].head, Phrase):
            continue
        head = graph.terminals[heads[0].head]
        if (
            isinstance(head, MorphSegment) and head.pos == "V"
            and not graph.dependent_edges(i)
            and not any(p.end == i and dropped.issuperset(range(p.start, i)) for p in graph.phrases)
        ):
            dropped.add(i)
    return graph.edited(TerminalEdit(len(graph), deleted=dropped)), len(dropped)


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
    collapsed: set = set()
    bridged = []
    for i, term in enumerate(graph.terminals):
        if not isinstance(term, EmptyCategory):
            continue
        incoming, outgoing = graph.dependent_edges(i), graph.head_edges(i)
        if len(incoming) != 1 or len(outgoing) != 1:
            continue
        a, b = incoming[0], outgoing[0]
        # Phrases are folded by now, so both ends of a chain are terminals.
        if not any(isinstance(graph.terminals[r], EmptyCategory) for r in (a.dependent, b.head)):
            collapsed.add(i)
            bridged.append((a.dependent, b.head, f"{a.relation}|{term.pos}|{b.relation}"))
    # Deleting the empty categories drops both edges of every chain.
    edit = TerminalEdit(len(graph), deleted=collapsed)
    graph = graph.edited(
        edit, added=[Edge(edit.move(a), edit.move(b), label) for a, b, label in bridged]
    )
    report.converted_empty_categories += len(collapsed)
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
    two edges. The restored node is inserted directly before its dependent,
    after any restored there for a bridge that comes earlier by dependent
    then relation.
    """
    bridges = sorted(
        _enriched(pure, tags, lambda parsed: parsed.bridge),
        key=lambda bridge: pure.extent(bridge[0].dependent)[0],
    )
    inserted = []
    for edge, parsed in bridges:
        anchor = pure.terminals[edge.head] if isinstance(edge.head, int) else None
        restored = empty_category(parsed.bridge[1], anchor, tags)
        inserted.append((pure.extent(edge.dependent)[0], restored))
    edit = TerminalEdit(len(pure), inserted=inserted)
    # The k-th restored node lands k places after its insertion point.
    added = []
    for k, ((edge, parsed), (at, _)) in enumerate(zip(bridges, inserted)):
        rel1, _, rel2 = parsed.bridge
        added += [Edge(edit.move(edge.dependent), at + k, rel1), Edge(at + k, edit.move(edge.head), rel2)]
    return pure.edited(edit, removed={edge for edge, _ in bridges}, added=added)


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
    phrases, edges = graph.phrases, graph.edges
    for edge, parsed in list(flagged):
        # Spans are measured without the edge being expanded, so the
        # re-anchored endpoint's subtree does not leak into the other side.
        stripped = HybridGraph(graph.terminals, phrases, edges - {edge})
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
        phrases |= {ref for ref in (dep, head) if isinstance(ref, Phrase)}
        edges = stripped.edges | {Edge(dep, head, parsed.base)}
    # Only spans need a graph per expansion; the result is built once.
    return graph if edges is graph.edges else HybridGraph(graph.terminals, phrases, edges)


def reinsert_dropped_pronouns(
    graph: HybridGraph, tags: TagSet = DEFAULT_TAGS
) -> HybridGraph:
    """Give every plain verb without a subject a dropped-pronoun subject.

    Verbs carrying a special-group (SP) feature are skipped: the copula
    group takes subjx/predx instead of a subject.
    """
    verbs = [
        i for i, term in enumerate(graph.terminals)
        if isinstance(term, MorphSegment)
        and term.pos == "V"
        and not term.feature("SP")
        and not any(e.relation in ("subj", "subjx") for e in graph.dependent_edges(i))
    ]
    if not verbs:
        return graph
    # Each pronoun goes directly after its verb, so the k-th verb moves k
    # places and its pronoun lands after it.
    edit = TerminalEdit(
        len(graph), inserted=[(v + 1, empty_category("PRON", graph.terminals[v], tags)) for v in verbs]
    )
    return graph.edited(edit, added=[Edge(v + k + 1, v + k, "subj") for k, v in enumerate(verbs)])


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
