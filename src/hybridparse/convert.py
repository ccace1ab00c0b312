"""Reversible transformation between hybrid and pure dependency graphs.

Hybrid-to-pure removes dropped subject pronouns, folds phrase nodes into
``+r`` / ``r+`` / ``+r+`` enriched labels anchored at the subgraph root,
and collapses two-edge chains through an empty category into a single
``r1|pos|r2`` bridge label. Pure-to-hybrid runs the inverse in the order
bridges, then dropped-pronoun reinsertion, then phrase expansions.

Each direction runs its stages (``TO_PURE_STAGES``, ``FROM_PURE_STAGES``)
on one working graph, edited in place, and builds its ``HybridGraph`` once.
A phrase is folded or expanded by looking only within its span.

A stage that deletes or inserts terminals finds them all first and applies
them as one ``TerminalEdit``; a stage that finds none makes no edit. That
equals editing one terminal at a time because no edit makes another
candidate eligible: a dropped pronoun has no dependents, a chain's endpoints
are not empty categories, restored bridge edges are not bridges, and a
reinserted subject concerns only its verb. How one drop can keep a later
pronoun is noted at ``_drop_subject_pronouns``.

Restoration scans the edges once (``EnrichedEdges``). The scan parses each
distinct enriched label once (``vocab.read_label``) and plain ones not at
all, and lists the bridges and the flagged edges in the order the stages
take them. A stage that inserts terminals renumbers that list instead of
scanning again. A dependent-only expansion (``+r``) onto a new phrase
leaves every yield as it was, so its edge moves onto the phrase
(``Configuration.replace_edge``) and no mask is recomputed. Any other
expansion takes its edge out and puts the expanded one back.
"""

from __future__ import annotations

from typing import Optional

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
    mask_span,
    nodes_within,
    phrases_by,
    ref_key,
    subgraph_root,
    _Record,
)
from .transitions import Configuration, working
from .vocab import DEFAULT_TAGS, TagSet, read_label


class ConversionReport(_Record):
    _fields = (
        "converted_phrases", "converted_empty_categories", "dropped_pronouns",
        "loss_details", "reconstruction_errors",
    )

    def __init__(
        self,
        converted_phrases: int = 0,
        converted_empty_categories: int = 0,
        dropped_pronouns: int = 0,
        loss_details: Optional[list] = None,
        reconstruction_errors: Optional[list] = None,
    ):
        self.converted_phrases = converted_phrases
        self.converted_empty_categories = converted_empty_categories
        self.dropped_pronouns = dropped_pronouns
        self.loss_details = [] if loss_details is None else loss_details
        self.reconstruction_errors = [] if reconstruction_errors is None else reconstruction_errors

    @property
    def lossy(self) -> bool:
        return bool(self.loss_details)


def _drop_subject_pronouns(config: Configuration, report: ConversionReport, tags: TagSet) -> None:
    """Remove dependent-less PRON empty categories with a subj edge to a verb.

    A pronoun stays when the drops before it would leave it the only
    terminal of a phrase span: the phrase ends at it and every earlier
    terminal of the span is dropped.
    """
    terminals, heads, ends = config.terminals, config.heads, phrases_by(config.phrases, "end")
    dropped: set = set()
    for i, term in enumerate(terminals):
        if not isinstance(term, EmptyCategory) or term.pos != "PRON":
            continue
        up = heads.get(i, ())
        if len(up) != 1 or up[0].relation != "subj" or isinstance(up[0].head, Phrase):
            continue
        head = terminals[up[0].head]
        if (
            isinstance(head, MorphSegment) and head.pos == "V"
            and i not in config.deps
            and not any(dropped.issuperset(range(p.start, i)) for p in ends.get(i, ()))
        ):
            dropped.add(i)
    if dropped:
        config.edit(TerminalEdit(len(terminals), deleted=dropped))
    report.dropped_pronouns = len(dropped)


def _fold_phrases(config: Configuration, report: ConversionReport, tags: TagSet) -> None:
    """Remove phrase nodes bottom-up, re-anchoring their edges at the root."""
    starts = phrases_by(config.phrases)
    for phrase in sorted(config.phrases, key=lambda p: (p.end - p.start, p.start, p.tag)):
        up, down = config.heads.get(phrase, ()), config.deps.get(phrase, ())
        try:
            root = subgraph_root(phrase, starts, config.heads, config.yield_mask)
        except GraphError as exc:
            report.loss_details.append((str(phrase), f"no unique root: {exc}"))
            for e in sorted([*up, *down], key=lambda e: ref_key(e.dependent)):
                report.loss_details.append((_edge_str(e), "edge dropped with phrase"))
        else:
            for edge in up:
                config.add_edge(Edge(root, edge.head, "+" + edge.relation))
            for edge in down:
                config.add_edge(Edge(edge.dependent, root, edge.relation + "+"))
            report.converted_phrases += 1
        config.remove_phrase(phrase)
        starts[phrase.start].remove(phrase)


def _collapse_chains(config: Configuration, report: ConversionReport, tags: TagSet) -> None:
    """Fold each a -> e -> b chain through an empty category into one edge."""
    terminals = config.terminals
    collapsed: set = set()
    bridged = []
    for i, term in enumerate(terminals):
        if not isinstance(term, EmptyCategory):
            continue
        incoming, outgoing = config.deps.get(i, ()), config.heads.get(i, ())
        if len(incoming) != 1 or len(outgoing) != 1:
            continue
        a, b = incoming[0], outgoing[0]
        # Phrases are folded by now, so both ends of a chain are terminals.
        if not any(isinstance(terminals[r], EmptyCategory) for r in (a.dependent, b.head)):
            collapsed.add(i)
            bridged.append((a.dependent, b.head, f"{a.relation}|{term.pos}|{b.relation}"))
    if collapsed:
        # Deleting the empty categories drops both edges of every chain.
        edit = TerminalEdit(len(terminals), deleted=collapsed)
        config.edit(edit)
        for a, b, label in bridged:
            config.add_edge(Edge(edit.move(a), edit.move(b), label))
    report.converted_empty_categories += len(collapsed)
    for i, term in enumerate(terminals):
        if isinstance(term, EmptyCategory):
            report.loss_details.append(
                (f"terminal {i} ({term.pos} {term.form})", "unconverted empty category")
            )


def _edge_str(edge: Edge) -> str:
    return f"{edge.dependent!r} -{edge.relation}-> {edge.head!r}"


TO_PURE_STAGES = (_drop_subject_pronouns, _fold_phrases, _collapse_chains)


def to_pure_dependency(hybrid: HybridGraph, tags: TagSet = DEFAULT_TAGS) -> tuple:
    """Convert a hybrid graph to pure dependency with enriched labels.

    Returns (pure_graph, report). Residue outside the conversion rules is
    recorded in the report; unconverted empty categories are passed
    through, phrase nodes are always removed.
    """
    violations = hybrid.validate(tags)
    if violations:
        raise GraphError(f"invalid input graph: {violations[0]}")
    config, report = working(hybrid), ConversionReport()
    for stage in TO_PURE_STAGES:
        stage(config, report, tags)
    return config.graph, report


# ---------------------------------------------------------------------------
# Inverse direction
# ---------------------------------------------------------------------------

_SUBJECTS = ("subj", "subjx")


def _flagged_subjects(found: EnrichedEdges) -> set:
    """The heads of the edges ``found`` flags for expansion whose base
    relation is a subject: until ``expand_phrases`` restores such an edge,
    it counts as its head's subject."""
    return {edge.head for edge, parsed in found.expansions if parsed.base in _SUBJECTS}


def _has_subject(config: Configuration, node, flagged: set) -> bool:
    if node in flagged:
        return True
    for edge in config.deps.get(node, ()):
        if edge.relation in _SUBJECTS:
            return True
    return False


def _phrase_tag_for(config: Configuration, starts: dict, root, span, flagged: set) -> str:
    """Phrase tags are reassigned from the subgraph: PP when the root is a
    preposition; VS when the root is a verb with a subject dependent, one
    still ``flagged`` for expansion included; NS when the span contains a
    pred or predx edge; CS when the root is a conditional particle or time
    adverb; SC when the root is a subordinating conjunction; otherwise S."""
    root_pos = root.tag if isinstance(root, Phrase) else config.terminals[root].pos
    if root_pos == "P":
        return "PP"
    if root_pos == "V" and _has_subject(config, root, flagged):
        return "VS"
    start, end = span
    for node in nodes_within(starts, start, end):
        for edge in config.heads.get(node, ()):
            if edge.relation in ("pred", "predx"):
                head_start, head_end = HybridGraph.extent(edge.head)
                if start <= head_start and head_end <= end:
                    return "NS"
    if root_pos in ("COND", "T"):
        return "CS"
    if root_pos == "SUB":
        return "SC"
    return "S"


def _order(item) -> tuple:
    edge = item[0]
    return (ref_key(edge.dependent), edge.relation, ref_key(edge.head))


class EnrichedEdges:
    """What one scan of a working graph's edges finds for restoration: the
    bridges and the edges with expansion flags, each with its parsed label
    (``vocab.read_label``) and in the order the stages take them, by
    dependent, then relation, then head; an edge whose label does not parse
    is neither. Asked for the ``n`` terminals, the scan also takes out of
    the graph each edge with an endpoint that is none of them
    (``dangling``), which no stage sees. A stage that inserts terminals
    renumbers what it has not yet consumed (``move``)."""

    __slots__ = ("bridges", "expansions", "dangling")

    def __init__(self, config: Configuration, tags: TagSet, n=None):
        relations, terminals = tags.relations, None if n is None else range(n)
        self.bridges, self.expansions, self.dangling = bridges, expansions, dangling = [], [], []
        for dependent, listed in config.heads.items():
            for edge in listed:
                if terminals is not None and (dependent not in terminals or edge.head not in terminals):
                    dangling.append(edge)
                elif edge.relation not in relations:
                    parsed, error = read_label(edge.relation, tags)
                    if error is None:
                        (bridges if parsed.bridge else expansions).append((edge, parsed))
        if len(bridges) > 1:
            bridges.sort(key=_order)
        if len(expansions) > 1:
            expansions.sort(key=_order)
        if dangling:
            dangling.sort(key=_edge_str)
            config.remove_edges(dangling)

    def move(self, edit: TerminalEdit) -> None:
        """Renumber the flagged and the dangling edges by ``edit``; neither
        kind is in an inserting stage's way, so the order holds."""
        self.expansions = [(_moved(edge, edit), parsed) for edge, parsed in self.expansions]
        self.dangling = [_moved(edge, edit) for edge in self.dangling]

    def add_expansion(self, edge: Edge, tags: TagSet) -> None:
        """Take on ``edge``, restored by a stage with a component of a bridge
        label, if that component carries an expansion flag."""
        if edge.relation not in tags.relations:
            self.expansions.append((edge, read_label(edge.relation, tags)[0]))


def _moved(edge: Edge, edit: TerminalEdit) -> Edge:
    dependent, head = edit.move(edge.dependent), edit.move(edge.head)
    if dependent == edge.dependent and head == edge.head:
        return edge
    return Edge(dependent, head, edge.relation)


def expand_bridges(
    config: Configuration, report: ConversionReport, tags: TagSet, found: EnrichedEdges
) -> None:
    """First restoration stage: bridge labels become an empty category and
    two edges. The restored node is inserted directly before its dependent,
    after any restored there for a bridge that comes earlier by dependent,
    relation and head.

    ``found`` is the ``EnrichedEdges`` of the graph; a flagged component of
    a restored edge joins its expansions.
    """
    if not found.bridges:
        return
    bridges = sorted(found.bridges, key=lambda bridge: HybridGraph.extent(bridge[0].dependent)[0])
    found.bridges = []
    terminals = config.terminals
    inserted = []
    for edge, parsed in bridges:
        anchor = terminals[edge.head] if isinstance(edge.head, int) else None
        restored = empty_category(parsed.bridge[1], anchor, tags)
        inserted.append((HybridGraph.extent(edge.dependent)[0], restored))
    edit = TerminalEdit(len(terminals), inserted=inserted)
    config.remove_edges([edge for edge, _ in bridges])
    config.edit(edit)
    found.move(edit)
    for at, (edge, parsed) in zip(edit.landed, bridges):
        rel1, _, rel2 = parsed.bridge
        for restored in (Edge(edit.move(edge.dependent), at, rel1), Edge(at, edit.move(edge.head), rel2)):
            config.add_edge(restored)
            found.add_expansion(restored, tags)
    found.expansions.sort(key=_order)


def _phrase_over(config: Configuration, starts: dict, root, flagged: set) -> Phrase:
    if isinstance(root, int) and not 0 <= root < len(config.terminals):
        raise GraphError(f"unknown node {root!r}")  # from_pure_dependency does not validate
    span = config.span(root)
    if span is None:
        mask = config.yield_mask(root)
        covered = [i for i in range(mask.bit_length()) if mask >> i & 1]
        raise NonProjectiveError(f"subgraph of {root!r} yields a non-contiguous set {covered}")
    return Phrase(span[0], span[1], _phrase_tag_for(config, starts, root, span, flagged))


def _new_dependent_phrase(config: Configuration, starts: dict, edge: Edge, flagged: set):
    """The phrase that a dependent-only expansion of ``edge`` re-anchors it
    on, where that changes no yield mask: the phrase is new, so it yields
    just its span, which is the dependent's yield, and the head is not
    below the dependent, so that yield does not hold up through ``edge``.
    Otherwise None, for the general path to decide."""
    dep, head = edge.dependent, edge.head
    if not (isinstance(dep, int) and 0 <= dep < len(config.terminals) and isinstance(head, int)):
        return None
    mask = config.yield_mask(dep)
    span = mask_span(mask)
    if span is None or mask >> head & 1:
        return None
    # Only the dependent's own subgraph, which ``edge`` is not part of,
    # decides the tag, so the edge may stay while it is read.
    phrase = Phrase(span[0], span[1], _phrase_tag_for(config, starts, dep, span, flagged))
    return None if phrase in config.phrases else phrase


def expand_phrases(
    config: Configuration, report: ConversionReport, tags: TagSet, found: EnrichedEdges
) -> None:
    """Last restoration stage: expansion flags materialize phrase nodes
    over the flagged endpoint's subgraph span.

    Edges are expanded in one pass, in the order of ``found`` (the
    ``EnrichedEdges`` of the graph). An expansion only replaces its own edge
    with a plain-labelled one, so the order of the remaining flagged edges
    holds. An edge that cannot be expanded is recorded in ``report`` and put
    back with its label verbatim.
    """
    starts = phrases_by(config.phrases)
    flagged = _flagged_subjects(found)
    for edge, parsed in found.expansions:
        if not parsed.head_expansion:
            phrase = _new_dependent_phrase(config, starts, edge, flagged)
            if phrase is not None:
                config.replace_edge(edge, Edge(phrase, edge.head, parsed.base))
                config.phrases.add(phrase)
                starts.setdefault(phrase.start, []).append(phrase)
                continue
        # Spans are measured without the edge being expanded, so the
        # re-anchored endpoint's subtree does not leak into the other side.
        config.remove_edges([edge])
        dep, head = edge.dependent, edge.head
        try:
            if parsed.dependent_expansion:
                dep = _phrase_over(config, starts, dep, flagged)
            if parsed.head_expansion:
                head = _phrase_over(config, starts, head, flagged)
            if dep == head:
                # Both endpoints expanded onto one identical span.
                raise GraphError("expansion collapses endpoints")
        except GraphError as exc:
            report.reconstruction_errors.append((_edge_str(edge), str(exc)))
            config.add_edge(edge)
            continue
        for ref in (dep, head):
            if isinstance(ref, Phrase) and ref not in config.phrases:
                config.phrases.add(ref)
                starts.setdefault(ref.start, []).append(ref)
        config.add_edge(Edge(dep, head, parsed.base))
    found.expansions = []


def reinsert_dropped_pronouns(
    config: Configuration, report: ConversionReport, tags: TagSet, found: EnrichedEdges
) -> None:
    """Give every plain verb without a subject a dropped-pronoun subject,
    directly after the verb, and renumber ``found`` (the ``EnrichedEdges``
    of the graph).

    Verbs carrying a special-group (SP) feature are skipped: the copula
    group takes subjx/predx instead of a subject. A subject that is still
    flagged for expansion (``+subj``, before ``expand_phrases``) counts.
    """
    flagged = _flagged_subjects(found)
    terminals = config.terminals
    verbs = [
        i for i, term in enumerate(terminals)
        if term.pos == "V"
        and isinstance(term, MorphSegment)
        and not term.feature("SP")
        and not _has_subject(config, i, flagged)
    ]
    if not verbs:
        return
    edit = TerminalEdit(
        len(terminals), inserted=[(v + 1, empty_category("PRON", terminals[v], tags)) for v in verbs]
    )
    config.edit(edit)
    found.move(edit)
    for v, at in zip(verbs, edit.landed):
        config.add_edge(Edge(at, edit.move(v), "subj"))


# Pronouns are restored before phrases are expanded, so that a
# clause-final pronoun falls inside its clause's reconstructed span.
FROM_PURE_STAGES = (expand_bridges, reinsert_dropped_pronouns, expand_phrases)


def from_pure_dependency(pure, tags: TagSet = DEFAULT_TAGS) -> tuple:
    """Reconstruct a hybrid graph from an enriched pure dependency graph, a
    ``HybridGraph`` or a working graph handed over to be edited in place.

    Returns (hybrid, report); reconstruction errors are recorded per edge
    with the enriched label kept verbatim. An edge with an endpoint that is
    no terminal is such an error, recorded in the input numbering: no stage
    expands it, and it comes back with its label, its endpoints moved as the
    inserted terminals move the others, so an index past the last terminal
    stays past it.
    """
    if pure.phrases:
        raise GraphError("input already contains phrase nodes")
    config = pure if isinstance(pure, Configuration) else working(pure)
    n = len(config.terminals)
    found = EnrichedEdges(config, tags, n)
    dangling = found.dangling  # ``move`` renumbers a copy; errors keep these
    report = ConversionReport()
    for stage in FROM_PURE_STAGES:
        stage(config, report, tags, found)
    for edge in found.dangling:
        config.add_edge(edge)
    for edge in dangling:
        report.reconstruction_errors.append((_edge_str(edge), f"unknown node {_unknown_endpoint(edge, n)!r}"))
    return config.graph, report


def _unknown_endpoint(edge: Edge, n: int):
    """The first endpoint of ``edge`` that is none of ``n`` terminals, or None."""
    for ref in (edge.dependent, edge.head):
        if ref not in range(n):
            return ref
    return None


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
