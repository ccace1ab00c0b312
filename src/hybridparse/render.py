"""Static drawings of hybrid graphs as SVG or DOT documents.

``svg`` draws one word box per terminal, right to left unless ``rtl`` is
false, with a node point under each box. Phrase bars and then arcs are
placed below the words. Each takes the lowest level already used over its
horizontal interval, so overlapping items stack downwards; arcs are
placed shortest first, so short arcs stay near the words. All arcs are
drawn before their labels, so labels stay readable. The canvas ends one
margin below the lowest item drawn.

``emit_dot`` writes the structure alone, with no coordinates.
"""

from __future__ import annotations

from .graph import EmptyCategory, HybridGraph, Phrase, ref_key

BOX_WIDTH = 86
BOX_GAP = 10
LINE_HEIGHT = 13
ARC_STEP = 26
MARGIN = 16
BOX_HEIGHT = LINE_HEIGHT * 5 + 6
POINT_Y = MARGIN + BOX_HEIGHT + 4


def _word_lines(term) -> list:
    """The five lines of a word box; the third (a gloss) is left empty."""
    if isinstance(term, EmptyCategory):
        return ["", f"({term.form})", "", "*", term.pos]
    return [str(term.location), term.form, "", term.form, term.pos]


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def svg(graph: HybridGraph, rtl: bool = True) -> str:
    """The graph drawn as an SVG document."""
    n = len(graph.terminals)
    width = MARGIN * 2 + n * BOX_WIDTH + max(n - 1, 0) * BOX_GAP
    body = []
    points = {}
    for i, term in enumerate(graph.terminals):
        x = MARGIN + ((n - 1 - i) if rtl else i) * (BOX_WIDTH + BOX_GAP)
        cx = x + BOX_WIDTH / 2
        body.append(
            f'<rect x="{x:.1f}" y="{MARGIN:.1f}" width="{BOX_WIDTH:.1f}" '
            f'height="{BOX_HEIGHT:.1f}" fill="none" stroke="#999"/>'
        )
        for k, line in enumerate(_word_lines(term), start=1):
            if line:
                body.append(
                    f'<text x="{cx:.1f}" y="{MARGIN + k * LINE_HEIGHT:.1f}" '
                    f'text-anchor="middle">{_esc(line)}</text>'
                )
        body.append(f'<circle cx="{cx:.1f}" cy="{POINT_Y:.1f}" r="2" fill="#333"/>')
        points[i] = (cx, POINT_Y)
    bottom = POINT_Y + 2

    # Levels used below the words, as (left, right, lowest y) spans.
    spans = [(0.0, width, MARGIN + BOX_HEIGHT + 8)]

    def level(lo: float, hi: float) -> float:
        return max(y for left, right, y in spans if left < hi and right > lo)

    for phrase in sorted(graph.phrases, key=lambda p: (p.end - p.start, p.start, p.tag)):
        ends = (points[phrase.start][0], points[phrase.end][0])
        x1 = min(ends) - BOX_WIDTH / 2 + 6
        x2 = max(ends) + BOX_WIDTH / 2 - 6
        y = level(x1, x2) + 12
        body.append(
            f'<rect x="{x1:.1f}" y="{y:.1f}" width="{x2 - x1:.1f}" '
            f'height="4.0" fill="#444"/>'
        )
        body.append(
            f'<text x="{x1 + (x2 - x1) / 2:.1f}" y="{y + 14:.1f}" '
            f'text-anchor="middle">{_esc(phrase.tag)}</text>'
        )
        bottom = max(bottom, y + 14)
        points[phrase] = ((x1 + x2) / 2, y + 6)
        spans.append((x1, x2, y + LINE_HEIGHT + 6))

    labels = []
    for edge in sorted(
        graph.edges,
        key=lambda e: (abs(points[e.dependent][0] - points[e.head][0]), ref_key(e.dependent)),
    ):
        (x1, y1), (x2, y2) = points[edge.dependent], points[edge.head]
        lo, hi = min(x1, x2), max(x1, x2)
        depth = level(lo, hi) + ARC_STEP
        body.append(
            f'<path d="M {x1:.1f} {y1:.1f} C {x1:.1f} {depth:.1f}, '
            f'{x2:.1f} {depth:.1f}, {x2:.1f} {y2:.1f}" '
            f'fill="none" stroke="#336" marker-end="url(#arrow)"/>'
        )
        if edge.relation:
            labels.append(
                f'<text x="{lo + (hi - lo) / 2:.1f}" y="{depth + LINE_HEIGHT - 2:.1f}" '
                f'text-anchor="middle" fill="#336">{_esc(edge.relation)}</text>'
            )
        bottom = max(bottom, depth + LINE_HEIGHT - 2)
        spans.append((lo, hi, depth + LINE_HEIGHT))

    height = bottom + MARGIN
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<g font-family="monospace" font-size="10">',
        '<defs><marker id="arrow" markerWidth="6" markerHeight="6" refX="5" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#336"/></marker></defs>',
        *body,
        *labels,
        "</g></svg>",
    ]) + "\n"


def emit_dot(graph: HybridGraph) -> str:
    """Structure-only DOT output (no coordinates)."""
    lines = ["digraph hybrid {", "  rankdir=RL;", "  node [shape=box];"]
    for i, term in enumerate(graph.terminals):
        if isinstance(term, EmptyCategory):
            label = f"(*) {term.form}\\n{term.pos}"
        else:
            label = f"{term.form}\\n{term.pos}"
        lines.append(f'  t{i} [label="{label}"];')
    phrase_ids = {}
    for k, phrase in enumerate(sorted(graph.phrases)):
        phrase_ids[phrase] = f"p{k}"
        lines.append(
            f'  p{k} [label="{phrase.tag} [{phrase.start + 1}-{phrase.end + 1}]" shape=ellipse];'
        )
    def name(ref):
        return phrase_ids[ref] if isinstance(ref, Phrase) else f"t{ref}"
    for edge in sorted(graph.edges, key=lambda e: (ref_key(e.dependent), e.relation)):
        lines.append(f'  {name(edge.dependent)} -> {name(edge.head)} [label="{edge.relation}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
