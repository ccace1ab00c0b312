"""Drawings of hybrid graphs: what the SVG and DOT documents hold and how
tall the SVG canvas is."""

import xml.etree.ElementTree as ET

import pytest

from hybridparse.render import MARGIN, emit_dot, svg
from hybridparse.synth import generate

from conftest import load_graph

NS = "{http://www.w3.org/2000/svg}"

GRAPHS = list(generate(5, 30, "+phrases,+ellipsis,+disconnected").graphs) + [
    load_graph("fig_9_11.conllx"),
    load_graph("table_8_2.conllx"),
]


def _lowest(root) -> float:
    """The largest y reached by a drawn box, bar, node point or text."""
    bottoms = [0.0]
    for rect in root.iter(NS + "rect"):
        bottoms.append(float(rect.get("y")) + float(rect.get("height")))
    for circle in root.iter(NS + "circle"):
        bottoms.append(float(circle.get("cy")) + float(circle.get("r")))
    for text in root.iter(NS + "text"):
        bottoms.append(float(text.get("y")))
    return max(bottoms)


@pytest.mark.parametrize("rtl", [True, False], ids=["rtl", "ltr"])
def test_svg_holds_one_item_per_node_and_edge(rtl):
    for graph in GRAPHS:
        root = ET.fromstring(svg(graph, rtl=rtl))
        rects = list(root.iter(NS + "rect"))
        boxes = [float(r.get("x")) for r in rects if r.get("stroke") == "#999"]
        bars = [r for r in rects if r.get("fill") == "#444"]
        arcs = [p for p in root.iter(NS + "path") if p.get("marker-end")]
        assert len(boxes) == len(graph.terminals)
        assert boxes == sorted(boxes, reverse=rtl)
        assert len(bars) == len(graph.phrases)
        assert len(arcs) == len(graph.edges)


def test_dot_holds_one_arrow_per_edge():
    for graph in GRAPHS:
        assert emit_dot(graph).count("->") == len(graph.edges)


@pytest.mark.parametrize("rtl", [True, False], ids=["rtl", "ltr"])
def test_canvas_ends_one_margin_below_the_lowest_item(rtl):
    for graph in GRAPHS:
        root = ET.fromstring(svg(graph, rtl=rtl))
        width, height = float(root.get("width")), float(root.get("height"))
        assert root.get("viewBox") == f"0 0 {width:.0f} {height:.0f}"
        assert height == pytest.approx(_lowest(root) + MARGIN, abs=1)
