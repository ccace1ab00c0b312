"""Regenerates the transcribed figure fixtures in tests/fixtures.

Run from the repository root: python tests/make_fixtures.py
"""

from pathlib import Path

from hybridparse import (
    Edge,
    EmptyCategory,
    HybridGraph,
    Location,
    MorphSegment,
    Phrase,
)
from hybridparse.convert import ConversionReport, EnrichedEdges, expand_bridges, to_pure_dependency
from hybridparse.corpus_io import GraphMetadata, TreebankDocument, dumps_treebank
from hybridparse.transitions import working
from hybridparse.vocab import DEFAULT_TAGS

FIXTURES = Path(__file__).parent / "fixtures"


def seg(c, v, t, s, form, pos, lemma=None, root=None, **feats):
    f = {"SegType": "stem"}
    f.update(feats)
    return MorphSegment(Location(c, v, t, s), form, pos, f, lemma, root)


def save(name, graph, location):
    doc = TreebankDocument([graph], [GraphMetadata(location=location)])
    (FIXTURES / name).write_text(dumps_treebank(doc), encoding="utf-8")


def save_transitions(name, lines, graph):
    """Write a transition fixture headed by the name of its graph fixture."""
    header = [f"# graph: {graph}"]
    (FIXTURES / name).write_text("\n".join(header + lines) + "\n", encoding="utf-8")


def english_example():
    """Five-word pure dependency graph with det/obj/subj edges and its
    printed fourteen-transition sequence."""
    words = [("john", "N"), ("gave", "V"), ("the", "DEM"), ("dog", "N"), ("water", "N")]
    terms = [seg(1, 1, i + 1, 1, form, pos) for i, (form, pos) in enumerate(words)]
    graph = HybridGraph(
        tuple(terms),
        frozenset(),
        frozenset(
            {Edge(0, 1, "subj"), Edge(2, 3, "det"), Edge(3, 1, "obj"), Edge(4, 1, "obj")}
        ),
    )
    (FIXTURES / "english").mkdir(parents=True, exist_ok=True)
    doc = TreebankDocument([graph], [GraphMetadata(location="(1:1)")])
    (FIXTURES / "english" / "fig_9_2.conllx").write_text(
        dumps_treebank(doc), encoding="utf-8"
    )
    (FIXTURES / "english" / "fig_9_3.transitions").write_text(
        "\n".join(
            [
                "SHIFT", "SHIFT", "SHIFT", "SHIFT",
                "LEFT(det)", "REDUCE(2)",
                "RIGHT(obj)", "REDUCE(1)",
                "SHIFT", "RIGHT(obj)", "REDUCE(1)",
                "LEFT(subj)", "REDUCE(1)", "REDUCE(1)",
            ]
        )
        + "\n",
        encoding="utf-8",
    )


def verse_7_186():
    """Hybrid graph for the conditional verse with a reconstructed
    predicate noun, nested NS/PP and a VS protasis."""
    terms = [
        seg(7, 186, 1, 1, "man", "COND"),
        seg(7, 186, 2, 1, "yuDolili", "V", lemma="Dal~a", root="Dll",
            Aspect="IMPF", Mood="JUS", Voice="ACT", Person="3", Gender="M", Number="S"),
        seg(7, 186, 3, 1, "{ll~ahu", "PN", lemma="{ll~ah", Case="NOM"),
        seg(7, 186, 4, 1, "fa", "RSLT", SegType="prefix"),
        seg(7, 186, 4, 2, "laA", "NEG"),
        seg(7, 186, 5, 1, "haAdiya", "N", lemma="haAdiy", root="hdy", Case="ACC"),
        EmptyCategory("N", "*"),
        seg(7, 186, 6, 1, "la", "P", SegType="prefix"),
        seg(7, 186, 6, 2, "hu", "PRON", SegType="suffix",
            Person="3", Gender="M", Number="S", PronType="object"),
    ]
    vs, pp, ns = Phrase(1, 2, "VS"), Phrase(7, 8, "PP"), Phrase(4, 8, "NS")
    graph = HybridGraph(
        tuple(terms),
        frozenset({vs, pp, ns}),
        frozenset(
            {
                Edge(2, 1, "subj"),
                Edge(vs, 0, "cond"),
                Edge(5, 4, "subjx"),
                Edge(6, 4, "predx"),
                Edge(8, 7, "gen"),
                Edge(pp, 6, "link"),
                Edge(ns, 0, "rslt"),
            }
        ),
    )
    save("fig_9_11.conllx", graph, "(7:186)")
    save_transitions(
        "fig_9_12_13.transitions",
        [
            "SHIFT", "SHIFT", "SHIFT",
            "RIGHT(subj)", "REDUCE(1)",
            "PHRASE(VS)", "REDUCE(2)",
            "RIGHT(cond)", "REDUCE(1)",
            "SHIFT", "REDUCE(1)",
            "SHIFT", "SHIFT",
            "RIGHT(subjx)",
            "EMPTY(N)", "REDUCE(2)",
            "RIGHT(predx)",
            "SHIFT", "SHIFT",
            "RIGHT(gen)", "REDUCE(1)",
            "PHRASE(PP)", "REDUCE(2)",
            "RIGHT(link)", "REDUCE(1)", "REDUCE(1)",
            "PHRASE(NS)", "REDUCE(2)",
            "RIGHT(rslt)", "REDUCE(1)", "REDUCE(1)",
        ],
        "fig_9_11.conllx",
    )


def verse_6_76():
    """The speech-verb graph behind the extended CoNLL-X sample rows."""
    terms = [
        seg(6, 76, 7, 1, "qaAla", "V", lemma="qaAla", root="qwl",
            Aspect="PERF", Voice="ACT", Person="3", Gender="M", Number="S"),
        EmptyCategory("PRON", "huwa"),
        seg(6, 76, 8, 1, "ha`*aA", "DEM", lemma="ha`*aA", Gender="M", Number="S"),
        seg(6, 76, 9, 1, "rab~i", "N", lemma="rab~", root="rbb",
            Gender="M", Case="NOM"),
        seg(6, 76, 9, 2, "Y", "PRON", SegType="suffix",
            Person="1", Number="S", PronType="object"),
    ]
    ns = Phrase(2, 4, "NS")
    graph = HybridGraph(
        tuple(terms),
        frozenset({ns}),
        frozenset(
            {
                Edge(1, 0, "subj"),
                Edge(3, 2, "pred"),
                Edge(4, 3, "poss"),
                Edge(ns, 0, "obj"),
            }
        ),
    )
    save("table_8_2.conllx", graph, "(6:76)")


def verse_19_62():
    """Phrase dependent of an accusative particle; the subgraph root is a
    pronoun suffix."""
    terms = [
        seg(19, 62, 1, 1, "<in~a", "ACC", SP="<in~"),
        seg(19, 62, 1, 2, "hu", "PRON", SegType="suffix",
            Person="3", Gender="M", Number="S", PronType="object"),
        seg(19, 62, 2, 1, "huwa", "PRON", SegType="suffix",
            Person="3", Gender="M", Number="S"),
        seg(19, 62, 3, 1, "xayorN", "N", lemma="xayor", Case="NOM"),
    ]
    ns = Phrase(2, 3, "NS")
    graph = HybridGraph(
        tuple(terms),
        frozenset({ns}),
        frozenset({Edge(1, 0, "subjx"), Edge(3, 2, "pred"), Edge(ns, 0, "predx")}),
    )
    save("fig_9_4_hybrid.conllx", graph, "(19:62)")
    pure, _ = to_pure_dependency(graph)
    save("fig_9_4_pure.conllx", pure, "(19:62)")


def verse_82_7():
    """Dropped subject pronoun removal."""
    terms = [
        seg(82, 7, 1, 1, "xalaqa", "V", lemma="xalaqa", root="xlq",
            Aspect="PERF", Voice="ACT", Person="3", Gender="M", Number="S"),
        EmptyCategory("PRON", "huwa"),
        seg(82, 7, 1, 2, "ka", "PRON", SegType="suffix",
            Person="2", Gender="M", Number="S", PronType="object"),
    ]
    graph = HybridGraph(
        tuple(terms), frozenset(), frozenset({Edge(1, 0, "subj"), Edge(2, 0, "obj")})
    )
    save("fig_9_5_hybrid.conllx", graph, "(82:7)")
    pure, _ = to_pure_dependency(graph)
    save("fig_9_5_pure.conllx", pure, "(82:7)")


def verse_2_153():
    """Syntactic ellipsis: a two-edge chain through an empty category
    collapses to one bridge-labelled edge."""
    terms = [
        seg(2, 153, 1, 1, "laA", "NEG"),
        seg(2, 153, 2, 1, ">aHadN", "N", lemma=">aHad", Case="ACC"),
        EmptyCategory("N", "*"),
        seg(2, 153, 3, 1, "maEa", "LOC", lemma="maEa"),
        seg(2, 153, 4, 1, "{lS~aAbiriyna", "N", lemma="SaAbir", root="Sbr", Case="GEN"),
    ]
    graph = HybridGraph(
        tuple(terms),
        frozenset(),
        frozenset(
            {
                Edge(1, 0, "subjx"),
                Edge(2, 0, "predx"),
                Edge(3, 2, "link"),
                Edge(4, 3, "gen"),
            }
        ),
    )
    save("fig_9_6_hybrid.conllx", graph, "(2:153)")
    pure, _ = to_pure_dependency(graph)
    save("fig_9_6_pure.conllx", pure, "(2:153)")


def verse_4_141():
    """The double transformation: a prepositional phrase attached to a
    reconstructed circumstantial accusative."""
    terms = [
        seg(4, 141, 1, 1, "yatarab~aSuwna", "V", lemma="tarab~aSa", root="rbS",
            Aspect="IMPF", Mood="IND", Voice="ACT", Person="3", Gender="M", Number="P"),
        seg(4, 141, 1, 2, "w", "PRON", SegType="suffix",
            Person="3", Gender="M", Number="P", PronType="subject"),
        EmptyCategory("N", "*"),
        seg(4, 141, 2, 1, "bi", "P", SegType="prefix"),
        seg(4, 141, 2, 2, "kum", "PRON", SegType="suffix",
            Person="2", Gender="M", Number="P", PronType="object", Case="GEN"),
    ]
    pp = Phrase(3, 4, "PP")
    graph = HybridGraph(
        tuple(terms),
        frozenset({pp}),
        frozenset(
            {
                Edge(1, 0, "subj"),
                Edge(2, 0, "circ"),
                Edge(4, 3, "gen"),
                Edge(pp, 2, "link"),
            }
        ),
    )
    save("fig_6_22_hybrid.conllx", graph, "(4:141)")
    pure, _ = to_pure_dependency(graph)
    save("fig_9_7_pure.conllx", pure, "(4:141)")
    stage1 = working(pure)
    expand_bridges(stage1, ConversionReport(), DEFAULT_TAGS, EnrichedEdges(stage1, DEFAULT_TAGS))
    save("fig_9_9_stage1.conllx", stage1.graph, "(4:141)")


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    english_example()
    verse_7_186()
    verse_6_76()
    verse_19_62()
    verse_82_7()
    verse_2_153()
    verse_4_141()
    print(f"fixtures written to {FIXTURES}")


if __name__ == "__main__":
    main()
