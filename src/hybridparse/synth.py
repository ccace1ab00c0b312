"""Deterministic synthetic treebank generator.

Graphs are assembled from a small set of clause templates whose gold
structure is a function of observable segment features, so classifiers
can learn the grammar. The feature-to-structure mapping:

* a nominative noun right after a plain verb is its subject (subj); under
  a copular verb (SP group) it is subjx;
* an accusative noun after the subject is its object (obj); under a
  copular verb it is predx; a following accusative adjective modifies it;
* a genitive noun attaches to the preceding preposition (gen); the
  preposition (or its phrase) attaches to the clause verb or to a
  reconstructed predicate (link);
* verbs lacking an overt subject govern a dropped pronoun subject;
* a negative particle takes an accusative subjx and an elliptical
  predicate (the reconstructed noun carries any prepositional phrase);
* speech verbs (lemma qaAla) take an embedded nominal sentence as obj;
* conditional particles head a verbal-sentence protasis (cond) and a
  sentence apodosis (rslt); result and conjunction particles stay
  disconnected, with conjoined clauses linked head-to-head (conj).

Profiles toggle phrase nodes, elliptical nodes, disconnected particles
and (at a fixed rate) non-projective crossing edges. Every head comes before
its dependents, so no oracle sequence of a synthetic graph takes a LeftArc.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import List

from .corpus_io import GraphMetadata, TreebankDocument
from .graph import (
    ELLIPTICAL_FORM,
    Edge,
    EmptyCategory,
    HybridGraph,
    Location,
    MorphSegment,
    Phrase,
)
from .vocab import DEFAULT_TAGS, TagSet

VERBS = [("kataba", "ktb"), ("xalaqa", "xlq"), ("jaEala", "jEl"), ("rafaEa", "rfE")]
VERBS_INTRANS = [("qaAma", "qwm"), ("jalasa", "jls"), ("sajada", "sjd")]
SPEECH_VERB = ("qaAla", "qwl")
COPULA = ("kaAna", "kwn")
SUBJECT_NOUNS = [("rajulN", "rjl"), ("malikN", "mlk"), ("qawomN", "qwm"), ("EabodN", "Ebd")]
OBJECT_NOUNS = [("kitaAbN", "ktb"), ("bayotN", "byt"), ("jabalN", "jbl"), ("risaAlapN", "rsl")]
PRED_NOUNS = [("nuwrN", "nwr"), ("Haq~N", "Hqq"), ("xayorN", "xyr")]
ADJECTIVES = [("kabiyrN", "kbr"), ("Sagiyru", "Sgr"), ("EaZiymN", "EZm")]
PREPOSITIONS = ["fiY", "EalaY", "min", "<ilaY"]
GEN_NOUNS = [(">aroDN", "ArD"), ("samaA'N", "smw"), ("madiynapN", "mdn")]
DEMONSTRATIVES = ["*a`lika", "ha`*aA"]
# Share of sentences drawn as the crossing pattern under +non-projective.
NONPROJECTIVE_RATE = 0.1


class _Builder:
    def __init__(self, rng: random.Random, phrases_on: bool, ellipsis_on: bool, tags: TagSet):
        self.rng = rng
        self.phrases_on = phrases_on
        self.ellipsis_on = ellipsis_on
        self.tags = tags
        self.terminals: List = []
        self.edges: List = []
        self.phrase_nodes: List = []

    # Indices below are positions in the terminal sequence. A segment is
    # held as a (form, pos, feature items, lemma, root) tuple until ``build``
    # gives it a location; an empty category is held as itself. The items
    # are kept as a tuple, the form ``shared_features`` looks up directly.

    def add_segment(self, form, pos, features, lemma=None, root=None) -> int:
        self.terminals.append((form, pos, tuple(features.items()), lemma, root))
        return len(self.terminals) - 1

    def add_empty(self, pos, form) -> int:
        self.terminals.append(EmptyCategory(pos, form))
        return len(self.terminals) - 1

    def edge(self, dep, head, rel):
        self.edges.append((dep, head, rel))

    def phrase(self, start, end, tag) -> Phrase:
        p = Phrase(start, end, tag)
        self.phrase_nodes.append(p)
        return p

    def verb_features(self, copula=False):
        gender = self.rng.choice(["M", "F"])
        number = self.rng.choice(["S", "P"])
        feats = {
            "SegType": "stem",
            "Aspect": "PERF",
            "Voice": "ACT",
            "Person": "3",
            "Gender": gender,
            "Number": number,
        }
        if copula:
            feats["SP"] = "kaAn"
        return feats

    def noun_features(self, case):
        return {
            "SegType": "stem",
            "Case": case,
            "State": self.rng.choice(["DEF", "INDEF"]),
            "Gender": self.rng.choice(["M", "F"]),
            "Number": "S",
        }

    # -- clause templates -------------------------------------------------

    def verbal_clause(self, allow_drop=True, allow_pp=True) -> int:
        transitive = self.rng.random() < 0.6
        lemma, root = self.rng.choice(VERBS if transitive else VERBS_INTRANS)
        verb_feats = self.verb_features()
        verb = self.add_segment(lemma, "V", verb_feats, lemma, root)
        dropped = allow_drop and self.ellipsis_on and self.rng.random() < 0.4
        if dropped:
            ec = self.add_empty("PRON", self.tags.pronoun_form(verb_feats))
            self.edge(ec, verb, "subj")
        else:
            nl, nr = self.rng.choice(SUBJECT_NOUNS)
            noun = self.add_segment(nl, "N", self.noun_features("NOM"), nl, nr)
            self.edge(noun, verb, "subj")
        if transitive:
            ol, orr = self.rng.choice(OBJECT_NOUNS)
            obj = self.add_segment(ol, "N", self.noun_features("ACC"), ol, orr)
            self.edge(obj, verb, "obj")
            if self.rng.random() < 0.3:
                al, ar = self.rng.choice(ADJECTIVES)
                adj = self.add_segment(al, "ADJ", self.noun_features("ACC"), al, ar)
                self.edge(adj, obj, "adj")
        if allow_pp and self.rng.random() < 0.4:
            self.pp_adjunct(verb)
        return verb

    def copular_clause(self) -> int:
        lemma, root = COPULA
        verb = self.add_segment(lemma, "V", self.verb_features(copula=True), lemma, root)
        nl, nr = self.rng.choice(SUBJECT_NOUNS)
        noun = self.add_segment(nl, "N", self.noun_features("NOM"), nl, nr)
        self.edge(noun, verb, "subjx")
        pl, pr = self.rng.choice(PRED_NOUNS)
        pred = self.add_segment(pl, "N", self.noun_features("ACC"), pl, pr)
        self.edge(pred, verb, "predx")
        return verb

    def nominal_clause(self, embedded_in=None) -> int:
        dem = self.add_segment(self.rng.choice(DEMONSTRATIVES), "DEM",
                               {"SegType": "stem", "Gender": "M", "Number": "S"})
        pl, pr = self.rng.choice(PRED_NOUNS)
        pred = self.add_segment(pl, "N", self.noun_features("NOM"), pl, pr)
        self.edge(pred, dem, "pred")
        if self.rng.random() < 0.4:
            pron = self.add_segment(
                "Y", "PRON",
                {"SegType": "suffix", "Person": "1", "Number": "S", "PronType": "object"},
            )
            self.edge(pron, pred, "poss")
            end = pron
        else:
            end = pred
        if embedded_in is not None:
            ns = self.phrase(dem, end, "NS")
            self.edge(ns, embedded_in, "obj")
        return dem

    def speech_clause(self) -> int:
        lemma, root = SPEECH_VERB
        verb_feats = self.verb_features()
        verb = self.add_segment(lemma, "V", verb_feats, lemma, root)
        if self.ellipsis_on and self.rng.random() < 0.5:
            ec = self.add_empty("PRON", self.tags.pronoun_form(verb_feats))
            self.edge(ec, verb, "subj")
        else:
            nl, nr = self.rng.choice(SUBJECT_NOUNS)
            noun = self.add_segment(nl, "N", self.noun_features("NOM"), nl, nr)
            self.edge(noun, verb, "subj")
        self.nominal_clause(embedded_in=verb)
        return verb

    def negated_ellipsis_clause(self) -> int:
        neg = self.add_segment("laA", "NEG", {"SegType": "stem"})
        nl, nr = self.rng.choice(SUBJECT_NOUNS)
        noun = self.add_segment(nl, "N", self.noun_features("ACC"), nl, nr)
        self.edge(noun, neg, "subjx")
        ec = self.add_empty("N", ELLIPTICAL_FORM)
        self.edge(ec, neg, "predx")
        self.pp_adjunct(ec)
        return neg

    def pp_adjunct(self, head) -> None:
        prep = self.add_segment(self.rng.choice(PREPOSITIONS), "P", {"SegType": "stem"})
        gl, gr = self.rng.choice(GEN_NOUNS)
        noun = self.add_segment(gl, "N", self.noun_features("GEN"), gl, gr)
        self.edge(noun, prep, "gen")
        if self.phrases_on:
            pp = self.phrase(prep, noun, "PP")
            self.edge(pp, head, "link")
        else:
            self.edge(prep, head, "link")

    def conditional_sentence(self) -> None:
        cond = self.add_segment("man", "COND", {"SegType": "stem"})
        start = len(self.terminals)
        inner = self.verbal_clause(allow_drop=False, allow_pp=False)
        end = len(self.terminals) - 1
        vs = self.phrase(start, end, "VS")
        self.edge(vs, cond, "cond")
        self.add_segment("fa", "RSLT", {"SegType": "prefix"})
        start2 = len(self.terminals)
        if self.ellipsis_on and self.rng.random() < 0.5:
            root2 = self.negated_ellipsis_clause()
            tag = "NS"
        else:
            root2 = self.verbal_clause(allow_drop=False, allow_pp=False)
            tag = "VS"
        end2 = len(self.terminals) - 1
        apodosis = self.phrase(start2, end2, tag)
        self.edge(apodosis, cond, "rslt")

    def nonprojective_sentence(self) -> None:
        """Crossing pattern: a conjoined subject after an attached PP."""
        lemma, root = self.rng.choice(VERBS)
        verb = self.add_segment(lemma, "V", self.verb_features(), lemma, root)
        nl, nr = self.rng.choice(SUBJECT_NOUNS)
        subj = self.add_segment(nl, "N", self.noun_features("NOM"), nl, nr)
        self.edge(subj, verb, "subj")
        ol, orr = self.rng.choice(OBJECT_NOUNS)
        obj = self.add_segment(ol, "N", self.noun_features("ACC"), ol, orr)
        self.edge(obj, verb, "obj")
        prep = self.add_segment(self.rng.choice(PREPOSITIONS), "P", {"SegType": "stem"})
        gl, gr = self.rng.choice(GEN_NOUNS)
        gen = self.add_segment(gl, "N", self.noun_features("GEN"), gl, gr)
        self.edge(gen, prep, "gen")
        self.edge(prep, verb, "link")
        self.add_segment("wa", "CONJ", {"SegType": "prefix"})
        cl, cr = self.rng.choice(SUBJECT_NOUNS)
        conjunct = self.add_segment(cl, "N", self.noun_features("NOM"), cl, cr)
        self.edge(conjunct, subj, "conj")

    # -- assembly ---------------------------------------------------------

    def clause(self, top_level=True) -> int:
        roll = self.rng.random()
        if roll < 0.45:
            return self.verbal_clause()
        if roll < 0.6:
            return self.copular_clause()
        if roll < 0.75:
            return self.nominal_clause()
        if roll < 0.9 and self.phrases_on:
            return self.speech_clause()
        if self.ellipsis_on:
            return self.negated_ellipsis_clause()
        return self.verbal_clause()

    def conjoined(self, disconnected_on: bool) -> None:
        start1 = len(self.terminals)
        root1 = self.clause()
        end1 = len(self.terminals) - 1
        if not disconnected_on:
            return
        if self.rng.random() < 0.45:
            self.add_segment("wa", "CONJ", {"SegType": "prefix"}, lemma="wa")
            start2 = len(self.terminals)
            root2 = self.clause()
            end2 = len(self.terminals) - 1
            # Conjoined clauses are sentence phrases whenever the profile
            # carries phrase structure, keeping gold a function of the
            # observable features. A clause root is always a segment.
            if self.phrases_on:
                tag1 = "VS" if self.terminals[root1][1] == "V" else "NS"
                tag2 = "VS" if self.terminals[root2][1] == "V" else "NS"
                p1 = self.phrase(start1, end1, tag1)
                p2 = self.phrase(start2, end2, tag2)
                self.edge(p2, p1, "conj")
            else:
                self.edge(root2, root1, "conj")

    def build(self, index: int) -> HybridGraph:
        chapter = 1 + index // 100
        verse = 1 + index % 100
        terminals = []
        token = 0
        for term in self.terminals:
            if isinstance(term, EmptyCategory):
                terminals.append(term)
                continue
            form, pos, feats, lemma, root = term
            if ("SegType", "suffix") in feats and token:
                loc = Location(chapter, verse, token, 2)
            else:
                token += 1
                loc = Location(chapter, verse, token)
            terminals.append(MorphSegment(loc, form, pos, feats, lemma, root))
        return HybridGraph(
            tuple(terminals),
            frozenset(self.phrase_nodes),
            frozenset(Edge(d, h, r) for d, h, r in self.edges),
        )


class Profile(
    namedtuple(
        "Profile", "phrases ellipsis nonprojective disconnected", defaults=(False,) * 4
    )
):
    __slots__ = ()

    @staticmethod
    def parse(text: str) -> "Profile":
        """Profiles like "pure" or "+phrases,+ellipsis,+disconnected"."""
        flags = {f.strip().lstrip("+") for f in text.split(",") if f.strip()}
        flags.discard("pure")
        flags.discard("pure-dep")
        known = {"phrases", "ellipsis", "non-projective", "nonprojective", "disconnected"}
        unknown = flags - known
        if unknown:
            raise ValueError(f"unknown profile flags: {sorted(unknown)}")
        return Profile(
            phrases="phrases" in flags,
            ellipsis="ellipsis" in flags,
            nonprojective=bool(flags & {"non-projective", "nonprojective"}),
            disconnected="disconnected" in flags,
        )


def generate(
    seed: int,
    count: int,
    profile: Profile = Profile(),
    tags: TagSet = DEFAULT_TAGS,
) -> TreebankDocument:
    """Generate a deterministic corpus of valid hybrid graphs."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(profile, str):
        profile = Profile.parse(profile)
    rng = random.Random(seed)
    doc = TreebankDocument()
    for index in range(count):
        builder = _Builder(rng, profile.phrases, profile.ellipsis, tags)
        injected = profile.nonprojective and rng.random() < NONPROJECTIVE_RATE
        if injected:
            builder.nonprojective_sentence()
        elif profile.phrases and rng.random() < 0.25:
            builder.conditional_sentence()
        else:
            builder.conjoined(profile.disconnected)
        graph = builder.build(index)
        doc.graphs.append(graph)
        meta = GraphMetadata(location=str(Location(1 + index // 100, 1 + index % 100)))
        if injected:
            meta.comments.append("nonprojective = yes")
        doc.metadata.append(meta)
    return doc


def is_nonprojective(graph: HybridGraph) -> bool:
    """True when two terminal-to-terminal edges cross."""
    arcs = []
    for edge in graph.edges:
        if isinstance(edge.dependent, int) and isinstance(edge.head, int):
            a, b = sorted((edge.dependent, edge.head))
            arcs.append((a, b))
    for a, b in arcs:
        for c, d in arcs:
            if a < c < b < d:
                return True
    return False
