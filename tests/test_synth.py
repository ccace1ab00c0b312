"""The synthetic treebank generator: fixed corpora per seed and profile,
and what each profile flag adds."""

import hashlib

import pytest

from hybridparse.corpus_io import dumps_treebank
from hybridparse.graph import EmptyCategory
from hybridparse.synth import Profile, generate, is_nonprojective

# Corpora that models, ELAS counts and oracle sequences are measured on
# must not move: a change to the generator that moves one of these hashes
# changes every figure computed from synthetic data.
CORPUS_SHA256 = {
    "pure": "e2e72f8c6abd73fc16d01e6059f431427a4afad93dfea2ba08562dbfd7fdf661",
    "+phrases,+ellipsis,+disconnected":
        "a503d7a7f24c6fa3296b110038887fa0d8734f4bab44d29362986e4730042274",
    "+non-projective": "a7462fbef792c744d80c303f3fce045efcd567ff15878fd01d08c7d7640d6476",
}


@pytest.mark.parametrize("profile", sorted(CORPUS_SHA256))
def test_corpus_is_pinned(profile):
    text = dumps_treebank(generate(11, 100, profile))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORPUS_SHA256[profile]


def test_generation_is_prefix_stable():
    longer = generate(4, 30, "+phrases,+ellipsis").graphs
    assert generate(4, 10, "+phrases,+ellipsis").graphs == longer[:10]


def test_pure_profile_has_no_phrases_or_empty_categories():
    for graph in generate(2, 60, "pure").graphs:
        assert not graph.phrases
        assert not any(isinstance(t, EmptyCategory) for t in graph.terminals)


def test_flags_add_their_structure():
    graphs = generate(2, 60, "+phrases,+ellipsis,+disconnected").graphs
    assert any(g.phrases for g in graphs)
    assert any(isinstance(t, EmptyCategory) for g in graphs for t in g.terminals)
    assert any(e.relation == "conj" for g in graphs for e in g.edges)
    assert all(g.validate() == [] for g in graphs)


def test_nonprojective_graphs_are_marked():
    doc = generate(2, 80, "+non-projective")
    marked = ["nonprojective = yes" in m.comments for m in doc.metadata]
    assert any(marked)
    assert [is_nonprojective(g) for g in doc.graphs] == marked


def test_unknown_profile_flag_is_rejected():
    with pytest.raises(ValueError):
        Profile.parse("+phrases,+bogus")
