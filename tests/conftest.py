from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from hybridparse.corpus_io import read_treebank
from hybridparse.graph import Edge, HybridGraph, Phrase, own_mask, ref_key
from hybridparse.synth import generate
from hybridparse.transitions import apply, initial, parse_transition
from hybridparse.vocab import DEFAULT_TAGS

FIXTURES = Path(__file__).parent / "fixtures"

PROFILES = (
    "pure",
    "+phrases",
    "+ellipsis",
    "+phrases,+ellipsis",
    "+phrases,+ellipsis,+disconnected",
)

# Four synthetic graphs of one seed and profile.
corpora = st.builds(
    lambda seed, profile: generate(seed, 4, profile).graphs,
    st.integers(0, 10_000),
    st.sampled_from(PROFILES),
)

_acceptance_lines: list = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def load_graph(name: str, tags=DEFAULT_TAGS):
    text = (FIXTURES / name).read_text("utf-8")
    doc = read_treebank(text, tags)
    return doc.graphs[0]


def concatenate(graphs) -> HybridGraph:
    """One long sentence holding the given graphs side by side, with no new
    edges between them."""
    terminals: list = []
    phrases: set = set()
    edges: set = set()
    for g in graphs:
        offset = len(terminals)

        def moved(ref):
            if isinstance(ref, Phrase):
                return Phrase(ref.start + offset, ref.end + offset, ref.tag)
            return ref + offset

        terminals.extend(g.terminals)
        phrases.update(moved(p) for p in g.phrases)
        edges.update(Edge(moved(e.dependent), moved(e.head), e.relation) for e in g.edges)
    return HybridGraph(tuple(terminals), frozenset(phrases), frozenset(edges))


def record_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.<name>`` and rebind the wrapper in every hybridparse
    module that holds the function; returns the list of each call's
    positional arguments, in call order."""
    original = getattr(module, name)
    calls: list = []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "hybridparse" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return calls


def replay(sentence, sequence, tags=DEFAULT_TAGS):
    """The configuration a transition sequence reaches from the initial one,
    each transition applied with its legality check."""
    config = initial(sentence)
    for t in sequence:
        config = apply(config, t, tags)
    return config


def working_state(config) -> tuple:
    """Everything a configuration holds, copied, including its indices and
    masks."""
    return (
        list(config.terminals),
        config.front,
        list(config.pushed),
        {ref: list(edges) for ref, edges in config.heads.items()},
        {ref: list(edges) for ref, edges in config.deps.items()},
        set(config.phrases),
        dict(config.masks),
    )


def _bits(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def assert_working_state_equals_a_rebuild(config):
    """The working graph of a configuration agrees, node by node, with the
    graph the constructor builds from the same terminals, phrases and edges:
    span, yield, head edges (and head, where there is at most one) and
    sorted dependent edges. Each edge is listed once by
    dependent and once by head, no list is empty, no queue terminal has an
    edge, a mask is kept only for a node whose yield goes beyond its own
    extent, and the stack is ordered as insertions assume."""
    by_dependent = [e for edges in config.heads.values() for e in edges]
    by_head = [e for edges in config.deps.values() for e in edges]
    rebuilt = HybridGraph(tuple(config.terminals), frozenset(config.phrases), frozenset(by_dependent))
    assert len(by_dependent) == len(by_head) == len(rebuilt.edges)
    assert set(by_head) == rebuilt.edges
    assert all(config.heads.values()) and all(config.deps.values())
    assert config.graph == rebuilt
    nodes = list(range(len(rebuilt))) + sorted(rebuilt.phrases)
    assert set(config.masks) <= set(nodes)
    for ref in nodes:
        assert config.span(ref) == rebuilt.subgraph_span(ref), ref
        assert _bits(config.yield_mask(ref)) == rebuilt.yield_of(ref), ref
        heads = config.heads.get(ref, ())
        assert set(heads) == set(rebuilt.head_edges(ref)), ref
        if len(heads) < 2:
            assert (heads[0].head if heads else None) == rebuilt.head_of(ref), ref
        dependents = config.deps.get(ref, ())
        assert tuple(sorted(dependents, key=lambda e: (ref_key(e.dependent), e.relation))) == (
            rebuilt.dependent_edges(ref)
        ), ref
        assert ref not in config.masks or config.masks[ref] != own_mask(ref), ref
    for i in config.queue:
        assert i not in config.heads and i not in config.deps
    # An insertion after s1 moves no stack item: their extents end before the
    # queue, and the ends never decrease toward the top.
    ends = [HybridGraph.extent(ref)[1] for ref in config.pushed]
    assert ends == sorted(ends) and all(end < config.front for end in ends)


def load_transitions(name: str):
    lines = (FIXTURES / name).read_text("utf-8").splitlines()
    return [parse_transition(l) for l in lines if l.strip() and not l.startswith("#")]


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def english_tags():
    return DEFAULT_TAGS.with_relations("det")
