from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from hybridparse.corpus_io import read_treebank
from hybridparse.graph import Edge, HybridGraph, Phrase
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


def load_transitions(name: str):
    lines = (FIXTURES / name).read_text("utf-8").splitlines()
    return [parse_transition(l) for l in lines if l.strip() and not l.startswith("#")]


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def english_tags():
    return DEFAULT_TAGS.with_relations("det")
