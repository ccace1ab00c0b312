"""End-to-end parsing pipelines.

Integrated parsing predicts over the full transition set and builds the
hybrid graph directly. Multi-step parsing restricts prediction to shift,
reduce and the two edge transitions, then reconstructs phrase structure
and ellipsis from the enriched labels of the pure dependency result. Either
parse steps one configuration in place (``transitions.step``) and takes
its graph once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .convert import from_pure_dependency
from .graph import MorphSegment
from .learning import Model, predict
from .oracle import step_budget
from .transitions import Configuration, PURE_KINDS, Transition, forced, initial, step
from .vocab import DEFAULT_TAGS, TagSet


@dataclass
class ParseReport:
    trace: List[Transition] = field(default_factory=list)
    budget_exhausted: bool = False
    predictive_steps: int = 0
    reconstruction_errors: list = field(default_factory=list)

    def trace_text(self) -> str:
        return "\n".join(str(t) for t in self.trace)


def _greedy_parse(
    model: Model,
    sentence: Sequence[MorphSegment],
    tags: TagSet,
    allowed_kinds: Optional[tuple],
) -> tuple:
    config = initial(sentence)
    budget = step_budget(len(sentence))
    report = ParseReport()
    while not config.is_terminal_state() and len(report.trace) < budget:
        t = predict(model, config, tags, allowed_kinds)
        step(config, t, tags)
        report.trace.append(t)
    report.predictive_steps = len(report.trace)
    if not config.is_terminal_state():
        report.budget_exhausted = True
        _drain(config, tags, report)
    return config.graph, report


def _drain(config: Configuration, tags: TagSet, report: ParseReport) -> None:
    """Forced cleanup after budget exhaustion: pop and shift to the end."""
    while not config.is_terminal_state():
        t = forced(config)
        step(config, t, tags)
        report.trace.append(t)


def parse_integrated(
    model: Model, sentence: Sequence[MorphSegment], tags: TagSet = DEFAULT_TAGS
) -> tuple:
    """Greedy one-step hybrid parse. Returns (graph, report)."""
    return _greedy_parse(model, sentence, tags, None)


def parse_multi_step(
    model: Model, sentence: Sequence[MorphSegment], tags: TagSet = DEFAULT_TAGS
) -> tuple:
    """Pure-dependency parse followed by hybrid reconstruction."""
    pure, report = _greedy_parse(model, sentence, tags, PURE_KINDS)
    hybrid, conversion = from_pure_dependency(pure, tags)
    report.reconstruction_errors = conversion.reconstruction_errors
    return hybrid, report
