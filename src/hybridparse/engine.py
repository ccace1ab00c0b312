"""End-to-end parsing pipelines.

Integrated parsing predicts over the full transition set and builds the
hybrid graph directly. Multi-step parsing restricts prediction to shift,
reduce and the two edge transitions, then reconstructs phrase structure
and ellipsis from the enriched labels of the pure dependency result, which
it edits on in place. Either steps one configuration (``transitions.step``)
and takes its graph once, at the end.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence

from .convert import from_pure_dependency
from .graph import MorphSegment, _Record
from .learning import Model, predict
from .oracle import step_budget
from .transitions import _STEP, Configuration, PURE_KINDS, Transition, forced, initial, step
from .vocab import DEFAULT_TAGS, TagSet


class ParseReport(_Record):
    _fields = (
        "trace", "budget_exhausted", "predictive_steps", "illegal_top_steps",
        "fallback_ranks", "forced_steps", "reconstruction_errors",
    )

    def __init__(
        self,
        trace: Optional[List[Transition]] = None,
        budget_exhausted: bool = False,
        predictive_steps: int = 0,
        illegal_top_steps: int = 0,
        fallback_ranks: Optional[Counter] = None,
        forced_steps: int = 0,
        reconstruction_errors: Optional[list] = None,
    ):
        self.trace = [] if trace is None else trace
        self.budget_exhausted = budget_exhausted
        self.predictive_steps = predictive_steps
        # Predictive steps whose best-ranked allowed transition was illegal;
        # of those, rank among the allowed transitions (the best is 1) of the
        # one taken -> steps, and those that fell back to ``forced`` (see
        # ``learning.predict``). Nothing serializes these counts.
        self.illegal_top_steps = illegal_top_steps
        self.fallback_ranks = Counter() if fallback_ranks is None else fallback_ranks
        self.forced_steps = forced_steps
        self.reconstruction_errors = [] if reconstruction_errors is None else reconstruction_errors

    def trace_text(self) -> str:
        return "\n".join(str(t) for t in self.trace)


def _greedy_parse(
    model: Model,
    sentence: Sequence[MorphSegment],
    tags: TagSet,
    allowed_kinds: Optional[tuple],
) -> tuple:
    """Predict and take transitions until the configuration is terminal, as
    its lists (changed in place) tell, or the budget is spent; then drain.
    A step goes through ``step``'s class table."""
    config = initial(sentence)
    budget = step_budget(len(sentence))
    report = ParseReport()
    trace, pushed, terminals = report.trace, config.pushed, config.terminals
    while (pushed or config.front < len(terminals)) and len(trace) < budget:
        t = predict(model, config, allowed_kinds, report)
        _STEP[type(t)](config, t, tags)
        trace.append(t)
    report.predictive_steps = len(trace)
    if not config.is_terminal_state():
        report.budget_exhausted = True
        _drain(config, tags, report)
    return config, report


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
    config, report = _greedy_parse(model, sentence, tags, None)
    return config.graph, report


def parse_multi_step(
    model: Model, sentence: Sequence[MorphSegment], tags: TagSet = DEFAULT_TAGS
) -> tuple:
    """Pure-dependency parse followed by hybrid reconstruction."""
    config, report = _greedy_parse(model, sentence, tags, PURE_KINDS)
    hybrid, conversion = from_pure_dependency(config, tags)
    report.reconstruction_errors = conversion.reconstruction_errors
    return hybrid, report
