"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from steady import ELASTICITY, PROBE_REF_S, SteadyClock

sys.path.insert(0, str(run.SRC))

import workloads as wl  # noqa: E402  (needs the package path above)

# Per-layer metric names the benchmark is specified to report.
REQUIRED_LAYER_METRICS = """
oracle.sentences oracle.steps oracle.s oracle.us_per_step oracle.reachable_ratio
learning.extract_features.calls learning.extract_features.s learning.features_per_config
learning.fit.s learning.fit.pairs learning.score.calls learning.score.s
learning.predict.calls learning.predict.s learning.train.self_s
transitions.legal.calls transitions.legal.s transitions.legal.true_ratio
transitions.apply.calls transitions.apply.s
graph.builds graph.build_s graph.subgraph_span.calls graph.subgraph_span.s
engine.steps engine.steps_per_segment engine.legal_per_step engine.budget_exhausted
engine.drain_steps
convert.to_pure.calls convert.to_pure.s convert.lossy_ratio convert.from_pure.calls
convert.from_pure.s convert.reconstruction_errors
metrics.elas.calls metrics.elas.s
corpus_io.dumps_treebank.s corpus_io.model_serialize.s corpus_io.model_deserialize.s
corpus_io.model_bytes
synth.generate.s
scaling.oracle_ms.len5 scaling.oracle_ms.len25 scaling.oracle_ms.len100
scaling.oracle_ms.len200 scaling.parse_ms.len5 scaling.parse_ms.len25
scaling.parse_ms.len100 scaling.parse_ms.len200
""".split()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    return replace(wl.WORKLOADS[name], train_sentences=30, eval_sentences=20)


@pytest.mark.parametrize("min_segments", [25, 100])
def test_assembled_long_graphs_are_valid_and_reachable(min_segments):
    parts = wl.sentences(7, 200)
    graphs = wl.sentences(7, 3, min_segments)
    used = 0
    for graph in graphs:
        assert len(graph.segments) >= min_segments
        assert graph.validate() == []
        assert wl.oracle.oracle_sequence(graph).reachable
        used_before = used
        while sum(len(p.segments) for p in parts[used_before:used]) < min_segments:
            used += 1
        group = parts[used_before:used]
        assert graph == wl.concatenate(group)
        assert len(graph.edges) == sum(len(p.edges) for p in group)
        assert len(graph.phrases) == sum(len(p.phrases) for p in group)


def test_concatenating_one_graph_is_identity():
    graph = wl.sentences(3, 1)[0]
    assert wl.concatenate([graph]) == graph


@pytest.fixture(scope="module", params=["short-integrated", "short-multistep"])
def both_runs(request):
    w = tiny(request.param)
    return run.traced(w, 5), run.measure(w, 5, seconds=0.1)


def test_traced_run_matches_untraced_run(both_runs):
    traced, untraced = both_runs
    assert traced["correct"] and untraced["correct"]
    for key in ("hash.model", "hash.elas_counts"):
        assert traced["info"][key] == untraced["info"][key]
    assert all(v == "ok" for k, v in traced["info"].items() if k.startswith("check:"))


def test_every_metric_name_is_reported(both_runs):
    traced, untraced = both_runs
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(REQUIRED_LAYER_METRICS) <= layer_names
    assert layer_names <= set(traced["values"])
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(untraced["values"])


def test_steady_clock_scales_a_span_by_the_probes_around_it():
    r = PROBE_REF_S
    clock = SteadyClock()
    # Until 3.0 the machine runs at reference speed; from 10.0 twice as fast.
    clock.starts = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
    clock.ends = [t + r for t in clock.starts[:3]] + [t + r / 2 for t in clock.starts[3:]]
    # The median of the probes within a second of a span sets its factor.
    e = ELASTICITY
    assert clock.scaled([(1.5, 1.75), (3.5, 9.5), (10.5, 10.75)]) == pytest.approx(
        [0.25, 6.0 * (4 / 3) ** e, 0.25 * 2**e])
    # A span far from other probes still uses the probe before and after.
    assert clock.scaled([(5.0, 6.0)]) == pytest.approx([(4 / 3) ** e])
    # A probe that ran inside a span does not count towards it.
    assert clock.scaled([(10.5, 11.5)]) == pytest.approx([(1.0 - r / 2) * 2**e])


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "short-integrated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
