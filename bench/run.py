"""Benchmark of hybridparse: train and parse throughput, parse latency, ELAS.

    python3 bench/run.py --workload short-integrated --seed 1 --seconds 55 --trace 0

Run from the repository root. One process, one client, closed loop: each
sentence is parsed after the previous one returns. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` makes one traced train+parse cycle and
reports the per-layer metrics. The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics; the lines before
it are the same figures for a reader, plus sample counts and the hashes that
behaviour-preserving changes must keep. The exit code is 1 when an output
check fails and 2 when the package sources are missing. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

perf = time.perf_counter

# Set-ups per round. A set-up is short and noisy (corpus generation varied by
# 0.17 of its median within one run), and long-integrated fits only about 3
# rounds in a run, so each round takes several set-up samples.
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import() -> None:
    """A fresh interpreter importing the package, as the CLI pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import hybridparse"], env=env, check=True)


def parse_one(parse, model, gold) -> tuple:
    """(output, (start, end)) of one parse. A parse that raises yields None."""
    t0 = perf()
    try:
        predicted, _ = parse(model, gold.segments)
    except Exception:  # counted as a failed parse; the run goes on
        traceback.print_exc(file=sys.stderr)
        predicted = None
    return predicted, (t0, perf())


def parse_pass(parse, model, gold_graphs) -> tuple:
    """(outputs, per-sentence spans) of parsing every sentence once."""
    results = [parse_one(parse, model, gold) for gold in gold_graphs]
    return [r[0] for r in results], [r[1] for r in results]


def invalid_outputs(outputs) -> int:
    """Parses that raised or returned a graph with validate() violations."""
    return sum(1 for g in outputs if g is None or g.validate())


def measure(w, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics.

    The window is filled with whole rounds, each SETUP_REPEATS set-ups, a
    training and a parse pass over the eval set, so that every metric samples
    the machine over the whole window and every eval sentence weighs the same. A round
    starts only if it would end nearer the window's end than stopping now.
    Times are scaled to a fixed machine speed (steady.py). The first round's
    parses are checked and scored; later rounds must give the same model and
    the same graphs."""
    import workloads as wl
    from hybridparse.learning import Model
    from hybridparse.metrics import EvalReport
    from steady import PROBE_REF_S, SteadyClock

    parse = wl.parse_function(w)
    clock = SteadyClock()

    def timed(fn, *args):
        t0 = perf()
        return fn(*args), (t0, perf())

    def load_corpora():
        with clock.paused():
            fresh_import()
        return wl.corpora(w, seed)

    def reload(model):
        text = model.serialize()
        return Model.deserialize(text), text

    corpus_spans, train_spans, io_spans, pass_spans = [], [], [], []
    clock.start()
    try:
        window_end = perf() + seconds
        round_s = 0.0
        while not pass_spans or perf() + round_s / 2 < window_end:
            r0 = perf()
            for _ in range(SETUP_REPEATS):
                corpora = None  # the last set-up's data must not add to this one's memory
                corpora, span = timed(load_corpora)
                corpus_spans.append(span)
            train_graphs, eval_graphs = corpora
            (model, used), span = timed(wl.train, w, train_graphs)
            train_spans.append(span)
            (model, text), span = timed(reload, model)
            io_spans.append(span)
            outputs, spans = parse_pass(parse, model, eval_graphs)
            pass_spans.append(spans)
            if len(pass_spans) == 1:
                first, first_text = outputs, text
                unreachable = model.counts["graphs_excluded"]
                failed = invalid_outputs(outputs)
                train_segments = wl.segment_count(train_graphs)
                eval_segments = wl.segment_count(eval_graphs)
                counts = len(train_graphs), len(used), len(eval_graphs)
                reports = wl.score(eval_graphs, outputs)
            else:
                failed += (text != first_text) + sum(a != b for a, b in zip(outputs, first))
            # The next round's set-up must not count this round's data in its memory.
            del corpora, train_graphs, eval_graphs, model, used, outputs
            round_s = perf() - r0
    finally:
        clock.stop()

    scaled = clock.scaled
    io_s = [s for s in scaled(io_spans) for _ in range(SETUP_REPEATS)]
    setups = [a + b for a, b in zip(scaled(corpus_spans), io_s)]
    trains = scaled(train_spans)
    passes = [scaled(spans) for spans in pass_spans]
    latencies = [s for p in passes for s in p]
    total = EvalReport.combine(reports)

    p90 = statistics.quantiles(latencies, n=10)[8]
    rounds = len(passes)
    wall_train = statistics.median(b - a for a, b in train_spans)
    wall_pass = statistics.median(sum(b - a for a, b in p) for p in pass_spans)
    factors = [PROBE_REF_S / (b - a) for a, b in zip(clock.starts, clock.ends)]
    values = {
        "setup_s": statistics.median(setups),
        "train_seg_per_s": statistics.median(train_segments / t for t in trains),
        "parse_seg_per_s": statistics.median(eval_segments / sum(p) for p in passes),
        "parse_ms_p50": statistics.median(latencies) * 1000,
        "parse_ms_p90": p90 * 1000,
        "elas_f1": float(total.f1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "rounds": f"{rounds} of {SETUP_REPEATS} set-ups, a training and a parse pass",
        "train": f"{counts[0]} sentences, {train_segments} segments; "
                 f"unscaled median {train_segments / wall_train:.6g} seg/s",
        "parse": f"{len(latencies)} latency samples over {counts[2]} sentences "
                 f"({eval_segments} segments), {sum(1 for x in latencies if x > p90)} "
                 f"beyond p90; unscaled median {eval_segments / wall_pass:.6g} seg/s",
        "machine speed": f"{len(factors)} probes, probe factor median "
                         f"{statistics.median(factors):.3f}, range "
                         f"{min(factors):.3f}-{max(factors):.3f}",
        "failed_frac": f"{failed / len(latencies)} ratio ({failed} of {len(latencies)} parses)",
        "elas_counts": f"tp={total.true_positives} gold={total.gold_count} "
                       f"pred={total.predicted_count}",
        "oracle": f"{counts[1]} training graphs, {unreachable} oracle-unreachable",
        "hash.model": wl.sha256([first_text]),
        "hash.elas_counts": wl.sha256(wl.elas_lines(reports)),
    }
    return {
        "correct": failed == 0 and unreachable == 0,
        "attempted": rounds * (2 + counts[2]),
        "failed": failed,
        "values": values,
        "info": info,
    }


def traced(w, seed: int) -> dict:
    """Traced run: one untraced and one traced train+parse cycle of the same
    corpus, the per-layer metrics of the traced one, and the scaling table."""
    import tracing
    import workloads as wl
    from hybridparse.learning import Model

    train_graphs, eval_graphs = wl.corpora(w, seed)
    parse = wl.parse_function(w)

    t0 = perf()
    model, used = wl.train(w, train_graphs)
    t1 = perf()
    plain_text = model.serialize()
    model = Model.deserialize(plain_text)
    t2 = perf()
    plain_outputs, _ = parse_pass(parse, model, eval_graphs)
    untraced_s = (t1 - t0) + (perf() - t2)
    plain_reports = wl.score(eval_graphs, plain_outputs)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("phase.setup"):
            wl.corpora(w, seed)
        t0 = perf()
        with tracer.span("phase.train"):
            traced_model, _ = wl.train(w, train_graphs)
        t1 = perf()
        with tracer.span("phase.model_io"):
            text = traced_model.serialize()
            traced_model = Model.deserialize(text)
        t2 = perf()
        with tracer.span("phase.parse"):
            # Looked up again: the tracer has rebound the parse functions.
            outputs, _ = parse_pass(wl.parse_function(w), traced_model, eval_graphs)
        traced_s = (t1 - t0) + (perf() - t2)
        with tracer.span("phase.score"):
            reports = wl.score(eval_graphs, outputs)
    finally:
        tracer.uninstall()

    oracle = wl.oracle_lines(used)
    eval_oracle = wl.oracle_lines(eval_graphs)
    failed = invalid_outputs(plain_outputs) + invalid_outputs(outputs)
    checks = {
        "traced model == untraced model": text == plain_text,
        "traced ELAS counts == untraced": wl.elas_lines(reports) == wl.elas_lines(plain_reports),
        "traced oracle sequences == untraced": tracer.oracle_sequences == oracle,
        "training graphs oracle-reachable": all(x.startswith("reachable") for x in oracle),
        "eval graphs oracle-reachable": all(x.startswith("reachable") for x in eval_oracle),
    }

    summary = tracer.summary()
    values = tracing.layer_metrics(summary, tracer.counters)
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values.update(scaling_table(w, seed, model))

    info = {f"check: {name}": "ok" if ok else "FAILED" for name, ok in checks.items()}
    info["spans"] = str(summary["spans"])
    for phase in ("phase.train", "phase.parse"):
        rows = sorted(
            ((s, name) for (p, name), s in summary["self_s"].items() if p == phase),
            reverse=True,
        )
        total = sum(s for s, _ in rows)
        info[f"self time in {phase}"] = ", ".join(
            f"{name} {s:.3f}s ({s / total:.0%})" for s, name in rows[:6]
        )
    info["hash.oracle_sequences"] = wl.sha256(oracle)
    info["hash.model"] = wl.sha256([plain_text])
    info["hash.elas_counts"] = wl.sha256(wl.elas_lines(plain_reports))
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": 2 * (1 + len(eval_graphs)),
        "failed": failed,
        "values": values,
        "info": info,
    }


def scaling_table(w, seed: int, model) -> dict:
    """Median oracle and parse ms per sentence at a few sentence lengths.
    The oracle runs on the hybrid gold graphs; parsing uses the workload's
    pipeline and model."""
    import workloads as wl

    parse = wl.parse_function(w)
    out = {}
    for length, count in wl.SCALING:
        graphs = wl.sentences(2 * seed + 1, count, length)
        oracle_ms, parse_ms = [], []
        for g in graphs:
            t0 = perf()
            wl.oracle.oracle_sequence(g)
            t1 = perf()
            parse(model, g.segments)
            t2 = perf()
            oracle_ms.append((t1 - t0) * 1000)
            parse_ms.append((t2 - t1) * 1000)
        out[f"scaling.oracle_ms.len{length}"] = statistics.median(oracle_ms)
        out[f"scaling.parse_ms.len{length}"] = statistics.median(parse_ms)
    return out


def units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hybridparse" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    result = traced(w, args.seed) if args.trace else measure(w, args.seed, args.seconds)
    wanted = units(bool(args.trace))
    missing = sorted(set(wanted) - set(result["values"]))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    print(f"# workload={w.name} pipeline={w.pipeline} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in wanted.items():
        print(f"{name} = {result['values'][name]:.6g} {unit}")
    for name, text in result["info"].items():
        print(f"# {name}: {text}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["values"][name], "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
