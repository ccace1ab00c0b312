"""Command-line interface binding the modules into reproducible workflows.

Exit codes: 0 success, 1 usage error (including an unknown or malformed
option), 2 data error, 3 acceptance failure (oracle-check mismatches,
threshold misses). The options are echoed into output headers for
provenance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .convert import from_pure_dependency, lossless_pure_graphs, to_pure_dependency
from .corpus_io import (
    GraphMetadata,
    TreebankDocument,
    TreebankFormatError,
    dumps_treebank,
    read_feature_notation,
    read_treebank,
    sentences_from_notation,
)
from .crossval import cross_validate
from .engine import parse_integrated, parse_multi_step
from .graph import GraphError
from .learning import DEFAULT_EPOCHS, FeatureSetSpec, Model, TrainingError, train
from .metrics import EvalReport, MetricError, elas, las, phrase_matches
from .oracle import oracle_sequence
from .render import emit_dot, svg
from .synth import Profile, generate
from .transitions import parse_transition

USAGE_ERROR, DATA_ERROR, ACCEPT_ERROR = 1, 2, 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a usage error; subcommand
    parsers are made from this class too."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}", USAGE_ERROR)


def _int_from(low: int):
    """An argparse type: an int no smaller than ``low``."""

    def convert(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)

    convert.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return convert


def _provenance(args: argparse.Namespace, keys: list) -> str:
    parts = [f"{k} = {getattr(args, k)}" for k in keys if getattr(args, k, None) is not None]
    return "# " + ", ".join(parts)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except FileNotFoundError:
        raise CliError(f"no such file: {path}", USAGE_ERROR)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", USAGE_ERROR)
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc.reason}", DATA_ERROR)


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}", USAGE_ERROR)


def _read_corpus(path: str) -> TreebankDocument:
    text = _read_text(path)
    try:
        return read_treebank(text)
    except (TreebankFormatError, GraphError) as exc:
        raise CliError(f"{path}: {exc}", DATA_ERROR)


def _read_model(path: str) -> Model:
    text = _read_text(path)
    try:
        return Model.deserialize(text)
    except TrainingError as exc:
        raise CliError(f"{path}: {exc}", DATA_ERROR)


def _read_sentences(path: str):
    """Sentences from CoNLL-X or feature-notation input, detected by shape."""
    text = _read_text(path)
    first = next((l for l in text.splitlines() if l.strip() and not l.startswith("#")), "")
    if "[" in first and first.lstrip().startswith("("):
        entries = read_feature_notation(text)
        return sentences_from_notation(entries)
    doc = read_treebank(text)
    return [graph.segments for graph in doc.graphs]


def cmd_train(args) -> int:
    corpus = _read_corpus(args.corpus)
    spec = FeatureSetSpec(args.features)
    graphs = list(corpus.graphs)
    if args.pipeline == "multistep":
        graphs = lossless_pure_graphs(corpus.graphs)
        print(f"# lossy graphs excluded from conversion: {len(corpus.graphs) - len(graphs)}")
    try:
        model = train(graphs, spec, seed=args.seed, epochs=args.epochs)
    except TrainingError as exc:
        raise CliError(str(exc), DATA_ERROR)
    _write_text(args.out, model.serialize())
    print(_provenance(args, ["corpus", "features", "pipeline", "seed", "out"]))
    print(f"# graphs used = {model.counts['graphs_used']}, "
          f"excluded (oracle-unreachable) = {model.counts['graphs_excluded']}")
    print(f"model written to {args.out}")
    return 0


def cmd_parse(args) -> int:
    model = _read_model(args.model)
    sentences = _read_sentences(args.input)
    parse = parse_multi_step if args.pipeline == "multistep" else parse_integrated
    doc = TreebankDocument()
    traces = []
    for sentence in sentences:
        if not sentence:
            continue
        graph, report = parse(model, sentence)
        doc.graphs.append(graph)
        doc.metadata.append(GraphMetadata())
        traces.append(report)
    header = _provenance(args, ["model", "input", "pipeline"])
    _write_text(args.out, header + "\n" + dumps_treebank(doc))
    if args.trace:
        for i, report in enumerate(traces):
            print(f"# sentence {i + 1}")
            print(report.trace_text())
    print(f"parsed {len(doc.graphs)} sentence(s) into {args.out}")
    return 0


def cmd_eval(args) -> int:
    gold = _read_corpus(args.gold)
    pred = _read_corpus(args.pred)
    if len(gold.graphs) != len(pred.graphs):
        raise CliError("gold and prediction differ in graph count", DATA_ERROR)
    print(_provenance(args, ["gold", "pred", "metric"]))
    try:
        score = {"elas": elas, "las": las, "parseval": phrase_matches}[args.metric]
        report = EvalReport.combine(score(g, p) for g, p in zip(gold.graphs, pred.graphs))
        if args.metric == "elas":
            print(report.key_values())
        elif args.metric == "las":
            print(f"las={float(report.recall):.6f}")
        else:
            print(f"precision={float(report.precision):.6f}")
            print(f"recall={float(report.recall):.6f}")
    except MetricError as exc:
        raise CliError(str(exc), DATA_ERROR)
    return 0


def cmd_crossval(args) -> int:
    corpus = _read_corpus(args.corpus)
    spec = FeatureSetSpec(args.features)
    try:
        report = cross_validate(
            corpus, args.folds, spec, args.pipeline, seed=args.seed, epochs=args.epochs
        )
    except (ValueError, TrainingError) as exc:
        raise CliError(str(exc), DATA_ERROR)
    print(_provenance(args, ["corpus", "folds", "features", "pipeline", "seed"]))
    print(f"{'pipeline':<12}{'P':>8}{'R':>8}{'F1':>8}")
    print(
        f"{args.pipeline:<12}"
        f"{float(report.precision) * 100:>8.2f}"
        f"{float(report.recall) * 100:>8.2f}"
        f"{float(report.f1) * 100:>8.2f}"
    )
    print(report.key_values())
    print(f"folds={args.folds}")
    print(f"spec={args.features}")
    print(f"pipeline={args.pipeline}")
    print(f"seed={args.seed}")
    if args.min_f1 is not None and float(report.f1) < args.min_f1:
        raise CliError(
            f"f1 {float(report.f1):.4f} below threshold {args.min_f1}", ACCEPT_ERROR
        )
    return 0


def cmd_convert(args) -> int:
    corpus = _read_corpus(args.input)
    out_doc = TreebankDocument()
    lossy = 0
    for graph, meta in zip(corpus.graphs, corpus.metadata):
        if args.direction == "to-pure":
            converted, report = to_pure_dependency(graph)
            lossy += 1 if report.lossy else 0
            print(
                f"# {meta.location or 'graph'}: phrases={report.converted_phrases} "
                f"ellipsis={report.converted_empty_categories} "
                f"dropped={report.dropped_pronouns} lossy={report.lossy}"
            )
            for subject, reason in report.loss_details:
                print(f"#   loss: {subject}: {reason}")
        else:
            converted, report = from_pure_dependency(graph)
            for subject, reason in report.reconstruction_errors:
                print(f"#   reconstruction error: {subject}: {reason}")
        out_doc.graphs.append(converted)
        out_doc.metadata.append(meta)
    if args.out:
        _write_text(args.out, dumps_treebank(out_doc))
    print(f"# lossy graphs: {lossy}/{len(corpus.graphs)}")
    return 0


def cmd_oracle_check(args) -> int:
    corpus = _read_corpus(args.corpus)
    failures = 0
    for i, graph in enumerate(corpus.graphs):
        outcome = oracle_sequence(graph)
        label = corpus.metadata[i].location or f"graph {i + 1}"
        if not outcome.reachable:
            failures += 1
            print(f"UNREACHABLE {label}: {len(outcome.uncovered_edges)} uncovered edge(s)")
        else:
            print(f"ok {label}: {len(outcome.sequence)} transitions")
    if args.fixtures:
        for path in sorted(Path(args.fixtures).glob("*.transitions")):
            lines = _read_text(str(path)).splitlines()
            corpus_path = _fixture_graph(path, lines)
            if not corpus_path.exists():
                raise CliError(f"no graph fixture {corpus_path} for {path}", USAGE_ERROR)
            doc = _read_corpus(str(corpus_path))
            expected = [
                parse_transition(line)
                for line in lines
                if line.strip() and not line.startswith("#")
            ]
            outcome = oracle_sequence(doc.graphs[0])
            if outcome.sequence != expected:
                failures += 1
                print(f"MISMATCH {path.name}")
                for got, want in zip(outcome.sequence, expected):
                    marker = "" if str(got) == str(want) else "   <-- differs"
                    print(f"  {str(got):<16}{str(want)}{marker}")
            else:
                print(f"ok {path.name}: fixture reproduced")
    if failures:
        raise CliError(f"{failures} oracle failure(s)", ACCEPT_ERROR)
    return 0


def _fixture_graph(path: Path, lines: list) -> Path:
    """The graph a transition fixture belongs to: the file named by a
    ``# graph: <name>`` line, relative to the fixture, else the sibling
    ``.conllx`` file."""
    for line in lines:
        if line.startswith("# graph:"):
            return path.parent / line[len("# graph:"):].strip()
    return path.with_suffix(".conllx")


def cmd_synth(args) -> int:
    try:
        profile = Profile.parse(args.profile)
    except ValueError as exc:
        raise CliError(str(exc), USAGE_ERROR)
    doc = generate(args.seed, args.count, profile)
    _write_text(args.out, dumps_treebank(doc))
    print(_provenance(args, ["seed", "count", "profile", "out"]))
    print(f"wrote {len(doc.graphs)} graph(s) to {args.out}")
    return 0


def cmd_render(args) -> int:
    corpus = _read_corpus(args.input)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc.strerror}", USAGE_ERROR)
    for i, graph in enumerate(corpus.graphs):
        document = svg(graph, rtl=not args.ltr) if args.format == "svg" else emit_dot(graph)
        _write_text(str(out_dir / f"graph{i + 1:04d}.{args.format}"), document)
    print(f"rendered {len(corpus.graphs)} document(s) into {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hybridparse",
        description="Hybrid dependency-constituency statistical parser",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def epochs_option(p):
        p.add_argument(
            "--epochs", type=_int_from(1), default=DEFAULT_EPOCHS,
            help="cap on training epochs per POS partition; a partition stops "
                 "earlier once its averaged weights score the gold transition "
                 "strictly highest on every pair whose features are not also "
                 "labelled otherwise (default: %(default)s)",
        )

    p = sub.add_parser("train", help="fit and serialize a model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--features", default="lemma",
                   choices=["pos", "morph6", "morph9", "lemma", "phi"])
    p.add_argument("--pipeline", default="integrated", choices=["integrated", "multistep"])
    p.add_argument("--seed", type=int, default=0)
    epochs_option(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--pipeline", default="integrated", choices=["integrated", "multistep"])
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--metric", default="elas", choices=["elas", "las", "parseval"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("crossval", help="k-fold cross-validation report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--folds", type=_int_from(2), default=10)
    p.add_argument("--features", default="lemma",
                   choices=["pos", "morph6", "morph9", "lemma", "phi"])
    p.add_argument("--pipeline", default="integrated", choices=["integrated", "multistep"])
    p.add_argument("--seed", type=int, default=0)
    epochs_option(p)
    p.add_argument("--min-f1", type=float, default=None, dest="min_f1")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("convert", help="hybrid/pure dependency conversion")
    p.add_argument("--input", required=True)
    p.add_argument("--direction", required=True, choices=["to-pure", "to-hybrid"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("oracle-check", help="verify oracle fidelity")
    p.add_argument("--corpus", required=True)
    p.add_argument("--fixtures", help="directory of .conllx/.transitions pairs")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("synth", help="emit a synthetic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_int_from(1), required=True)
    p.add_argument("--profile", default="pure")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", help="draw graphs as SVG or DOT")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="svg", choices=["svg", "dot"])
    p.add_argument("--out", required=True)
    p.add_argument("--ltr", action="store_true", help="left-to-right word order")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (TreebankFormatError, GraphError, MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
