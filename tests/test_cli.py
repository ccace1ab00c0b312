"""End-to-end tests of the command line: each workflow through cli.main,
checked by its exit code (0 success, 1 usage, 2 data, 3 acceptance)."""

from pathlib import Path

import pytest

from hybridparse import __version__
from hybridparse.cli import ACCEPT_ERROR, DATA_ERROR, USAGE_ERROR, main
from hybridparse.corpus_io import TreebankDocument, dumps_treebank
from hybridparse.graph import HybridGraph, Phrase

from conftest import load_graph

FIXTURES = Path(__file__).parent / "fixtures"
PROFILE = "+phrases,+ellipsis,+disconnected"


@pytest.fixture
def corpus(tmp_path) -> Path:
    path = tmp_path / "corpus.conllx"
    assert main(["synth", "--seed", "5", "--count", "12", "--profile", PROFILE,
                 "--out", str(path)]) == 0
    return path


def test_workflow_exits_zero(tmp_path, corpus, capsys):
    for pipeline in ("integrated", "multistep"):
        model = tmp_path / f"{pipeline}.json"
        parsed = tmp_path / f"{pipeline}.conllx"
        assert main(["train", "--corpus", str(corpus), "--pipeline", pipeline,
                     "--out", str(model)]) == 0
        assert main(["parse", "--model", str(model), "--input", str(corpus),
                     "--pipeline", pipeline, "--out", str(parsed), "--trace"]) == 0
        for metric in ("elas", "parseval"):
            assert main(["eval", "--gold", str(corpus), "--pred", str(parsed),
                         "--metric", metric]) == 0
    assert main(["crossval", "--corpus", str(corpus), "--folds", "3",
                 "--pipeline", "multistep", "--epochs", "5"]) == 0
    pure = tmp_path / "pure.conllx"
    hybrid = tmp_path / "hybrid.conllx"
    assert main(["convert", "--input", str(corpus), "--direction", "to-pure",
                 "--out", str(pure)]) == 0
    assert main(["convert", "--input", str(pure), "--direction", "to-hybrid",
                 "--out", str(hybrid)]) == 0
    for fmt in ("svg", "dot"):
        out = tmp_path / fmt
        assert main(["render", "--input", str(corpus), "--format", fmt, "--out", str(out)]) == 0
        assert len(list(out.glob(f"*.{fmt}"))) == 12
    capsys.readouterr()


def _keeping_phrases(graph, keep):
    """The graph with only the phrases in ``keep`` and the edges between
    the nodes left."""
    phrases = frozenset(p for p in graph.phrases if p in keep)
    edges = frozenset(
        e for e in graph.edges
        if all(not isinstance(r, Phrase) or r in phrases for r in (e.dependent, e.head))
    )
    return HybridGraph(graph.terminals, phrases, edges)


def test_parseval_pools_phrase_counts(tmp_path, capsys):
    """Counts are pooled over graphs, as for elas: a graph with no phrase on
    either side adds nothing, where a mean of per-graph scores counts it 1/1."""
    full = load_graph("fig_9_11.conllx")
    kept = min(full.phrases)
    bare = _keeping_phrases(full, ())
    gold, pred = tmp_path / "gold.conllx", tmp_path / "pred.conllx"
    gold.write_text(dumps_treebank(TreebankDocument([full, bare])), encoding="utf-8")
    pred.write_text(
        dumps_treebank(TreebankDocument([_keeping_phrases(full, {kept}), bare])),
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["eval", "--gold", str(gold), "--pred", str(pred),
                 "--metric", "parseval"]) == 0
    lines = capsys.readouterr().out.splitlines()
    recall = 1 / len(full.phrases)
    assert "precision=1.000000" in lines
    assert f"recall={recall:.6f}" in lines
    assert f"recall={(recall + 1) / 2:.6f}" not in lines


def test_las_on_a_pure_corpus(tmp_path):
    corpus = tmp_path / "pure.conllx"
    model = tmp_path / "model.json"
    parsed = tmp_path / "parsed.conllx"
    assert main(["synth", "--seed", "3", "--count", "12", "--out", str(corpus)]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(model)]) == 0
    assert main(["parse", "--model", str(model), "--input", str(corpus),
                 "--out", str(parsed)]) == 0
    assert main(["eval", "--gold", str(corpus), "--pred", str(parsed), "--metric", "las"]) == 0


def test_las_pools_attachment_counts(tmp_path, capsys):
    """LAS pools counts over graphs, so it equals the ELAS recall of a pure
    corpus; a mean of per-graph scores gives 0.891667 here."""
    corpus = tmp_path / "pure.conllx"
    model = tmp_path / "model.json"
    parsed = tmp_path / "parsed.conllx"
    assert main(["synth", "--seed", "3", "--count", "40", "--out", str(corpus)]) == 0
    assert main(["train", "--corpus", str(corpus), "--epochs", "1", "--out", str(model)]) == 0
    assert main(["parse", "--model", str(model), "--input", str(corpus),
                 "--out", str(parsed)]) == 0
    capsys.readouterr()
    for metric in ("las", "elas"):
        assert main(["eval", "--gold", str(corpus), "--pred", str(parsed),
                     "--metric", metric]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "las=0.847826" in lines
    assert "recall=0.847826" in lines and "tp=78" in lines and "gold=92" in lines


def test_oracle_check_reproduces_the_repository_fixtures(corpus, capsys):
    assert main(["oracle-check", "--corpus", str(corpus), "--fixtures", str(FIXTURES)]) == 0
    assert "ok fig_9_12_13.transitions: fixture reproduced" in capsys.readouterr().out


def test_usage_errors_exit_one(tmp_path, corpus, capsys):
    assert main(["crossval", "--corpus", str(corpus), "--bogus"]) == USAGE_ERROR
    assert main(["crossval", "--corpus", str(corpus), "--config", "cfg"]) == USAGE_ERROR
    assert main(["oracle-check", "--corpus", str(corpus), "--bogus"]) == USAGE_ERROR
    assert main(["train", "--corpus", str(corpus)]) == USAGE_ERROR
    assert main([]) == USAGE_ERROR
    missing = tmp_path / "missing.conllx"
    assert main(["oracle-check", "--corpus", str(missing)]) == USAGE_ERROR
    capsys.readouterr()
    model = tmp_path / "model.json"
    out_of_range = [
        (["synth", "--seed", "1", "--count", "0", "--out", str(tmp_path / "s")], "--count"),
        (["train", "--corpus", str(corpus), "--epochs", "0", "--out", str(model)], "--epochs"),
        (["train", "--corpus", str(corpus), "--epochs", "-3", "--out", str(model)], "--epochs"),
        (["crossval", "--corpus", str(corpus), "--epochs", "-1"], "--epochs"),
        (["crossval", "--corpus", str(corpus), "--folds", "1"], "--folds"),
        (["crossval", "--corpus", str(corpus), "--folds", "two"], "--folds"),
    ]
    for argv, option in out_of_range:
        assert main(argv) == USAGE_ERROR, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option in err, argv
    assert not model.exists()
    # A well-formed fold count that the corpus cannot fill is a data error.
    assert main(["crossval", "--corpus", str(corpus), "--folds", "13"]) == DATA_ERROR


def test_help_and_version_exit_zero(capsys):
    for argv in (["--help"], ["train", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_malformed_treebank_exits_two(tmp_path):
    bad = tmp_path / "bad.conllx"
    bad.write_text("1\tT\t_\tqaAla\tV\tSegType=stem\tseven\tsubj\n", encoding="utf-8")
    assert main(["oracle-check", "--corpus", str(bad)]) == DATA_ERROR


@pytest.mark.parametrize("row, message", [
    ("1\tT\t_\tqaAla\tV\tSegType=stem\t1\tsubj", "line 1: edge endpoints must differ"),
    ("1\tT\t_\tqaAla\tV\tloc=1:x:1:1|SegType=stem\t_\t_", "line 1: malformed location"),
    ("1\tT\t_\tqaAla\tV\tloc=0:1:1:1|SegType=stem\t_\t_",
     "line 1: location chapter must be >= 1"),
    ("1\tT\t_\tkaAna\tV\tSegType=stem|SP=kaAn|SP=laysa\t_\t_",
     "line 1: repeated FEATS key 'SP'"),
], ids=["self-head", "bad-location", "zero-chapter", "repeated-key"])
def test_malformed_rows_exit_two(tmp_path, capsys, row, message):
    bad = tmp_path / "bad.conllx"
    bad.write_text(row + "\n", encoding="utf-8")
    assert main(["oracle-check", "--corpus", str(bad)]) == DATA_ERROR
    assert message in capsys.readouterr().err


def test_malformed_notation_exits_two(tmp_path, corpus, capsys):
    model = tmp_path / "model.json"
    notation = tmp_path / "input.txt"
    notation.write_text("(0:1:1) [POS:N]\n", encoding="utf-8")
    assert main(["train", "--corpus", str(corpus), "--epochs", "1", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["parse", "--model", str(model), "--input", str(notation),
                 "--out", str(tmp_path / "out.conllx")]) == DATA_ERROR
    assert "line 1: location chapter must be >= 1" in capsys.readouterr().err


def test_missed_threshold_exits_three(corpus):
    assert main(["crossval", "--corpus", str(corpus), "--folds", "3", "--epochs", "5",
                 "--min-f1", "1.01"]) == ACCEPT_ERROR


@pytest.mark.parametrize("missing", ["model", "input"])
def test_parse_of_a_missing_file_exits_one(tmp_path, corpus, missing):
    model = tmp_path / "model.json"
    assert main(["train", "--corpus", str(corpus), "--epochs", "1", "--out", str(model)]) == 0
    paths = {"model": model, "input": corpus, missing: tmp_path / f"missing.{missing}"}
    assert main(["parse", "--model", str(paths["model"]), "--input", str(paths["input"]),
                 "--out", str(tmp_path / "out.conllx")]) == USAGE_ERROR


@pytest.mark.parametrize("text", [
    '{"bad": 1}',
    "not json at all",
    '{"format": "hybridparse-model"}',
], ids=["not-a-model", "not-json", "missing-keys"])
def test_parse_with_a_malformed_model_exits_two(tmp_path, corpus, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text, encoding="utf-8")
    assert main(["parse", "--model", str(model), "--input", str(corpus),
                 "--out", str(tmp_path / "out.conllx")]) == DATA_ERROR
    assert f"{model}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, into_directory", [
    ("train", False),
    ("parse", False),
    ("parse", True),
    ("convert", False),
    ("synth", False),
], ids=["train", "parse", "parse-into-directory", "convert", "synth"])
def test_an_unwritable_out_exits_one(tmp_path, corpus, capsys, command, into_directory):
    model = tmp_path / "model.json"
    assert main(["train", "--corpus", str(corpus), "--epochs", "1", "--out", str(model)]) == 0
    argv = {
        "train": ["train", "--corpus", str(corpus), "--epochs", "1"],
        "parse": ["parse", "--model", str(model), "--input", str(corpus)],
        "convert": ["convert", "--input", str(corpus), "--direction", "to-pure"],
        "synth": ["synth", "--seed", "1", "--count", "2"],
    }[command]
    out = tmp_path if into_directory else tmp_path / "missing" / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == USAGE_ERROR
    assert f"error: cannot write {out}: " in capsys.readouterr().err


def test_a_directory_as_input_exits_one(tmp_path, capsys):
    assert main(["oracle-check", "--corpus", str(tmp_path)]) == USAGE_ERROR
    assert f"error: cannot read {tmp_path}: " in capsys.readouterr().err


def test_an_input_that_is_not_utf8_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.conllx"
    bad.write_bytes(b"\xff\xfe")
    assert main(["oracle-check", "--corpus", str(bad)]) == DATA_ERROR
    assert f"error: {bad}: not UTF-8 text: " in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["out", "drawing"])
def test_an_unwritable_render_out_exits_one(tmp_path, corpus, capsys, blocked):
    """``--out`` names an existing file, or a drawing's path is a directory."""
    out = corpus if blocked == "out" else tmp_path / "drawings"
    if blocked == "drawing":
        (out / "graph0001.svg").mkdir(parents=True)
    capsys.readouterr()
    assert main(["render", "--input", str(corpus), "--out", str(out)]) == USAGE_ERROR
    assert "error: cannot write " in capsys.readouterr().err
