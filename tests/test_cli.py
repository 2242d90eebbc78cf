import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prefixlm import cli
from prefixlm.cli import main
from prefixlm.data import RctExample, read_examples_jsonl, write_examples_jsonl
from prefixlm.model import read_tensor_map, write_tensor_map

CORPUS = """\
###100
BACKGROUND\tDrug A is widely used .
OBJECTIVE\tTo compare drug A with placebo .
RESULTS\tDrug A reduced symptoms significantly .
CONCLUSIONS\tDrug A is effective .

###200
RESULTS\tNo difference was observed between groups .
CONCLUSIONS\tTreatment B showed no benefit .
"""


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS, encoding="utf-8")
    return path


def _preprocess(tmp_path, corpus_file, sections="background,objective,results"):
    out = tmp_path / "examples.jsonl"
    code = main(["preprocess", "--corpus", str(corpus_file),
                 "--sections", sections, "--out", str(out)])
    return code, out


def _train_tokenizer(tmp_path, examples):
    vocab = tmp_path / "vocab.tsv"
    merges = tmp_path / "merges.tsv"
    code = main(["train-tokenizer", "--examples", str(examples),
                 "--num-merges", "30", "--out-vocab", str(vocab),
                 "--out-merges", str(merges)])
    return code, vocab, merges


def _write_config(tmp_path, examples, vocab, merges, steps=3, seed=5):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"""\
seed={seed}
n_hints=0
batch_size=2
steps={steps}
lr=0.001
momentum=0.9
weight_decay=0.0005
max_len=500
checkpoint_path={tmp_path / 'ck.bin'}
checkpoint_every=0
data_path={examples}
vocab_file={vocab}
merges_file={merges}
n_layers=1
d_model=16
n_heads=2
d_ff=32
max_positions=256
loss_log={tmp_path / 'loss.csv'}
""",
        encoding="utf-8",
    )
    return cfg


def test_preprocess_writes_examples_and_manifest(tmp_path, corpus_file, capsys):
    code, out = _preprocess(tmp_path, corpus_file)
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["pmid"] == "100"
    manifest = json.loads((tmp_path / "examples.jsonl.manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert manifest["version"].startswith("prefixlm-")
    assert "examples" in capsys.readouterr().out


def test_manifest_records_environment(tmp_path, corpus_file, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _preprocess(tmp_path, corpus_file)
    manifest = json.loads((tmp_path / "examples.jsonl.manifest.json").read_text())
    assert manifest["python"].count(".") == 2
    assert manifest["numpy"]
    threads = manifest["blas_threads"]
    assert set(threads) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert threads["OPENBLAS_NUM_THREADS"] == "1"
    assert threads["MKL_NUM_THREADS"] is None
    assert manifest["blas_thread_count"] == 1  # the root conftest.py's setting
    assert manifest["peak_rss_mb"] > 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert manifest["git_revision"] == cli._git_revision(Path(cli.__file__).resolve().parents[2])


def test_blas_runs_one_thread_unless_a_thread_variable_is_set(tmp_path, corpus_file):
    # a run with no thread variable: OpenBLAS would start one thread per core
    if cli._blas_thread_count() is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    env = {k: v for k, v in _subprocess_env().items() if k not in cli._BLAS_THREAD_VARS}
    cases = [({}, 1)] + ([({"OPENBLAS_NUM_THREADS": "2"}, 2)] if os.cpu_count() >= 2 else [])
    for extra, count in cases:
        out = tmp_path / "examples.jsonl"
        subprocess.run([sys.executable, "-m", "prefixlm.cli", "preprocess", "--corpus",
                        str(corpus_file), "--out", str(out)], env={**env, **extra},
                       check=True, capture_output=True, timeout=120)
        manifest = json.loads((tmp_path / "examples.jsonl.manifest.json").read_text())
        assert manifest["blas_thread_count"] == count, extra


def _fake_git(root, head, refs=None, packed=None):
    """A .git under root holding only HEAD, loose refs {name: text} and packed-refs."""
    git = root / ".git"
    git.mkdir()
    (git / "HEAD").write_text(head)
    for name, text in (refs or {}).items():
        (git / name).parent.mkdir(parents=True, exist_ok=True)
        (git / name).write_text(text)
    if packed is not None:
        (git / "packed-refs").write_text(packed)
    return root


SHA, OTHER_SHA = "0123456789abcdef0123456789abcdef01234567", "f" * 40


def test_git_revision_of_a_detached_head(tmp_path):
    assert cli._git_revision(_fake_git(tmp_path, SHA + "\n")) == SHA


def test_git_revision_through_a_loose_ref(tmp_path):
    # a loose ref file wins over a stale packed line
    root = _fake_git(tmp_path, "ref: refs/heads/main\n", {"refs/heads/main": SHA + "\n"},
                     f"{OTHER_SHA} refs/heads/main\n")
    assert cli._git_revision(root) == SHA


def test_git_revision_through_packed_refs(tmp_path):
    packed = (f"# pack-refs with: peeled fully-peeled sorted\n{OTHER_SHA} refs/heads/dev\n"
              f"{SHA} refs/heads/main\n^{OTHER_SHA}\n")
    root = _fake_git(tmp_path, "ref: refs/heads/main\n", packed=packed)
    assert cli._git_revision(root) == SHA


def test_git_revision_is_null_without_git_or_commit(tmp_path):
    assert cli._git_revision(tmp_path) is None  # an installed package: no .git
    # a branch with no commit yet: no loose ref and no packed-refs
    assert cli._git_revision(_fake_git(tmp_path, "ref: refs/heads/main\n")) is None


def test_manifest_blas_thread_count_is_null_without_a_getter(tmp_path, corpus_file,
                                                            monkeypatch):
    monkeypatch.setattr(cli, "_BLAS_THREAD_GETTER", "no_such_getter")
    _preprocess(tmp_path, corpus_file)
    manifest = json.loads((tmp_path / "examples.jsonl.manifest.json").read_text())
    assert manifest["blas_thread_count"] is None


def test_preprocess_results_only_ablation(tmp_path, corpus_file):
    code, out = _preprocess(tmp_path, corpus_file, sections="results")
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert rows[0]["source"] == "Drug A reduced symptoms significantly ."
    assert rows[0]["sections_used"] == ["RESULTS"]


def test_preprocess_conclusions_section_is_usage_error(tmp_path, corpus_file, capsys):
    code, _ = _preprocess(tmp_path, corpus_file, sections="conclusions")
    assert code == 2
    assert "CONCLUSIONS" in capsys.readouterr().err


def test_preprocess_empty_corpus_bad_section_exit_2(tmp_path, capsys):
    # the sections are checked even when no abstract reaches them
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "x.jsonl"
    code = main(["preprocess", "--corpus", str(empty), "--sections", "bogus",
                 "--out", str(out)])
    assert code == 2
    assert "unknown section 'BOGUS'" in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_empty_sections_exit_2(tmp_path, corpus_file, capsys):
    code, out = _preprocess(tmp_path, corpus_file, sections=",")
    assert code == 2
    assert "error: sections must be nonempty" in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_skips_abstracts_with_only_blank_sentences(tmp_path, capsys):
    # nothing to encode: blank selected source sentences, or blank conclusions
    corpus = tmp_path / "blank.txt"
    corpus.write_text(CORPUS + "###300\nBACKGROUND\t \nRESULTS\t\nCONCLUSIONS\tFine .\n"
                      "###400\nRESULTS\tA result .\nCONCLUSIONS\t  \n", encoding="utf-8")
    code, out = _preprocess(tmp_path, corpus)
    assert code == 0
    assert "parsed 4 abstracts -> 2 examples (2 skipped)" in capsys.readouterr().out
    assert [e.pmid for e in read_examples_jsonl(out)] == ["100", "200"]


def test_preprocess_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("###1\nFOO\ttext\n", encoding="utf-8")
    code = main(["preprocess", "--corpus", str(bad), "--out",
                 str(tmp_path / "x.jsonl")])
    assert code == 2


def test_preprocess_parse_error_names_path_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("###1\nRESULTS\tok .\nFOO\ttext\n", encoding="utf-8")
    code = main(["preprocess", "--corpus", str(bad), "--out",
                 str(tmp_path / "x.jsonl")])
    assert code == 2
    assert f"{bad}:3: unknown label 'FOO'" in capsys.readouterr().err


@pytest.mark.parametrize("line, problem", [
    ("[1]", "JSON object"),
    ('{"pmid": "1", "source": 5, "target": "t", "sections_used": []}', "'source'"),
    ('{"pmid": "1", "source": "s", "target": "t", "sections_used": "x"}',
     "'sections_used'"),
    # a lone surrogate that is no escaped byte
    ('{"pmid": "1", "source": "\\ud800", "target": "t", "sections_used": []}',
     "surrogates not allowed"),
])
def test_bad_examples_line_exit_2(tmp_path, capsys, line, problem):
    examples = tmp_path / "examples.jsonl"
    examples.write_text(
        '{"pmid": "0", "source": "s", "target": "t", "sections_used": []}\n'
        + line + "\n", encoding="utf-8")
    code, _, _ = _train_tokenizer(tmp_path, examples)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{examples}:2: " in err and problem in err


@pytest.mark.parametrize("line", [
    "[1]",
    '{"pmid": "100", "n_hints": "x", "output": "o"}',
    '{"pmid": "100", "n_hints": 0, "output": null}',
    '{"pmid": "100", "n_hints": 0, "output": "\\ud800"}',
])
def test_bad_generated_line_exit_2(tmp_path, corpus_file, capsys, line):
    _, examples = _preprocess(tmp_path, corpus_file)
    gen = tmp_path / "gen.jsonl"
    gen.write_text(line + "\n", encoding="utf-8")
    assert main(["score", "--generated", str(gen), "--references", str(examples),
                 "--out", str(tmp_path / "r.txt")]) == 2
    assert f"{gen}:1: " in capsys.readouterr().err


@pytest.mark.parametrize("n_hints", ["-2", "true"])
def test_generated_n_hints_not_a_count_exit_2(tmp_path, corpus_file, capsys, n_hints):
    # a bool passes isinstance(int), and a negative count strips no words
    _, examples = _preprocess(tmp_path, corpus_file)
    gen = tmp_path / "gen.jsonl"
    gen.write_text('{"pmid": "100", "n_hints": 0, "output": "a"}\n'
                   f'{{"pmid": "200", "n_hints": {n_hints}, "output": "b"}}\n',
                   encoding="utf-8")
    out = tmp_path / "r.txt"
    assert main(["score", "--generated", str(gen), "--references", str(examples),
                 "--out", str(out)]) == 2
    assert f"{gen}:2: bad line: 'n_hints' must be a count >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row, problem", [
    ("s,e1,MAYBE", "verdict"),
    ('s,e1,"' + "x" * 200_000 + '"', "field larger than field limit"),
])
def test_bad_annotation_row_exit_2(tmp_path, capsys, row, problem):
    ann = tmp_path / "ann.csv"
    ann.write_text("system,example_id,verdict\ns,e0,TP\n" + row + "\n",
                   encoding="utf-8")
    code = main(["eval-aggregate", "--annotations", str(ann),
                 "--out", str(tmp_path / "r.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{ann}:3: " in err and problem in err


def test_missing_corpus_exit_2(tmp_path):
    code = main(["preprocess", "--corpus", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2


def test_full_pipeline(tmp_path, corpus_file, capsys):
    code, examples = _preprocess(tmp_path, corpus_file)
    assert code == 0
    code, vocab, merges = _train_tokenizer(tmp_path, examples)
    assert code == 0

    cfg = _write_config(tmp_path, examples, vocab, merges)
    assert main(["finetune", "--config", str(cfg)]) == 0
    assert (tmp_path / "ck.bin").exists()
    loss_lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "step,loss"
    assert len(loss_lines) == 4  # header + 3 steps
    assert (tmp_path / "ck.bin.manifest.json").exists()

    gen_out = tmp_path / "gen.jsonl"
    assert main(["generate", "--config", str(cfg), "--examples", str(examples),
                 "--n-hints", "1", "--max-new-tokens", "8",
                 "--out", str(gen_out)]) == 0
    rows = [json.loads(line) for line in gen_out.read_text().strip().splitlines()]
    assert len(rows) == 2
    # with one hint, output starts with the reference's first word
    assert rows[0]["output"].startswith("Drug")
    assert rows[1]["output"].startswith("Treatment")

    report = tmp_path / "scores.txt"
    capsys.readouterr()
    assert main(["score", "--generated", str(gen_out), "--references",
                 str(examples), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "ROUGE-1" in out
    assert report.exists()


def test_generate_writes_an_error_row_for_an_over_long_example(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges, steps=1)
    assert main(["finetune", "--config", str(cfg)]) == 0
    good = read_examples_jsonl(examples)
    # a source of 300 words takes more than max_positions=256 tokens
    long = RctExample("long", " ".join(["word"] * 300) + " .", "Drug A works .", ("RESULTS",))
    mixed = tmp_path / "mixed.jsonl"
    write_examples_jsonl([good[0], long, good[1]], mixed)
    gen = tmp_path / "gen.jsonl"
    capsys.readouterr()
    assert main(["generate", "--config", str(cfg), "--examples", str(mixed),
                 "--n-hints", "1", "--max-new-tokens", "4", "--out", str(gen)]) == 0
    assert "generated 2 conclusions (1 failed)" in capsys.readouterr().out
    rows = [json.loads(line) for line in gen.read_text().splitlines()]
    assert [r["pmid"] for r in rows] == [good[0].pmid, "long", good[1].pmid]
    assert rows[1]["output"] == "" and "max_positions" in rows[1]["error"]
    assert rows[0]["output"] and "error" not in rows[0] and "error" not in rows[2]
    # score reads the failed row as an empty output
    report = tmp_path / "scores.txt"
    assert main(["score", "--generated", str(gen), "--references", str(mixed),
                 "--out", str(report)]) == 0
    assert report.exists()


def test_generate_deterministic_across_runs(tmp_path, corpus_file):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges, steps=2)
    assert main(["finetune", "--config", str(cfg)]) == 0
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["generate", "--config", str(cfg), "--examples", str(examples),
                     "--n-hints", "0", "--max-new-tokens", "6",
                     "--out", str(out)]) == 0
    assert a.read_text() == b.read_text()


def test_generate_takes_n_hints_from_the_config_by_default(tmp_path, corpus_file):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges, steps=1)
    _set_key(cfg, "n_hints", "1")
    assert main(["finetune", "--config", str(cfg)]) == 0
    gen = tmp_path / "gen.jsonl"
    for flag, expected in (([], 1), (["--n-hints", "0"], 0)):  # an explicit flag wins
        assert main(["generate", "--config", str(cfg), "--examples", str(examples),
                     "--max-new-tokens", "4", "--out", str(gen), *flag]) == 0
        rows = [json.loads(line) for line in gen.read_text().splitlines()]
        assert [r["n_hints"] for r in rows] == [expected, expected]
    manifest = json.loads((tmp_path / "gen.jsonl.manifest.json").read_text())
    assert manifest["inputs"]["n_hints"] == "0"


def test_finetune_rerun_same_seed_bit_identical_checkpoint(tmp_path, corpus_file):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)

    checkpoints = []
    for run in ("x", "y"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        cfg = _write_config(run_dir, examples, vocab, merges, steps=3, seed=9)
        assert main(["finetune", "--config", str(cfg)]) == 0
        checkpoints.append((run_dir / "ck.bin").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_finetune_missing_config_key_exit_2(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    cfg.write_text(cfg.read_text().replace("lr=0.001\n", ""), encoding="utf-8")
    assert main(["finetune", "--config", str(cfg)]) == 2
    assert "lr" in capsys.readouterr().err


def _set_key(cfg, key, value):
    """Set `key` on its own line of the config, or append it when absent."""
    lines = cfg.read_text().splitlines()
    at = next((i for i, line in enumerate(lines) if line.startswith(f"{key}=")), len(lines))
    lines[at:at + 1] = [f"{key}={value}"]
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["lr", "momentum", "weight_decay"])
def test_finetune_non_finite_optimizer_setting_exit_2(tmp_path, corpus_file, capsys,
                                                      key, value):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    _set_key(cfg, key, value)
    capsys.readouterr()
    assert main(["finetune", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert repr(key) in captured.err
    assert "step" not in captured.out
    assert not (tmp_path / "loss.csv").exists()


@pytest.mark.parametrize("key,value", [("steps", "-3"), ("batch_size", "0"),
                                       ("batch_size", "-1"), ("n_hints", "-1"),
                                       ("checkpoint_every", "-5"), ("max_len", "0"),
                                       ("lr", "-1"), ("momentum", "-0.5"),
                                       ("weight_decay", "-1"), ("seed", "-1")])
def test_finetune_out_of_range_count_exit_2(tmp_path, corpus_file, capsys, key, value):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    _set_key(cfg, key, value)
    capsys.readouterr()
    assert main(["finetune", "--config", str(cfg)]) == 2
    assert f"bad value for {key!r}: {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "ck.bin").exists() and not (tmp_path / "loss.csv").exists()


@pytest.mark.parametrize("edits, problem", [
    ({"d_model": "10", "n_heads": "3"}, "{cfg}: d_model 10 not divisible by n_heads 3"),
    ({"max_positions": "0"}, "{cfg}: max_positions must be >= 1, got 0"),
    ({"n_heads": "0"}, "{cfg}: n_heads must be >= 1, got 0"),
    ({"activation": "relu"}, "{cfg}: unknown config key 'activation'"),
    # steps=3 stays on line 4 and line 5 sets it again
    ({"steps": "3\nsteps=1000"}, "{cfg}:5: repeated config key 'steps'"),
    # an empty path names no file; Path("") is ".", which exists, so an empty
    # checkpoint_path would be resumed from after every example was encoded
    ({"checkpoint_path": ""}, "{cfg}: bad value for 'checkpoint_path': ''"),
    ({"data_path": ""}, "{cfg}: bad value for 'data_path': ''"),
    ({"vocab_file": ""}, "{cfg}: bad value for 'vocab_file': ''"),
    ({"merges_file": ""}, "{cfg}: bad value for 'merges_file': ''"),
], ids=["heads", "positions", "zero-heads", "activation", "repeated-key", "empty-checkpoint",
        "empty-data", "empty-vocab", "empty-merges"])
def test_finetune_config_refused_before_any_file(tmp_path, capsys, edits, problem):
    # the data, vocab and merges files do not exist, so reading any of them
    # would fail with another error; the run directory must not be made
    run = tmp_path / "run"
    cfg = _write_config(tmp_path, run / "x.jsonl", run / "v.tsv", run / "m.tsv")
    edits = {"checkpoint_path": run / "ck.bin", "loss_log": run / "loss.csv", **edits}
    for key, value in edits.items():
        _set_key(cfg, key, value)
    assert main(["finetune", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert problem.format(cfg=cfg) in err
    assert not run.exists()


def test_train_tokenizer_empty_examples_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code, vocab, merges = _train_tokenizer(tmp_path, empty)
    assert code == 2
    assert f"error: {empty}: no examples to train on" in capsys.readouterr().err
    assert not vocab.exists() and not merges.exists()


def test_finetune_empty_data_exit_2(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    cfg = _write_config(tmp_path, empty, vocab, merges)
    assert main(["finetune", "--config", str(cfg)]) == 2
    assert f"error: {empty}: no training examples" in capsys.readouterr().err
    assert not (tmp_path / "ck.bin").exists()


def test_finetune_hint_shortfall_names_data_file_and_pmid(tmp_path, corpus_file, capsys):
    # "Drug A is effective ." has 5 words, fewer than 6 hints
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    _set_key(cfg, "n_hints", "6")
    capsys.readouterr()
    assert main(["finetune", "--config", str(cfg)]) == 2
    assert (f"error: {examples}: example '100': target has 5 words, fewer than n_hints=6"
            in capsys.readouterr().err)
    assert not (tmp_path / "ck.bin").exists() and not (tmp_path / "loss.csv").exists()


def test_finetune_resume_from_weights_without_meta_step_exit_2(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    assert main(["finetune", "--config", str(cfg)]) == 0
    ck = tmp_path / "ck.bin"
    data = ck.read_bytes()
    ck.write_bytes(data.removesuffix(b"meta\t3\n"))  # a weights file: no meta step line
    assert read_tensor_map(ck)[1] is None
    capsys.readouterr()
    assert main(["finetune", "--config", str(cfg)]) == 2
    assert f"error: {ck}: checkpoint is missing its meta step line" in capsys.readouterr().err


def test_finetune_missing_vocab_makes_no_directory(tmp_path, corpus_file, capsys):
    # the run directory appears with the run's first output, not before
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    run = tmp_path / "f1" / "run"
    _set_key(cfg, "checkpoint_path", run / "ck.bin")
    _set_key(cfg, "loss_log", run / "loss.csv")
    _set_key(cfg, "vocab_file", tmp_path / "missing.tsv")
    assert main(["finetune", "--config", str(cfg)]) == 2
    assert "missing.tsv" in capsys.readouterr().err
    assert not (tmp_path / "f1").exists()
    _set_key(cfg, "vocab_file", vocab)
    assert main(["finetune", "--config", str(cfg)]) == 0
    assert (run / "ck.bin").exists() and (run / "loss.csv").exists()


def test_finetune_config_not_utf8_names_path_and_line(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    lineno = len(cfg.read_bytes().splitlines()) + 1
    with open(cfg, "ab") as f:
        f.write(b"seed=0\xff\n")
    assert main(["finetune", "--config", str(cfg)]) == 2
    assert f"{cfg}:{lineno}: line is not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "ck.bin").exists()


def test_generate_vocab_not_utf8_names_path_and_line(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    lines = vocab.read_bytes().split(b"\n")
    lines[66] = b"66\t\xff"
    vocab.write_bytes(b"\n".join(lines))
    assert main(["generate", "--config", str(cfg), "--examples", str(examples),
                 "--out", str(tmp_path / "gen.jsonl")]) == 2
    assert f"{vocab}:67: line is not valid UTF-8" in capsys.readouterr().err


def test_score_length_mismatch_exit_2(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    gen = tmp_path / "gen.jsonl"
    gen.write_text('{"pmid": "100", "n_hints": 0, "output": "only one"}\n',
                   encoding="utf-8")
    assert main(["score", "--generated", str(gen), "--references", str(examples),
                 "--out", str(tmp_path / "r.txt")]) == 2
    assert "error: 1 outputs but 2 references" in capsys.readouterr().err


def test_score_pmid_mismatch_exit_2(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    gen = tmp_path / "gen.jsonl"
    gen.write_text('{"pmid": "200", "n_hints": 0, "output": "a"}\n'
                   '{"pmid": "100", "n_hints": 0, "output": "b"}\n', encoding="utf-8")
    report = tmp_path / "r.txt"
    assert main(["score", "--generated", str(gen), "--references", str(examples),
                 "--out", str(report)]) == 2
    assert "error: pmid mismatch: '200' vs '100'" in capsys.readouterr().err
    assert not report.exists()


def test_score_reads_output_holding_escaped_bytes(tmp_path, corpus_file):
    # generate writes bytes an undertrained model emits that are not UTF-8
    # as surrogate escapes, \udc80-\udcff
    _, examples = _preprocess(tmp_path, corpus_file)
    gen = tmp_path / "gen.jsonl"
    gen.write_text('{"pmid": "100", "n_hints": 0, "output": "Drug A \\udcff"}\n'
                   '{"pmid": "200", "n_hints": 0, "output": "no benefit"}\n', encoding="utf-8")
    assert main(["score", "--generated", str(gen), "--references", str(examples),
                 "--out", str(tmp_path / "r.txt")]) == 0


def test_eval_aggregate_tables(tmp_path, capsys):
    ann = tmp_path / "ann.csv"
    rows = ["system,example_id,verdict"]
    for verdict, count in (("TP", 15), ("TN", 3), ("FP", 5), ("FN", 3), ("NA", 24)):
        rows.extend(f"pgnet-n1,e{verdict}{i},{verdict}" for i in range(count))
    ann.write_text("\n".join(rows) + "\n", encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(
        "system,example_id,correctness,quality,overall\ns,1,3,4,3\ns,2,4,4,4\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.txt"
    assert main(["eval-aggregate", "--annotations", str(ann),
                 "--ratings", str(ratings), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "36%" in text
    assert "3.50" in text


def test_eval_aggregate_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys):
    # Excel's "CSV UTF-8" export starts the file with one
    rows = "system,example_id,verdict\r\ns,e0,TP\r\ns,e1,FP\r\n"
    reports = []
    for encoding in ("utf-8", "utf-8-sig"):
        ann, out = tmp_path / f"{encoding}.csv", tmp_path / f"{encoding}.txt"
        ann.write_text(rows, encoding=encoding)
        assert main(["eval-aggregate", "--annotations", str(ann), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert b"50%" in reports[0]


def test_eval_aggregate_requires_an_input(tmp_path):
    assert main(["eval-aggregate", "--out", str(tmp_path / "r.txt")]) == 2


def test_finetune_resumes_from_checkpoint(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges, steps=2)
    assert main(["finetune", "--config", str(cfg)]) == 0
    first = (tmp_path / "ck.bin").read_bytes()
    # a larger steps resumes from the checkpoint's step 2 and trains steps 3 and 4
    cfg4 = _write_config(tmp_path, examples, vocab, merges, steps=4)
    assert main(["finetune", "--config", str(cfg4)]) == 0
    out = capsys.readouterr().out
    assert "step 3/4" in out and "step 1/4" not in out
    assert (tmp_path / "ck.bin").read_bytes() != first


def _subprocess_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}


def test_finetune_killed_then_rerun_matches_uninterrupted(tmp_path, corpus_file, capsys):
    # SIGKILL lands after a step past the first checkpoint (step 2), so the
    # rerun resumes from a checkpoint with loss rows logged beyond it
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    steps = 60
    cfg = _write_config(tmp_path, examples, vocab, merges, steps=steps)
    _set_key(cfg, "checkpoint_every", 2)
    for run_name in ("straight", "killed"):
        run = tmp_path / run_name
        _set_key(cfg, "checkpoint_path", run / "ck.bin")
        _set_key(cfg, "loss_log", run / "loss.csv")
        if run_name == "killed":
            proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "prefixlm.cli", "finetune", "--config", str(cfg)],
                stdout=subprocess.PIPE, text=True, env=_subprocess_env())
            for line in proc.stdout:
                if line.startswith("step 3/"):
                    proc.send_signal(signal.SIGKILL)
                    break
            proc.stdout.close()
            assert proc.wait(timeout=60) == -signal.SIGKILL
            logged = (run / "loss.csv").read_text().splitlines()
            assert (run / "ck.bin").exists() and 4 <= len(logged) <= steps
        assert main(["finetune", "--config", str(cfg)]) == 0
    straight, killed = tmp_path / "straight", tmp_path / "killed"
    assert (killed / "ck.bin").read_bytes() == (straight / "ck.bin").read_bytes(), \
        _checkpoint_difference(killed / "ck.bin", straight / "ck.bin")
    assert (killed / "loss.csv").read_bytes() == (straight / "loss.csv").read_bytes()


# In a 6-step run with checkpoint_every=2, data._write_atomic calls os.fsync
# (the file), os.replace, then os.fsync (the directory) for the loss-log cut
# (fsync 1, replace 1, fsync 2), checkpoint 2 (fsync 3, replace 2, fsync 4) and
# checkpoint 4 (fsync 5, replace 3, fsync 6). Each case SIGKILLs the run as the
# k-th call of one of them begins, and names what the kill leaves: the
# checkpoint's step (None: no checkpoint), the temp file and the logged rows.
# A list of kills kills each rerun in turn: on a resume from checkpoint 4 the
# loss-log cut (fsync 1, replace 1) keeps rows 1-4.
@pytest.mark.parametrize("kills, step, tmp, rows", [
    ([("replace", 1)], None, "loss.csv.tmp", None),  # inside the cut, at a fresh start
    ([("replace", 3)], 2, "ck.bin.tmp", 4),  # checkpoint 4 fsynced, not renamed
    ([("fsync", 5)], 2, "ck.bin.tmp", 4),  # checkpoint 4 written, not fsynced
    ([("fsync", 6)], 4, None, 4),  # checkpoint 4 renamed, its directory not fsynced
    ([("fsync", 6), ("replace", 1)], 4, "loss.csv.tmp", 4),  # inside a resume's cut
], ids=["replace-1", "replace-3", "fsync-5", "fsync-6", "fsync-6-then-replace-1"])
def test_finetune_killed_at_a_write_boundary_then_rerun_matches(tmp_path, corpus_file,
                                                                kills, step, tmp, rows):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges, steps=6)
    _set_key(cfg, "checkpoint_every", 2)
    argv = ["finetune", "--config", str(cfg)]
    script = ("import os, signal, sys\n"
              "from prefixlm.cli import main\n"
              "function, k = sys.argv[1], int(sys.argv[2])\n"
              "real, calls = getattr(os, function), 0\n"
              "def kill_on_kth_call(*args):\n"
              "    global calls\n"
              "    calls += 1\n"
              "    if calls == k:\n"
              "        os.kill(os.getpid(), signal.SIGKILL)\n"
              "    return real(*args)\n"
              "setattr(os, function, kill_on_kth_call)\n"
              "sys.exit(main(sys.argv[3:]))\n")
    for run_name in ("straight", "killed"):
        run = tmp_path / run_name
        _set_key(cfg, "checkpoint_path", run / "ck.bin")
        _set_key(cfg, "loss_log", run / "loss.csv")
        if run_name == "killed":
            for function, k in kills:
                proc = subprocess.run([sys.executable, "-c", script, function, str(k), *argv],
                                      env=_subprocess_env(), capture_output=True, timeout=120)
                assert proc.returncode == -signal.SIGKILL, proc.stderr
            ck, log = run / "ck.bin", run / "loss.csv"
            assert (read_tensor_map(ck)[1] if ck.exists() else None) == step
            assert [p.name for p in run.glob("*.tmp")] == ([tmp] if tmp else [])
            assert (len(log.read_text().splitlines()) - 1 if log.exists() else None) == rows
        assert main(argv) == 0
    straight, killed = tmp_path / "straight", tmp_path / "killed"
    assert (killed / "ck.bin").read_bytes() == (straight / "ck.bin").read_bytes(), \
        _checkpoint_difference(killed / "ck.bin", straight / "ck.bin")
    assert (killed / "loss.csv").read_bytes() == (straight / "loss.csv").read_bytes()
    assert not list(tmp_path.rglob("*.tmp"))


def _checkpoint_difference(path, other) -> str:
    """The first tensor, in file order, whose bytes differ between two
    checkpoints, and the meta step of each."""
    (tensors, step), (others, other_step) = read_tensor_map(path), read_tensor_map(other)
    names = list(tensors) + [name for name in others if name not in tensors]
    first = next((name for name in names if name not in tensors or name not in others
                  or tensors[name].tobytes() != others[name].tobytes()), None)
    return (f"first differing tensor {first!r}; meta step {step} in {path.parent.name}, "
            f"{other_step} in {other.parent.name}")


def _trained(tmp_path, corpus_file):
    """Examples, a config and the 2-step checkpoint it names."""
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges, steps=2)
    assert main(["finetune", "--config", str(cfg)]) == 0
    return examples, cfg


def _old_outputs(tmp_path, corpus_file, command):
    """The arguments of `command` and the files it would replace, each
    already holding old bytes; None for write_tensor_map, called directly."""
    examples, cfg = _trained(tmp_path, corpus_file)
    if command == "finetune":
        # resuming from step 2 would cut the log that a run killed at step 3 left
        _set_key(cfg, "steps", 4)
        (tmp_path / "loss.csv").write_text("step,loss\n1,0.5\n2,0.4\n3,0.3\n")
    gen, ann = tmp_path / "gen.jsonl", tmp_path / "ann.csv"
    assert main(["generate", "--config", str(cfg), "--examples", str(examples),
                 "--max-new-tokens", "4", "--out", str(gen)]) == 0
    ann.write_text("system,example_id,verdict\ns,e0,TP\n")
    out, out2 = tmp_path / "out", tmp_path / "out2"
    argv, targets = {
        "preprocess": (["--corpus", str(corpus_file), "--out", str(out)], [out]),
        "train-tokenizer": (["--examples", str(examples), "--out-vocab", str(out),
                             "--out-merges", str(out2)], [out, out2]),
        "finetune": (["--config", str(cfg)], [tmp_path / "ck.bin", tmp_path / "loss.csv"]),
        "generate": (["--config", str(cfg), "--examples", str(examples),
                      "--max-new-tokens", "4", "--out", str(out)], [out]),
        "score": (["--generated", str(gen), "--references", str(examples),
                   "--out", str(out)], [out]),
        "eval-aggregate": (["--annotations", str(ann), "--out", str(out)], [out]),
        "write_tensor_map": (None, [out]),
    }[command]
    for target in targets:
        if not target.exists():
            target.write_bytes(b"old bytes\n")
    return argv, targets


def _fail_fsync(fd):
    raise OSError("disk gone")


@pytest.mark.parametrize("command", ["preprocess", "train-tokenizer", "finetune", "generate",
                                     "score", "eval-aggregate", "write_tensor_map"])
def test_failed_write_keeps_old_file(tmp_path, corpus_file, monkeypatch, capsys, command):
    # a write stopped before its rename leaves every file in the directory as
    # it was, the old outputs and manifests included, and no temp file
    argv, targets = _old_outputs(tmp_path, corpus_file, command)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    monkeypatch.setattr(os, "fsync", _fail_fsync)
    if argv is None:  # an error inside the payload, before the fsync
        with pytest.raises(TypeError):
            write_tensor_map(targets[0], [("a", np.ones(3, dtype=np.float32)), ("b", object())],
                             1)
    else:
        assert main([command, *argv]) == 2
        assert "error: disk gone" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def _same_file(path):
    """Another spelling of `path`, which only resolving makes equal."""
    return path.parent / ".." / path.parent.name / path.name


@pytest.mark.parametrize("command, flag, same_as", [
    ("preprocess", "--out", "--corpus"),
    ("train-tokenizer", "--out-vocab", "--examples"),
    ("train-tokenizer", "--out-merges", "--out-vocab"),
    ("generate", "--out", "--examples"),
    ("generate", "--out", "--config"),
    ("generate", "--out", "--checkpoint"),
    ("score", "--out", "--references"),
    ("eval-aggregate", "--out", "--annotations"),
])
def test_output_naming_an_input_is_refused(tmp_path, corpus_file, capsys, command, flag,
                                           same_as):
    # refused before any file is written: every file stays as it was, and no manifest appears
    examples, cfg = _trained(tmp_path, corpus_file)
    gen, ann, out = tmp_path / "gen.jsonl", tmp_path / "ann.csv", tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--examples", str(examples),
                 "--max-new-tokens", "4", "--out", str(gen)]) == 0
    ann.write_text("system,example_id,verdict\ns,e0,TP\n")
    args = {
        "preprocess": {"--corpus": corpus_file, "--out": out},
        "train-tokenizer": {"--examples": examples, "--out-vocab": out,
                            "--out-merges": tmp_path / "out2"},
        "generate": {"--config": cfg, "--examples": examples,
                     "--checkpoint": tmp_path / "ck.bin", "--max-new-tokens": 4, "--out": out},
        "score": {"--generated": gen, "--references": examples, "--out": out},
        "eval-aggregate": {"--annotations": ann, "--out": out},
    }[command]
    args[flag] = _same_file(args[same_as])
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main([command, *(str(a) for pair in args.items() for a in pair)]) == 2
    assert capsys.readouterr().err == f"error: {flag} names the same file as {same_as}\n"
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("key, same_as", [
    ("loss_log", "data_path"),
    ("checkpoint_path", "data_path"),
    ("checkpoint_path", "vocab_file"),
    ("loss_log", "merges_file"),
    ("checkpoint_path", "the config file"),
    ("loss_log", "checkpoint_path"),
])
def test_finetune_output_naming_another_file_is_refused(tmp_path, corpus_file, capsys, key,
                                                        same_as):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    paths = {"data_path": examples, "vocab_file": vocab, "merges_file": merges,
             "the config file": cfg, "checkpoint_path": tmp_path / "ck.bin"}
    _set_key(cfg, key, _same_file(paths[same_as]))
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["finetune", "--config", str(cfg)]) == 2
    other = same_as if same_as == "the config file" else repr(same_as)
    assert capsys.readouterr().err == f"error: {cfg}: {key!r} names the same file as {other}\n"
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_generate_killed_inside_the_rename_keeps_old_output(tmp_path, corpus_file):
    # SIGKILL after the new file is fsynced, before it replaces the old one
    examples, cfg = _trained(tmp_path, corpus_file)
    gen = tmp_path / "gen.jsonl"
    gen.write_bytes(b"old bytes\n")
    argv = ["generate", "--config", str(cfg), "--examples", str(examples),
            "--max-new-tokens", "4", "--out", str(gen)]
    script = ("import os, signal, sys\n"
              "from prefixlm.cli import main\n"
              "os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)\n"
              "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=_subprocess_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert gen.read_bytes() == b"old bytes\n"
    assert (tmp_path / "gen.jsonl.tmp").exists()
    assert main(argv) == 0
    assert len(gen.read_text().splitlines()) == 2
    assert not list(tmp_path.rglob("*.tmp"))


def test_finetune_refuses_to_resume_past_steps(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges, steps=4)
    assert main(["finetune", "--config", str(cfg)]) == 0
    before = [(tmp_path / name).read_bytes() for name in ("ck.bin", "loss.csv")]
    cfg = _write_config(tmp_path, examples, vocab, merges, steps=2)
    capsys.readouterr()
    assert main(["finetune", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "steps 2" in captured.err and "step 4" in captured.err
    assert "saved checkpoint" not in captured.out
    assert [(tmp_path / name).read_bytes() for name in ("ck.bin", "loss.csv")] == before


def test_finetune_length_filter_error_names_max_len(tmp_path, corpus_file, capsys):
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    _set_key(cfg, "max_len", "2")
    assert main(["finetune", "--config", str(cfg)]) == 2
    assert "max_len 2" in capsys.readouterr().err
    assert not (tmp_path / "ck.bin").exists() and not (tmp_path / "loss.csv").exists()


def test_finetune_refuses_examples_longer_than_max_positions(tmp_path, corpus_file, capsys):
    # max_len=500 keeps every example; a 20-position model cannot fit them
    _, examples = _preprocess(tmp_path, corpus_file)
    _, vocab, merges = _train_tokenizer(tmp_path, examples)
    cfg = _write_config(tmp_path, examples, vocab, merges)
    cfg.write_text(cfg.read_text().replace("max_positions=256", "max_positions=20"),
                   encoding="utf-8")
    assert main(["finetune", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "max_len 500" in captured.err and "max_positions 20" in captured.err
    assert "step 1/" not in captured.out
    assert not (tmp_path / "ck.bin").exists() and not (tmp_path / "loss.csv").exists()
