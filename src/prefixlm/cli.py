"""Batch command line for the pipeline.

Subcommands: preprocess, train-tokenizer, finetune, generate, score,
eval-aggregate. Every run writes one JSON manifest alongside its output so
results can be reproduced from recorded inputs and seeds. Exit codes:
0 success, 1 internal error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bpe import load_vocabulary, save_vocabulary, train_merges
from .data import (
    _refuse_overwrite,
    _write_atomic,
    build_examples,
    corpus_stats,
    parse_corpus,
    read_examples_jsonl,
    read_jsonl,
    write_examples_jsonl,
)
from .finetune import (
    load_model_weights,
    parse_training_config,
    run_finetune,
    split_hint_words,
)
from .generate import GenerationConfig, generate_greedy
from .model import Model
from .rouge import (
    aggregate_annotations,
    aggregate_ratings,
    format_annotation_report,
    format_rating_report,
    format_score_report,
    read_annotations_csv,
    read_ratings_csv,
    score_run,
)

VERSION_STRING = f"prefixlm-{__version__}"
# checkpoints are bit-identical across reruns only at a fixed BLAS thread count
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the thread-count getter of the OpenBLAS that numpy 2 wheels bundle in numpy.libs
_BLAS_THREAD_GETTER = "scipy_openblas_get_num_threads64_"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _blas_thread_count():
    """The thread count of the OpenBLAS bundled with numpy, asked of the
    loaded library through ctypes, or None when the library or its getter is
    not found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        except OSError:
            continue
        getter = getattr(lib, _BLAS_THREAD_GETTER, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


def _blas():
    """{"name", "version"} of the BLAS numpy was built with, or None when
    numpy does not report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26, or no BLAS reported
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _write_manifest(command: str, started: str, out_path, inputs: dict, outputs: list,
                    seed=None, config=None):
    manifest = {
        "command": command,
        "config": str(config) if config else None,
        "seed": seed,
        "inputs": {k: str(v) for k, v in inputs.items() if v is not None},
        "outputs": [str(o) for o in outputs],
        "started": started,
        "finished": _now(),
        "version": VERSION_STRING,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS},
        "blas_thread_count": _blas_thread_count(),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _write_atomic(f"{out_path}.manifest.json", [(json.dumps(manifest, indent=2) + "\n").encode()])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
# Each command returns the fields of its manifest; main writes the manifest.


def cmd_preprocess(args) -> dict:
    _refuse_overwrite({"--out": args.out}, {"--corpus": args.corpus})
    sections = tuple(s for s in args.sections.split(",") if s)
    abstracts = parse_corpus(args.corpus)
    examples, skipped = build_examples(abstracts, sections)
    write_examples_jsonl(examples, args.out)
    stats = corpus_stats(examples)
    print(f"parsed {len(abstracts)} abstracts -> {stats['count']} examples "
          f"({skipped} skipped)")
    print(f"mean source: {stats['mean_source_words']} words "
          f"({stats['mean_source_sentences']} sentences)")
    print(f"mean target: {stats['mean_target_words']} words "
          f"({stats['mean_target_sentences']} sentences)")
    return dict(out_path=args.out, inputs={"corpus": args.corpus, "sections": args.sections},
                outputs=[args.out])


def cmd_train_tokenizer(args) -> dict:
    _refuse_overwrite({"--out-vocab": args.out_vocab, "--out-merges": args.out_merges},
                      {"--examples": args.examples})
    examples = read_examples_jsonl(args.examples)
    if not examples:
        raise ValueError(f"{args.examples}: no examples to train on")
    texts = [e.source_text for e in examples] + [e.target_text for e in examples]
    tokenizer = train_merges(texts, args.num_merges)
    save_vocabulary(tokenizer, args.out_vocab, args.out_merges)
    print(f"trained {len(tokenizer.merges)} merges; vocabulary size "
          f"{len(tokenizer.vocab)} (incl. specials)")
    return dict(out_path=args.out_vocab,
                inputs={"examples": args.examples, "num_merges": args.num_merges},
                outputs=[args.out_vocab, args.out_merges])


def cmd_finetune(args) -> dict:
    cfg = parse_training_config(args.config)

    def log(step, loss):
        print(f"step {step}/{cfg.steps}  loss {loss:.4f}")

    run_finetune(cfg, log=log)
    print(f"saved checkpoint at step {cfg.steps} -> {cfg.checkpoint_path}")
    outputs = [cfg.checkpoint_path] + ([cfg.loss_log] if cfg.loss_log else [])
    return dict(out_path=cfg.checkpoint_path, inputs={"data": cfg.data_path},
                outputs=outputs, seed=cfg.seed, config=args.config)


def cmd_generate(args) -> dict:
    cfg = parse_training_config(args.config)
    checkpoint = args.checkpoint or cfg.checkpoint_path
    _refuse_overwrite({"--out": args.out}, {
        "--config": args.config, "--examples": args.examples,
        "--checkpoint" if args.checkpoint else "'checkpoint_path'": checkpoint,
        "'vocab_file'": cfg.vocab_file, "'merges_file'": cfg.merges_file})
    tokenizer = load_vocabulary(cfg.vocab_file, cfg.merges_file)
    config = cfg.model_config(len(tokenizer.vocab))
    model = Model(config, load_model_weights(checkpoint, config))
    examples = read_examples_jsonl(args.examples)
    n_hints = cfg.n_hints if args.n_hints is None else args.n_hints
    gen_config = GenerationConfig(n_hints=n_hints,
                                  max_new_tokens=args.max_new_tokens)

    # an example that cannot be generated (too long for max_positions, fewer
    # target words than hints) gets an empty output and its error, not the batch
    rows, failed = [], 0
    for example in examples:
        row = {"pmid": example.pmid, "n_hints": n_hints, "output": ""}
        try:
            hints, _ = split_hint_words(example.target_text, n_hints)
            row["output"], _ = generate_greedy(model, example.source_text, hints,
                                               gen_config, tokenizer)
        except ValueError as e:
            row["error"] = str(e)
            failed += 1
        rows.append(row)

    # ensure_ascii keeps the file valid when the model emits bytes that are not UTF-8
    _write_atomic(args.out, ((json.dumps(row) + "\n").encode() for row in rows))
    print(f"generated {len(rows) - failed} conclusions ({failed} failed) -> {args.out}")
    return dict(out_path=args.out,
                inputs={"examples": args.examples, "checkpoint": checkpoint, "n_hints": n_hints},
                outputs=[args.out], seed=cfg.seed, config=args.config)


def _check_n_hints(obj):
    n = obj["n_hints"]
    if isinstance(n, bool) or n < 0:
        raise ValueError(f"'n_hints' must be a count >= 0, got {n!r}")


def _read_generated(path):
    return read_jsonl(path, {"pmid": str, "output": str, "n_hints": int}, check=_check_n_hints)


def cmd_score(args) -> dict:
    _refuse_overwrite({"--out": args.out},
                      {"--generated": args.generated, "--references": args.references})
    generated = _read_generated(args.generated)
    references = read_examples_jsonl(args.references)
    for (g_pmid, _, _), ref in zip(generated, references):
        if g_pmid != ref.pmid:
            raise ValueError(f"pmid mismatch: {g_pmid!r} vs {ref.pmid!r}")
    outputs = [(text, n_hints) for _, text, n_hints in generated]
    scores = score_run(outputs, [r.target_text for r in references])
    report = format_score_report({args.system: scores})
    print(report)
    _write_atomic(args.out, [(report + "\n").encode()])
    return dict(out_path=args.out,
                inputs={"generated": args.generated, "references": args.references},
                outputs=[args.out])


def cmd_eval_aggregate(args) -> dict:
    if not args.annotations and not args.ratings:
        raise ValueError("provide --annotations and/or --ratings")
    _refuse_overwrite({"--out": args.out},
                      {"--annotations": args.annotations, "--ratings": args.ratings})
    sections = []
    if args.annotations:
        agg = aggregate_annotations(read_annotations_csv(args.annotations))
        sections.append(format_annotation_report(agg))
    if args.ratings:
        agg = aggregate_ratings(read_ratings_csv(args.ratings))
        sections.append(format_rating_report(agg))
    report = "\n\n".join(sections)
    print(report)
    _write_atomic(args.out, [(report + "\n").encode()])
    return dict(out_path=args.out,
                inputs={"annotations": args.annotations, "ratings": args.ratings},
                outputs=[args.out])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixlm",
        description="Conclusion-generation pipeline: preprocess, tokenize, "
                    "fine-tune, generate, score, aggregate.",
    )
    parser.add_argument("--version", action="version", version=VERSION_STRING)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="corpus file -> examples JSONL")
    p.add_argument("--corpus", required=True, help="labeled-sentence corpus file")
    p.add_argument("--sections", default="background,objective,results",
                   help="comma-separated source sections")
    p.add_argument("--out", required=True, help="output examples JSONL")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-tokenizer", help="learn BPE merges from examples")
    p.add_argument("--examples", required=True, help="examples JSONL")
    p.add_argument("--num-merges", type=int, default=200)
    p.add_argument("--out-vocab", required=True)
    p.add_argument("--out-merges", required=True)
    p.set_defaults(func=cmd_train_tokenizer)

    p = sub.add_parser("finetune", help="train per a key=value config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("generate", help="greedy-decode conclusions")
    p.add_argument("--config", required=True, help="training config (model dims)")
    p.add_argument("--checkpoint", default=None,
                   help="weights file (default: config checkpoint_path)")
    p.add_argument("--examples", required=True, help="examples JSONL")
    p.add_argument("--n-hints", type=int, default=None,
                   help="hint words per prompt (default: config n_hints)")
    p.add_argument("--max-new-tokens", type=int, default=128)
    p.add_argument("--out", required=True, help="output JSONL")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("score", help="corpus ROUGE for generated conclusions")
    p.add_argument("--generated", required=True, help="generate output JSONL")
    p.add_argument("--references", required=True, help="examples JSONL")
    p.add_argument("--system", default="run", help="row label for the report")
    p.add_argument("--out", required=True, help="report file")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval-aggregate", help="aggregate human-eval CSVs")
    p.add_argument("--annotations", default=None, help="system,example_id,verdict CSV")
    p.add_argument("--ratings", default=None,
                   help="system,example_id,correctness,quality,overall CSV")
    p.add_argument("--out", required=True, help="report file")
    p.set_defaults(func=cmd_eval_aggregate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        started = _now()
        _write_manifest(args.command, started, **args.func(args))
        return 0
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
