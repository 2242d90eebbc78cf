"""The three workloads: set-up, one round of measured work, and the checks.

A round is a fixed list of operations (training steps, generate requests
or CLI commands) that starts from the same state every time, so every
round of a run does identical work and the share of failed operations is
the same in every run. The checks compare the first round's outputs with
the float64 reference and every later round's outputs with the first's.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import synth

from prefixlm import bpe, cli, data, finetune, generate, model, rouge


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)


def _arrays(params) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in params.named()}


def _tokenizer_problems(tokenizer, texts) -> list[str]:
    problems = []
    for text in texts:
        if tokenizer.decode(tokenizer.encode(text)) != text:
            problems.append(f"encode/decode does not round-trip {text[:40]!r}")
    base = [tokenizer.vocab.token_of(i) for i in range(tokenizer.vocab.base_size)]
    for tok in reference.mixed_tokens(base):
        problems.append(f"token {tok!r} mixes letters and digits")
    return problems


def _example_problems(built, skipped, corpus: synth.Corpus) -> list[str]:
    got = [(e.pmid, e.source_text, e.target_text) for e in built]
    want = [(e.pmid, e.source, e.target) for e in corpus.examples]
    problems = []
    if got != want:
        problems.append(f"{len(got)} examples built, {len(want)} generated, or they differ")
    if skipped != corpus.skipped:
        problems.append(f"{skipped} abstracts skipped, generator skipped {corpus.skipped}")
    return problems


def _rouge_problems(reported: dict, outputs, references) -> list[str]:
    mine = reference.rouge(outputs, references)
    problems = [
        f"{k} reported {reported[k]}, recomputed {mine[k]:.4f}"
        for k in mine if abs(reported[k] - mine[k]) > 0.01
    ]
    self_score = rouge.score_run([(r, n) for (_, n), r in zip(outputs, references)],
                                 references)
    if any(v != 100.0 for v in self_score.values()):
        problems.append(f"references against themselves score {self_score}")
    return problems


def _same_rounds(rounds: list[Round], keys) -> list[str]:
    return [
        f"round {i} {k} differs from round 0"
        for i, r in enumerate(rounds[1:], 1)
        for k in keys
        if r.outputs[k] != rounds[0].outputs[k]
    ]


# ---------------------------------------------------------------------------
# fine-tune then generate, in-process (memorize, rct-generate)
# ---------------------------------------------------------------------------


@dataclass
class Request:
    source: str
    hints: list[str]
    budget: int
    reference: str | None = None  # conclusion to score against
    exact_fit: bool = False


class FinetuneGenerate:
    """Set-up builds examples, tokenizer and requests from the seed; a
    round fine-tunes a fresh model, runs every request, scores the outputs
    and writes and re-reads a checkpoint."""

    n_hints: int
    steps: int
    batch_size: int
    model_dims: dict
    decode_untrained = False

    def __init__(self, seed: int, workdir: Path, rec):
        self.seed = seed
        self.workdir = workdir

    # set-up ------------------------------------------------------------

    def corpus(self) -> synth.Corpus:
        raise NotImplementedError

    def split(self, examples):
        """(texts to train the tokenizer on, examples to choose from)."""
        raise NotImplementedError

    def choose(self, pool):
        """(fine-tune examples, requests) from the pool."""
        raise NotImplementedError

    def setup(self):
        self.source_corpus = self.corpus()
        abstracts = data.parse_corpus(self.source_corpus.text.splitlines())
        self.examples, self.skipped = data.build_examples(
            abstracts, self.source_corpus.sections
        )
        texts, pool = self.split(self.examples)
        self.tokenizer = bpe.train_merges(texts, self.num_merges)
        self.config = model.ModelConfig(vocab_size=len(self.tokenizer.vocab),
                                        **self.model_dims)
        train, self.requests = self.choose(pool)
        self.encoded = [finetune.prepare_example(e, self.n_hints, self.tokenizer)
                        for e in train]
        self.checkpoint = self.workdir / "ck.bin"
        # warm-up on a throwaway model
        warm = model.Model(self.config, model.init_params(self.config, self.seed))
        finetune.training_step(warm, self.batch(0), finetune.OptimizerState())
        r = self.requests[0]
        generate.generate_greedy(
            warm, r.source, r.hints,
            generate.GenerationConfig(n_hints=self.n_hints, max_new_tokens=2),
            self.tokenizer,
        )

    def requests_for(self, examples) -> list[Request]:
        return [
            Request(e.source_text, e.target_text.split()[:self.n_hints],
                    self.budget, e.target_text)
            for e in examples
        ]

    def batch(self, step: int):
        n = len(self.encoded)
        return [self.encoded[(step * self.batch_size + j) % n]
                for j in range(self.batch_size)]

    # round -------------------------------------------------------------

    def decode(self, rnd: Round, mdl, requests):
        """Run the requests; (trace or None, text or None) for each."""
        out = []
        for r in requests:
            rnd.attempted += 1
            cfg = generate.GenerationConfig(n_hints=self.n_hints, max_new_tokens=r.budget)
            try:
                text, trace = generate.generate_greedy(mdl, r.source, r.hints, cfg,
                                                       self.tokenizer)
            except ValueError as e:
                rnd.failed += 1
                out.append((None, str(e)))
                continue
            out.append((trace, text))
        return out

    def run_round(self, index: int) -> Round:
        rnd = Round()
        mdl = model.Model(self.config, model.init_params(self.config, self.seed))
        state = finetune.OptimizerState()
        if index == 0:
            self.before = _arrays(mdl.params)
        untrained = self.decode(rnd, mdl, self.requests if self.decode_untrained else [])
        losses = []
        for step in range(self.steps):
            rnd.attempted += 1
            losses.append(finetune.training_step(mdl, self.batch(step), state))
            if index == 0 and step == 0:
                self.after_first = _arrays(mdl.params)
        trained = self.decode(rnd, mdl, self.requests)
        scored = [(text, self.n_hints) for (trace, text), r in zip(trained, self.requests)
                  if r.reference is not None and trace is not None]
        refs = [r.reference for r in self.requests if r.reference is not None]
        scores = rouge.score_run(scored, refs) if len(scored) == len(refs) else None
        finetune.save_checkpoint(self.checkpoint, mdl.params, state, self.steps)
        params, step = finetune.load_checkpoint(self.checkpoint, self.config,
                                                finetune.OptimizerState())
        reloaded = step == self.steps and all(
            np.array_equal(p.data, q.data)
            for (_, p), (_, q) in zip(params.named(), mdl.params.named())
        )
        if index == 0:
            self.final = _arrays(mdl.params)
        rnd.outputs = {"untrained": untrained, "trained": trained, "losses": losses,
                       "scored": scored, "scores": scores, "reloaded": reloaded}
        return rnd

    # checks ------------------------------------------------------------

    def check(self, rounds: list[Round]) -> list[str]:
        first = rounds[0].outputs
        heads = self.config.n_heads
        problems = _example_problems(self.examples, self.skipped, self.source_corpus)
        texts = [t for e in self.examples for t in (e.source_text, e.target_text)]
        problems += _tokenizer_problems(self.tokenizer, texts + [finetune.HINTLESS_PROMPT])

        w0 = reference.as_float64(self.before.items())
        batch = self.batch(0)
        ref_loss = reference.batch_loss(w0, heads, batch)
        if abs(first["losses"][0] - ref_loss) > 1e-4 * abs(ref_loss):
            problems.append(f"first-step loss {first['losses'][0]} vs reference {ref_loss}")
        sgd = finetune.OptimizerState()
        grad = reference.recovered_gradient(
            w0, reference.as_float64(self.after_first.items()), sgd.lr, sgd.weight_decay)
        for err in reference.gradient_check(w0, heads, batch, grad, self.seed):
            if err > 1e-2:
                problems.append(f"first-step gradient off by {err:.2e} along a random direction")
        losses = first["losses"]
        k = max(1, len(losses) // 4)
        if not np.mean(losses[-k:]) < np.mean(losses[:k]):
            problems.append(f"loss did not fall: first {losses[:k]}, last {losses[-k:]}")

        eot = self.tokenizer.vocab.end_of_text_id
        for arrays, key in ((self.before, "untrained"), (self.final, "trained")):
            w = reference.as_float64(arrays.items())
            for r, (trace, message) in zip(self.requests, first[key]):
                if trace is None:
                    if not r.exact_fit:
                        problems.append(f"request failed: {message}")
                    continue
                source_ids = finetune.encode_source(r.source, self.n_hints, self.tokenizer)
                hint_ids = self.tokenizer.encode(" ".join(r.hints)) if r.hints else []
                problems += reference.trace_problems(w, heads, source_ids, hint_ids, trace,
                                                     eot, r.budget)
        if first["scores"] is None:
            problems.append("a scored request failed, so the run was not scored")
        else:
            refs = [r.reference for r in self.requests if r.reference is not None]
            problems += _rouge_problems(first["scores"], first["scored"], refs)
        if not first["reloaded"]:
            problems.append("checkpoint did not reload at the final step")
        return problems + _same_rounds(rounds, ("untrained", "trained", "losses", "scores"))


class Memorize(FinetuneGenerate):
    """The memorization recipe: 16 template pairs, 200 merges, 4 layers /
    d_model 64 / 4 heads / d_ff 256, SGD at batch 8, no hints.

    The 16 sources are decoded before the fine-tune as well as after it.
    After 96 steps the traces stop at end-of-text within a few tokens, and
    how soon depends on the seed; the untrained model runs to the 64-token
    budget, which gives the decode rate about a thousand tokens per round
    on every seed."""

    decode_untrained = True
    n_hints = 0
    steps = 96
    batch_size = 8
    budget = 64
    num_merges = 200
    model_dims = dict(n_layers=4, d_model=64, n_heads=4, d_ff=256, max_positions=128)

    def corpus(self):
        return synth.memorization_corpus(self.seed)

    def split(self, examples):
        texts = ([e.source_text for e in examples] + [e.target_text for e in examples]
                 + [finetune.HINTLESS_PROMPT])
        return texts, examples

    def choose(self, pool):
        return pool, self.requests_for(pool)


class RctGenerate(FinetuneGenerate):
    """Long sources, short conclusions, one hint word. A short fine-tune on
    one batch, then greedy decoding of held-out sources, plus two requests
    whose prompt leaves exactly enough room for their budget.

    Decode cost grows faster than linearly with the context, so the batch
    and the held-out sources are picked from a pool to match fixed length
    schedules: every seed then asks for nearly the same work."""

    n_hints = 1
    steps = 4
    batch_size = 8
    budget = 64
    num_merges = 100
    n_tokenizer = 32
    n_pool = 128
    # total tokens of each fine-tune example; source + hint tokens of each
    # held-out request
    train_lengths = tuple(range(290, 450, 20))
    held_out_lengths = tuple(range(220, 388, 7))
    model_dims = dict(n_layers=2, d_model=64, n_heads=4, d_ff=256, max_positions=512)
    # (prompt length in tokens, budget): the last forward pass of each
    # covers prompt + budget - 1 = max_positions positions
    exact_fit = ((509, 4), (510, 3))

    def corpus(self):
        return synth.abstracts_corpus(self.seed, 0, self.n_tokenizer + self.n_pool,
                                      synth.GENERATE_SHAPE)

    def split(self, examples):
        tok = examples[:self.n_tokenizer]
        texts = [e.source_text for e in tok] + [e.target_text for e in tok]
        return texts, examples[self.n_tokenizer:]

    def choose(self, pool):
        encoded = [finetune.prepare_example(e, self.n_hints, self.tokenizer) for e in pool]
        free = list(range(len(pool)))

        def pick(length, size):
            best = min(free, key=lambda i: abs(size(encoded[i]) - length))
            free.remove(best)
            return pool[best]

        train = [pick(n, len) for n in self.train_lengths]
        requests = self.requests_for(
            [pick(n, lambda e: len(e.source_ids) + len(e.forced_prefix_ids))
             for n in self.held_out_lengths])
        # "@" occurs in no generated text, so no merge involves it and every
        # "@" is one token: the prompt is the "@"s, the separator and the hint
        for length, budget in self.exact_fit:
            src = "@" * (length - 2)
            if len(finetune.encode_source(src, 1, self.tokenizer)) + 1 != length:
                raise RuntimeError("exact-fit prompt does not have the planned length")
            requests.append(Request(src, ["@"], budget, exact_fit=True))
        return train, requests


# ---------------------------------------------------------------------------
# the CLI pipeline (rct-pipeline)
# ---------------------------------------------------------------------------

_PARSED = re.compile(r"parsed (\d+) abstracts -> (\d+) examples \((\d+) skipped\)")


class RctPipeline:
    """Set-up writes a training and a dev corpus; a round runs preprocess
    (both corpora), train-tokenizer, finetune, generate and score through
    `prefixlm.cli.main` in a fresh directory."""

    n_train = 1500
    n_dev = 16
    num_merges = 60
    n_hints = 1
    budget = 64
    train_config = dict(n_hints=n_hints, batch_size=4, steps=3, lr=0.001, momentum=0.9,
                        weight_decay=0.0005, max_len=512, checkpoint_every=0, n_layers=2,
                        d_model=32, n_heads=2, d_ff=64, max_positions=512)

    def __init__(self, seed: int, workdir: Path, rec):
        self.seed = seed
        self.workdir = workdir
        self.rec = rec
        self.config = dict(self.train_config, seed=seed)

    def setup(self):
        self.train = synth.abstracts_corpus(self.seed, 0, self.n_train, synth.PIPELINE_SHAPE)
        self.dev = synth.abstracts_corpus(self.seed, 1, self.n_dev, synth.PIPELINE_DEV_SHAPE)
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        (inputs / "train.txt").write_text(self.train.text, encoding="utf-8")
        (inputs / "dev.txt").write_text(self.dev.text, encoding="utf-8")
        # warm-up: the whole pipeline on a small corpus
        warm = synth.abstracts_corpus(self.seed, 2, 40, synth.PIPELINE_SHAPE)
        (inputs / "warm.txt").write_text(warm.text, encoding="utf-8")
        self.pipeline(self.workdir / "warm-up", inputs / "warm.txt", inputs / "dev.txt",
                      num_merges=5, steps=1, budget=2)

    def pipeline(self, d: Path, train: Path, dev: Path, num_merges, steps, budget) -> Round:
        d.mkdir(parents=True)
        cfg = dict(self.config, steps=steps, checkpoint_path=d / "ck.bin",
                   loss_log=d / "loss.csv", data_path=d / "train.jsonl",
                   vocab_file=d / "vocab.tsv", merges_file=d / "merges.tsv")
        (d / "train.cfg").write_text("".join(f"{k}={v}\n" for k, v in cfg.items()),
                                     encoding="utf-8")
        commands = [
            ["preprocess", "--corpus", str(train), "--out", str(d / "train.jsonl")],
            ["preprocess", "--corpus", str(dev), "--out", str(d / "dev.jsonl")],
            ["train-tokenizer", "--examples", str(d / "train.jsonl"),
             "--num-merges", str(num_merges),
             "--out-vocab", str(d / "vocab.tsv"), "--out-merges", str(d / "merges.tsv")],
            ["finetune", "--config", str(d / "train.cfg")],
            ["generate", "--config", str(d / "train.cfg"), "--examples", str(d / "dev.jsonl"),
             "--n-hints", str(self.n_hints), "--max-new-tokens", str(budget),
             "--out", str(d / "gen.jsonl")],
            ["score", "--generated", str(d / "gen.jsonl"), "--references",
             str(d / "dev.jsonl"), "--out", str(d / "scores.txt")],
        ]
        rnd = Round()
        stdout = []
        for argv in commands:
            rnd.attempted += 1
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.rec.call(f"cli.{argv[0]}", cli.main, argv)
            stdout.append(buf.getvalue())
            if code != 0:
                rnd.failed += 1
        rnd.outputs = {"dir": d, "stdout": stdout}
        return rnd

    def run_round(self, index: int) -> Round:
        inputs = self.workdir / "inputs"
        return self.pipeline(self.workdir / f"round{index}", inputs / "train.txt",
                             inputs / "dev.txt", self.num_merges, self.config["steps"],
                             self.budget)

    # checks ------------------------------------------------------------

    def check(self, rounds: list[Round]) -> list[str]:
        if any(r.failed for r in rounds):
            return ["a CLI command failed; its error is on standard error"]
        d = rounds[0].outputs["dir"]
        stdout = rounds[0].outputs["stdout"]
        problems = []
        for out, corpus, name in ((stdout[0], self.train, "train"),
                                  (stdout[1], self.dev, "dev")):
            m = _PARSED.search(out)
            n = len(corpus.text.split("###")) - 1
            if not m or [int(g) for g in m.groups()] != [n, len(corpus.examples),
                                                          corpus.skipped]:
                problems.append(f"preprocess {name} reported {out.strip()[:80]!r}")
            rows = [json.loads(line) for line in
                    (d / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()]
            if [(r["pmid"], r["source"], r["target"]) for r in rows] != [
                    (e.pmid, e.source, e.target) for e in corpus.examples]:
                problems.append(f"{name}.jsonl differs from the generated examples")

        merges = [ln for ln in (d / "merges.tsv").read_text(encoding="utf-8").splitlines()
                  if ln and not ln.startswith("#")]
        if len(merges) != self.num_merges:
            problems.append(f"{len(merges)} merges, {self.num_merges} requested")
        tokenizer = bpe.load_vocabulary(d / "vocab.tsv", d / "merges.tsv")
        texts = [t for c in (self.train, self.dev) for e in c.examples
                 for t in (e.source, e.target)]
        problems += _tokenizer_problems(tokenizer, texts)

        mcfg = model.ModelConfig(
            n_layers=self.config["n_layers"], d_model=self.config["d_model"],
            n_heads=self.config["n_heads"], d_ff=self.config["d_ff"],
            vocab_size=len(tokenizer.vocab), max_positions=self.config["max_positions"])
        _, step = finetune.load_checkpoint(d / "ck.bin", mcfg, finetune.OptimizerState())
        if step != self.config["steps"]:
            problems.append(f"checkpoint reloads at step {step}")

        # first-step loss, from the loss log, against the reference at init
        examples = data.read_examples_jsonl(d / "train.jsonl")
        encoded = finetune.filter_long(
            [finetune.prepare_example(e, self.n_hints, tokenizer) for e in examples],
            self.config["max_len"])
        w0 = reference.as_float64(
            (n, p.data) for n, p in model.init_params(mcfg, self.seed).named())
        ref_loss = reference.batch_loss(w0, mcfg.n_heads,
                                        encoded[:self.config["batch_size"]])
        logged = float((d / "loss.csv").read_text().splitlines()[1].split(",")[1])
        if abs(logged - ref_loss) > 1e-4 * abs(ref_loss):
            problems.append(f"first-step loss {logged} vs reference {ref_loss}")

        # greedy traces of the first round, against the reference
        tensors, _ = model.read_tensor_map(d / "ck.bin")
        w = reference.as_float64(tensors.items())
        eot = tokenizer.vocab.end_of_text_id
        gens = [g for g in self.rec.generations if g["phase"] == "round:0"]
        rows = [json.loads(line) for line in
                (d / "gen.jsonl").read_text(encoding="utf-8").splitlines()]
        if len(gens) != len(self.dev.examples) or len(rows) != len(gens):
            problems.append(f"{len(gens)} generate calls, {len(rows)} rows, "
                            f"{len(self.dev.examples)} dev examples")
        for g, row in zip(gens, rows):
            source_ids = finetune.encode_source(g["source"], self.n_hints, tokenizer)
            hint_ids = tokenizer.encode(" ".join(g["hints"]))
            problems += reference.trace_problems(w, mcfg.n_heads, source_ids, hint_ids,
                                                 g["trace"], eot, g["budget"])
            if row["output"] != tokenizer.decode([t for t in g["trace"] if t != eot]):
                problems.append(f"gen.jsonl output for {row['pmid']} is not its trace")

        report = (d / "scores.txt").read_text(encoding="utf-8").splitlines()[1].split()
        reported = dict(zip(("rouge1", "rouge2", "rougeL"), map(float, report[1:4])))
        problems += _rouge_problems(reported, [(r["output"], self.n_hints) for r in rows],
                                    [e.target for e in self.dev.examples])

        for i, rnd in enumerate(rounds[1:], 1):
            for name in ("train.jsonl", "dev.jsonl", "vocab.tsv", "merges.tsv", "ck.bin",
                         "loss.csv", "gen.jsonl", "scores.txt"):
                if (rnd.outputs["dir"] / name).read_bytes() != (d / name).read_bytes():
                    problems.append(f"round {i} {name} differs from round 0")
        return problems
