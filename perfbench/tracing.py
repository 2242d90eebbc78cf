"""Timers and spans installed around the program's public functions.

A Recorder always times training steps and generate requests, which the
end-to-end rates need. With tracing on it also records one span per call
into each layer: name, start, end, parent span, phase (`setup:<k>` or
`round:<k>`), and the id of the training step or generate request the call
belongs to. Spans stay in memory until the run ends. Nothing here edits the
program's files: wrappers replace module and class attributes in the
running process only.
"""

from __future__ import annotations

import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

STEP = "finetune.step"
REQUEST = "generate.request"


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.phase: str | None = None  # None: record nothing
        # positions trained per second of each training step; per round,
        # seconds spent in generate calls and tokens in their greedy traces
        self.step_rates: list[float] = []
        self.generating: dict[str, list] = {}
        self.generations: list[dict] = []  # every generate call while recording

    def measuring(self) -> bool:
        return self.phase is not None and self.phase.startswith("round:")

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed code as one span; yields the span, or None
        when nothing is being recorded."""
        if not self.trace or self.phase is None:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        s = {"name": name, "start": perf_counter(), "end": None,
             "parent": parent["index"] if parent else None,
             "phase": self.phase, "index": len(self.spans)}
        s["id"] = s["index"] if name in (STEP, REQUEST) else (parent["id"] if parent else None)
        s.update(attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException:
            s["error"] = True
            raise
        finally:
            s["end"] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _replace(original, wrapped):
    """Point every prefixlm module attribute bound to original at wrapped."""
    for name, module in list(sys.modules.items()):
        if name == "prefixlm" or name.startswith("prefixlm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def _wrap_function(rec: Recorder, module, attr: str, span_name: str):
    original = getattr(module, attr)
    _replace(original, lambda *a, **kw: rec.call(span_name, original, *a, **kw))


def install(rec: Recorder):
    """Wrap the program's functions for this process."""
    # cli is imported before any replacement so that the names it binds
    # from the other modules are replaced too
    from prefixlm import bpe, cli, data, finetune, generate, model, rouge  # noqa: F401

    step_fn = finetune.training_step
    gen_fn = generate.generate_greedy
    encode_fn = bpe.Tokenizer.encode
    forward_fn = model.Model.forward
    backward_fn = finetune.backward
    ce_fn = finetune.cross_entropy

    def training_step(mdl, batch, state):
        batch = list(batch)
        t0 = perf_counter()
        out = rec.call(STEP, step_fn, mdl, batch, state)
        if rec.measuring():
            rec.step_rates.append(sum(len(ex.tokens) for ex in batch)
                                  / (perf_counter() - t0))
        return out

    def generate_greedy(mdl, source_text, hint_words, config, tokenizer):
        hint_words = list(hint_words)
        t0 = perf_counter()
        with rec.span(REQUEST) as span:
            text, trace = gen_fn(mdl, source_text, hint_words, config, tokenizer)
        if rec.measuring():
            g = rec.generating.setdefault(rec.phase, [0.0, 0])
            g[0] += perf_counter() - t0
            g[1] += len(trace)
        if span is not None:
            hint = encode_fn(tokenizer, " ".join(hint_words)) if hint_words else []
            span["n"] = len(trace) - len(hint)
        if rec.phase is not None:
            rec.generations.append({
                "phase": rec.phase, "source": source_text, "hints": hint_words,
                "budget": config.max_new_tokens, "text": text, "trace": list(trace),
            })
        return text, trace

    _replace(step_fn, training_step)
    _replace(gen_fn, generate_greedy)
    if not rec.trace:
        return

    def forward(self, token_ids, mask):
        with rec.span("model.forward", n=len(token_ids)):
            return forward_fn(self, token_ids, mask)

    def encode(self, text):
        return rec.call("bpe.encode", encode_fn, self, text)

    def backward(loss):
        with rec.span("tensor.backward", n=len(loss.tape) if loss.tape else 0):
            backward_fn(loss)

    def cross_entropy(logits, targets, loss_mask=None):
        with rec.span("tensor.cross_entropy") as span:
            out = ce_fn(logits, targets, loss_mask)
        if span is not None:
            _time_backward_record(out, span)
        return out

    model.Model.forward = forward
    bpe.Tokenizer.encode = encode
    _replace(backward_fn, backward)
    _replace(ce_fn, cross_entropy)
    for module, attr, name in (
        (finetune, "sgd_update", "finetune.sgd_update"),
        (finetune, "save_checkpoint", "finetune.checkpoint_write"),
        (finetune, "load_checkpoint", "finetune.checkpoint_read"),
        (finetune, "load_model_weights", "finetune.checkpoint_read"),
        (bpe, "train_merges", "bpe.train_merges"),
        (data, "parse_corpus", "data.parse_corpus"),
        (data, "build_examples", "data.build_examples"),
        (data, "read_examples_jsonl", "data.read_examples_jsonl"),
        (rouge, "score_run", "rouge.score_run"),
    ):
        _wrap_function(rec, module, attr, name)


def _time_backward_record(out, span):
    """Add the backward time of the op that made `out` to span["bw"].

    The tape keeps (output, inputs, backward_fn) records in a private list;
    when its layout differs, the span keeps the forward time alone.
    """
    records = getattr(out.tape, "_records", None)
    if not records or not isinstance(records[-1], tuple) or records[-1][0] is not out:
        return
    res, inputs, bw = records[-1]
    span["bw"] = 0.0

    def timed(g):
        t0 = perf_counter()
        bw(g)
        span["bw"] += perf_counter() - t0

    records[-1] = (res, inputs, timed)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def _dur(s) -> float:
    return s["end"] - s["start"]


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _children_time(spans) -> dict[int, float]:
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _dur(s)
    return children


def self_times(spans: list[dict], n_rounds: int) -> dict[str, float]:
    """Seconds per round of each layer's self time: span time minus the
    time of its child spans."""
    children = _children_time(spans)
    out: dict[str, float] = {}
    for s in spans:
        if s["phase"].startswith("round:"):
            out[s["name"]] = out.get(s["name"], 0.0) + _dur(s) - children.get(s["index"], 0.0)
    return {k: v / n_rounds for k, v in sorted(out.items(), key=lambda kv: -kv[1])}


def layer_metrics(spans: list[dict], round_walls: list[float]) -> dict:
    """Per-layer figures, as {name: (value, unit)}.

    Totals (`_s`) are the median time per set-up plus the median time per
    round; `_ms_p50`/`_p90` are percentiles over the calls made in rounds;
    shares are sums over all rounds.
    """
    in_rounds = [s for s in spans if s["phase"].startswith("round:")]

    def kind(s):
        """STEP or REQUEST ancestor of a span, or None."""
        i = s["id"]
        return spans[i]["name"] if i is not None else None

    def named(name, pool=in_rounds):
        return [s for s in pool if s["name"] == name]

    def ok(pool):
        return [s for s in pool if not s.get("error")]

    def p50_ms(pool):
        return 1000.0 * _median([_dur(s) for s in ok(pool)])

    def per_rep_total(names, value=_dur):
        total = 0.0
        for prefix in ("setup:", "round:"):
            sums: dict[str, float] = {}
            for s in spans:
                if s["phase"].startswith(prefix):
                    sums.setdefault(s["phase"], 0.0)
                    if s["name"] in names:
                        sums[s["phase"]] += value(s)
            total += _median(list(sums.values()))
        return total

    children = _children_time(spans)
    steps = ok(named(STEP))
    requests = ok(named(REQUEST))
    forwards = ok(named("model.forward"))
    train_fw = [s for s in forwards if kind(s) == STEP]
    decode_fw = [s for s in forwards if kind(s) == REQUEST]
    backwards = [s for s in named("tensor.backward") if kind(s) == STEP]
    updates = named("finetune.sgd_update")
    step_total = sum(map(_dur, steps))

    first_fw, last_fw = {}, {}
    for s in decode_fw:
        first_fw.setdefault(s["id"], s)
        last_fw[s["id"]] = s
    new_tokens = sum(s.get("n", 0) for s in requests)
    cli_names = ["cli.preprocess", "cli.train-tokenizer", "cli.finetune",
                 "cli.generate", "cli.score"]
    round_total = sum(round_walls)

    out = {
        "tensor.tape_records_per_example": (
            _median([s["n"] for s in backwards]), "count"),
        "tensor.backward_ms_p50": (p50_ms(backwards), "ms"),
        "tensor.cross_entropy_ms_p50": (1000.0 * _median(
            [_dur(s) + s.get("bw", 0.0) for s in ok(named("tensor.cross_entropy"))]), "ms"),
        "model.forward_train_ms_p50": (p50_ms(train_fw), "ms"),
        "model.forward_decode_ms_p50": (p50_ms(decode_fw), "ms"),
        "model.positions_per_new_token": (
            _share(sum(s["n"] for s in decode_fw), new_tokens), "count"),
        "finetune.step_ms_p50": (p50_ms(steps), "ms"),
        "finetune.sgd_update_ms_p50": (p50_ms(updates), "ms"),
        "finetune.forward_share": (_share(sum(map(_dur, train_fw)), step_total), "ratio"),
        "finetune.backward_share": (_share(sum(map(_dur, backwards)), step_total), "ratio"),
        "finetune.update_share": (_share(sum(map(_dur, updates)), step_total), "ratio"),
        "generate.request_ms_p50": (p50_ms(requests), "ms"),
        "generate.request_ms_p90": (1000.0 * float(np.percentile(
            [_dur(s) for s in requests], 90)) if requests else 0.0, "ms"),
        "generate.first_forward_ms_p50": (p50_ms(list(first_fw.values())), "ms"),
        "generate.last_forward_ms_p50": (p50_ms(list(last_fw.values())), "ms"),
        "finetune.checkpoint_write_ms": (p50_ms(named("finetune.checkpoint_write")), "ms"),
        "finetune.checkpoint_read_ms": (p50_ms(named("finetune.checkpoint_read")), "ms"),
        "round.train_share": (_share(step_total, round_total), "ratio"),
        "round.generate_share": (_share(sum(map(_dur, requests)), round_total), "ratio"),
    }
    for name in ("bpe.train_merges", "bpe.encode", "data.parse_corpus",
                 "data.build_examples", "data.read_examples_jsonl", "rouge.score_run"):
        out[name + "_s"] = (per_rep_total({name}), "s")
    for name in cli_names:
        out[name.replace("-", "_") + "_s"] = (per_rep_total({name}), "s")
    out["cli.overhead_s"] = (per_rep_total(
        set(cli_names), lambda s: _dur(s) - children.get(s["index"], 0.0)), "s")
    return {k: (float(v), unit) for k, (v, unit) in out.items()}
