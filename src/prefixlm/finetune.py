"""Teacher-forced fine-tuning of the transformer as a conditional generator.

Each example becomes one sequence: encoded source, separator, an optional
forced prefix of hint words, then the remaining conclusion tokens and the
end-of-text marker. Attention uses the prefix rule (bidirectional source,
causal target) and the loss covers only the conclusion tokens, each
predicted from the position before it. Optimization is plain SGD with
momentum and coupled weight decay.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bpe import Tokenizer, load_vocabulary
from .data import RctExample, _refuse_overwrite, _text_lines, _write_atomic, read_examples_jsonl
from .model import (
    Model,
    ModelConfig,
    ModelParams,
    check_tensors,
    init_params,
    params_from_tensors,
    read_tensor_map,
    write_tensor_map,
)
from .tensor import ComputationTape, backward, cross_entropy

__all__ = [
    "HINTLESS_PROMPT",
    "EncodedExample",
    "OptimizerState",
    "TrainingConfig",
    "ConfigError",
    "split_hint_words",
    "encode_source",
    "prepare_example",
    "filter_long",
    "sgd_update",
    "PACK_ROWS",
    "pack_ranges",
    "training_step",
    "save_checkpoint",
    "load_checkpoint",
    "load_model_weights",
    "parse_training_config",
    "run_finetune",
]

# appended to the source text when no hint words are used
HINTLESS_PROMPT = "In conclusion , "


@dataclass
class EncodedExample:
    """One training sequence; the loss covers exactly its target_ids."""

    source_ids: list[int]  # source text (+ prompt when n_hints=0) + separator
    forced_prefix_ids: list[int]  # hint words, empty when n_hints=0
    target_ids: list[int]  # remaining conclusion + end-of-text

    @property
    def tokens(self) -> list[int]:
        return self.source_ids + self.forced_prefix_ids + self.target_ids

    def __len__(self) -> int:
        return len(self.source_ids) + len(self.forced_prefix_ids) + len(self.target_ids)


def split_hint_words(target_text: str, n_hints: int):
    """First n whitespace words of the conclusion, and what remains."""
    if n_hints < 0:
        raise ValueError("n_hints must be >= 0")
    words = target_text.split()
    if len(words) < n_hints:
        raise ValueError(
            f"target has {len(words)} words, fewer than n_hints={n_hints}"
        )
    return words[:n_hints], words[n_hints:]


def encode_source(source_text: str, n_hints: int, tokenizer: Tokenizer) -> list[int]:
    """Source region ids: text, hintless prompt when n_hints=0, separator."""
    if not source_text.strip():
        raise ValueError("source text is empty")
    text = source_text
    if n_hints == 0:
        text = text + " " + HINTLESS_PROMPT
    return tokenizer.encode(text) + [tokenizer.vocab.separator_id]


def prepare_example(
    example: RctExample, n_hints: int, tokenizer: Tokenizer
) -> EncodedExample:
    if not example.target_text.strip():
        raise ValueError("target text is empty")
    hints, rest = split_hint_words(example.target_text, n_hints)
    source_ids = encode_source(example.source_text, n_hints, tokenizer)
    prefix_ids = tokenizer.encode(" ".join(hints))
    # the rest follows the hints after a space, which BPE attaches to its first word
    rest_text = (" " if hints and rest else "") + " ".join(rest)
    target_ids = tokenizer.encode(rest_text) + [tokenizer.vocab.end_of_text_id]
    return EncodedExample(source_ids, prefix_ids, target_ids)


def filter_long(examples, max_len: int):
    """Keep examples strictly shorter than max_len encoded tokens."""
    return [e for e in examples if len(e) < max_len]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    velocity: dict[str, np.ndarray] = field(default_factory=dict)


def sgd_update(params: ModelParams, state: OptimizerState):
    """v <- momentum*v + (g + weight_decay*p); p <- p - lr*v."""
    for name, p in params.named():
        g = p.grad + state.weight_decay * p.data
        v = state.momentum * state.velocity.get(name, 0.0) + g
        state.velocity[name] = v
        p.data -= state.lr * v


# rows of one packed tape: short examples share a tape up to this many rows,
# which amortizes per-op dispatch; a longer example runs alone
PACK_ROWS = 256


def pack_ranges(lengths):
    """(first, stop) of each run of consecutive examples sharing one tape: an
    example joins the current pack unless that would take it past PACK_ROWS
    rows, and every pack takes at least one example."""
    ranges, first, rows = [], 0, 0
    for i, n in enumerate(lengths):
        if i > first and rows + n > PACK_ROWS:
            ranges.append((first, i))
            first, rows = i, 0
        rows += n
    if lengths:
        ranges.append((first, len(lengths)))
    return ranges


def training_step(model: Model, batch, state: OptimizerState) -> float:
    """One SGD step on a batch; returns its mean loss.

    The loss is the mean over examples of each example's mean over its target
    tokens. Consecutive examples are packed into one tape under PACK_ROWS
    rows (pack_ranges), side by side: each keeps its own source length and
    positions from 0, and scores only its target rows, each with weight
    1/(batch * targets). A pack of one is an unpacked example.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("training batch is empty")
    model.params.zero_grads()
    dtype = model.params["embed_token"].dtype
    total = 0.0
    for first, stop in pack_ranges([len(ex) for ex in batch]):
        segments, targets, weights = [], [], []
        for ex in batch[first:stop]:
            t, n_src, n_tgt = len(ex), len(ex.source_ids), len(ex.target_ids)
            # target token j is scored by the logits at position j-1
            segments.append((ex.tokens, n_src, (t - n_tgt - 1, t - 1)))
            targets += ex.target_ids
            weights.append(np.full(n_tgt, 1.0 / len(batch), dtype=dtype) / n_tgt)
        with ComputationTape():
            logits = model.forward_rows(segments)
            loss = cross_entropy(logits, targets, np.concatenate(weights))
            backward(loss)
        value = loss.item()
        if not np.isfinite(value):
            raise FloatingPointError("non-finite training loss")
        total += value
    sgd_update(model.params, state)
    return total


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: ModelParams, state: OptimizerState, step: int):
    """Model tensors plus per-parameter optimizer velocities and the step;
    makes the checkpoint's directory if it is missing."""
    items = [(name, p.data) for name, p in params.named()]
    for name, p in params.named():
        v = state.velocity.get(name)
        items.append(
            (f"optimizer.{name}.velocity", v if v is not None else np.zeros_like(p.data))
        )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_tensor_map(path, items, step)


def _read_params(path, config: ModelConfig):
    """Validated params of a weights file or checkpoint, plus its optimizer
    tensors ({name: array}) and meta step."""
    tensors, step = read_tensor_map(path)
    optimizer = {n: tensors.pop(n) for n in list(tensors) if n.startswith("optimizer.")}
    return params_from_tensors(tensors, config, source=str(path)), optimizer, step


def load_model_weights(path, config: ModelConfig) -> ModelParams:
    """Model params from a weights file or checkpoint (optimizer state ignored)."""
    return _read_params(path, config)[0]


def load_checkpoint(path, config: ModelConfig, state: OptimizerState):
    """Restore (params, step) and refill state.velocity from a checkpoint."""
    params, optimizer, step = _read_params(path, config)
    if step is None:
        raise ValueError(f"{path}: checkpoint is missing its meta step line")
    keys = {name: f"optimizer.{name}.velocity" for name, _ in params.named()}
    check_tensors(optimizer, {keys[name]: p.shape for name, p in params.named()}, str(path))
    state.velocity = {name: optimizer[key] for name, key in keys.items()}
    return params, step


# ---------------------------------------------------------------------------
# training configuration and loop
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Missing or malformed training-config key; message names the key."""


@dataclass
class TrainingConfig:
    seed: int
    n_hints: int
    batch_size: int
    steps: int
    lr: float
    momentum: float
    weight_decay: float
    max_len: int
    checkpoint_path: str
    checkpoint_every: int
    data_path: str
    vocab_file: str
    merges_file: str
    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    max_positions: int
    loss_log: str = ""

    def model_config(self, vocab_size: int) -> ModelConfig:
        """The architecture these keys describe, for a vocabulary size."""
        dims = {
            f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name != "vocab_size"
        }
        return ModelConfig(vocab_size=vocab_size, **dims)


# smallest accepted value of a numeric key; ModelConfig judges the model keys
_LOWER_BOUNDS = {"seed": 0, "steps": 0, "batch_size": 1, "n_hints": 0, "checkpoint_every": 0,
                 "max_len": 1, "lr": 0, "momentum": 0, "weight_decay": 0}


def parse_training_config(path) -> TrainingConfig:
    """Read a key=value (UTF-8, # comments) training config file."""
    raw: dict[str, str] = {}
    for lineno, line in _text_lines(path, ConfigError):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in stripped.partition("="))
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: repeated config key {key!r}")
        raw[key] = value

    kwargs = {}
    for f in fields(TrainingConfig):
        if f.name not in raw:
            if f.default is not MISSING:
                continue  # optional key, keep the default
            raise ConfigError(f"{path}: missing config key {f.name!r}")
        value = raw.pop(f.name)
        try:
            if "\0" in value or not value and f.default is MISSING:  # names no file
                raise ValueError("empty or NUL")
            # annotations are strings here (postponed evaluation)
            v = kwargs[f.name] = {"int": int, "float": float}.get(f.type, str)(value)
            if f.type == "float" and not np.isfinite(v):
                raise ValueError("not a finite number")
            if f.name in _LOWER_BOUNDS and v < _LOWER_BOUNDS[f.name]:
                raise ValueError(f"less than {_LOWER_BOUNDS[f.name]}")
        except ValueError as e:
            raise ConfigError(f"{path}: bad value for {f.name!r}: {value!r}") from e
    if raw:
        raise ConfigError(f"{path}: unknown config key {sorted(raw)[0]!r}")
    cfg = TrainingConfig(**kwargs)
    try:
        cfg.model_config(vocab_size=1)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    inputs = {repr(k): getattr(cfg, k) for k in ("data_path", "vocab_file", "merges_file")}
    _refuse_overwrite({repr(k): getattr(cfg, k) for k in ("checkpoint_path", "loss_log")},
                      {"the config file": path, **inputs}, ConfigError, f"{path}: ")
    return cfg


def _cut_loss_log(path: Path, step: int):
    """Start the loss log afresh, or on resume from `step` keep only its rows
    up to that step: a run that stopped after its last checkpoint may have
    logged later steps, which the resumed run trains and logs again. Row s
    is appended before checkpoint s is written, so a row torn by a kill lies
    past `step`, or has no comma when torn inside its step. The cut log is
    written by data._write_atomic, so a crash here tears no kept row. Makes
    the log's directory if it is missing."""
    rows = ["step,loss\n"]
    if step > 0 and path.exists():
        for _, line in _text_lines(path, ValueError):
            field, comma, _ = line.partition(",")
            if comma and field.isdecimal() and int(field) <= step:
                rows.append(line + "\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, ["".join(rows).encode()])


def run_finetune(cfg: TrainingConfig, log):
    """Fine-tune per the config, checkpointing and logging as it goes.

    Resumes from cfg.checkpoint_path when that file already exists. Batches
    cycle through the (filtered) examples in file order, so a fixed seed and
    config reproduce the run bit for bit.
    """
    tokenizer = load_vocabulary(cfg.vocab_file, cfg.merges_file)
    examples = read_examples_jsonl(cfg.data_path)
    if not examples:
        raise ValueError(f"{cfg.data_path}: no training examples")
    encoded = []
    for e in examples:
        try:
            encoded.append(prepare_example(e, cfg.n_hints, tokenizer))
        except ValueError as err:
            raise ValueError(f"{cfg.data_path}: example {e.pmid!r}: {err}") from err
    encoded = filter_long(encoded, cfg.max_len)
    if not encoded:
        raise ConfigError(
            f"every example was dropped by the length filter (max_len {cfg.max_len})"
        )
    longest = max(map(len, encoded))
    if longest > cfg.max_positions:
        raise ConfigError(
            f"max_len {cfg.max_len} keeps an example of {longest} tokens, more than "
            f"max_positions {cfg.max_positions}; lower max_len to at most "
            f"{cfg.max_positions + 1}"
        )

    config = cfg.model_config(len(tokenizer.vocab))
    state = OptimizerState(lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)

    start_step = 0
    if Path(cfg.checkpoint_path).exists():
        params, start_step = load_checkpoint(cfg.checkpoint_path, config, state)
        if start_step > cfg.steps:
            raise ConfigError(
                f"steps {cfg.steps} is below the step {start_step} of the checkpoint "
                f"{cfg.checkpoint_path}; resume with steps >= {start_step}"
            )
    else:
        params = init_params(config, cfg.seed)
    model = Model(config, params)

    log_path = Path(cfg.loss_log) if cfg.loss_log else None
    if log_path is not None:
        _cut_loss_log(log_path, start_step)

    n = len(encoded)
    for step in range(start_step, cfg.steps):
        # checkpoint s is written as step s + 1 begins, the last one after the loop
        if step > start_step and cfg.checkpoint_every > 0 and step % cfg.checkpoint_every == 0:
            save_checkpoint(cfg.checkpoint_path, model.params, state, step)
        batch = [encoded[(step * cfg.batch_size + j) % n] for j in range(cfg.batch_size)]
        loss = training_step(model, batch, state)
        if log_path is not None:
            # appended: a rewrite per step is quadratic; _cut_loss_log drops a torn row
            with open(log_path, "a", encoding="utf-8") as f:
                f.write(f"{step + 1},{loss:.6f}\n")
        log(step + 1, loss)
    save_checkpoint(cfg.checkpoint_path, model.params, state, cfg.steps)
