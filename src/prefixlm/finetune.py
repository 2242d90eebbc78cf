"""Teacher-forced fine-tuning of the transformer as a conditional generator.

Each example becomes one sequence: encoded source, separator, an optional
forced prefix of hint words, then the remaining conclusion tokens and the
end-of-text marker. Attention uses the prefix mask (bidirectional source,
causal target) and the loss covers only the conclusion tokens, each
predicted from the position before it. Optimization is plain SGD with
momentum and coupled weight decay.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bpe import Tokenizer, load_vocabulary
from .data import RctExample, read_examples_jsonl
from .model import (
    Model,
    ModelConfig,
    ModelParams,
    build_prefix_mask,
    init_params,
    params_from_tensors,
    read_tensor_map,
    write_tensor_map,
)
from .tensor import ComputationTape, backward, cross_entropy, scale, slice_rows

__all__ = [
    "HINTLESS_PROMPT",
    "EncodedExample",
    "OptimizerState",
    "TrainingConfig",
    "ConfigError",
    "split_hint_words",
    "prepare_example",
    "filter_long",
    "sgd_update",
    "training_step",
    "save_checkpoint",
    "load_checkpoint",
    "load_model_weights",
    "parse_training_config",
    "run_finetune",
]

# appended to the source text when no hint words are used
HINTLESS_PROMPT = "In conclusion , "

DEFAULT_MAX_ENCODED_LEN = 500


@dataclass
class EncodedExample:
    """One training sequence; loss_mask is True exactly on target_ids."""

    source_ids: list[int]  # source text (+ prompt when n_hints=0) + separator
    forced_prefix_ids: list[int]  # hint words, empty when n_hints=0
    target_ids: list[int]  # remaining conclusion + end-of-text
    loss_mask: list[bool]

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
    prefix_ids = tokenizer.encode(" ".join(hints)) if hints else []
    if rest:
        rest_text = " ".join(rest)
        if hints:
            rest_text = " " + rest_text
        target_ids = tokenizer.encode(rest_text)
    else:
        target_ids = []
    target_ids = target_ids + [tokenizer.vocab.end_of_text_id]
    loss_mask = [False] * (len(source_ids) + len(prefix_ids)) + [True] * len(target_ids)
    return EncodedExample(source_ids, prefix_ids, target_ids, loss_mask)


def filter_long(examples, max_len: int = DEFAULT_MAX_ENCODED_LEN):
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
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = state.momentum * v + g
        state.velocity[name] = v
        p.data -= state.lr * v


def training_step(model: Model, batch, state: OptimizerState) -> float:
    """One SGD step on a batch; returns the mean (unscaled) loss.

    Examples run sequentially; per-example gradients are averaged by
    scaling each loss by 1/batch before backward, which keeps the update
    identical to a single mean-gradient step.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("training batch is empty")
    model.params.zero_grads()
    inv = 1.0 / len(batch)
    total = 0.0
    for ex in batch:
        tokens = ex.tokens
        t = len(tokens)
        if t > model.config.max_positions:
            raise ValueError(
                f"sequence of {t} tokens exceeds max_positions "
                f"{model.config.max_positions}; filter_long should have dropped it"
            )
        mask = build_prefix_mask(len(ex.source_ids), t - len(ex.source_ids))
        with ComputationTape():
            logits = model.forward(tokens, mask)
            # token at position j is scored by the logits at position j-1
            loss = cross_entropy(
                slice_rows(logits, 0, t - 1), tokens[1:], ex.loss_mask[1:]
            )
            backward(scale(loss, inv))
        value = loss.item()
        if not np.isfinite(value):
            raise FloatingPointError("non-finite training loss")
        total += value
    sgd_update(model.params, state)
    return total * inv


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: ModelParams, state: OptimizerState, step: int):
    """Model tensors plus per-parameter optimizer velocities and the step."""
    items = [(name, p.data) for name, p in params.named()]
    for name, p in params.named():
        v = state.velocity.get(name)
        items.append(
            (f"optimizer.{name}.velocity", v if v is not None else np.zeros_like(p.data))
        )
    write_tensor_map(path, items, meta_step=step)


def _read_params(path, config: ModelConfig, dtype):
    """Validated params of a weights file or checkpoint, plus its optimizer
    tensors ({name: array}) and meta step."""
    tensors, step = read_tensor_map(path)
    optimizer = {n: tensors.pop(n) for n in list(tensors) if n.startswith("optimizer.")}
    return params_from_tensors(tensors, config, dtype=dtype, source=str(path)), optimizer, step


def load_model_weights(path, config: ModelConfig, dtype=np.float32) -> ModelParams:
    """Model params from a weights file or checkpoint (optimizer state ignored)."""
    return _read_params(path, config, dtype)[0]


def load_checkpoint(path, config: ModelConfig, state: OptimizerState, dtype=np.float32):
    """Restore (params, step) and refill state.velocity from a checkpoint."""
    params, optimizer, step = _read_params(path, config, dtype)
    if step is None:
        raise ValueError(f"{path}: checkpoint is missing its meta step line")
    state.velocity = {}
    for name, p in params.named():
        key = f"optimizer.{name}.velocity"
        if key not in optimizer:
            raise ValueError(f"{path}: checkpoint is missing {key!r}")
        if optimizer[key].shape != p.shape:
            raise ValueError(f"{path}: velocity shape mismatch for {name!r}")
        state.velocity[name] = optimizer[key].astype(dtype)
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
    activation: str = "relu"
    loss_log: str = ""

    def model_config(self, vocab_size: int) -> ModelConfig:
        """The architecture these keys describe, for a vocabulary size."""
        dims = {
            f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name != "vocab_size"
        }
        return ModelConfig(vocab_size=vocab_size, **dims)


def parse_training_config(path) -> TrainingConfig:
    """Read a key=value (UTF-8, # comments) training config file."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        raw[key.strip()] = value.strip()

    kwargs = {}
    for f in fields(TrainingConfig):
        if f.name not in raw:
            if f.default is not MISSING:
                continue  # optional key, keep the default
            raise ConfigError(f"{path}: missing config key {f.name!r}")
        value = raw.pop(f.name)
        try:
            # annotations are strings here (postponed evaluation)
            kwargs[f.name] = {"int": int, "float": float}.get(f.type, str)(value)
        except ValueError as e:
            raise ConfigError(f"{path}: bad value for {f.name!r}: {value!r}") from e
    if raw:
        raise ConfigError(f"{path}: unknown config key {sorted(raw)[0]!r}")
    return TrainingConfig(**kwargs)


def _cut_loss_log(path: Path, step: int):
    """Start the loss log afresh, or on resume from `step` keep only its rows
    up to that step: a run that stopped after its last checkpoint may have
    logged later steps, which the resumed run trains and logs again."""
    rows = ["step,loss\n"]
    if step > 0 and path.exists():
        with open(path, encoding="utf-8", errors="replace") as f:
            for line in f:
                field = line.partition(",")[0]
                if field.isdecimal() and int(field) <= step and line.endswith("\n"):
                    rows.append(line)
    path.write_text("".join(rows), encoding="utf-8")


def run_finetune(cfg: TrainingConfig, log=None):
    """Fine-tune per the config, checkpointing and logging as it goes.

    Resumes from cfg.checkpoint_path when that file already exists. Batches
    cycle through the (filtered) examples in file order, so a fixed seed and
    config reproduce the run bit for bit. Returns (model, state, last_step).
    """
    tokenizer = load_vocabulary(cfg.vocab_file, cfg.merges_file)
    examples = read_examples_jsonl(cfg.data_path)
    if not examples:
        raise ValueError(f"{cfg.data_path}: no training examples")
    encoded = filter_long(
        [prepare_example(e, cfg.n_hints, tokenizer) for e in examples], cfg.max_len
    )
    if not encoded:
        raise ValueError("every example was dropped by the length filter")
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
    else:
        params = init_params(config, cfg.seed)
    model = Model(config, params)

    log_path = Path(cfg.loss_log) if cfg.loss_log else None
    if log_path is not None:
        _cut_loss_log(log_path, start_step)

    n = len(encoded)
    for step in range(start_step, cfg.steps):
        batch = [encoded[(step * cfg.batch_size + j) % n] for j in range(cfg.batch_size)]
        loss = training_step(model, batch, state)
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as f:
                f.write(f"{step + 1},{loss:.6f}\n")
        if log is not None:
            log(step + 1, loss)
        if cfg.checkpoint_every > 0 and (step + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(cfg.checkpoint_path, model.params, state, step + 1)
    save_checkpoint(cfg.checkpoint_path, model.params, state, cfg.steps)
    return model, state, cfg.steps
