"""Decoder-style transformer with pre-layer-norm blocks and pluggable masks.

The stack is: token + learned position embeddings, N blocks of masked
multi-head self-attention and a position-wise feed-forward sublayer (layer
norm applied before each sublayer, residual around both), a final layer
norm, and a language-model head tied to the token embedding. Attention
masks are plain float matrices with 0 (visible) and -inf (hidden) entries;
the causal and prefix builders below cover training and generation.
Attention is one fused multi-head op over the query|key|value projection
(tensor.attention); Model.prefill and Model.step decode incrementally over a
key/value cache with the same numpy core (tensor.split_heads, tensor.attend).
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    GraphError,
    Tensor,
    active_tape,
    add,
    attend,
    attention,
    embedding_rows,
    gelu,
    layer_norm,
    matmul,
    relu,
    slice_rows,
    split_heads,
    transpose,
)

__all__ = [
    "ModelConfig",
    "BlockParams",
    "ModelParams",
    "Model",
    "WeightFileError",
    "NEG_INF",
    "LN_EPS",
    "build_causal_mask",
    "build_prefix_mask",
    "multi_head_self_attention",
    "ffn",
    "block_forward",
    "KVCache",
    "param_spec",
    "init_params",
    "param_count",
    "params_from_tensors",
    "write_tensor_map",
    "read_tensor_map",
]

NEG_INF = float("-inf")
LN_EPS = 1e-5
INIT_STD = 0.02

_ACTIVATIONS = {"relu": relu, "gelu": gelu}


class WeightFileError(ValueError):
    """Malformed weights file, or tensors that do not match the config."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters. Full scale is 12/768/12/3072/50257."""

    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab_size: int
    max_positions: int
    activation: str = "relu"

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.max_positions < 1:
            raise ValueError("max_positions must be >= 1")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if min(self.n_layers, self.d_model, self.n_heads, self.d_ff) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads


# One row per block tensor, in file order: attribute, file name, shape from
# (d_model, d_ff), and init (normal draws, ones or zeros).
_BLOCK_TENSORS = (
    ("ln1_gamma", "ln1.weight", lambda d, h: (d,), "ones"),
    ("ln1_beta", "ln1.bias", lambda d, h: (d,), "zeros"),
    ("attn_qkv", "attn_qkv.weight", lambda d, h: (d, 3 * d), "normal"),
    ("attn_out", "attn_out.weight", lambda d, h: (d, d), "normal"),
    ("ln2_gamma", "ln2.weight", lambda d, h: (d,), "ones"),
    ("ln2_beta", "ln2.bias", lambda d, h: (d,), "zeros"),
    ("ffn_w1", "ffn_w1.weight", lambda d, h: (d, h), "normal"),
    ("ffn_b1", "ffn_b1.bias", lambda d, h: (h,), "zeros"),
    ("ffn_w2", "ffn_w2.weight", lambda d, h: (h, d), "normal"),
    ("ffn_b2", "ffn_b2.bias", lambda d, h: (d,), "zeros"),
)


@dataclass
class BlockParams:
    ln1_gamma: Tensor
    ln1_beta: Tensor
    attn_qkv: Tensor  # d_model x 3*d_model, query/key/value fused
    attn_out: Tensor  # d_model x d_model
    ln2_gamma: Tensor
    ln2_beta: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor

    def named(self, prefix: str):
        for attr, name, _, _ in _BLOCK_TENSORS:
            yield f"{prefix}.{name}", getattr(self, attr)


@dataclass
class ModelParams:
    """All learnable weights. The LM head is embed_token transposed (tied)."""

    embed_token: Tensor  # vocab_size x d_model
    embed_pos: Tensor  # max_positions x d_model
    blocks: list[BlockParams] = field(default_factory=list)
    final_ln_gamma: Tensor = None
    final_ln_beta: Tensor = None

    def named(self):
        yield "embed_token", self.embed_token
        yield "embed_pos", self.embed_pos
        for i, b in enumerate(self.blocks):
            yield from b.named(f"block{i}")
        yield "final_ln.gamma", self.final_ln_gamma
        yield "final_ln.beta", self.final_ln_beta

    def zero_grads(self):
        for _, p in self.named():
            p.zero_grad()

    def n_parameters(self) -> int:
        return sum(p.size for _, p in self.named())


# ---------------------------------------------------------------------------
# attention masks
# ---------------------------------------------------------------------------


def build_causal_mask(t: int, dtype=np.float32) -> np.ndarray:
    """0 on and below the diagonal, -inf strictly above: no future peeking."""
    if t < 1:
        raise ValueError("mask length must be >= 1")
    m = np.zeros((t, t), dtype=dtype)
    m[np.triu_indices(t, k=1)] = NEG_INF
    return m


def build_prefix_mask(m: int, n: int, dtype=np.float32) -> np.ndarray:
    """Bidirectional over the m source positions, causal over the n target
    positions, with every target position seeing the whole source and the
    source never seeing the target."""
    if m < 1:
        raise ValueError("prefix mask needs a nonempty source (m >= 1)")
    if n < 0:
        raise ValueError("target length must be >= 0")
    t = m + n
    mask = np.zeros((t, t), dtype=dtype)
    mask[:m, m:] = NEG_INF
    tgt = np.triu_indices(n, k=1)
    mask[m + tgt[0], m + tgt[1]] = NEG_INF
    return mask


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------


def multi_head_self_attention(
    x: Tensor, mask: np.ndarray, block: BlockParams, n_heads: int
) -> Tensor:
    """Fused query|key|value projection, attention, output projection."""
    return matmul(attention(matmul(x, block.attn_qkv), mask, n_heads), block.attn_out)


def ffn(x: Tensor, block: BlockParams, activation: str = "relu") -> Tensor:
    act = _ACTIVATIONS[activation]
    hidden = act(add(matmul(x, block.ffn_w1), block.ffn_b1))
    return add(matmul(hidden, block.ffn_w2), block.ffn_b2)


def block_forward(
    x: Tensor,
    mask: np.ndarray,
    block: BlockParams,
    n_heads: int,
    activation: str = "relu",
) -> Tensor:
    """Pre-LN residual block: attention sublayer, then feed-forward sublayer."""
    return _residual_block(
        x, block, activation, lambda h: multi_head_self_attention(h, mask, block, n_heads)
    )


def _residual_block(x: Tensor, block: BlockParams, activation: str, attend) -> Tensor:
    """The block around an attention sublayer `attend(normalized x)`."""
    attended = attend(layer_norm(x, block.ln1_gamma, block.ln1_beta, LN_EPS))
    h = add(attended, x)
    fed = ffn(layer_norm(h, block.ln2_gamma, block.ln2_beta, LN_EPS), block, activation)
    return add(fed, h)


# ---------------------------------------------------------------------------
# incremental decoding
# ---------------------------------------------------------------------------


@dataclass
class KVCache:
    """Keys and values of every layer for the first `length` positions.

    Under the causal and prefix masks no position attends to a later one,
    so a row's keys and values never change once computed: decoding one
    more token needs only that token's row in each layer.
    """

    keys: np.ndarray  # n_layers x n_heads x capacity x d_k
    values: np.ndarray  # same shape as keys
    length: int = 0

    @property
    def capacity(self) -> int:
        return self.keys.shape[2]


def _cached_attention(
    x: Tensor,
    block: BlockParams,
    n_heads: int,
    cache: KVCache,
    layer: int,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention for the rows x, which sit at positions
    cache.length onward, over the cached keys and values plus their own.

    Writes the rows' keys and values into the cache of `layer`; `mask`
    ([rows x cache.length + rows], or None for all visible) hides entries.
    Off the tape: the attention itself is tensor.attend on the cache slices.
    """
    start, stop = cache.length, cache.length + x.shape[0]
    q, k, v = split_heads(matmul(x, block.attn_qkv).data, n_heads)
    cache.keys[layer, :, start:stop] = k
    cache.values[layer, :, start:stop] = v
    heads, _ = attend(q, cache.keys[layer, :, :stop], cache.values[layer, :, :stop], mask)
    return matmul(Tensor(heads), block.attn_out)


class Model:
    """Config + params bundle. forward() is pure; params are shared state."""

    def __init__(self, config: ModelConfig, params: ModelParams):
        self.config = config
        self.params = params

    def embed(self, token_ids, start: int = 0) -> Tensor:
        """Token plus position embeddings of tokens at positions start onward."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        stop = start + token_ids.shape[0]
        if stop > self.config.max_positions:
            raise ValueError(
                f"sequence of {stop} tokens exceeds max_positions "
                f"{self.config.max_positions}"
            )
        tok = embedding_rows(self.params.embed_token, token_ids)
        pos = slice_rows(self.params.embed_pos, start, stop)
        return add(tok, pos)

    def _head(self, x: Tensor) -> Tensor:
        """Final layer norm, then the LM head tied to the token embedding."""
        x = layer_norm(x, self.params.final_ln_gamma, self.params.final_ln_beta, LN_EPS)
        return matmul(x, transpose(self.params.embed_token))

    def forward(self, token_ids, mask: np.ndarray) -> Tensor:
        """Next-token logits [T x vocab_size] under the given attention mask."""
        x = self.embed(token_ids)
        for block in self.params.blocks:
            x = block_forward(x, mask, block, self.config.n_heads, self.config.activation)
        return self._head(x)

    def prefill(self, token_ids, m: int, capacity: int | None = None):
        """Run a prompt of m source tokens (then target tokens) once under
        the prefix mask; returns (next-token logits of its last row, cache).

        The cache holds room for `capacity` positions (default
        max_positions), so that step() can add capacity - len(token_ids).
        """
        t = len(token_ids)
        capacity = self.config.max_positions if capacity is None else capacity
        if not t <= capacity <= self.config.max_positions:
            raise ValueError(
                f"cache capacity {capacity} must cover the {t}-token prompt and "
                f"stay within max_positions {self.config.max_positions}"
            )
        mask = build_prefix_mask(m, t - m)
        dtype = self.params.embed_token.dtype
        shape = (self.config.n_layers, self.config.n_heads, capacity, self.config.d_k)
        cache = KVCache(np.empty(shape, dtype), np.empty(shape, dtype))
        logits = self._extend(cache, token_ids, mask)
        return logits, cache

    def step(self, cache: KVCache, token_id: int) -> np.ndarray:
        """Append one token after the cached positions; its next-token logits."""
        if cache.length >= cache.capacity:
            raise ValueError(f"cache is full at {cache.capacity} positions")
        return self._extend(cache, [token_id], None)

    def _extend(self, cache: KVCache, token_ids, mask) -> np.ndarray:
        if active_tape() is not None:
            raise GraphError("incremental decoding runs outside any tape")
        x = self.embed(token_ids, cache.length)
        for layer, block in enumerate(self.params.blocks):
            x = _residual_block(
                x, block, self.config.activation,
                lambda h: _cached_attention(h, block, self.config.n_heads, cache, layer, mask),
            )
        cache.length += len(token_ids)
        return self._head(slice_rows(x, x.shape[0] - 1, x.shape[0])).data[0]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def param_spec(config: ModelConfig):
    """(file name, shape, init) of every tensor, in file order."""
    d, h = config.d_model, config.d_ff
    yield "embed_token", (config.vocab_size, d), "normal"
    yield "embed_pos", (config.max_positions, d), "normal"
    for i in range(config.n_layers):
        for _, name, shape, init in _BLOCK_TENSORS:
            yield f"block{i}.{name}", shape(d, h), init
    yield "final_ln.gamma", (d,), "ones"
    yield "final_ln.beta", (d,), "zeros"


def _build_params(config: ModelConfig, arrays, dtype) -> ModelParams:
    """ModelParams from arrays given in param_spec order."""
    leaves = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
    params = ModelParams(embed_token=next(leaves), embed_pos=next(leaves))
    for _ in range(config.n_layers):
        params.blocks.append(BlockParams(**{row[0]: next(leaves) for row in _BLOCK_TENSORS}))
    params.final_ln_gamma = next(leaves)
    params.final_ln_beta = next(leaves)
    return params


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Weights ~ N(0, 0.02), biases 0, layer-norm gamma 1 / beta 0."""
    rng = np.random.default_rng(seed)
    make = {
        "normal": lambda shape: rng.normal(0.0, INIT_STD, size=shape),
        "ones": np.ones,
        "zeros": np.zeros,
    }
    arrays = (make[init](shape) for _, shape, init in param_spec(config))
    return _build_params(config, arrays, dtype)


def param_count(config: ModelConfig) -> int:
    """Parameter total implied by the config (LM head is tied, adds nothing)."""
    return sum(math.prod(shape) for _, shape, _ in param_spec(config))


# ---------------------------------------------------------------------------
# tensor-map weights file
# ---------------------------------------------------------------------------

_MAGIC = b"PFXLM1"


def write_tensor_map(path, items, meta_step: int | None = None):
    """Write (name, array) pairs: text header/meta lines, raw f32 payloads.

    The file is written beside `path` and then renamed over it, so a crash
    mid-write leaves any previous file at `path` intact.
    """
    items = list(items)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC + b" " + str(len(items)).encode() + b"\n")
            for name, arr in items:
                arr = np.ascontiguousarray(arr, dtype="<f4")
                dims = " ".join(str(s) for s in arr.shape)
                f.write(f"{name}\t{arr.ndim}\t{dims}\n".encode())
                f.write(arr.tobytes())
            if meta_step is not None:
                f.write(f"meta\t{meta_step}\n".encode())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_MAX_LINE = 1 << 16  # header, tensor and meta lines are far shorter


def _read_line(f, path) -> bytes:
    line = f.readline(_MAX_LINE + 1)
    if not line:
        raise WeightFileError(f"{path}: unexpected end of file")
    if len(line) > _MAX_LINE:
        raise WeightFileError(f"{path}: line longer than {_MAX_LINE} bytes")
    return line.removesuffix(b"\n")


def read_tensor_map(path):
    """Inverse of write_tensor_map: ({name: float32 array}, meta step or None).

    Every read is bounded by the bytes left in the file, so a corrupt header
    fails with WeightFileError instead of asking for a huge allocation.
    """
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = _read_line(f, path).split(b" ")
        if len(header) != 2 or header[0] != _MAGIC:
            raise WeightFileError(f"{path}: bad header (expected {_MAGIC.decode()})")
        try:
            count = int(header[1])
        except ValueError as e:
            raise WeightFileError(f"{path}: bad tensor count") from e
        for _ in range(count):
            try:
                fields = _read_line(f, path).decode("utf-8").split("\t")
            except UnicodeDecodeError as e:
                raise WeightFileError(f"{path}: tensor line is not UTF-8") from e
            if len(fields) != 3:
                raise WeightFileError(f"{path}: malformed tensor line {fields!r}")
            name, rank_s, dims_s = fields
            try:
                rank = int(rank_s)
                dims = tuple(int(x) for x in dims_s.split()) if dims_s else ()
            except ValueError as e:
                raise WeightFileError(f"{path}: bad dims for {name!r}") from e
            if len(dims) != rank or any(d < 0 for d in dims):
                raise WeightFileError(f"{path}: bad dims {dims} for {name!r}")
            nbytes = 4 * math.prod(dims)
            left = size - f.tell()
            if nbytes > left:
                raise WeightFileError(
                    f"{path}: truncated payload for {name!r}: "
                    f"{nbytes} bytes needed, {left} left"
                )
            payload = f.read(nbytes)
            if len(payload) != nbytes:
                raise WeightFileError(f"{path}: truncated payload for {name!r}")
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        meta_step = None
        trailer = f.read(_MAX_LINE + 1)
        if trailer:
            fields = trailer.rstrip(b"\n").split(b"\t")
            if len(trailer) > _MAX_LINE or len(fields) != 2 or fields[0] != b"meta":
                raise WeightFileError(f"{path}: unexpected trailing data")
            try:
                meta_step = int(fields[1])
            except ValueError as e:
                raise WeightFileError(f"{path}: bad meta step {fields[1]!r}") from e
    return tensors, meta_step


def params_from_tensors(
    tensors, config: ModelConfig, dtype=np.float32, source="tensor map"
) -> ModelParams:
    """Validate a {name: array} map against the config and build params."""
    expected = {name: shape for name, shape, _ in param_spec(config)}
    missing = sorted(set(expected) - set(tensors))
    if missing:
        raise WeightFileError(f"{source}: missing tensor {missing[0]!r}")
    extra = sorted(set(tensors) - set(expected))
    if extra:
        raise WeightFileError(f"{source}: unexpected tensor {extra[0]!r}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise WeightFileError(
                f"{source}: {name!r} has shape {tensors[name].shape}, expected {shape}"
            )
        if not np.all(np.isfinite(tensors[name])):
            raise WeightFileError(f"{source}: {name!r} contains non-finite values")
    return _build_params(config, (tensors[name] for name in expected), dtype)
