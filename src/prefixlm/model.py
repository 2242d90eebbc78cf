"""Decoder-style transformer with pre-layer-norm blocks and pluggable masks.

The stack is: token + learned position embeddings, N blocks of masked
multi-head self-attention and a position-wise feed-forward sublayer (layer
norm applied before each sublayer, residual around both), a final layer
norm, and a language-model head tied to the token embedding. Attention
masks are plain float matrices with 0 (visible) and -inf (hidden) entries;
the causal and prefix builders below cover training and generation.
Model.prefill and Model.step decode incrementally over a key/value cache.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    GraphError,
    ShapeError,
    Tensor,
    active_tape,
    add,
    concat_cols,
    embedding_rows,
    gelu,
    layer_norm,
    matmul,
    relu,
    scale,
    slice_cols,
    slice_rows,
    softmax_rows,
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
    "masked_attention",
    "multi_head_self_attention",
    "ffn",
    "block_forward",
    "KVCache",
    "init_params",
    "param_count",
    "export_weights",
    "import_weights",
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
        yield f"{prefix}.ln1.weight", self.ln1_gamma
        yield f"{prefix}.ln1.bias", self.ln1_beta
        yield f"{prefix}.attn_qkv.weight", self.attn_qkv
        yield f"{prefix}.attn_out.weight", self.attn_out
        yield f"{prefix}.ln2.weight", self.ln2_gamma
        yield f"{prefix}.ln2.bias", self.ln2_beta
        yield f"{prefix}.ffn_w1.weight", self.ffn_w1
        yield f"{prefix}.ffn_b1.bias", self.ffn_b1
        yield f"{prefix}.ffn_w2.weight", self.ffn_w2
        yield f"{prefix}.ffn_b2.bias", self.ffn_b2


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


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray) -> Tensor:
    """softmax(q k^T / sqrt(d_k) + mask) v for one head."""
    t, d_k = q.shape
    if k.shape != (t, d_k) or v.shape != (t, d_k):
        raise ShapeError(f"attention shapes differ: {q.shape}/{k.shape}/{v.shape}")
    if mask.shape != (t, t):
        raise ShapeError(f"mask must be ({t}, {t}), got {mask.shape}")
    scores = scale(matmul(q, transpose(k)), 1.0 / np.sqrt(d_k))
    scores = add(scores, Tensor(np.asarray(mask, dtype=scores.dtype)))
    return matmul(softmax_rows(scores), v)


def multi_head_self_attention(
    x: Tensor, mask: np.ndarray, block: BlockParams, n_heads: int
) -> Tensor:
    d_model = x.shape[1]
    d_k = d_model // n_heads
    qkv = matmul(x, block.attn_qkv)  # T x 3*d_model
    heads = []
    for i in range(n_heads):
        q = slice_cols(qkv, i * d_k, (i + 1) * d_k)
        k = slice_cols(qkv, d_model + i * d_k, d_model + (i + 1) * d_k)
        v = slice_cols(qkv, 2 * d_model + i * d_k, 2 * d_model + (i + 1) * d_k)
        heads.append(masked_attention(q, k, v, mask))
    return matmul(concat_cols(heads), block.attn_out)


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
    Off the tape: the attention itself is plain numpy.
    """
    t, d_model = x.shape
    d_k = d_model // n_heads
    start, stop = cache.length, cache.length + t
    # [3, H, t, d_k] view of the fused projection
    q, k, v = matmul(x, block.attn_qkv).data.reshape(t, 3, n_heads, d_k).transpose(1, 2, 0, 3)
    cache.keys[layer, :, start:stop] = k
    cache.values[layer, :, start:stop] = v
    keys = cache.keys[layer, :, :stop]
    scores = np.matmul(q, keys.transpose(0, 2, 1)) * np.asarray(
        1.0 / np.sqrt(d_k), dtype=keys.dtype
    )
    if mask is not None:
        scores += np.asarray(mask, dtype=scores.dtype)
    weights = softmax_rows(Tensor(scores.reshape(n_heads * t, stop))).data
    heads = np.matmul(weights.reshape(n_heads, t, stop), cache.values[layer, :, :stop])
    return matmul(Tensor(heads.transpose(1, 0, 2).reshape(t, d_model)), block.attn_out)


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
        if mask.shape != (x.shape[0], x.shape[0]):
            raise ShapeError(
                f"mask shape {mask.shape} does not match sequence {x.shape[0]}"
            )
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


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Weights ~ N(0, 0.02), biases 0, layer-norm gamma 1 / beta 0."""
    rng = np.random.default_rng(seed)
    d, h = config.d_model, config.d_ff

    def weight(*shape):
        return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True, dtype=dtype)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True, dtype=dtype)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True, dtype=dtype)

    params = ModelParams(
        embed_token=weight(config.vocab_size, d),
        embed_pos=weight(config.max_positions, d),
    )
    for _ in range(config.n_layers):
        params.blocks.append(
            BlockParams(
                ln1_gamma=ones(d),
                ln1_beta=zeros(d),
                attn_qkv=weight(d, 3 * d),
                attn_out=weight(d, d),
                ln2_gamma=ones(d),
                ln2_beta=zeros(d),
                ffn_w1=weight(d, h),
                ffn_b1=zeros(h),
                ffn_w2=weight(h, d),
                ffn_b2=zeros(d),
            )
        )
    params.final_ln_gamma = ones(d)
    params.final_ln_beta = zeros(d)
    return params


def param_count(config: ModelConfig) -> int:
    """Parameter total implied by the config (LM head is tied, adds nothing)."""
    d, h = config.d_model, config.d_ff
    per_block = 2 * d + d * 3 * d + d * d + 2 * d + d * h + h + h * d + d
    return (
        config.vocab_size * d
        + config.max_positions * d
        + config.n_layers * per_block
        + 2 * d
    )


# ---------------------------------------------------------------------------
# tensor-map weights file
# ---------------------------------------------------------------------------

_MAGIC = b"PFXLM1"


def write_tensor_map(path, items, meta_step: int | None = None):
    """Write (name, array) pairs: text header/meta lines, raw f32 payloads."""
    items = list(items)
    with open(path, "wb") as f:
        f.write(_MAGIC + b" " + str(len(items)).encode() + b"\n")
        for name, arr in items:
            arr = np.ascontiguousarray(arr, dtype="<f4")
            dims = " ".join(str(s) for s in arr.shape)
            f.write(f"{name}\t{arr.ndim}\t{dims}\n".encode())
            f.write(arr.tobytes())
        if meta_step is not None:
            f.write(f"meta\t{meta_step}\n".encode())


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


def _expected_shapes(config: ModelConfig) -> dict[str, tuple]:
    d, h = config.d_model, config.d_ff
    shapes = {
        "embed_token": (config.vocab_size, d),
        "embed_pos": (config.max_positions, d),
        "final_ln.gamma": (d,),
        "final_ln.beta": (d,),
    }
    for i in range(config.n_layers):
        p = f"block{i}"
        shapes[f"{p}.ln1.weight"] = (d,)
        shapes[f"{p}.ln1.bias"] = (d,)
        shapes[f"{p}.attn_qkv.weight"] = (d, 3 * d)
        shapes[f"{p}.attn_out.weight"] = (d, d)
        shapes[f"{p}.ln2.weight"] = (d,)
        shapes[f"{p}.ln2.bias"] = (d,)
        shapes[f"{p}.ffn_w1.weight"] = (d, h)
        shapes[f"{p}.ffn_b1.bias"] = (h,)
        shapes[f"{p}.ffn_w2.weight"] = (h, d)
        shapes[f"{p}.ffn_b2.bias"] = (d,)
    return shapes


def export_weights(params: ModelParams, path):
    write_tensor_map(path, ((name, p.data) for name, p in params.named()))


def import_weights(path, config: ModelConfig, dtype=np.float32) -> ModelParams:
    """Load a tensor map into ModelParams, validating names and shapes."""
    tensors, _ = read_tensor_map(path)
    return params_from_tensors(tensors, config, dtype=dtype, source=str(path))


def params_from_tensors(
    tensors, config: ModelConfig, dtype=np.float32, source="tensor map"
) -> ModelParams:
    """Validate a {name: array} map against the config and build params."""
    path = source
    expected = _expected_shapes(config)
    missing = sorted(set(expected) - set(tensors))
    if missing:
        raise WeightFileError(f"{path}: missing tensor {missing[0]!r}")
    extra = sorted(set(tensors) - set(expected))
    if extra:
        raise WeightFileError(f"{path}: unexpected tensor {extra[0]!r}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise WeightFileError(
                f"{path}: {name!r} has shape {tensors[name].shape}, expected {shape}"
            )
        if not np.all(np.isfinite(tensors[name])):
            raise WeightFileError(f"{path}: {name!r} contains non-finite values")

    def leaf(name):
        return Tensor(tensors[name], requires_grad=True, dtype=dtype)

    params = ModelParams(embed_token=leaf("embed_token"), embed_pos=leaf("embed_pos"))
    for i in range(config.n_layers):
        p = f"block{i}"
        params.blocks.append(
            BlockParams(
                ln1_gamma=leaf(f"{p}.ln1.weight"),
                ln1_beta=leaf(f"{p}.ln1.bias"),
                attn_qkv=leaf(f"{p}.attn_qkv.weight"),
                attn_out=leaf(f"{p}.attn_out.weight"),
                ln2_gamma=leaf(f"{p}.ln2.weight"),
                ln2_beta=leaf(f"{p}.ln2.bias"),
                ffn_w1=leaf(f"{p}.ffn_w1.weight"),
                ffn_b1=leaf(f"{p}.ffn_b1.bias"),
                ffn_w2=leaf(f"{p}.ffn_w2.weight"),
                ffn_b2=leaf(f"{p}.ffn_b2.bias"),
            )
        )
    params.final_ln_gamma = leaf("final_ln.gamma")
    params.final_ln_beta = leaf("final_ln.beta")
    return params
