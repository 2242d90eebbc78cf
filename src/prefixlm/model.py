"""Decoder-style transformer with pre-layer-norm blocks and a prefix LM rule.

The stack is: token + learned position embeddings, N blocks of masked
multi-head self-attention and a position-wise ReLU feed-forward sublayer
(layer norm applied before each sublayer, residual around both), a final layer
norm, and a language-model head tied to the token embedding. Visibility is
one number per sequence, its source length m: the query at position p sees
key j when j < m or j <= p (bidirectional source, causal target; m <= 1 is
the causal language model). Attention applies this rule itself;
Model.forward takes it as a dense 0/-inf mask (build_prefix_mask).
One forward, Model.forward_rows (a layer loop over block_forward, whose
attention is the fused tensor.attention op), serves training and
incremental decoding. It takes one or more sequences packed side by side as
(token_ids, m, rows), each attending only within itself from position 0,
and returns logits for a range of each sequence's rows only: the last block
needs keys and values from every row, but its queries, output projection,
residuals, feed-forward sublayer, the final layer norm and the head run on
those ranges alone. Training asks for the rows that predict the target
tokens, decoding for the last row; Model.forward is the all-rows form of
one sequence. Model.prefill and Model.step also pass each layer's slice of
a key/value cache, so new rows attend over the cached positions too.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .data import _write_atomic
from .tensor import (
    ShapeError,
    Tensor,
    add,
    attention,
    embedding_rows,
    layer_norm,
    matmul,
    query_ranges,
    relu,
    slice_rows,
    transpose,
)

__all__ = [
    "ModelConfig",
    "ModelParams",
    "Model",
    "WeightFileError",
    "NEG_INF",
    "LN_EPS",
    "build_causal_mask",
    "build_prefix_mask",
    "block_forward",
    "KVCache",
    "param_spec",
    "init_params",
    "param_count",
    "params_from_tensors",
    "check_tensors",
    "write_tensor_map",
    "read_tensor_map",
]

NEG_INF = float("-inf")
LN_EPS = 1e-5
INIT_STD = 0.02


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

    def __post_init__(self):
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size", "max_positions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads


# One row per block tensor, in file order: name within the block, shape
# from (d_model, d_ff), and init (normal draws, ones or zeros). attn_qkv
# fuses the query, key and value projections.
_BLOCK_TENSORS = (
    ("ln1.weight", lambda d, h: (d,), "ones"),
    ("ln1.bias", lambda d, h: (d,), "zeros"),
    ("attn_qkv.weight", lambda d, h: (d, 3 * d), "normal"),
    ("attn_out.weight", lambda d, h: (d, d), "normal"),
    ("ln2.weight", lambda d, h: (d,), "ones"),
    ("ln2.bias", lambda d, h: (d,), "zeros"),
    ("ffn_w1.weight", lambda d, h: (d, h), "normal"),
    ("ffn_b1.bias", lambda d, h: (h,), "zeros"),
    ("ffn_w2.weight", lambda d, h: (h, d), "normal"),
    ("ffn_b2.bias", lambda d, h: (d,), "zeros"),
)


@functools.cache
def _block_keys(i: int) -> tuple:
    """(name within the block, weights-file name) of layer i's tensors. Cached:
    decoding looks a layer's tensors up once per token."""
    return tuple((name, f"block{i}.{name}") for name, _, _ in _BLOCK_TENSORS)


class ModelParams(dict):
    """All learnable weights, {weights-file name: Tensor} in param_spec order.
    The LM head is embed_token transposed (tied)."""

    def named(self):
        return self.items()

    def zero_grads(self):
        for p in self.values():
            p.zero_grad()

    def block(self, i: int) -> dict:
        """Layer i's tensors, keyed by their names within the block."""
        return {name: self[key] for name, key in _block_keys(i)}


# ---------------------------------------------------------------------------
# attention masks
# ---------------------------------------------------------------------------


def build_causal_mask(t: int) -> np.ndarray:
    """0 on and below the diagonal, -inf strictly above: no future peeking.
    A prefix mask over a one-token source is exactly this."""
    if t < 1:
        raise ValueError("mask length must be >= 1")
    return build_prefix_mask(1, t - 1)


def build_prefix_mask(m: int, n: int) -> np.ndarray:
    """Bidirectional over the m source positions, causal over the n target
    positions, with every target position seeing the whole source and the
    source never seeing the target."""
    if m < 1:
        raise ValueError("prefix mask needs a nonempty source (m >= 1)")
    if n < 0:
        raise ValueError("target length must be >= 0")
    t = m + n
    mask = np.zeros((t, t), dtype=np.float32)
    mask[:m, m:] = NEG_INF
    tgt = np.triu_indices(n, k=1)
    mask[m + tgt[0], m + tgt[1]] = NEG_INF
    return mask


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------


def block_forward(x: Tensor, segments, block, n_heads: int, cache=None) -> Tensor:
    """Pre-LN residual block: attention sublayer, then feed-forward sublayer.

    The rows of x hold the sequences `segments` = [(n, m, (a, b)), ...], as
    in tensor.attention: n rows, source length m and query rows a to b. Every
    row feeds the keys and values; only each segment's query rows are carried
    on through the output projection, the residuals and the feed-forward
    sublayer, so the result stacks those rows. `block` maps the names of _BLOCK_TENSORS to
    the layer's tensors; `cache` is as in tensor.attention.
    """
    qkv = matmul(layer_norm(x, block["ln1.weight"], block["ln1.bias"], LN_EPS),
                 block["attn_qkv.weight"])
    # copied only when some segment leaves rows out: not for a decode step's one row
    if any(b - a < n for n, _, (a, b) in segments):
        x = slice_rows(x, query_ranges(segments))
    h = add(matmul(attention(qkv, segments, n_heads, cache), block["attn_out.weight"]), x)
    hidden = layer_norm(h, block["ln2.weight"], block["ln2.bias"], LN_EPS)
    hidden = add(matmul(hidden, block["ffn_w1.weight"]), block["ffn_b1.bias"])
    hidden = relu(hidden)
    return add(add(matmul(hidden, block["ffn_w2.weight"]), block["ffn_b2.bias"]), h)


# ---------------------------------------------------------------------------
# incremental decoding
# ---------------------------------------------------------------------------


@dataclass
class KVCache:
    """Keys and values of every layer for the first `length` positions.

    Under the prefix rule no position attends to a later one,
    so a row's keys and values never change once computed: decoding one
    more token needs only that token's row in each layer.
    """

    keys: np.ndarray  # n_layers x n_heads x max_positions x d_k
    values: np.ndarray  # same shape as keys
    length: int = 0


class Model:
    """Config + params bundle. forward() is pure; params are shared state."""

    def __init__(self, config: ModelConfig, params: ModelParams):
        self.config = config
        self.params = params

    def embed(self, token_ids, positions) -> Tensor:
        """Token plus position embeddings. `positions` gives the (start, stop)
        positions of each sequence packed in token_ids, in order. The one check
        of a sequence against max_positions, made before any op runs or any
        cache row is written."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        for _, stop in positions:
            if stop > self.config.max_positions:
                raise ValueError(
                    f"sequence of {stop} tokens exceeds max_positions "
                    f"{self.config.max_positions}"
                )
        tok = embedding_rows(self.params["embed_token"], token_ids)
        return add(tok, slice_rows(self.params["embed_pos"], positions))

    def _head(self, x: Tensor) -> Tensor:
        """Final layer norm, then the LM head tied to the token embedding."""
        p = self.params
        x = layer_norm(x, p["final_ln.gamma"], p["final_ln.beta"], LN_EPS)
        return matmul(x, transpose(p["embed_token"]))

    def forward(self, token_ids, mask: np.ndarray) -> Tensor:
        """Next-token logits [T x vocab_size] of one sequence under a dense
        mask, which must be build_prefix_mask(m, T - m) for the m keys its
        first row sees (a causal mask is m = 1)."""
        t, mask = len(token_ids), np.asarray(mask)
        m = int(np.count_nonzero(mask[0] == 0)) if t and mask.shape == (t, t) else 0
        if not m or not np.array_equal(mask, build_prefix_mask(m, t - m)):
            raise ShapeError(f"mask of shape {mask.shape} is not a causal or prefix "
                             f"mask over {t} tokens")
        return self.forward_rows([(token_ids, m, (0, t))])

    def forward_rows(self, segments, cache: KVCache | None = None) -> Tensor:
        """Next-token logits of the sequences `segments` = [(token_ids, m,
        rows), ...], packed side by side: each starts at position 0, attends
        only within itself under the prefix rule of its source length m (as in
        tensor.attention), and gives the logits of its rows `rows` = (a, b),
        (0, n) for all n of them, stacked in order. Every block but the last
        runs on all rows; the last block and the head run on the rows.
        With a cache there is one sequence, at positions cache.length onward,
        and each layer writes its keys and values into its slice of the cache
        (cache.length is left as it was)."""
        start = 0 if cache is None else cache.length
        cut = [(len(ids), m, rows) for ids, m, rows in segments]
        every = [(n, m, (0, n)) for n, m, _ in cut]
        x = self.embed(np.concatenate([np.asarray(ids, dtype=np.int64) for ids, _, _ in segments]),
                       [(start, start + n) for n, _, _ in cut])
        last = self.config.n_layers - 1
        for layer in range(self.config.n_layers):
            kv = None if cache is None else (cache.keys[layer], cache.values[layer], start)
            x = block_forward(x, cut if layer == last else every, self.params.block(layer),
                              self.config.n_heads, kv)
        return self._head(x)

    def prefill(self, token_ids, m: int):
        """Run a prompt of m source tokens (then target tokens) once under
        the prefix rule; returns (next-token logits of its last row, cache).

        The cache has a row for each of the max_positions positions, left
        uninitialized: rows that decoding never reaches are never touched.
        """
        dtype = self.params["embed_token"].dtype
        c = self.config
        shape = (c.n_layers, c.n_heads, c.max_positions, c.d_k)
        cache = KVCache(np.empty(shape, dtype), np.empty(shape, dtype))
        return self._extend(cache, token_ids, m), cache

    def step(self, cache: KVCache, token_id: int) -> np.ndarray:
        """Append one token after the cached positions; its next-token logits."""
        return self._extend(cache, [token_id], 0)  # the last position sees every key

    def _extend(self, cache: KVCache, token_ids, m: int) -> np.ndarray:
        t = len(token_ids)
        logits = self.forward_rows([(token_ids, m, (t - 1, t))], cache)
        cache.length += t
        return logits.data[0]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def param_spec(config: ModelConfig):
    """(file name, shape, init) of every tensor, in file order."""
    d, h = config.d_model, config.d_ff
    yield "embed_token", (config.vocab_size, d), "normal"
    yield "embed_pos", (config.max_positions, d), "normal"
    for i in range(config.n_layers):
        for name, shape, init in _BLOCK_TENSORS:
            yield f"block{i}.{name}", shape(d, h), init
    yield "final_ln.gamma", (d,), "ones"
    yield "final_ln.beta", (d,), "zeros"


def _build_params(config: ModelConfig, arrays, dtype) -> ModelParams:
    """ModelParams from arrays given in param_spec order."""
    names = (name for name, _, _ in param_spec(config))
    return ModelParams(
        (name, Tensor(a, requires_grad=True, dtype=dtype)) for name, a in zip(names, arrays)
    )


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


def write_tensor_map(path, items, meta_step: int):
    """Write (name, array) pairs: text header/meta lines, raw f32 payloads.

    The file reaches disk through data._write_atomic, so a crash mid-write
    leaves any previous file at `path` intact. A repeated name or a negative
    meta step, which read_tensor_map would refuse, is refused before anything
    is written.
    """
    if meta_step < 0:
        raise WeightFileError(f"{path}: bad meta step {meta_step!r}")
    items = list(items)
    seen = set()
    for name, _ in items:
        if name in seen:
            raise WeightFileError(f"{path}: repeated tensor {name!r}")
        seen.add(name)

    def chunks():
        yield _MAGIC + b" " + str(len(items)).encode() + b"\n"
        for name, arr in items:
            arr = np.ascontiguousarray(arr, dtype="<f4")
            dims = " ".join(str(s) for s in arr.shape)
            yield f"{name}\t{arr.ndim}\t{dims}\n".encode()
            yield arr.tobytes()
        yield f"meta\t{meta_step}\n".encode()

    _write_atomic(path, chunks())


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
            if name in tensors:
                raise WeightFileError(f"{path}: repeated tensor {name!r}")
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
            try:
                tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
            except ValueError as e:  # an empty payload under extents numpy cannot hold
                raise WeightFileError(f"{path}: bad dims {dims} for {name!r}") from e
        meta_step = None
        trailer = f.read(_MAX_LINE + 1)
        if trailer:
            fields = trailer.rstrip(b"\n").split(b"\t")
            if len(trailer) > _MAX_LINE or len(fields) != 2 or fields[0] != b"meta":
                raise WeightFileError(f"{path}: unexpected trailing data")
            if not fields[1].isdigit():  # a step count: no sign, no spaces
                raise WeightFileError(f"{path}: bad meta step {fields[1]!r}")
            meta_step = int(fields[1])
    return tensors, meta_step


def params_from_tensors(tensors, config: ModelConfig, source) -> ModelParams:
    """Validate a {name: array} map against the config and build float32 params."""
    expected = {name: shape for name, shape, _ in param_spec(config)}
    check_tensors(tensors, expected, source)
    return _build_params(config, (tensors[name] for name in expected), np.float32)


def check_tensors(tensors, expected, source):
    """Raise WeightFileError unless `tensors` ({name: array}) holds exactly the
    names of `expected` ({name: shape}), each with that shape and finite."""
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
