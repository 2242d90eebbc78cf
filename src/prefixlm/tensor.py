"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 for training throughput, float64 for
gradient checking). Every operation run while a ComputationTape is active
records itself on it; backward() replays the tape in reverse and adds
gradients into every tensor those operations touched.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "ComputationTape",
    "ShapeError",
    "GraphError",
    "matmul",
    "transpose",
    "add",
    "relu",
    "attention",
    "query_ranges",
    "layer_norm",
    "cross_entropy",
    "embedding_rows",
    "slice_rows",
    "backward",
]


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation."""


class GraphError(RuntimeError):
    """Misuse of the computation tape (e.g. backward on an off-tape value)."""


_FLOAT_DTYPES = (np.float32, np.float64)
DEFAULT_DTYPE = np.float32

_active_tape = None


class ComputationTape:
    """Execution-ordered record of differentiable operations.

    Single-threaded by design: one tape per training step. Entering the
    context makes the tape active, and every op executed while it is active
    is recorded on it.
    """

    def __init__(self):
        self._records = []  # (output, inputs, backward_fn), execution order

    def __enter__(self):
        global _active_tape
        if _active_tape is not None:
            raise GraphError("a computation tape is already active")
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active_tape
        _active_tape = None
        return False

    def __len__(self):
        return len(self._records)


class Tensor:
    """A dense n-dimensional value; `tape` is the tape that recorded it.

    `data` is always a float32 or float64 numpy array. `grad` is None until
    the first gradient reaches the tensor, leaf and tape output alike;
    gradients then accumulate across backward calls until `zero_grad()`.
    """

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        """Drop the accumulated gradient; the next one starts afresh."""
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


def _accumulate(t: Tensor, g: np.ndarray, at=None):
    """Add g into t.grad, which the first gradient creates as zeros: into the
    whole array, into a row slice `at`, or at row ids `at` that may repeat."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if at is None:
        t.grad += g  # not t.grad[...] += g, which writes the array back onto itself
    elif isinstance(at, slice):
        t.grad[at] += g
    else:
        np.add.at(t.grad, at, g)


def _wrap(data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Make an op output, recorded on the active tape if there is one. `data`
    is already a float32 or float64 array: Tensor.__init__'s conversion is skipped."""
    out = object.__new__(Tensor)
    out.data, out.grad, out.tape = data, None, _active_tape
    if _active_tape is not None:
        _active_tape._records.append((out, inputs, backward_fn))
    return out


def backward(loss: Tensor):
    """Populate gradients of everything `loss` depends on.

    `loss` must be a scalar produced on a tape. Gradients sum into `.grad`
    buffers; what the loss does not reach keeps its gradient (None after
    `zero_grad`). Consumes the tape: each record is dropped once replayed, so
    activations are freed during the pass, and a second backward raises.
    """
    if loss.tape is None:
        raise GraphError("backward() on a value that is not on a tape")
    if loss.data.shape != ():
        raise ShapeError(f"backward() needs a scalar, got shape {loss.shape}")
    records = loss.tape._records
    if not records:
        raise GraphError("backward() on a tape that was already replayed")
    _accumulate(loss, np.ones((), dtype=loss.dtype))
    while records:
        out, _, backward_fn = records.pop()
        if out.grad is not None:  # None: not reached from this loss
            backward_fn(out.grad)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m x k] and b [k x n]."""
    x, y = a.data, b.data
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {x.shape} and {y.shape}")
    if x.shape[1] != y.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {x.shape} x {y.shape}")

    def bw(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _wrap(x @ y, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    """The transposed view of a [m x n]; shares memory with its operand."""
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d operand, got {a.shape}")

    def bw(g):
        _accumulate(a, g.T)

    return _wrap(a.data.T, (a,), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also broadcasts b [c] over the rows of a [r x c]."""
    x, y = a.data, b.data
    if x.shape == y.shape:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, g)
    elif x.ndim == 2 and y.ndim == 1 and y.shape[0] == x.shape[1]:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0))
    else:
        raise ShapeError(f"add shapes incompatible: {x.shape} + {y.shape}")
    return _wrap(x + y, (a, b), bw)


# ---------------------------------------------------------------------------
# activations and normalization
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, g * (a.data > 0))

    return _wrap(np.maximum(a.data, 0), (a,), bw)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilized by per-row max subtraction.

    -inf entries (masked positions) come out exactly 0. A row that is
    entirely -inf has no valid distribution and raises.
    """
    m = x.max(axis=-1, keepdims=True)
    if (m == -np.inf).any():
        raise ValueError("softmax: row is entirely -inf (degenerate row)")
    e = x - m
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=1, keepdims=True), bit for bit, without ndarray.mean's
    Python wrapper: the same row sums, divided by the row length."""
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Per-row normalization to mean 0 / variance 1, then scale and shift."""
    data = x.data
    if data.ndim != 2:
        raise ShapeError(f"layer_norm needs a 2-d operand, got {data.shape}")
    d = data.shape[1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gamma/beta must be ({d},), got {gamma.shape}/{beta.shape}"
        )
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    centred = data - _row_mean(data)
    var = _row_mean(centred * centred)  # population variance
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv

    def bw(g):
        _accumulate(beta, g.sum(axis=0))
        _accumulate(gamma, (g * xhat).sum(axis=0))
        dxhat = g * gamma.data
        row_mean = _row_mean(dxhat)
        row_proj = _row_mean(dxhat * xhat)
        _accumulate(x, inv * (dxhat - row_mean - xhat * row_proj))

    return _wrap(xhat * gamma.data + beta.data, (x, gamma, beta), bw)


def cross_entropy(logits: Tensor, targets, weights) -> Tensor:
    """Weighted negative log-likelihood: the sum over rows of the row's
    weight times -log softmax(row)[target].

    `targets` holds one class id per row of `logits` and `weights` one weight
    per row; weights of 1/rows give the mean, and a row of weight 0 is left out.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy needs 2-d logits, got {logits.shape}")
    t, v = logits.shape
    if t == 0:
        raise ValueError("cross_entropy: no rows to score")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (t,):
        raise ShapeError(f"targets must have shape ({t},), got {targets.shape}")
    weights = np.asarray(weights, dtype=logits.dtype)
    if weights.shape != (t,):
        raise ShapeError(f"weights must have shape ({t},), got {weights.shape}")
    if targets.min() < 0 or targets.max() >= v:
        raise ValueError("cross_entropy: target id out of vocabulary range")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(t)
    loss = -(weights * logp[rows, targets]).sum()

    def bw(g):
        d = np.exp(logp)
        d[rows, targets] -= 1.0
        d *= (weights * g)[:, None]
        _accumulate(logits, d)

    return _wrap(np.asarray(loss, dtype=logits.dtype), (logits,), bw)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def _split_heads(qkv: np.ndarray, n_heads: int) -> np.ndarray:
    """The [3, H, t, d_k] view of a fused [t x 3*d] query|key|value projection."""
    return qkv.reshape(qkv.shape[0], 3, n_heads, -1).transpose(1, 2, 0, 3)


def query_ranges(segments):
    """(first, stop) of each segment's query rows among the packed rows."""
    ranges, offset = [], 0
    for n, _, (a, b) in segments:
        ranges.append((offset + a, offset + b))
        offset += n
    return ranges


def attention(qkv: Tensor, segments, n_heads: int, cache=None) -> Tensor:
    """Multi-head self-attention of a fused [t x 3*d] query|key|value
    projection: softmax(q k^T / sqrt(d_k)) v per head over the visible keys,
    the result with the heads side by side.

    The t rows hold one or more sequences side by side, `segments` =
    [(n, m, (a, b)), ...] in row order with the n summing to t, and each
    attends over its own rows only, in a softmax of its own. Queries come
    from the segment's rows a to b, (0, n) for all of them; keys and values
    from every row of the segment. The result stacks each segment's [b-a x d]
    query rows in order. Without a cache a segment's rows sit at positions 0
    to s = n; `cache` is one layer's (keys, values, start), for a single
    segment, with keys and values [H x positions x d_k] arrays: the n rows sit
    at positions start onward, their keys and values are written there, and
    the queries attend over the s = start + n positions up to the last row.
    Visibility is the prefix rule of the segment's source length m, 0 <= m <=
    s: the query at position p sees key j when j < m or j <= p, so m = s sees
    every key and m <= 1 is the causal rule. Hidden scores are set to -inf
    only when some query row has a hidden key. Cached calls are for decoding
    and raise GraphError under a tape. The backward keeps only the softmax
    weights besides its operand; its query gradient is 0 outside query rows.
    """
    data = qkv.data
    if data.ndim != 2 or data.shape[1] % (3 * n_heads):
        raise ShapeError(f"attention needs [t x 3*d] with {n_heads} heads, got {data.shape}")
    t = data.shape[0]
    if not segments or sum(n for n, _, _ in segments) != t:
        raise ShapeError(f"segment lengths {[n for n, _, _ in segments]} "
                         f"do not add up to {t} rows")
    if cache is not None and len(segments) != 1:
        raise ShapeError("a cached attention call takes one segment")
    if cache is not None and _active_tape is not None:  # before any cache row is written
        raise GraphError("incremental decoding runs outside any tape")
    q, k, v = _split_heads(data, n_heads)
    c = 1.0 / math.sqrt(q.shape[2])
    start = 0 if cache is None else cache[2]
    parts, heads, offset, cut = [], [], 0, False
    for n, m, (a, b) in segments:
        if not 0 <= a < b <= n:
            raise ShapeError(f"query rows [{a}:{b}] out of range for {n} rows")
        s = start + n
        if not 0 <= m <= s:
            raise ShapeError(f"source length {m} out of range for {s} positions")
        cut = cut or b - a < n
        ks, vs = k[:, offset:offset + n], v[:, offset:offset + n]
        if cache is not None:
            keys, values, _ = cache
            keys[:, start:s], values[:, start:s] = ks, vs
            ks, vs = keys[:, :s], values[:, :s]
        qs = q[:, offset + a:offset + b]
        scores = np.matmul(qs, ks.transpose(0, 2, 1))
        scores *= c  # a Python float takes the scores' dtype
        if max(m, start + a + 1) < s:  # the first query row has a hidden key
            # key j >= m is hidden from the query at position p when j > p
            np.copyto(scores[..., m:], -np.inf,
                      where=np.arange(m, s) > np.arange(start + a, start + b)[:, None])
        w = _softmax(scores)
        heads.append(np.matmul(w, vs).transpose(1, 0, 2).reshape(b - a, -1))
        parts.append((offset, n, offset + a, offset + b, qs, ks, vs, w))
        offset += n

    def bw(g):
        grad = np.empty_like(qkv.data)
        dq, dk, dv = _split_heads(grad, n_heads)
        if cut:
            dq[...] = 0
        r = 0
        for offset, n, a, b, qs, ks, vs, w in parts:
            gs = g[r:r + b - a].reshape(b - a, n_heads, -1).transpose(1, 0, 2)  # [H, b-a, d_k]
            r += b - a
            dw = np.matmul(gs, vs.transpose(0, 2, 1))
            # ds = w * (dw - rowsum(dw * w)) * c, in place: fresh [H, b-a, n] buffers page-fault
            ds = dw
            ds -= (dw * w).sum(axis=-1, keepdims=True)
            ds *= w
            ds *= c
            dq[:, a:b] = np.matmul(ds, ks)
            dk[:, offset:offset + n] = np.matmul(qs.transpose(0, 2, 1), ds).transpose(0, 2, 1)
            dv[:, offset:offset + n] = np.matmul(w.transpose(0, 2, 1), gs)
        _accumulate(qkv, grad)

    return _wrap(heads[0] if len(heads) == 1 else np.concatenate(heads), (qkv,), bw)


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------


def embedding_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by id; gradients scatter-add back."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"ids must be 1-d, got shape {ids.shape}")
    # one pass for both bounds: a negative id read as uint64 is at least 2**63
    if ids.size and ids.view(np.uint64).max() >= table.data.shape[0]:
        raise ValueError("embedding_rows: id out of range")

    def bw(g):
        _accumulate(table, g, ids)

    return _wrap(table.data[ids], (table,), bw)


def slice_rows(x: Tensor, ranges) -> Tensor:
    """The rows of each (start, stop) range of `ranges`, stacked in order.
    Ranges may overlap; gradients add back into every row they took."""
    ranges, n = list(ranges), x.data.shape[0]
    for start, stop in ranges:
        if not (0 <= start <= stop <= n):
            raise ShapeError(f"row slice [{start}:{stop}] out of range for {x.shape}")

    def bw(g):
        offset = 0
        for start, stop in ranges:
            _accumulate(x, g[offset:offset + stop - start], slice(start, stop))
            offset += stop - start

    parts = [x.data[start:stop] for start, stop in ranges]
    data = parts[0].copy() if len(parts) == 1 else np.concatenate(parts)
    return _wrap(data, (x,), bw)
