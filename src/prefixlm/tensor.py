"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 for training throughput, float64 for
gradient checking). Differentiable operations record themselves on the
active ComputationTape; backward() replays the tape in reverse and
accumulates gradients into the participating leaves.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "ComputationTape",
    "ShapeError",
    "GraphError",
    "active_tape",
    "matmul",
    "transpose",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "gelu",
    "softmax_rows",
    "split_heads",
    "attend",
    "attention",
    "layer_norm",
    "cross_entropy",
    "embedding_rows",
    "slice_rows",
    "sum_all",
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
    context makes the tape active; ops executed while a tape is active and
    touching at least one requires_grad tensor are recorded on it.
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


def active_tape():
    """The currently active tape, or None outside any tape context."""
    return _active_tape


class Tensor:
    """A dense n-dimensional value, optionally participating in a tape.

    `data` is always a float32 or float64 numpy array. `grad` is allocated
    eagerly (zeros) for requires_grad leaves and lazily for tape outputs;
    gradients accumulate across backward calls until `zero_grad()`.
    """

    __slots__ = ("data", "grad", "requires_grad", "tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        """Reset the accumulated gradient to zeros."""
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"


def _accumulate(t: Tensor, g: np.ndarray):
    if not (t.requires_grad or t.tape is not None):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _wrap(data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Make an op output, recording it when grads are live."""
    out = Tensor(data)
    tape = _active_tape
    if tape is not None and any(
        i.requires_grad or i.tape is not None for i in inputs
    ):
        out.requires_grad = True
        out.grad = None  # lazy for intermediates
        out.tape = tape
        tape._records.append((out, inputs, backward_fn))
    return out


def backward(loss: Tensor):
    """Populate gradients of everything `loss` depends on.

    `loss` must be a scalar produced on a tape. Gradients sum into `.grad`
    buffers; leaves the loss does not reach keep their current (zeroed)
    gradients.
    """
    if loss.tape is None:
        raise GraphError("backward() on a value that is not on a tape")
    if loss.data.shape != ():
        raise ShapeError(f"backward() needs a scalar, got shape {loss.shape}")
    _accumulate(loss, np.ones((), dtype=loss.dtype))
    for out, inputs, backward_fn in reversed(loss.tape._records):
        if out.grad is None:
            continue  # not reached from this loss
        backward_fn(out.grad)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m x k] and b [k x n]."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")

    def bw(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _wrap(a.data @ b.data, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    """The transposed view of a [m x n]; shares memory with its operand."""
    if a.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d operand, got {a.shape}")

    def bw(g):
        _accumulate(a, g.T)

    return _wrap(a.data.T, (a,), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also broadcasts b [c] over the rows of a [r x c]."""
    if a.shape == b.shape:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, g)
    elif a.ndim == 2 and b.ndim == 1 and b.shape[0] == a.shape[1]:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0))
    else:
        raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}")
    return _wrap(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} - {b.shape}")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _wrap(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} * {b.shape}")

    def bw(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _wrap(a.data * b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g):
        _accumulate(a, g * c)

    return _wrap(a.data * np.asarray(c, dtype=a.dtype), (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar."""

    def bw(g):
        _accumulate(a, np.broadcast_to(g, a.shape).astype(a.dtype, copy=True))

    return _wrap(a.data.sum(), (a,), bw)


# ---------------------------------------------------------------------------
# activations and normalization
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, g * (a.data > 0))

    return _wrap(np.maximum(a.data, 0), (a,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)

    def bw(g):
        sech2 = 1.0 - t * t
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        _accumulate(a, g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner))

    return _wrap(0.5 * x * (1.0 + t), (a,), bw)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilized by per-row max subtraction.

    -inf entries (masked positions) come out exactly 0. A row that is
    entirely -inf has no valid distribution and raises.
    """
    m = x.max(axis=-1, keepdims=True)
    if np.any(np.isneginf(m)):
        raise ValueError("softmax: row is entirely -inf (degenerate row)")
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax; see _softmax for masked entries and degenerate rows."""
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-d operand, got {x.shape}")
    s = _softmax(x.data)

    def bw(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        _accumulate(x, s * (g - dot))

    return _wrap(s, (x,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to mean 0 / variance 1, then scale and shift."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm needs a 2-d operand, got {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm gamma/beta must be ({d},), got {gamma.shape}/{beta.shape}"
        )
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)  # population variance
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def bw(g):
        _accumulate(beta, g.sum(axis=0))
        _accumulate(gamma, (g * xhat).sum(axis=0))
        dxhat = g * gamma.data
        row_mean = dxhat.mean(axis=1, keepdims=True)
        row_proj = (dxhat * xhat).mean(axis=1, keepdims=True)
        _accumulate(x, inv * (dxhat - row_mean - xhat * row_proj))

    return _wrap(xhat * gamma.data + beta.data, (x, gamma, beta), bw)


def cross_entropy(logits: Tensor, targets, loss_mask=None) -> Tensor:
    """Mean negative log-likelihood over the selected positions.

    `targets` holds one class id per row of `logits`; positions where
    `loss_mask` is False are excluded from the mean. Raises when every
    position is excluded.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy needs 2-d logits, got {logits.shape}")
    t, v = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (t,):
        raise ShapeError(f"targets must have shape ({t},), got {targets.shape}")
    if loss_mask is None:
        mask = np.ones(t, dtype=bool)
    else:
        mask = np.asarray(loss_mask, dtype=bool)
        if mask.shape != (t,):
            raise ShapeError(f"loss_mask must have shape ({t},), got {mask.shape}")
    n = int(mask.sum())
    if n == 0:
        raise ValueError("cross_entropy: every position is masked out")
    sel = targets[mask]
    if sel.min(initial=0) < 0 or (sel.size and sel.max() >= v):
        raise ValueError("cross_entropy: target id out of vocabulary range")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.nonzero(mask)[0]
    loss = -logp[rows, targets[rows]].sum() / n

    def bw(g):
        p = np.exp(logp)
        d = np.zeros_like(logits.data)
        d[rows] = p[rows]
        d[rows, targets[rows]] -= 1.0
        _accumulate(logits, d * (g / n))

    return _wrap(np.asarray(loss, dtype=logits.dtype), (logits,), bw)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def split_heads(qkv: np.ndarray, n_heads: int) -> np.ndarray:
    """The [3, H, T, d_k] view of a fused [T x 3*d] query|key|value projection."""
    return qkv.reshape(qkv.shape[0], 3, n_heads, -1).transpose(1, 2, 0, 3)


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask):
    """softmax(q k^T / sqrt(d_k) + mask) v per head, for q [H x t x d_k], k and
    v [H x s x d_k] and a 0/-inf mask [t x s] (None: all visible).

    Returns the heads side by side [t x H*d_k] and the weights [H x t x s].
    """
    scores = np.matmul(q, k.transpose(0, 2, 1))
    scores *= np.asarray(1.0 / math.sqrt(q.shape[2]), dtype=scores.dtype)
    if mask is not None:
        scores += np.asarray(mask, dtype=scores.dtype)
    weights = _softmax(scores)
    return np.matmul(weights, v).transpose(1, 0, 2).reshape(q.shape[1], -1), weights


def attention(qkv: Tensor, mask: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head self-attention of a fused [T x 3*d] projection under a
    0/-inf mask [T x T]: the [T x d] attended values, heads side by side.
    The backward keeps only the softmax weights besides its operand."""
    if qkv.ndim != 2 or qkv.shape[1] % (3 * n_heads):
        raise ShapeError(f"attention needs [T x 3*d] with {n_heads} heads, got {qkv.shape}")
    t = qkv.shape[0]
    if np.shape(mask) != (t, t):
        raise ShapeError(f"mask must be ({t}, {t}), got {np.shape(mask)}")
    q, k, v = split_heads(qkv.data, n_heads)
    heads, w = attend(q, k, v, mask)
    c = 1.0 / math.sqrt(q.shape[2])

    def bw(g):
        g = g.reshape(t, n_heads, -1).transpose(1, 0, 2)  # [H, T, d_k]
        dw = np.matmul(g, v.transpose(0, 2, 1))
        ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * c
        grad = np.empty_like(qkv.data)
        dq, dk, dv = split_heads(grad, n_heads)
        dq[...] = np.matmul(ds, k)
        dk[...] = np.matmul(q.transpose(0, 2, 1), ds).transpose(0, 2, 1)
        dv[...] = np.matmul(w.transpose(0, 2, 1), g)
        _accumulate(qkv, grad)

    return _wrap(heads, (qkv,), bw)


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------


def embedding_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by id; gradients scatter-add back."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"ids must be 1-d, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError("embedding_rows: id out of range")

    def bw(g):
        if not (table.requires_grad or table.tape is not None):
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return _wrap(table.data[ids], (table,), bw)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= x.shape[0]):
        raise ShapeError(f"row slice [{start}:{stop}] out of range for {x.shape}")

    def bw(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        _accumulate(x, full)

    return _wrap(x.data[start:stop].copy(), (x,), bw)
