"""Independent oracles shared across the test suite.

Nothing in here touches the library's dynamic programming or its tokenizer
(reference_unescape raises its TokenizerFileError, nothing more),
and only reference_attention, reference_masked_loss and reference_step
touch its backward pass (through tape ops that are gradchecked on their
own); these exist so the tests can check the fast paths against slow,
obviously-correct computations. The tape ops mul, scale, sum_all and
softmax_rows live here, not in the library, which never calls them: they
are gradcheck instruments and reference_attention's and reference_step's
scaling and softmax, recorded on the library's tape through its _wrap and
_accumulate. reference_layer_norm, recorded the same way, is the layer norm
in the ndarray.mean form that the library's _row_mean replaced.
"""

import re
import unicodedata
from collections import Counter

import numpy as np

from prefixlm.bpe import TokenizerFileError
from prefixlm.model import build_prefix_mask
from prefixlm.tensor import (
    ComputationTape,
    ShapeError,
    Tensor,
    _accumulate,
    _wrap,
    add,
    backward,
    cross_entropy,
    matmul,
    slice_rows,
    transpose,
)


def mul(a, b):
    """Elementwise product of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} * {b.shape}")

    def bw(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _wrap(a.data * b.data, (a, b), bw)


def scale(a, c):
    """a times the constant c."""
    c = float(c)

    def bw(g):
        _accumulate(a, g * c)

    return _wrap(a.data * np.asarray(c, dtype=a.dtype), (a,), bw)


def sum_all(a):
    """Sum of all entries, as a scalar."""

    def bw(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _wrap(np.asarray(a.data.sum()), (a,), bw)


def softmax_rows(x):
    """Row-wise softmax of a 2-d tensor, stabilized by the row max."""
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        _accumulate(x, s * (g - (g * s).sum(axis=1, keepdims=True)))

    return _wrap(s, (x,), bw)


def reference_layer_norm(x, gamma, beta, eps):
    """tensor.layer_norm with its row means taken by ndarray.mean, the form
    the library's _row_mean replaces."""
    centred = x.data - x.data.mean(axis=1, keepdims=True)
    var = (centred * centred).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv

    def bw(g):
        _accumulate(beta, g.sum(axis=0))
        _accumulate(gamma, (g * xhat).sum(axis=0))
        dxhat = g * gamma.data
        row_mean = dxhat.mean(axis=1, keepdims=True)
        row_proj = (dxhat * xhat).mean(axis=1, keepdims=True)
        _accumulate(x, inv * (dxhat - row_mean - xhat * row_proj))

    return _wrap(xhat * gamma.data + beta.data, (x, gamma, beta), bw)


def finite_difference_grads(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f(*arrays) w.r.t. each array.

    Perturbs every entry in place (restoring it afterwards), so arrays
    should be float64 for the quotient to be trustworthy.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(*arrays)
            flat[i] = orig - h
            fm = f(*arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def grad_error(analytic, numeric):
    """Worst-case elementwise error, relative above magnitude 1, absolute below."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def brute_force_lcs(xs, ys):
    """Longest common subsequence length by subsequence enumeration.

    Exponential in len(xs); callers keep the inputs short.
    """
    from itertools import combinations

    best = 0
    for k in range(len(xs), 0, -1):
        if k <= best:
            break
        for picked in combinations(xs, k):
            it = iter(ys)
            if all(tok in it for tok in picked):
                best = k
                break
    return best


def _char_category(ch: str) -> str:
    if ch.isspace():
        return "space"
    cat = unicodedata.category(ch)
    if cat.startswith("L"):
        return "letter"
    if cat.startswith("N"):
        return "digit"
    return "other"


def reference_segment(text: str):
    """Category runs, char by char, with one leading space moved onto each
    non-space run that directly follows a run ending in a space."""
    runs = []  # (category, [chars])
    for ch in text:
        cat = _char_category(ch)
        if runs and runs[-1][0] == cat:
            runs[-1][1].append(ch)
        else:
            runs.append((cat, [ch]))
    units = []
    for cat, chars in runs:
        if (
            cat != "space"
            and units
            and units[-1][0] == "space"
            and units[-1][1][-1] == " "
        ):
            trailing = units[-1][1].pop()
            chars.insert(0, trailing)
            if not units[-1][1]:
                units.pop()
        units.append((cat, chars))
    return ["".join(chars) for _, chars in units]


def _merge_word(word, pair):
    merged = pair[0] + pair[1]
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == pair[0] and word[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return out


def reference_merges(corpus, num_merges):
    """Greedy BPE merge list, recounting every pair of every unit per merge.

    Highest count first, ties to the lexicographically smallest pair; stops
    early when no adjacent pair is left. O(merges x units).
    """
    unit_counts = Counter()
    for text in corpus:
        if isinstance(text, bytes):
            text = text.decode("utf-8", errors="surrogateescape")
        for unit in reference_segment(text):
            unit_counts[unit.encode("utf-8", errors="surrogateescape")] += 1
    words = {unit: [bytes([b]) for b in unit] for unit in unit_counts}
    merges = []
    for _ in range(num_merges):
        pair_counts = Counter()
        for unit, toks in words.items():
            for pair in zip(toks, toks[1:]):
                pair_counts[pair] += unit_counts[unit]
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        words = {unit: _merge_word(toks, best) for unit, toks in words.items()}
    return merges


def reference_bpe(tokens, merges, unit):
    """Ids of one unit, on bytes parts: merge the lowest-ranked adjacent pair
    (rank = index in `merges`) until none is left. `tokens` lists each id's
    bytes; the ids returned are indices into it."""
    ranks = {pair: rank for rank, pair in enumerate(merges)}
    word = [bytes([b]) for b in unit.encode("utf-8", errors="surrogateescape")]
    while len(word) > 1:
        best = min(zip(word, word[1:]), key=lambda p: ranks.get(p, len(ranks)))
        if best not in ranks:
            break
        word = _merge_word(word, best)
    return [tokens.index(part) for part in word]


def reference_escape(bs: bytes) -> str:
    """Token bytes as vocab/merges file text, one branch per byte kind."""
    out = []
    for b in bs:
        if b == 0x5C:
            out.append("\\\\")
        elif b == 0x09:
            out.append("\\t")
        elif 0x20 <= b < 0x7F:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


_HEX_BYTE = re.compile("[0-9a-fA-F]{2}")


def reference_unescape(s: str, where: str) -> bytes:
    """Inverse of reference_escape, one character at a time; also takes
    \\xNN for printable bytes and upper-case hex digits. Errors are
    TokenizerFileError prefixed with `where`."""
    out = bytearray()
    i = 0
    while i < len(s):
        ch = s[i]
        if ch != "\\":
            encoded = ch.encode("utf-8")
            if len(encoded) != 1 or not 0x20 <= encoded[0] < 0x7F:
                raise TokenizerFileError(
                    f"{where}: unescaped non-printable character {ch!r}"
                )
            out.extend(encoded)
            i += 1
            continue
        if i + 1 >= len(s):
            raise TokenizerFileError(f"{where}: dangling escape")
        nxt = s[i + 1]
        if nxt == "\\":
            out.append(0x5C)
            i += 2
        elif nxt == "t":
            out.append(0x09)
            i += 2
        elif nxt == "x":
            digits = s[i + 2 : i + 4]
            if not _HEX_BYTE.fullmatch(digits):
                raise TokenizerFileError(f"{where}: bad \\xNN escape in {s!r}")
            out.append(int(digits, 16))
            i += 4
        else:
            raise TokenizerFileError(f"{where}: unknown escape \\{nxt}")
    return bytes(out)


def _columns(width, start, n):
    """[width x n] 0/1 matrix that picks columns start..start+n of a
    [T x width] matrix exactly; its transpose places n columns there."""
    sel = np.zeros((width, n))
    sel[start + np.arange(n), np.arange(n)] = 1.0
    return sel


def reference_attention(qkv, mask, n_heads):
    """Multi-head self-attention as one tape loop per head, the slow path
    that tensor.attention replaces.

    qkv is a [T x 3*d] Tensor of query, key and value blocks, heads side by
    side in each. Head i takes its columns of each block, computes
    softmax(q k^T / sqrt(d_k) + mask) v, and is placed at its columns of the
    [T x d] result. Columns are picked and placed by 0/1 selection matrices.
    """
    width = qkv.shape[1]
    d = width // 3
    d_k = d // n_heads
    mask = Tensor(np.asarray(mask, dtype=qkv.dtype))
    out = None
    for i in range(n_heads):
        q, k, v = (
            matmul(qkv, Tensor(_columns(width, j * d + i * d_k, d_k), dtype=qkv.dtype))
            for j in range(3)
        )
        scores = add(scale(matmul(q, transpose(k)), 1.0 / np.sqrt(d_k)), mask)
        head = matmul(softmax_rows(scores), v)
        placed = matmul(head, Tensor(_columns(d, i * d_k, d_k).T, dtype=qkv.dtype))
        out = placed if out is None else add(out, placed)
    return out


def reference_masked_loss(model, example):
    """The per-example loss as every logits row scored under a per-row
    weight, the slow path that scoring only the target slice replaces.

    Row j-1 predicts token j; the weight is 1/targets exactly on the target
    ids and 0 elsewhere. Runs backward as training_step does for a batch of
    one, so model.params hold the loss's gradients (added to whatever they
    held); returns the loss value.
    """
    tokens = example.tokens
    t = len(tokens)
    n_context = len(example.source_ids) + len(example.forced_prefix_ids)
    n = len(example.target_ids)
    weights = [0.0] * (n_context - 1) + [1.0 / n] * n
    mask = build_prefix_mask(len(example.source_ids), t - len(example.source_ids))
    with ComputationTape():
        logits = model.forward(tokens, mask)
        loss = cross_entropy(slice_rows(logits, [(0, t - 1)]), tokens[1:], weights)
        backward(loss)
    return loss.item()


def reference_step(model, batch):
    """training_step's gradients without its update, on the sequential
    all-rows path that the packed row-range forward replaces: each example
    runs on a tape of its own, Model.forward computes logits for every row,
    and the slice of the rows before the target tokens is scored.

    Leaves each example's loss, scaled by 1/batch, backpropagated into
    model.params (cleared first); returns the mean loss.
    """
    model.params.zero_grads()
    inv = 1.0 / len(batch)
    total = 0.0
    for ex in batch:
        tokens = ex.tokens
        t = len(tokens)
        first = t - len(ex.target_ids)
        mask = build_prefix_mask(len(ex.source_ids), t - len(ex.source_ids))
        with ComputationTape():
            logits = model.forward(tokens, mask)
            n = len(ex.target_ids)
            loss = cross_entropy(slice_rows(logits, [(first - 1, t - 1)]), ex.target_ids,
                                 np.ones(n, dtype=logits.dtype) / n)
            backward(scale(loss, inv))
        total += loss.item()
    return total * inv
