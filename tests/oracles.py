"""Independent oracles shared across the test suite.

Nothing in here touches the library's dynamic programming or its tokenizer,
and only reference_attention touches its backward pass (through the 2-d
tape ops, each of which is gradchecked on its own); these exist so the tests
can check the fast paths against slow, obviously-correct computations.
"""

import unicodedata
from collections import Counter

import numpy as np

from prefixlm.tensor import Tensor, add, matmul, scale, softmax_rows, transpose


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
