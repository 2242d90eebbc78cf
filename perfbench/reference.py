"""Computations made apart from the program, used to check its outputs.

The forward pass, loss and ROUGE here are written from the definitions in
float64 numpy; none of them calls into `prefixlm`. They take plain arrays
keyed by the tensor names of the weights file format (`embed_token`,
`block<i>.attn_qkv.weight`, ...).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

LN_EPS = 1e-5
NEAR_TIE = 1e-4


def as_float64(named_arrays) -> dict[str, np.ndarray]:
    """{name: float64 copy} from (name, array) pairs, dropping optimizer state."""
    return {
        name: np.array(arr, dtype=np.float64)
        for name, arr in named_arrays
        if not name.startswith("optimizer.")
    }


def visible(m: int, t: int) -> np.ndarray:
    """Prefix-LM visibility [t x t]: query i sees key j when j is in the
    m-token source or j <= i. With m <= 1 this is the causal mask."""
    i = np.arange(t)[:, None]
    j = np.arange(t)[None, :]
    return (j < m) | (j <= i)


def _layer_norm(x, gamma, beta):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def forward(w: dict, n_heads: int, tokens, m: int) -> np.ndarray:
    """Next-token logits [T x V] of the pre-LN transformer with ReLU FFN,
    tied LM head, under the prefix mask with an m-token source."""
    tokens = np.asarray(tokens, dtype=np.int64)
    t = len(tokens)
    x = w["embed_token"][tokens] + w["embed_pos"][:t]
    d = x.shape[1]
    dk = d // n_heads
    hidden = ~visible(m, t)
    i = 0
    while f"block{i}.ln1.weight" in w:
        p = f"block{i}."
        h = _layer_norm(x, w[p + "ln1.weight"], w[p + "ln1.bias"])
        qkv = h @ w[p + "attn_qkv.weight"]
        q, k, v = (qkv[:, s * d:(s + 1) * d].reshape(t, n_heads, dk).transpose(1, 0, 2)
                   for s in range(3))
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(dk)
        scores[:, hidden] = -np.inf
        scores = np.exp(scores - scores.max(axis=2, keepdims=True))
        attn = scores / scores.sum(axis=2, keepdims=True)
        heads = (attn @ v).transpose(1, 0, 2).reshape(t, d)
        x = x + heads @ w[p + "attn_out.weight"]
        h = _layer_norm(x, w[p + "ln2.weight"], w[p + "ln2.bias"])
        ff = np.maximum(h @ w[p + "ffn_w1.weight"] + w[p + "ffn_b1.bias"], 0.0)
        x = x + ff @ w[p + "ffn_w2.weight"] + w[p + "ffn_b2.bias"]
        i += 1
    x = _layer_norm(x, w["final_ln.gamma"], w["final_ln.beta"])
    return x @ w["embed_token"].T


def example_loss(w: dict, n_heads: int, source_ids, prefix_ids, target_ids) -> float:
    """Mean cross-entropy over the target tokens, each predicted from the
    position before it, with the source as the bidirectional prefix."""
    tokens = list(source_ids) + list(prefix_ids) + list(target_ids)
    logits = forward(w, n_heads, tokens[:-1], len(source_ids))
    first = len(source_ids) + len(prefix_ids)
    rows = np.arange(first - 1, len(tokens) - 1)
    z = logits[rows]
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(rows)), np.asarray(tokens)[rows + 1]].mean())


def batch_loss(w: dict, n_heads: int, batch) -> float:
    """Per-example-mean loss averaged over the batch; batch items carry
    source_ids, forced_prefix_ids and target_ids."""
    return float(np.mean([
        example_loss(w, n_heads, ex.source_ids, ex.forced_prefix_ids, ex.target_ids)
        for ex in batch
    ]))


def recovered_gradient(before: dict, after: dict, lr: float, weight_decay: float):
    """Gradient implied by a first SGD step from zero velocity:
    after = before - lr * (g + weight_decay * before)."""
    return {k: (before[k] - after[k]) / lr - weight_decay * before[k] for k in before}


def gradient_check(w: dict, n_heads: int, batch, grad: dict, seed: int,
                   n_directions: int = 2, h: float = 1e-4) -> list[float]:
    """Relative error of grad . d against a central difference of
    batch_loss along each random unit direction d.

    A random unit direction meets grad at |grad| / sqrt(n) on average, n
    being the parameter count; the error is taken relative to the larger of
    that and the two directional derivatives, so that an unlucky direction
    nearly orthogonal to grad does not turn float32 rounding into a large
    relative error."""
    rng = np.random.default_rng(seed)
    names = sorted(w)
    n = sum(w[k].size for k in names)
    typical = np.sqrt(sum(float((grad[k] ** 2).sum()) for k in names) / n)
    errors = []
    for _ in range(n_directions):
        d = {k: rng.standard_normal(w[k].shape) for k in names}
        norm = np.sqrt(sum(float((d[k] ** 2).sum()) for k in names))
        d = {k: v / norm for k, v in d.items()}
        plus = batch_loss({k: w[k] + h * d[k] for k in names}, n_heads, batch)
        minus = batch_loss({k: w[k] - h * d[k] for k in names}, n_heads, batch)
        numeric = (plus - minus) / (2 * h)
        analytic = sum(float((grad[k] * d[k]).sum()) for k in names)
        errors.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), typical))
    return errors


def trace_problems(w: dict, n_heads: int, source_ids, hint_ids, trace,
                   eot: int, budget: int) -> list[str]:
    """Why a greedy trace is wrong, or [] when it is right.

    The trace must start with the hint tokens, hold end-of-text only as
    its last token, stop at end-of-text or after `budget` new tokens, and
    every new token must be the argmax of the reference logits at the
    position before it (ids within NEAR_TIE of the maximum also pass).
    """
    trace = list(trace)
    hint_ids = list(hint_ids)
    new = trace[len(hint_ids):]
    if trace[:len(hint_ids)] != hint_ids:
        return ["trace does not start with the hint tokens"]
    if not new or len(new) > budget:
        return [f"trace has {len(new)} new tokens for a budget of {budget}"]
    if eot in new[:-1]:
        return ["end-of-text before the end of the trace"]
    if new[-1] != eot and len(new) != budget:
        return [f"trace stops after {len(new)} of {budget} tokens without end-of-text"]
    seq = list(source_ids) + trace
    logits = forward(w, n_heads, seq[:-1], len(source_ids))
    start = len(source_ids) + len(hint_ids)
    problems = []
    for k, tok in enumerate(new):
        row = logits[start + k - 1]
        if row[tok] < row.max() - NEAR_TIE:
            problems.append(
                f"token {k} is {tok}, reference argmax {int(row.argmax())} "
                f"(logit gap {row.max() - row[tok]:.3g})"
            )
    return problems


# ---------------------------------------------------------------------------
# ROUGE, from the definitions
# ---------------------------------------------------------------------------


def _f1(overlap: int, n_cand: int, n_ref: int) -> float:
    if overlap == 0:
        return 0.0
    p, r = overlap / n_cand, overlap / n_ref
    return 2 * p * r / (p + r)


def _lcs(a, b) -> int:
    table = np.zeros((len(a) + 1, len(b) + 1), dtype=np.int64)
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            table[i, j] = table[i - 1, j - 1] + 1 if x == y else max(
                table[i - 1, j], table[i, j - 1]
            )
    return int(table[-1, -1])


def rouge(outputs, references) -> dict:
    """Mean ROUGE-1/2/L F1 x100 over (text, n_hints) outputs, lower-cased
    and whitespace-split, with the first n_hints words of both sides
    dropped. Not rounded."""
    totals = {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0}
    for (text, n_hints), ref in zip(outputs, references, strict=True):
        c = text.lower().split()[n_hints:]
        r = ref.lower().split()[n_hints:]
        for key, n in (("rouge1", 1), ("rouge2", 2)):
            cg = Counter(tuple(c[i:i + n]) for i in range(len(c) - n + 1))
            rg = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
            overlap = sum(min(v, rg[g]) for g, v in cg.items())
            totals[key] += _f1(overlap, sum(cg.values()), sum(rg.values()))
        totals["rougeL"] += _f1(_lcs(c, r), len(c), len(r))
    n = max(len(references), 1)
    return {k: 100.0 * v / n for k, v in totals.items()}


# ---------------------------------------------------------------------------
# tokenizer properties
# ---------------------------------------------------------------------------


def mixed_tokens(token_bytes) -> list[bytes]:
    """Tokens that hold both a letter and a digit."""
    bad = []
    for tok in token_bytes:
        s = tok.decode("utf-8", errors="ignore")
        if any(c.isalpha() for c in s) and any(c.isdigit() for c in s):
            bad.append(tok)
    return bad
