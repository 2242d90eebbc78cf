import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import finite_difference_grads, grad_error

from prefixlm.finetune import load_model_weights
from prefixlm.model import (
    KVCache,
    Model,
    ModelConfig,
    WeightFileError,
    block_forward,
    build_causal_mask,
    build_prefix_mask,
    init_params,
    param_spec,
    read_tensor_map,
    write_tensor_map,
)
from prefixlm.tensor import (
    ComputationTape,
    GraphError,
    ShapeError,
    Tensor,
    attention,
    backward,
    cross_entropy,
    matmul,
)

NEG_INF = float("-inf")

TINY = ModelConfig(
    n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab_size=16, max_positions=12
)


def tiny_model(seed=0, dtype=np.float32):
    return Model(TINY, init_params(TINY, seed, dtype=dtype))


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_causal_mask_t1():
    np.testing.assert_array_equal(build_causal_mask(1), [[0.0]])


def test_causal_mask_t3():
    expected = [
        [0.0, NEG_INF, NEG_INF],
        [0.0, 0.0, NEG_INF],
        [0.0, 0.0, 0.0],
    ]
    np.testing.assert_array_equal(build_causal_mask(3), expected)


def test_causal_mask_zero_counts():
    m = build_causal_mask(7)
    for i in range(7):
        assert int((m[i] == 0).sum()) == i + 1


def test_prefix_mask_staircase_2_2():
    expected = [
        [0.0, 0.0, NEG_INF, NEG_INF],
        [0.0, 0.0, NEG_INF, NEG_INF],
        [0.0, 0.0, 0.0, NEG_INF],
        [0.0, 0.0, 0.0, 0.0],
    ]
    np.testing.assert_array_equal(build_prefix_mask(2, 2), expected)


def test_prefix_mask_no_target():
    np.testing.assert_array_equal(build_prefix_mask(3, 0), np.zeros((3, 3)))


def test_prefix_mask_minimal():
    np.testing.assert_array_equal(
        build_prefix_mask(1, 1), [[0.0, NEG_INF], [0.0, 0.0]]
    )


def test_prefix_mask_empty_source_rejected():
    with pytest.raises(ValueError):
        build_prefix_mask(0, 3)


@pytest.mark.parametrize(
    "mask", [build_causal_mask(5), build_prefix_mask(3, 4), build_prefix_mask(2, 0)]
)
def test_mask_invariants(mask):
    assert np.all(np.diag(mask) == 0.0)  # every token attends to itself
    assert np.all((mask == 0.0).sum(axis=1) >= 1)
    assert np.all((mask == 0.0) | (mask == NEG_INF))


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def test_embed_zero_tables():
    params = init_params(TINY, 0)
    params["embed_token"].data[:] = 0
    params["embed_pos"].data[:] = 0
    out = Model(TINY, params).embed([1, 2, 3], [(0, 3)])
    np.testing.assert_array_equal(out.data, np.zeros((3, 8)))


def test_embed_is_token_plus_position():
    m = tiny_model()
    out = m.embed([7], [(0, 1)])
    expected = m.params["embed_token"].data[7] + m.params["embed_pos"].data[0]
    np.testing.assert_array_equal(out.data[0], expected)


def test_embed_position_difference():
    m = tiny_model()
    out = m.embed([5, 5], [(0, 2)])
    diff = m.params["embed_pos"].data[1] - m.params["embed_pos"].data[0]
    np.testing.assert_allclose(out.data[1] - out.data[0], diff, atol=1e-6)


def test_embed_length_cap():
    m = tiny_model()
    with pytest.raises(ValueError, match="max_positions"):
        m.embed(list(range(TINY.max_positions + 1)), [(0, TINY.max_positions + 1)])


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def _one_head(q, k, v, m):
    """attention over one head of the given query, key and value rows, with
    an m-row source."""
    qkv = np.concatenate([np.asarray(a, dtype=np.float64) for a in (q, k, v)], axis=1)
    return attention(Tensor(qkv), [(len(qkv), m, (0, len(qkv)))], 1).data


def test_attention_single_key():
    out = _one_head([[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]], 1)
    np.testing.assert_array_equal(out, [[5.0, 6.0]])


def test_attention_forced_single_attendee():
    rng = np.random.default_rng(0)
    q, k, v = (rng.normal(size=(2, 3)) for _ in range(3))
    out = _one_head(q, k, v, 0)  # causal: row 0 sees only key 0
    np.testing.assert_array_equal(out[0], v[0])


def test_attention_uniform_weights():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(2, 4))
    zeros = np.zeros((2, 4))
    out = _one_head(zeros, zeros, v, 2)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-6)


def _identity_block(d, d_ff=4):
    eye = np.eye(d)
    return {
        "ln1.weight": Tensor(np.ones(d)),
        "ln1.bias": Tensor(np.zeros(d)),
        "attn_qkv.weight": Tensor(np.concatenate([eye, eye, eye], axis=1)),
        "attn_out.weight": Tensor(eye),
        "ln2.weight": Tensor(np.ones(d)),
        "ln2.bias": Tensor(np.zeros(d)),
        "ffn_w1.weight": Tensor(np.zeros((d, d_ff))),
        "ffn_b1.bias": Tensor(np.zeros(d_ff)),
        "ffn_w2.weight": Tensor(np.zeros((d_ff, d))),
        "ffn_b2.bias": Tensor(np.zeros(d)),
    }


def _self_attention(x, m, block, n_heads):
    """A block's attention sublayer: fused projection, attention, output
    projection, with an m-row source."""
    qkv = matmul(x, block["attn_qkv.weight"])
    t = len(x.data)
    return matmul(attention(qkv, [(t, m, (0, t))], n_heads), block["attn_out.weight"])


def test_mhsa_identity_projections_single_position():
    block = _identity_block(3)
    x = Tensor([[0.3, -0.7, 1.1]])
    out = _self_attention(x, 1, block, n_heads=1)
    np.testing.assert_allclose(out.data, x.data, atol=1e-7)


def test_mhsa_deterministic():
    rng = np.random.default_rng(2)
    params = init_params(TINY, 3)
    x = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
    a = _self_attention(x, 0, params.block(0), 2).data
    b = _self_attention(x, 0, params.block(0), 2).data
    np.testing.assert_array_equal(a, b)


def _numpy_softmax(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_mhsa_two_heads_match_hand_assembly():
    d, heads, t = 6, 2, 3
    d_k = d // heads
    rng = np.random.default_rng(4)
    x = rng.normal(size=(t, d))
    w_qkv = rng.normal(size=(d, 3 * d))
    w_out = rng.normal(size=(d, d))
    mask = build_causal_mask(t)

    # hand assembly with plain numpy, one head at a time
    qkv = x @ w_qkv
    q, k, v = qkv[:, :d], qkv[:, d : 2 * d], qkv[:, 2 * d :]
    parts = []
    for i in range(heads):
        sl = slice(i * d_k, (i + 1) * d_k)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(d_k) + mask
        parts.append(_numpy_softmax(scores) @ v[:, sl])
    expected = np.concatenate(parts, axis=1) @ w_out

    block = _identity_block(d)
    block["attn_qkv.weight"] = Tensor(w_qkv, dtype=np.float64)
    block["attn_out.weight"] = Tensor(w_out, dtype=np.float64)
    out = _self_attention(Tensor(x, dtype=np.float64), 0, block, heads)
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# ffn and block
# ---------------------------------------------------------------------------


def _feed_forward_block(d, d_ff):
    """_identity_block with its attention output zeroed: block_forward then
    returns x plus its feed-forward sublayer of layer_norm(x)."""
    block = _identity_block(d, d_ff)
    block["attn_out.weight"] = Tensor(np.zeros((d, d)))
    return block


def test_ffn_constant_bias():
    block = _feed_forward_block(3, d_ff=4)
    block["ffn_b2.bias"] = Tensor([1.0, 2.0, 3.0])
    x = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
    out = block_forward(Tensor(x), [(5, 5, (0, 5))], block, n_heads=1)
    np.testing.assert_allclose(out.data, x + np.tile([1.0, 2.0, 3.0], (5, 1)), atol=1e-7)


def test_ffn_is_position_wise():
    rng = np.random.default_rng(5)
    block = _feed_forward_block(4, d_ff=6)
    block["ffn_w1.weight"] = Tensor(rng.normal(size=(4, 6)))
    block["ffn_w2.weight"] = Tensor(rng.normal(size=(6, 4)))
    x = rng.normal(size=(3, 4)).astype(np.float32)
    out = block_forward(Tensor(x), [(3, 3, (0, 3))], block, n_heads=1).data
    perm = [2, 0, 1]
    out_perm = block_forward(Tensor(x[perm]), [(3, 3, (0, 3))], block, n_heads=1).data
    np.testing.assert_array_equal(out_perm, out[perm])


def test_ffn_hand_case():
    block = _feed_forward_block(1, d_ff=2)
    block["ffn_w1.weight"] = Tensor([[-2.0, 3.0]])
    block["ffn_w2.weight"] = Tensor([[1.0], [1.0]])
    block["ln2.bias"] = Tensor([1.0])  # a 1-wide layer norm outputs its beta: the input is 1
    out = block_forward(Tensor([[1.0]]), [(1, 1, (0, 1))], block, n_heads=1)
    np.testing.assert_allclose(out.data, [[1.0 + 3.0]], atol=1e-7)


def test_block_zero_weights_is_residual_passthrough():
    d = 4
    block = _identity_block(d)
    block["attn_qkv.weight"] = Tensor(np.zeros((d, 3 * d)))
    block["attn_out.weight"] = Tensor(np.zeros((d, d)))
    x = np.random.default_rng(6).normal(size=(3, d)).astype(np.float32)
    out = block_forward(Tensor(x), [(3, 0, (0, 3))], block, n_heads=2)
    np.testing.assert_array_equal(out.data, x)
    # a feed-forward output bias shifts every row by that constant
    block["ffn_b2.bias"] = Tensor(np.full(d, 0.5, dtype=np.float32))
    out = block_forward(Tensor(x), [(3, 0, (0, 3))], block, n_heads=2)
    np.testing.assert_allclose(out.data, x + 0.5, atol=1e-7)


def test_block_preserves_shape():
    params = init_params(TINY, 7)
    for t in (1, 3, 6):
        x = Tensor(np.random.default_rng(t).normal(size=(t, 8)).astype(np.float32))
        out = block_forward(x, [(t, 0, (0, t))], params.block(0), 2)
        assert out.shape == (t, 8)


def _numpy_layer_norm(v, g, b, eps=1e-5):
    mu = v.mean(axis=1, keepdims=True)
    var = v.var(axis=1, keepdims=True)
    return (v - mu) / np.sqrt(var + eps) * g + b


def test_block_golden_straight_line_recompute():
    d, heads, t = 8, 2, 5
    d_k = d // heads
    rng = np.random.default_rng(42)
    params = init_params(
        ModelConfig(n_layers=1, d_model=d, n_heads=heads, d_ff=16, vocab_size=16,
                    max_positions=8),
        seed=42,
        dtype=np.float64,
    )
    bp = params.block(0)
    x = rng.normal(size=(t, d))
    mask = build_causal_mask(t)

    # straight-line recompute with plain numpy
    ln1 = _numpy_layer_norm(x, bp["ln1.weight"].data, bp["ln1.bias"].data)
    qkv = ln1 @ bp["attn_qkv.weight"].data
    q, k, v = qkv[:, :d], qkv[:, d : 2 * d], qkv[:, 2 * d :]
    parts = []
    for i in range(heads):
        sl = slice(i * d_k, (i + 1) * d_k)
        parts.append(
            _numpy_softmax(q[:, sl] @ k[:, sl].T / np.sqrt(d_k) + mask) @ v[:, sl]
        )
    h = np.concatenate(parts, axis=1) @ bp["attn_out.weight"].data + x
    ln2 = _numpy_layer_norm(h, bp["ln2.weight"].data, bp["ln2.bias"].data)
    hidden = np.maximum(ln2 @ bp["ffn_w1.weight"].data + bp["ffn_b1.bias"].data, 0)
    golden = hidden @ bp["ffn_w2.weight"].data
    golden = golden + bp["ffn_b2.bias"].data + h

    out = block_forward(Tensor(x, dtype=np.float64), [(t, 0, (0, t))], bp, heads)
    np.testing.assert_allclose(out.data, golden, atol=1e-12)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_logits_shape():
    m = tiny_model()
    logits = m.forward([1, 2, 3, 4], build_causal_mask(4))
    assert logits.shape == (4, 16)


def test_forward_rejects_mask_of_other_length():
    with pytest.raises(ShapeError, match="mask"):
        tiny_model().forward([1, 2, 3], build_causal_mask(2))


def test_forward_refuses_mask_that_is_neither_causal_nor_prefix():
    # forward reads m from the first row and runs the prefix rule, so any
    # other dense mask would be silently replaced: it is refused instead
    hides_everything = build_causal_mask(4)
    hides_everything[0, 0] = NEG_INF
    holed = build_prefix_mask(2, 2)
    holed[3, 1] = NEG_INF
    for mask in (build_causal_mask(4).T, hides_everything, holed):
        with pytest.raises(ShapeError, match="mask"):
            tiny_model().forward([1, 2, 3, 4], mask)


def test_forward_deterministic():
    m = tiny_model(seed=9)
    tokens = [3, 1, 4, 1, 5]
    mask = build_causal_mask(5)
    np.testing.assert_array_equal(
        m.forward(tokens, mask).data, m.forward(tokens, mask).data
    )


def test_forward_tape_records_pinned():
    # the memorization run's shape: 3 ops embed, 12 per block, 3 in the head
    config = ModelConfig(
        n_layers=4, d_model=64, n_heads=4, d_ff=256, vocab_size=458, max_positions=128
    )
    m = Model(config, init_params(config, seed=0))
    tokens = list(range(1, 51))
    with ComputationTape() as tape:
        m.forward(tokens, build_prefix_mask(40, 10))
    assert len(tape) == 54


def test_causal_invariance_to_future_perturbation():
    m = tiny_model(seed=10)
    base = [3, 1, 4, 1, 5, 9]
    for t in range(5):
        perturbed = list(base)
        perturbed[t + 1] = (perturbed[t + 1] + 7) % 16
        a = m.forward(base, build_causal_mask(6)).data
        b = m.forward(perturbed, build_causal_mask(6)).data
        np.testing.assert_array_equal(a[: t + 1], b[: t + 1])


def test_prefix_source_hidden_states_ignore_target():
    m = tiny_model(seed=11)
    # the source rows only: the final layer norm and the head act row by row
    a = m.forward_rows([([1, 2, 3, 4, 5, 6], 3, (0, 3))]).data
    b = m.forward_rows([([1, 2, 3, 9, 8, 7], 3, (0, 3))]).data
    np.testing.assert_array_equal(a, b)


def test_prefix_target_logits_ignore_later_target_tokens():
    m = tiny_model(seed=12)
    mask = build_prefix_mask(3, 3)
    base = [1, 2, 3, 4, 5, 6]
    for j in range(3):  # target positions 3+j
        for later in range(j + 1, 3):
            perturbed = list(base)
            perturbed[3 + later] = (perturbed[3 + later] + 5) % 16
            a = m.forward(base, mask).data
            b = m.forward(perturbed, mask).data
            np.testing.assert_array_equal(a[3 + j], b[3 + j])


def test_prefix_target_logits_depend_on_every_source_token():
    m = tiny_model(seed=13)
    mask = build_prefix_mask(3, 3)
    base = [1, 2, 3, 4, 5, 6]
    for s in range(3):
        perturbed = list(base)
        perturbed[s] = (perturbed[s] + 5) % 16
        a = m.forward(base, mask).data
        b = m.forward(perturbed, mask).data
        for j in range(3, 6):
            assert not np.array_equal(a[j], b[j])


# m source tokens, then n_hints forced target tokens in the prompt; every
# sequence runs to exactly max_positions
@pytest.mark.parametrize("m, n_hints", [(5, 0), (5, 1), (5, 2), (1, 0), (1, 2)])
def test_cached_decoding_matches_full_forward(m, n_hints):
    config = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab_size=16,
                         max_positions=12)
    params = init_params(config, seed=31, dtype=np.float64)
    rng = np.random.default_rng(32)
    for _, p in params.named():  # weights far from init, so every term matters
        p.data = p.data + rng.normal(0.0, 0.5, size=p.shape)
    model = Model(config, params)
    tokens = [int(i) for i in rng.integers(0, 16, size=config.max_positions)]
    full = model.forward(tokens, build_prefix_mask(m, len(tokens) - m)).data

    prompt = m + n_hints
    logits, cache = model.prefill(tokens[:prompt], m)
    rows = [logits] + [model.step(cache, tok) for tok in tokens[prompt:]]
    np.testing.assert_allclose(np.array(rows), full[prompt - 1:], rtol=0, atol=1e-5)
    with pytest.raises(ValueError, match="max_positions"):
        model.step(cache, tokens[0])
    assert cache.length == config.max_positions
    with ComputationTape(), pytest.raises(GraphError):
        model.prefill(tokens[:prompt], m)


def test_forward_rows_with_a_cache_refused_under_a_tape():
    """Cached attention runs off the tape whoever calls it, and is refused
    before any cache row is written."""
    model = tiny_model()
    shape = (TINY.n_layers, TINY.n_heads, TINY.max_positions, TINY.d_k)
    cache = KVCache(np.zeros(shape, np.float32), np.zeros(shape, np.float32))
    with ComputationTape(), pytest.raises(GraphError, match="outside any tape"):
        model.forward_rows([([1, 2, 3], 2, (0, 3))], cache)
    assert not cache.keys.any() and not cache.values.any()


@pytest.mark.parametrize("rows", [(0, 6), (2, 5), (5, 6)])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_forward_rows_match_forward_slice(n_layers, rows):
    config = replace(TINY, n_layers=n_layers)
    model = Model(config, init_params(config, seed=33))
    tokens, mask = [3, 1, 4, 1, 5, 9], build_prefix_mask(3, 3)
    full = model.forward(tokens, mask).data
    out = model.forward_rows([(tokens, 3, rows)]).data
    np.testing.assert_allclose(out, full[rows[0]:rows[1]], rtol=0, atol=1e-5)


def test_forward_rows_reject_source_longer_than_sequence():
    with pytest.raises(ShapeError, match="source length 4"):
        tiny_model().forward_rows([([1, 2, 3], 4, (1, 3))])


@pytest.mark.parametrize("m, n_hints", [(5, 0), (5, 3), (1, 2)])
def test_prefill_logits_match_forward_last_row(m, n_hints):
    # float32, as generation runs: prefill reads the last prompt row only
    model = tiny_model(seed=34)
    prompt = [int(i) for i in np.random.default_rng(m + n_hints).integers(0, 16, m + n_hints)]
    logits, cache = model.prefill(prompt, m)
    full = model.forward(prompt, build_prefix_mask(m, n_hints)).data
    np.testing.assert_allclose(logits, full[-1], rtol=0, atol=1e-5)
    assert cache.length == len(prompt)


def test_full_tiny_model_gradcheck_vs_finite_differences():
    config = TINY
    tokens = [3, 1, 4, 1, 5, 9]
    targets = [1, 4, 1, 5, 9, 2]
    mask = build_prefix_mask(3, 3)
    weights = [0.0, 0.0, 0.25, 0.25, 0.25, 0.25]  # the mean over the four target rows
    params = init_params(config, seed=21, dtype=np.float64)
    names, leaves = zip(*params.named())

    def loss_value(*arrays):
        trial = init_params(config, seed=21, dtype=np.float64)
        for (name, p), arr in zip(trial.named(), arrays):
            p.data[:] = arr
        logits = Model(config, trial).forward(tokens, mask)
        return cross_entropy(logits, targets, weights).item()

    arrays = [p.data.copy() for p in leaves]
    numeric = finite_difference_grads(loss_value, arrays)

    with ComputationTape():
        logits = Model(config, params).forward(tokens, mask)
        backward(cross_entropy(logits, targets, weights))
    for name, p, num in zip(names, leaves, numeric):
        err = grad_error(p.grad, num)
        assert err < 1e-4, f"{name}: gradient error {err:.2e}"


# ---------------------------------------------------------------------------
# init and parameter counting
# ---------------------------------------------------------------------------


def test_init_same_seed_bit_identical():
    a = init_params(TINY, seed=5)
    b = init_params(TINY, seed=5)
    for (_, pa), (_, pb) in zip(a.named(), b.named()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_init_different_seed_differs():
    a = init_params(TINY, seed=5)
    b = init_params(TINY, seed=6)
    assert not np.array_equal(a["embed_token"].data, b["embed_token"].data)


def test_init_layer_norm_gammas_are_one():
    params = init_params(TINY, seed=1)
    for i in range(TINY.n_layers):
        block = params.block(i)
        np.testing.assert_array_equal(block["ln1.weight"].data, np.ones(8))
        np.testing.assert_array_equal(block["ln2.weight"].data, np.ones(8))
    np.testing.assert_array_equal(params["final_ln.gamma"].data, np.ones(8))


ONE_LAYER = ModelConfig(
    n_layers=1, d_model=4, n_heads=2, d_ff=6, vocab_size=5, max_positions=3
)
ONE_LAYER_LAYOUT = [
    ("embed_token", (5, 4)),
    ("embed_pos", (3, 4)),
    ("block0.ln1.weight", (4,)),
    ("block0.ln1.bias", (4,)),
    ("block0.attn_qkv.weight", (4, 12)),
    ("block0.attn_out.weight", (4, 4)),
    ("block0.ln2.weight", (4,)),
    ("block0.ln2.bias", (4,)),
    ("block0.ffn_w1.weight", (4, 6)),
    ("block0.ffn_b1.bias", (6,)),
    ("block0.ffn_w2.weight", (6, 4)),
    ("block0.ffn_b2.bias", (4,)),
    ("final_ln.gamma", (4,)),
    ("final_ln.beta", (4,)),
]


def test_weights_layout_is_pinned():
    # the PFXLM1 file order; resume and generate depend on it
    assert [(name, shape) for name, shape, _ in param_spec(ONE_LAYER)] == ONE_LAYER_LAYOUT
    params = init_params(ONE_LAYER, seed=0)
    assert [(name, p.shape) for name, p in params.named()] == ONE_LAYER_LAYOUT


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_params_draws_in_file_order(dtype):
    # the six matrices take N(0, 0.02) draws in file order; the rest are 1 or 0
    rng = np.random.default_rng(11)
    shapes = dict(ONE_LAYER_LAYOUT)
    matrices = ["embed_token", "embed_pos", "block0.attn_qkv.weight",
                "block0.attn_out.weight", "block0.ffn_w1.weight", "block0.ffn_w2.weight"]
    expected = {name: rng.normal(0.0, 0.02, size=shapes[name]) for name in matrices}
    for name in ("block0.ln1.weight", "block0.ln2.weight", "final_ln.gamma"):
        expected[name] = np.ones(shapes[name])
    for name in ("block0.ln1.bias", "block0.ln2.bias", "block0.ffn_b1.bias",
                 "block0.ffn_b2.bias", "final_ln.beta"):
        expected[name] = np.zeros(shapes[name])
    params = init_params(ONE_LAYER, seed=11, dtype=dtype)
    assert len(expected) == len(list(params.named()))
    for name, p in params.named():
        assert p.dtype == dtype
        np.testing.assert_array_equal(p.data, expected[name].astype(dtype))


def param_total(config):
    """Parameters the config implies: the LM head is tied, so adds none."""
    return sum(math.prod(shape) for _, shape, _ in param_spec(config))


def test_param_count_matches_instantiated_params():
    assert param_total(TINY) == sum(p.data.size for _, p in init_params(TINY, 0).named())


def test_full_scale_param_count():
    config = ModelConfig(
        n_layers=12, d_model=768, n_heads=12, d_ff=3072,
        vocab_size=50257, max_positions=1024,
    )
    # independent shape sum: embeddings + 12 blocks + final layer norm
    embeddings = 50257 * 768 + 1024 * 768
    block = (768 * 2304) + (768 * 768) + (768 * 3072 + 3072) + (3072 * 768 + 768)
    block += 4 * 768  # two layer-norm (gamma, beta) pairs
    expected = embeddings + 12 * block + 2 * 768
    assert param_total(config) == expected == 124_402_944
    # the widely quoted "117M" rounds the same released architecture
    assert 1.1e8 < param_total(config) < 1.3e8


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(n_layers=1, d_model=10, n_heads=3, d_ff=4, vocab_size=16,
                    max_positions=8)
    with pytest.raises(ValueError):
        ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=4, vocab_size=16,
                    max_positions=0)


# ---------------------------------------------------------------------------
# weights files
# ---------------------------------------------------------------------------


def _write_params(params, path):
    write_tensor_map(path, ((name, p.data) for name, p in params.named()), 0)


def test_export_import_roundtrip(tmp_path):
    path = tmp_path / "weights.bin"
    params = init_params(TINY, seed=31)
    _write_params(params, path)
    loaded = load_model_weights(path, TINY)
    for (na, pa), (nb, pb) in zip(params.named(), loaded.named()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


def test_import_missing_tensor(tmp_path):
    path = tmp_path / "weights.bin"
    params = init_params(TINY, seed=31)
    items = [(n, p.data) for n, p in params.named() if n != "block1.attn_out.weight"]
    write_tensor_map(path, items, 0)
    with pytest.raises(WeightFileError, match="block1.attn_out.weight"):
        load_model_weights(path, TINY)


def test_import_shape_mismatch(tmp_path):
    path = tmp_path / "weights.bin"
    params = init_params(TINY, seed=31)
    items = [
        (n, p.data if n != "embed_pos" else np.zeros((3, 8), dtype=np.float32))
        for n, p in params.named()
    ]
    write_tensor_map(path, items, 0)
    with pytest.raises(WeightFileError, match="embed_pos"):
        load_model_weights(path, TINY)


def test_import_then_forward_matches(tmp_path):
    path = tmp_path / "weights.bin"
    params = init_params(TINY, seed=33)
    before = Model(TINY, params).forward([1, 2, 3], build_causal_mask(3)).data
    _write_params(params, path)
    after = Model(TINY, load_model_weights(path, TINY)).forward(
        [1, 2, 3], build_causal_mask(3)
    ).data
    np.testing.assert_array_equal(before, after)


def test_tensor_map_meta_step(tmp_path):
    path = tmp_path / "map.bin"
    write_tensor_map(path, [("a", np.arange(6, dtype=np.float32).reshape(2, 3))],
                     meta_step=17)
    tensors, step = read_tensor_map(path)
    assert step == 17
    np.testing.assert_array_equal(tensors["a"], np.arange(6).reshape(2, 3))


def test_tensor_map_bad_header(tmp_path):
    path = tmp_path / "map.bin"
    path.write_bytes(b"NOTAMAP 1\n")
    with pytest.raises(WeightFileError):
        read_tensor_map(path)


def test_tensor_map_truncated_payload(tmp_path):
    path = tmp_path / "map.bin"
    path.write_bytes(b"PFXLM1 1\na\t1\t4\n\x00\x00")
    with pytest.raises(WeightFileError, match="truncated"):
        read_tensor_map(path)


def test_tensor_map_huge_dims_fail_fast(tmp_path):
    # 10^12 elements would be a 4 TB read; the bytes left in the file bound it
    path = tmp_path / "map.bin"
    path.write_bytes(b"PFXLM1 1\na\t2\t1000000 1000000\n" + bytes(16))
    with pytest.raises(WeightFileError, match="truncated") as err:
        read_tensor_map(path)
    assert str(path) in str(err.value)


def test_tensor_map_empty_payload_with_oversized_dims(tmp_path):
    # zero elements need no payload, but numpy cannot hold a 10^30 extent
    path = tmp_path / "map.bin"
    path.write_bytes(b"PFXLM1 1\na\t2\t0 1000000000000000000000000000000\n")
    with pytest.raises(WeightFileError, match="bad dims") as err:
        read_tensor_map(path)
    assert str(path) in str(err.value)


def test_tensor_map_bad_meta_step(tmp_path):
    # a negative step would resume before step 1 and train past `steps`
    for trailer in (b"meta\tx\n", b"meta\t-1\n"):
        path = tmp_path / "map.bin"
        write_tensor_map(path, [("a", np.zeros(2, dtype=np.float32))], 0)
        data = path.read_bytes()
        path.write_bytes(data.removesuffix(b"meta\t0\n") + trailer)
        with pytest.raises(WeightFileError, match="bad meta step") as err:
            read_tensor_map(path)
        assert str(path) in str(err.value)


def test_tensor_map_repeated_tensor_name(tmp_path):
    # a second embed_pos would otherwise replace the first without a word
    path = tmp_path / "map.bin"
    first, second = np.zeros(2, dtype=np.float32), np.full(2, 7.0, dtype=np.float32)
    path.write_bytes(b"PFXLM1 2\nembed_pos\t1\t2\n" + first.tobytes()
                     + b"embed_pos\t1\t2\n" + second.tobytes())
    with pytest.raises(WeightFileError, match="repeated tensor 'embed_pos'") as err:
        read_tensor_map(path)
    assert str(path) in str(err.value)


def test_tensor_map_writer_refuses_repeated_tensor_name(tmp_path):
    # the reader would refuse the file, so the writer never starts one
    path = tmp_path / "map.bin"
    items = [("a", np.zeros(2, dtype=np.float32)), ("a", np.ones(2, dtype=np.float32))]
    with pytest.raises(WeightFileError, match="repeated tensor 'a'") as err:
        write_tensor_map(path, items, meta_step=1)
    assert str(path) in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_tensor_map_writer_refuses_negative_meta_step(tmp_path):
    path = tmp_path / "map.bin"
    with pytest.raises(WeightFileError, match="bad meta step -1") as err:
        write_tensor_map(path, [("a", np.zeros(2, dtype=np.float32))], meta_step=-1)
    assert str(path) in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_tensor_map_write_replaces_old_file(tmp_path):
    path = tmp_path / "ck.bin"
    write_tensor_map(path, [("a", np.arange(3, dtype=np.float32))], meta_step=1)
    write_tensor_map(path, [("b", np.ones((2, 2), dtype=np.float32))], meta_step=2)
    tensors, step = read_tensor_map(path)
    assert step == 2 and list(tensors) == ["b"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]


def _valid_weights_file():
    """The bytes of a TINY weights file with a meta step line."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "weights.bin"
        write_tensor_map(path, ((n, p.data) for n, p in init_params(TINY, 3).named()),
                         meta_step=4)
        return path.read_bytes()


def _text_offsets(data):
    """Offsets of the bytes of a tensor map's header, tensor and meta lines,
    where an edit changes the structure rather than a float."""
    offsets, pos = [], 0
    while pos < len(data):
        end = data.index(b"\n", pos) + 1
        offsets.extend(range(pos, end))
        fields = data[pos : end - 1].split(b"\t")
        pos = end
        if len(fields) == 3:  # name, rank, dims: a float32 payload follows
            pos += 4 * math.prod(int(x) for x in fields[2].split())
    return offsets


_WEIGHTS = _valid_weights_file()
_EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "truncate"]),
    st.one_of(st.integers(0, len(_WEIGHTS)), st.sampled_from(_text_offsets(_WEIGHTS))),
    st.sampled_from(b"0123456789- \t\n\xff\x00\x7f"),
)


def _mutate(data, edits):
    """data after each (kind, offset, byte) edit in turn."""
    buf = bytearray(data)
    for kind, pos, byte in edits:
        pos = min(pos, len(buf))
        if kind == "replace" and pos < len(buf):
            buf[pos] = byte
        elif kind == "insert":
            buf.insert(pos, byte)
        elif kind == "delete":
            del buf[pos : pos + 1]
        elif kind == "truncate":
            del buf[pos:]
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: b"PFXLM1 " + tail),
    st.lists(_EDIT, min_size=1, max_size=4).map(lambda edits: _mutate(_WEIGHTS, edits)),
))
def test_weights_reader_is_total(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "weights.bin"
        path.write_bytes(data)
        try:
            params = load_model_weights(path, TINY)
        except WeightFileError as e:
            assert str(e).startswith(f"{path}: "), e
            return
    for (name, shape, _), (_, p) in zip(param_spec(TINY), params.named()):
        assert p.shape == shape and np.all(np.isfinite(p.data)), name
