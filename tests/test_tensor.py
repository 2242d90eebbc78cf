import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    finite_difference_grads,
    grad_error,
    mul,
    reference_attention,
    reference_layer_norm,
    scale,
    softmax_rows,
    sum_all,
)

from prefixlm.model import build_prefix_mask
from prefixlm.tensor import (
    ComputationTape,
    GraphError,
    ShapeError,
    Tensor,
    add,
    attention,
    backward,
    cross_entropy,
    embedding_rows,
    layer_norm,
    matmul,
    relu,
    slice_rows,
    transpose,
    _softmax,
)

NEG_INF = float("-inf")


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64))


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(t64(np.eye(2)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    out = matmul(t64([[1, 2], [3, 4]]), t64([[5, 6], [7, 8]]))
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_zero():
    out = matmul(t64(np.zeros((2, 3))), t64(np.arange(12).reshape(3, 4)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))


def test_transpose_is_a_view_of_its_operand():
    a = t64(np.arange(6.0).reshape(2, 3))
    out = transpose(a)
    np.testing.assert_array_equal(out.data, a.data.T)
    assert np.shares_memory(out.data, a.data)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_matmul_associativity_small_integers(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (
        rng.integers(-4, 5, size=(3, 3)).astype(np.float64) for _ in range(3)
    )
    left = matmul(matmul(t64(a), t64(b)), t64(c)).data
    right = matmul(t64(a), matmul(t64(b), t64(c))).data
    np.testing.assert_array_equal(left, right)


# ---------------------------------------------------------------------------
# the softmax inside attention
# ---------------------------------------------------------------------------


def test_softmax_uniform_row():
    out = _softmax(np.array([[0.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.25] * 4])


def test_softmax_masked_entry_exactly_zero():
    out = _softmax(np.array([[5.0, NEG_INF]]))
    assert out[0, 0] == 1.0
    assert out[0, 1] == 0.0


def test_softmax_hand_logistic():
    out = _softmax(np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(out, [[0.26894, 0.73106]], atol=1e-5)


def test_softmax_degenerate_row():
    with pytest.raises(ValueError, match="degenerate"):
        _softmax(np.array([[NEG_INF, NEG_INF]]))


def test_softmax_degenerate_row_beside_a_nan_row():
    # the row maxima are [nan, -inf]: their min is nan, not -inf, so a check
    # through min() would let the all -inf row through
    with pytest.raises(ValueError, match="degenerate"):
        _softmax(np.array([[np.nan, 0.0], [NEG_INF, NEG_INF]]))
    with pytest.raises(ValueError, match="degenerate"):
        _softmax(np.array([[[NEG_INF, NEG_INF]], [[1.0, np.nan]]], dtype=np.float32))


def test_softmax_large_values_stable():
    out = _softmax(np.array([[1000.0, 1000.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5]])


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one(seed, r, c):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(r, c)) * 10
    out = _softmax(x)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(r), atol=1e-6)
    assert np.all(out >= 0)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


def _unit_affine(d):
    return t64(np.ones(d)), t64(np.zeros(d))


def test_layer_norm_constant_row():
    gamma, beta = _unit_affine(3)
    out = layer_norm(t64([[4.0, 4.0, 4.0]]), gamma, beta, eps=1e-5)
    assert np.all(np.abs(out.data) < 1e-2)


def test_layer_norm_hand_case():
    gamma, beta = _unit_affine(2)
    out = layer_norm(t64([[1.0, 3.0]]), gamma, beta, eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_scale_shift():
    out = layer_norm(t64([[1.0, 3.0]]), t64([2.0, 2.0]), t64([1.0, 1.0]), eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 3.0]], atol=1e-4)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 8))
@example(seed=974504, r=2, d=2)  # a row of variance 8.6e-7 normalizes to 0.99988
@settings(max_examples=40, deadline=None)
def test_layer_norm_row_moments(seed, r, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(r, d)) * 3 + 1
    gamma, beta = _unit_affine(d)
    eps = 1e-10
    out = layer_norm(t64(x), gamma, beta, eps=eps).data
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(r), atol=1e-6)
    # (x - mu) / sqrt(v + eps) has variance v / (v + eps), not exactly 1
    v = x.var(axis=1)
    np.testing.assert_allclose(out.var(axis=1), v / (v + eps), rtol=0, atol=1e-6)


@given(st.integers(0, 2**32 - 1), st.sampled_from([np.float32, np.float64]),
       st.integers(1, 469), st.integers(2, 256), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
@example(0, np.float32, 469, 64, 0)
@example(1, np.float64, 1, 256, 0)
def test_layer_norm_matches_mean_oracle(seed, dtype, rows, width, log_scale):
    """Output and all three gradients are bit-equal to the ndarray.mean form."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, width)) * 10.0**log_scale + rng.normal(0.0, 10.0)
    gamma, beta = rng.normal(size=width), rng.normal(size=width)
    g = Tensor(rng.normal(size=(rows, width)), dtype=dtype)
    results = []
    for op in (layer_norm, reference_layer_norm):
        ts = [Tensor(a, dtype=dtype) for a in (x, gamma, beta)]
        with ComputationTape():
            out = op(*ts, eps=1e-5)
            loss = sum_all(mul(out, g))  # out's gradient is exactly g
        backward(loss)
        results.append([out.data] + [t.grad for t in ts])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


def test_layer_norm_rejects_bad_eps():
    gamma, beta = _unit_affine(2)
    with pytest.raises(ValueError):
        layer_norm(t64([[1.0, 2.0]]), gamma, beta, eps=0.0)


# ---------------------------------------------------------------------------
# cross_entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform():
    logits = t64(np.zeros((1, 4)))
    loss = cross_entropy(logits, [2], [1.0])
    assert abs(loss.item() - math.log(4)) < 1e-9


def test_cross_entropy_near_one_hot():
    row = np.zeros((1, 4))
    row[0, 1] = 20.0
    assert cross_entropy(t64(row), [1], [1.0]).item() < 1e-6


def test_cross_entropy_hand_case():
    loss = cross_entropy(t64([[1.0, 2.0]]), [0], [1.0])
    assert abs(loss.item() - 1.31326) < 1e-4


def test_cross_entropy_zero_weight_leaves_a_row_out():
    logits = t64([[0.0, 10.0], [10.0, 0.0]])
    # only the second row (a confident, correct prediction) contributes
    loss = cross_entropy(logits, [0, 0], [0.0, 1.0])
    assert loss.item() < 1e-4


def test_cross_entropy_weights_scale_each_row():
    logits = np.random.default_rng(4).normal(size=(3, 5))
    targets = [4, 0, 2]
    per_row = [cross_entropy(t64(logits[i:i + 1]), targets[i:i + 1], [1.0]).item()
               for i in range(3)]
    loss = cross_entropy(t64(logits), targets, [0.5, 0.25, 2.0]).item()
    assert loss == pytest.approx(0.5 * per_row[0] + 0.25 * per_row[1] + 2.0 * per_row[2])


def test_cross_entropy_rejects_weights_of_other_length():
    with pytest.raises(ShapeError, match="weights"):
        cross_entropy(t64(np.zeros((2, 3))), [0, 1], [1.0])
    with pytest.raises(ValueError, match="no rows"):
        cross_entropy(t64(np.zeros((0, 3))), [], [])


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy(t64(np.zeros((1, 3))), [3], [1.0])


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


def test_backward_square():
    x = t64([[3.0]])
    with ComputationTape():
        y = sum_all(mul(x, x))
        backward(y)
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_tape_records_every_op_and_backward_reaches_every_operand():
    # no flag marks a parameter: the input x gets its gradient as w does
    x, w = t64([[1.0, 2.0]]), t64([[3.0], [4.0]])
    assert matmul(x, w).tape is None  # outside a tape nothing is recorded
    with ComputationTape() as tape:
        y = sum_all(matmul(x, w))
        assert len(tape) == 2 and y.tape is tape
        backward(y)
    np.testing.assert_allclose(x.grad, [[3.0, 4.0]])
    np.testing.assert_allclose(w.grad, [[1.0], [2.0]])


def test_backward_unreachable_leaf_keeps_no_gradient():
    x = t64([[3.0]])
    p = t64([[1.0]])
    with ComputationTape():
        y = sum_all(mul(x, x))
        backward(y)
    assert p.grad is None


def test_backward_requires_scalar():
    x = t64([[1.0, 2.0]])
    with ComputationTape():
        y = mul(x, x)
        with pytest.raises(ShapeError):
            backward(y)


def test_backward_off_tape_value():
    x = t64([[1.0]])
    y = sum_all(mul(x, x))  # no active tape: nothing recorded
    with pytest.raises(GraphError):
        backward(y)


def test_gradients_accumulate_until_zeroed():
    x = t64([[2.0]])
    for _ in range(2):
        with ComputationTape():
            backward(sum_all(mul(x, x)))
    np.testing.assert_allclose(x.grad, [[8.0]])
    x.zero_grad()
    assert x.grad is None


def test_backward_consumes_its_tape():
    x = t64([[2.0]])
    with ComputationTape() as tape:
        y = sum_all(mul(x, x))
        backward(y)
        assert len(tape) == 0
        with pytest.raises(GraphError):
            backward(y)
    np.testing.assert_allclose(x.grad, [[4.0]])


def test_shared_value_grads_sum():
    x = t64([[1.5]])
    with ComputationTape():
        y = mul(x, x)  # d/dx = 2x
        z = sum_all(add(y, y))  # total d/dx = 4x
        backward(z)
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_nested_tape_rejected():
    with ComputationTape():
        with pytest.raises(GraphError):
            with ComputationTape():
                pass


# ---------------------------------------------------------------------------
# gradient checks against central finite differences (64-bit)
# ---------------------------------------------------------------------------


def _check_op(build, arrays, tol=1e-4):
    """build(tensors) -> scalar Tensor; compares backward against the oracle."""

    def value(*arrs):
        return build([Tensor(a.copy(), dtype=np.float64) for a in arrs]).item()

    numeric = finite_difference_grads(value, [a.copy() for a in arrays])
    leaves = [Tensor(a.copy(), dtype=np.float64) for a in arrays]
    with ComputationTape():
        backward(build(leaves))
    for leaf, num in zip(leaves, numeric):
        assert grad_error(leaf.grad, num) < tol


def _weighted(out):
    # fixed random projection to a scalar so no gradient direction cancels
    w = Tensor(np.random.default_rng(7).normal(size=out.shape), dtype=np.float64)
    return sum_all(mul(out, w))


OPS = {
    "matmul": lambda ts: _weighted(matmul(ts[0], ts[1])),
    "add": lambda ts: _weighted(add(ts[0], ts[1])),
    "mul": lambda ts: _weighted(mul(ts[0], ts[1])),
    "transpose": lambda ts: _weighted(transpose(ts[0])),
    "relu": lambda ts: _weighted(relu(ts[0])),
    "softmax": lambda ts: _weighted(softmax_rows(ts[0])),
    "scale": lambda ts: _weighted(scale(ts[0], 0.37)),
    "slice_rows": lambda ts: _weighted(slice_rows(ts[0], [(1, 3)])),
    "slice_rows_overlapping": lambda ts: _weighted(slice_rows(ts[0], [(2, 4), (0, 3)])),
    # 2 heads of width 2
    "attention": lambda ts: _weighted(attention(ts[0], [(4, 0, (0, 4))], 2)),
    # two packed sequences of 2 rows, the second scoring its last row only
    "attention_packed": lambda ts: _weighted(attention(ts[0], [(2, 1, (0, 2)), (2, 0, (1, 2))], 2)),
}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_ops(name, seed):
    rng = np.random.default_rng(seed * 1000 + 17)
    if name == "matmul":
        arrays = [rng.normal(size=(4, 5)), rng.normal(size=(5, 3))]
    elif name in ("add", "mul"):
        arrays = [rng.normal(size=(4, 5)), rng.normal(size=(4, 5))]
    elif name.startswith("attention"):
        arrays = [rng.normal(size=(4, 12))]
    else:
        arrays = [rng.normal(size=(4, 5))]
    _check_op(OPS[name], arrays)


def test_gradcheck_add_bias_broadcast():
    rng = np.random.default_rng(3)
    _check_op(OPS["add"], [rng.normal(size=(4, 5)), rng.normal(size=(5,))])


def test_gradcheck_layer_norm():
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=(3, 6)), rng.normal(size=(6,)), rng.normal(size=(6,))]

    def build(ts):
        return _weighted(layer_norm(ts[0], ts[1], ts[2], eps=1e-5))

    _check_op(build, arrays)


def test_gradcheck_cross_entropy():
    rng = np.random.default_rng(9)
    arrays = [rng.normal(size=(5, 7))]
    targets = [1, 4, 0, 6, 2]
    weights = [0.5, 0.0, 1.0, 0.25, 0.0]

    def build(ts):
        return cross_entropy(ts[0], targets, weights)

    _check_op(build, arrays)


def test_gradcheck_overlapping_row_slices_and_whole_operand():
    # the whole use creates the gradient; both slices then add into their rows
    rng = np.random.default_rng(13)

    def build(ts):
        first = _weighted(slice_rows(ts[0], [(0, 3)]))
        second = _weighted(slice_rows(ts[0], [(1, 5)]))
        return add(add(first, second), _weighted(ts[0]))

    _check_op(build, [rng.normal(size=(5, 4))])


def test_gradcheck_embedding_rows():
    rng = np.random.default_rng(11)
    table = rng.normal(size=(6, 4))
    ids = [0, 3, 3, 5]  # repeated id exercises scatter-add

    def build(ts):
        return _weighted(embedding_rows(ts[0], ids))

    _check_op(build, [table])


# source lengths of 5-row sequences: causal, prefix, and every key visible
SOURCE_LENGTHS = {"causal": 0, "prefix": 2, "visible": 5}


@pytest.mark.parametrize("rule", sorted(SOURCE_LENGTHS))
@pytest.mark.parametrize("n_heads", [1, 2, 3, 4])
def test_attention_matches_per_head_reference(n_heads, rule):
    m = SOURCE_LENGTHS[rule]
    mask = build_prefix_mask(max(m, 1), 5 - max(m, 1))
    qkv = np.random.default_rng(n_heads).normal(size=(5, 36))  # d = 12
    w = np.random.default_rng(99).normal(size=(5, 12))
    results = []
    for op in (lambda x: attention(x, [(5, m, (0, 5))], n_heads),
               lambda x: reference_attention(x, mask, n_heads)):
        leaf = t64(qkv)
        with ComputationTape():
            out = op(leaf)
            backward(sum_all(mul(out, t64(w))))
        results.append((out.data, leaf.grad))
    (out, grad), (ref_out, ref_grad) = results
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-10)


@pytest.mark.parametrize("rule", sorted(SOURCE_LENGTHS))
@pytest.mark.parametrize("start", [1, 2, 4])
def test_cached_attention_matches_one_full_call(start, rule):
    # 3 heads of width 4; the cache has room for 8 positions
    m = SOURCE_LENGTHS[rule]
    qkv = np.random.default_rng(start).normal(size=(5, 36))
    keys, values = np.full((3, 8, 4), np.nan), np.full((3, 8, 4), np.nan)
    attention(t64(qkv[:start]), [(start, min(m, start), (0, start))], 3, (keys, values, 0))
    out = attention(t64(qkv[start:]), [(5 - start, m, (0, 5 - start))], 3,
                    (keys, values, start)).data
    full = attention(t64(qkv), [(5, m, (0, 5))], 3).data
    np.testing.assert_allclose(out, full[start:], rtol=0, atol=1e-12)
    # the cache holds the projection's keys and values, heads first
    k, v = (qkv[:, j * 12 : (j + 1) * 12].reshape(5, 3, 4).transpose(1, 0, 2) for j in (1, 2))
    np.testing.assert_array_equal(keys[:, :5], k)
    np.testing.assert_array_equal(values[:, :5], v)
    assert np.isnan(keys[:, 5:]).all() and np.isnan(values[:, 5:]).all()


@pytest.mark.parametrize("rule", sorted(SOURCE_LENGTHS))
@pytest.mark.parametrize("rows", [(0, 5), (2, 4), (4, 5), (0, 1)])
def test_attention_query_rows_match_full_call(rows, rule):
    # queries from rows a:b, keys and values from all rows: the full call's
    # rows a:b, and its gradient when only those rows carry one
    a, b = rows
    m = SOURCE_LENGTHS[rule]
    qkv = np.random.default_rng(a * 7 + b).normal(size=(5, 36))
    w = np.zeros((5, 12))
    w[a:b] = np.random.default_rng(98).normal(size=(b - a, 12))
    results = []
    for q_rows, weight in ((rows, w[a:b]), ((0, 5), w)):
        leaf = t64(qkv)
        with ComputationTape():
            out = attention(leaf, [(5, m, q_rows)], 3)
            backward(sum_all(mul(out, t64(weight))))
        results.append((out.data, leaf.grad))
    (out, grad), (full, full_grad) = results
    np.testing.assert_allclose(out, full[a:b], rtol=0, atol=1e-12)
    np.testing.assert_allclose(grad, full_grad, rtol=0, atol=1e-12)
    # no query gradient outside the rows
    dq = grad[:, :12]
    assert not dq[:a].any() and not dq[b:].any()


@pytest.mark.parametrize("start", [1, 3])
def test_cached_attention_query_rows(start):
    # a cached call writes keys and values for every new row and answers the
    # queries of its rows only
    qkv = np.random.default_rng(start).normal(size=(5, 36))
    keys, values = np.full((3, 8, 4), np.nan), np.full((3, 8, 4), np.nan)
    attention(t64(qkv[:start]), [(start, min(2, start), (0, start))], 3, (keys, values, 0))
    out = attention(t64(qkv[start:]), [(5 - start, 2, (4 - start, 5 - start))], 3,
                    (keys, values, start))
    full = attention(t64(qkv), [(5, 2, (0, 5))], 3).data
    np.testing.assert_allclose(out.data, full[4:5], rtol=0, atol=1e-12)
    assert not np.isnan(keys[:, :5]).any() and np.isnan(keys[:, 5:]).all()


@st.composite
def _segments(draw):
    """1-3 packed segments (n, m, rows) with n in [1, 9], m in [0, n] and
    query rows (a, b), all n rows half of the time."""
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 9))
        m = draw(st.integers(0, n))
        rows = (0, n)
        if draw(st.booleans()):
            a = draw(st.integers(0, n - 1))
            rows = (a, draw(st.integers(a + 1, n)))
        segments.append((n, m, rows))
    return segments


@given(st.integers(0, 2**32 - 1), _segments(), st.sampled_from([1, 2]), st.sampled_from([4, 6]))
@settings(max_examples=60, deadline=None)
def test_attention_matches_dense_mask_oracle(seed, segments, n_heads, d_k):
    # float64: the prefix rule of each segment's source length gives the
    # output and qkv gradient of the per-head oracle, run per segment on the
    # dense prefix mask of max(m, 1) (m = 0 and m = 1 are both causal); at
    # d_k = 6 the scale 1/sqrt(d_k) is not a power of two
    rng = np.random.default_rng(seed)
    t = sum(n for n, _, _ in segments)
    qkv = rng.normal(size=(t, 3 * d_k * n_heads))
    leaf = t64(qkv)
    ref_leaf = t64(qkv)
    with ComputationTape():
        out = attention(leaf, segments, n_heads)
        w = t64(rng.normal(size=out.shape))
        backward(sum_all(mul(out, w)))
    with ComputationTape():
        loss, offset, r = None, 0, 0
        for n, m, (a, b) in segments:
            first = max(m, 1)
            x = slice_rows(ref_leaf, [(offset, offset + n)])
            ref = slice_rows(reference_attention(x, build_prefix_mask(first, n - first), n_heads),
                             [(a, b)])
            np.testing.assert_allclose(out.data[r:r + b - a], ref.data, rtol=0, atol=1e-12)
            part = sum_all(mul(ref, t64(w.data[r:r + b - a])))
            loss = part if loss is None else add(loss, part)
            offset, r = offset + n, r + b - a
        backward(loss)
    np.testing.assert_allclose(leaf.grad, ref_leaf.grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [(0, 300), (250, 300)])
def test_float32_attention_at_the_workload_shape_matches_float64_oracle(rows):
    # one 300-row segment with a 250-token source and 4 heads of width 16, the
    # shape of a training example: the float32 output and qkv gradient lie
    # within 1e-5 of the largest absolute value of the float64 oracle's
    a, b = rows
    rng = np.random.default_rng(300)
    qkv = rng.normal(size=(300, 192)).astype(np.float32)
    w = rng.normal(size=(b - a, 64)).astype(np.float32)
    leaf, ref_leaf = Tensor(qkv), t64(qkv)
    with ComputationTape():
        out = attention(leaf, [(300, 250, rows)], 4)
        backward(sum_all(mul(out, Tensor(w))))
    with ComputationTape():
        ref = slice_rows(reference_attention(ref_leaf, build_prefix_mask(250, 50), 4), [rows])
        backward(sum_all(mul(ref, t64(w))))
    for got, want in ((out.data, ref.data), (leaf.grad, ref_leaf.grad)):
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.data())
@settings(max_examples=40, deadline=None)
def test_cached_attention_matches_full_call_at_any_split(seed, n, data):
    # one segment split at `start`: the cached call over the rows from start
    # on answers as one full call does, for a source ending before or after
    # start; the call up to start does too when the source ends by then
    start = data.draw(st.integers(1, n - 1))
    a = data.draw(st.integers(0, n - start - 1))
    rows = (a, data.draw(st.integers(a + 1, n - start)))
    qkv = np.random.default_rng(seed).normal(size=(n, 24))  # 2 heads of width 4
    for m in (data.draw(st.integers(0, start)), data.draw(st.integers(start + 1, n))):
        keys, values = np.full((2, 10, 4), np.nan), np.full((2, 10, 4), np.nan)
        head = attention(t64(qkv[:start]), [(start, min(m, start), (0, start))], 2,
                         (keys, values, 0)).data
        out = attention(t64(qkv[start:]), [(n - start, m, rows)], 2, (keys, values, start)).data
        full = attention(t64(qkv), [(n, m, (0, n))], 2).data
        np.testing.assert_allclose(out, full[start + rows[0]:start + rows[1]],
                                   rtol=0, atol=1e-12)
        if m <= start:
            np.testing.assert_allclose(head, full[:start], rtol=0, atol=1e-12)


def test_attention_rejects_query_rows_mismatch():
    qkv = t64(np.zeros((4, 12)))
    # the source may span every row, not more
    with pytest.raises(ShapeError, match="source length 5"):
        attention(qkv, [(4, 5, (1, 3))], 2)
    with pytest.raises(ShapeError, match="source length -1"):
        attention(qkv, [(4, -1, (1, 3))], 2)
    attention(qkv, [(4, 4, (1, 3))], 2)
    for rows in ((2, 2), (3, 1), (-1, 2), (0, 5)):
        with pytest.raises(ShapeError, match="query rows"):
            attention(qkv, [(4, 0, rows)], 2)


def test_attention_rejects_mismatched_shapes():
    qkv = t64(np.zeros((3, 12)))
    with pytest.raises(ShapeError):
        attention(qkv, [(3, 0, (0, 3))], 3)  # 12 columns are not 3 blocks of 3 heads
    with pytest.raises(ShapeError, match="add up"):
        attention(qkv, [(2, 0, (0, 2)), (2, 0, (0, 2))], 2)
    # after 2 cached positions the source may span 5 positions; the cache stays unwritten
    keys, values = np.full((2, 8, 3), np.nan), np.full((2, 8, 3), np.nan)
    with pytest.raises(ShapeError, match="source length 6 out of range for 5"):
        attention(qkv, [(3, 6, (0, 3))], 2, (keys, values, 2))
    with pytest.raises(ShapeError, match="one segment"):
        attention(qkv, [(1, 0, (0, 1)), (2, 0, (0, 2))], 2, (keys, values, 2))
    assert np.isnan(keys).all() and np.isnan(values).all()


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
)
@settings(max_examples=20, deadline=None)
def test_gradcheck_matmul_random_shapes(seed, m, k, n):
    rng = np.random.default_rng(seed)
    _check_op(OPS["matmul"], [rng.normal(size=(m, k)), rng.normal(size=(k, n))])


# ---------------------------------------------------------------------------
# dtype and finiteness
# ---------------------------------------------------------------------------


def test_default_dtype_is_float32():
    assert Tensor([1, 2, 3]).dtype == np.float32


def test_float64_preserved():
    assert t64([1.0]).dtype == np.float64


def test_forward_values_finite_on_finite_inputs():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(size=(4, 4)) * 50)
    for out in (_softmax(x.data.copy()), relu(x).data):  # _softmax overwrites its argument
        assert np.all(np.isfinite(out))
