import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import finite_difference_grads, grad_error, reference_attention

from prefixlm.model import build_causal_mask, build_prefix_mask
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
    gelu,
    layer_norm,
    matmul,
    mul,
    relu,
    scale,
    slice_rows,
    softmax_rows,
    sub,
    sum_all,
    transpose,
)

NEG_INF = float("-inf")


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


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
# softmax_rows
# ---------------------------------------------------------------------------


def test_softmax_uniform_row():
    out = softmax_rows(t64([[0.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.25] * 4])


def test_softmax_masked_entry_exactly_zero():
    out = softmax_rows(t64([[5.0, NEG_INF]]))
    assert out.data[0, 0] == 1.0
    assert out.data[0, 1] == 0.0


def test_softmax_hand_logistic():
    out = softmax_rows(t64([[1.0, 2.0]]))
    np.testing.assert_allclose(out.data, [[0.26894, 0.73106]], atol=1e-5)


def test_softmax_degenerate_row():
    with pytest.raises(ValueError, match="degenerate"):
        softmax_rows(t64([[NEG_INF, NEG_INF]]))


def test_softmax_large_values_stable():
    out = softmax_rows(t64([[1000.0, 1000.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one(seed, r, c):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(r, c)) * 10
    out = softmax_rows(t64(x))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(r), atol=1e-6)
    assert np.all(out.data >= 0)


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
@settings(max_examples=40, deadline=None)
def test_layer_norm_row_moments(seed, r, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(r, d)) * 3 + 1
    gamma, beta = _unit_affine(d)
    out = layer_norm(t64(x), gamma, beta, eps=1e-10).data
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(r), atol=1e-6)
    np.testing.assert_allclose(out.var(axis=1), np.ones(r), atol=1e-4)


def test_layer_norm_rejects_bad_eps():
    gamma, beta = _unit_affine(2)
    with pytest.raises(ValueError):
        layer_norm(t64([[1.0, 2.0]]), gamma, beta, eps=0.0)


# ---------------------------------------------------------------------------
# cross_entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform():
    logits = t64(np.zeros((1, 4)))
    loss = cross_entropy(logits, [2])
    assert abs(loss.item() - math.log(4)) < 1e-9


def test_cross_entropy_near_one_hot():
    row = np.zeros((1, 4))
    row[0, 1] = 20.0
    assert cross_entropy(t64(row), [1]).item() < 1e-6


def test_cross_entropy_hand_case():
    loss = cross_entropy(t64([[1.0, 2.0]]), [0])
    assert abs(loss.item() - 1.31326) < 1e-4


def test_cross_entropy_mask_selects_positions():
    logits = t64([[0.0, 10.0], [10.0, 0.0]])
    # only the second row (a confident, correct prediction) contributes
    loss = cross_entropy(logits, [0, 0], loss_mask=[False, True])
    assert loss.item() < 1e-4


def test_cross_entropy_all_masked():
    with pytest.raises(ValueError, match="masked"):
        cross_entropy(t64(np.zeros((2, 3))), [0, 1], loss_mask=[False, False])


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy(t64(np.zeros((1, 3))), [3])


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


def test_backward_square():
    x = t64([[3.0]], requires_grad=True)
    with ComputationTape():
        y = sum_all(mul(x, x))
        backward(y)
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_backward_unreachable_leaf_keeps_zero():
    x = t64([[3.0]], requires_grad=True)
    p = t64([[1.0]], requires_grad=True)
    with ComputationTape():
        y = sum_all(mul(x, x))
        backward(y)
    np.testing.assert_array_equal(p.grad, [[0.0]])


def test_backward_requires_scalar():
    x = t64([[1.0, 2.0]], requires_grad=True)
    with ComputationTape():
        y = mul(x, x)
        with pytest.raises(ShapeError):
            backward(y)


def test_backward_off_tape_value():
    x = t64([[1.0]], requires_grad=True)
    y = sum_all(mul(x, x))  # no active tape: nothing recorded
    with pytest.raises(GraphError):
        backward(y)


def test_gradients_accumulate_until_zeroed():
    x = t64([[2.0]], requires_grad=True)
    for _ in range(2):
        with ComputationTape():
            backward(sum_all(mul(x, x)))
    np.testing.assert_allclose(x.grad, [[8.0]])
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, [[0.0]])


def test_shared_value_grads_sum():
    x = t64([[1.5]], requires_grad=True)
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
    leaves = [Tensor(a.copy(), dtype=np.float64, requires_grad=True) for a in arrays]
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
    "sub": lambda ts: _weighted(sub(ts[0], ts[1])),
    "mul": lambda ts: _weighted(mul(ts[0], ts[1])),
    "transpose": lambda ts: _weighted(transpose(ts[0])),
    "relu": lambda ts: _weighted(relu(ts[0])),
    "gelu": lambda ts: _weighted(gelu(ts[0])),
    "softmax": lambda ts: _weighted(softmax_rows(ts[0])),
    "scale": lambda ts: _weighted(scale(ts[0], 0.37)),
    "slice_rows": lambda ts: _weighted(slice_rows(ts[0], 1, 3)),
    # 2 heads of width 2
    "attention": lambda ts: _weighted(attention(ts[0], build_causal_mask(4, np.float64), 2)),
}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_ops(name, seed):
    rng = np.random.default_rng(seed * 1000 + 17)
    if name == "matmul":
        arrays = [rng.normal(size=(4, 5)), rng.normal(size=(5, 3))]
    elif name in ("add", "sub", "mul"):
        arrays = [rng.normal(size=(4, 5)), rng.normal(size=(4, 5))]
    elif name == "attention":
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
    mask = [True, False, True, True, False]

    def build(ts):
        return cross_entropy(ts[0], targets, loss_mask=mask)

    _check_op(build, arrays)


def test_gradcheck_embedding_rows():
    rng = np.random.default_rng(11)
    table = rng.normal(size=(6, 4))
    ids = [0, 3, 3, 5]  # repeated id exercises scatter-add

    def build(ts):
        return _weighted(embedding_rows(ts[0], ids))

    _check_op(build, [table])


ATTENTION_MASKS = {
    "causal": build_causal_mask(5, dtype=np.float64),
    "prefix": build_prefix_mask(2, 3, dtype=np.float64),
    "visible": np.zeros((5, 5)),
}


@pytest.mark.parametrize("mask_name", sorted(ATTENTION_MASKS))
@pytest.mark.parametrize("n_heads", [1, 2, 3, 4])
def test_attention_matches_per_head_reference(n_heads, mask_name):
    mask = ATTENTION_MASKS[mask_name]
    qkv = np.random.default_rng(n_heads).normal(size=(5, 36))  # d = 12
    w = np.random.default_rng(99).normal(size=(5, 12))
    results = []
    for op in (attention, reference_attention):
        leaf = t64(qkv, requires_grad=True)
        with ComputationTape():
            out = op(leaf, mask, n_heads)
            backward(sum_all(mul(out, t64(w))))
        results.append((out.data, leaf.grad))
    (out, grad), (ref_out, ref_grad) = results
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-10)


def test_attention_rejects_mismatched_shapes():
    qkv = t64(np.zeros((3, 12)))
    with pytest.raises(ShapeError):
        attention(qkv, np.zeros((3, 3)), 3)  # 12 columns are not 3 blocks of 3 heads
    with pytest.raises(ShapeError):
        attention(qkv, np.zeros((2, 2)), 2)


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
    for out in (softmax_rows(x), relu(x), gelu(x)):
        assert np.all(np.isfinite(out.data))
