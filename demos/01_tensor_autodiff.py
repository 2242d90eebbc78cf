"""Tensors with reverse-mode autodiff
=====================================

Build a small computation on the tape, pull gradients out with backward(),
and sanity-check one of them against a central finite difference.
"""

import numpy as np

from prefixlm.tensor import (
    ComputationTape,
    Tensor,
    add,
    backward,
    cross_entropy,
    layer_norm,
    matmul,
    relu,
)

# leaves that want gradients are created with requires_grad=True
w = Tensor(np.array([[0.5, -1.0], [2.0, 0.8]]), requires_grad=True, dtype=np.float64)
b = Tensor(np.array([0.1, -0.2]), requires_grad=True, dtype=np.float64)
x = Tensor(np.array([[1.0, 2.0]]), dtype=np.float64)

# one linear layer with a ReLU, scored as logits of class 1
with ComputationTape():
    logits = relu(add(matmul(x, w), b))
    loss = cross_entropy(logits, [1], [1.0])  # one weight per row
    backward(loss)

print("loss:", loss.item())
print("dloss/dw:\n", w.grad)
print("dloss/db:", b.grad)

# finite-difference spot check on w[0, 0]
h = 1e-6
w_plus = w.data.copy()
w_plus[0, 0] += h
w_minus = w.data.copy()
w_minus[0, 0] -= h


def loss_at(weights):
    z = np.maximum(x.data @ weights + b.data, 0)[0]
    return float(np.log(np.exp(z).sum()) - z[1])


numeric = (loss_at(w_plus) - loss_at(w_minus)) / (2 * h)
print(f"analytic {w.grad[0, 0]:.6f} vs numeric {numeric:.6f}")

# the building blocks of the transformer are ops with their own backward:
row = Tensor(np.array([[1.0, 3.0]]), dtype=np.float64)
gamma = Tensor(np.ones(2), dtype=np.float64)
beta = Tensor(np.zeros(2), dtype=np.float64)
print("\nlayer_norm [1, 3] ->", layer_norm(row, gamma, beta, eps=1e-12).data)

logits = Tensor(np.array([[1.0, 2.0]]), dtype=np.float64)
print("cross_entropy([1,2], target 0) =", cross_entropy(logits, [0], [1.0]).item())

# no gradient exists until the first backward reaches p; later ones add in
# until zero_grad drops the buffer, which is what the trainer relies on
p = Tensor(np.array([[2.0, 0.0]]), requires_grad=True, dtype=np.float64)
print("\ngrad before any backward pass:", p.grad)
for _ in range(3):
    with ComputationTape():
        backward(cross_entropy(p, [0], [1.0]))
print("grad after three backward passes (3 * (softmax - one-hot)):", p.grad)
p.zero_grad()
print("after zero_grad:", p.grad)
