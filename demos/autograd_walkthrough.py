"""
A tour of the reverse-mode engine
=================================

Builds a tiny computation by hand, walks the gradients back through it,
and checks one of them against central finite differences. Run with
``python3 demos/autograd_walkthrough.py``; everything prints in under a
second.
"""

# kdlab before numpy: importing kdlab sets the one-BLAS-thread default,
# which numpy reads when it loads.
from kdlab.autograd import (Tensor, backward, matmul, relu, softmax,
                            softmax_cross_entropy)
from kdlab.data import one_hot
from kdlab.optim import Sgd

import numpy as np

# ----------------------------------------------------------------------
# forward pass: a two-layer scoring function on three points
# ----------------------------------------------------------------------

rng = np.random.default_rng(0)
x = Tensor(rng.standard_normal((3, 4)))
w1 = Tensor(rng.standard_normal((4, 5)) * 0.5, requires_grad=True)
w2 = Tensor(rng.standard_normal((5, 2)) * 0.5, requires_grad=True)
labels = one_hot(np.array([0, 1, 0]), 2)

hidden = relu(matmul(x, w1))
logits = matmul(hidden, w2)
probs = softmax(logits)
# The loss takes the logits: softmax and cross-entropy are one graph node.
loss = softmax_cross_entropy(logits, labels)

print("logits:")
print(np.array_str(logits.values, precision=4))
print("softmax probabilities:")
print(np.array_str(probs.values, precision=4))
print(f"cross-entropy loss: {loss.item():.6f}")

# ----------------------------------------------------------------------
# backward pass: one call fills .grad on every parameter
# ----------------------------------------------------------------------

backward(loss)
print("\nd loss / d w2:")
print(np.array_str(w2.grad, precision=4))

# Central differences on a single entry of w1; the analytic gradient
# should match to ~1e-9 at this scale. The probes run on constant tensors,
# which need no gradient, so they record no graph.
i, j = 2, 3
eps = 1e-6


def loss_at(delta):
    bumped = w1.values.copy()
    bumped[i, j] += delta
    h = relu(matmul(x, Tensor(bumped)))
    return softmax_cross_entropy(matmul(h, Tensor(w2.values)), labels).item()


numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
analytic = w1.grad[i, j]
print(f"\nw1[{i},{j}] gradient: analytic {analytic:.10f}, "
      f"central difference {numeric:.10f}, "
      f"gap {abs(analytic - numeric):.2e}")

# ----------------------------------------------------------------------
# a few optimizer steps drive the loss down
# ----------------------------------------------------------------------

# Clear the gradients the walk above left behind; from here on each
# step zeroes them after it updates the weights.
w1.grad[...] = 0.0
w2.grad[...] = 0.0
opt = Sgd([w1, w2], lr=0.1, momentum=0.9)
print("\nSGD with momentum on the same batch:")
for step in range(5):
    loss = softmax_cross_entropy(matmul(relu(matmul(x, w1)), w2), labels)
    backward(loss)
    opt.step()
    print(f"  step {step}: loss {loss.item():.6f}")
