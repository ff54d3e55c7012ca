"""Stochastic gradient descent with momentum and weight decay."""

from __future__ import annotations

import numpy as np


class Sgd:
    """Momentum SGD over a fixed parameter list.

    Update per parameter: v <- momentum * v + (grad + weight_decay * w),
    then w <- w - lr * v. Gradients are zeroed after each step so the
    next backward call starts clean. ``lr`` is a plain attribute and may
    be reassigned between steps by a schedule.
    """

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("Sgd: registered parameter does not require grad")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                raise ValueError("Sgd: parameter has no gradient buffer")
            g = p.grad + self.weight_decay * p.values
            v *= self.momentum
            v += g
            p.values -= self.lr * v
            p.grad[...] = 0.0

    def zero_grad(self):
        for p in self.params:
            if p.grad is not None:
                p.grad[...] = 0.0
