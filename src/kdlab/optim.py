"""Stochastic gradient descent with momentum and weight decay.

``Sgd`` holds its parameters' values and grads in one contiguous float64
buffer each, next to one for the velocities and one scratch buffer. At
construction every registered tensor's ``.values`` and ``.grad`` become
views into those buffers, so a step is a fixed seven ufunc calls over all
parameters at once, whatever their number, and allocates nothing.
"""

from __future__ import annotations

import numpy as np

ALIGN = 8  # float64s per 64 bytes: every parameter's slot starts on a 64-byte boundary


def _aligned_zeros(n):
    """``n`` float64 zeros whose first element sits on a 64-byte boundary."""
    raw = np.zeros(n + ALIGN)
    skip = (-raw.ctypes.data // raw.itemsize) % ALIGN
    return raw[skip:skip + n]


class Sgd:
    """Momentum SGD over a fixed parameter list.

    Update per parameter: v <- momentum * v + (grad + weight_decay * w),
    then w <- w - lr * v. Gradients are zeroed after each step so the
    next backward call starts clean. ``lr`` is a plain attribute and may
    be reassigned between steps by a schedule.

    Each parameter's ``values`` and ``grad`` are copied into its slot of
    the flat buffers and rebound to views of that slot, so code that
    writes them in place (``backward``, ``load_state``) reaches the
    optimizer. A parameter whose ``grad`` is later unset or rebound (as
    ``Network.freeze`` unsets it) makes ``step`` raise.
    """

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)

        seen, starts, total = set(), [], 0
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("Sgd: registered parameter does not require grad")
            if p.grad is None:
                raise ValueError("Sgd: parameter has no gradient buffer")
            if id(p) in seen:
                raise ValueError("Sgd: parameter registered twice; "
                                 "two slots cannot share one tensor")
            seen.add(id(p))
            starts.append(total)
            total += -(-p.values.size // ALIGN) * ALIGN
        self._w, self._g, self._v, self._s = (_aligned_zeros(total) for _ in range(4))
        self._grads = []
        for p, start in zip(self.params, starts):
            stop = start + p.values.size
            w = self._w[start:stop].reshape(p.values.shape)
            g = self._g[start:stop].reshape(p.values.shape)
            w[...] = p.values
            g[...] = p.grad
            p.values, p.grad = w, g
            self._grads.append((p, g))

    def step(self):
        for p, g in self._grads:
            if p.grad is not g:
                raise ValueError("Sgd: parameter has no gradient buffer "
                                 "(its grad was unset or rebound after Sgd was built)")
        w, g, v, s = self._w, self._g, self._v, self._s
        np.multiply(self.weight_decay, w, out=s)
        np.add(g, s, out=s)
        v *= self.momentum
        v += s
        np.multiply(self.lr, v, out=s)
        w -= s
        g[...] = 0.0
