"""Host speed: a fixed reference loop timed throughout a run.

The shared 2-vCPU hosts this benchmark was tuned on change speed by up to
half over minutes, as other tenants' load comes and goes, and kdlab's
times move with them: the same ``modes_cached`` repeat took 4.3 s in one
run and 7.1 s in a run five minutes later. Longer runs do not average
that away, since it moves whole runs.

The loop below does the two kinds of work kdlab's steps are made of:
small matmuls with elementwise ops and reductions, and building then
walking back a graph of small Python nodes. Over 33-second windows,
dividing kdlab's teacher-training and student-training times by the
loop's time cut their spread from host drift by more than half (log
standard deviation 0.043 to 0.018).

A run samples the loop, about 0.2 s each time, after every stage call
``harness.run`` makes and after every timed block, and takes the loops'
time out of every reported time. One sample swings by up to 40% from the
next, so the run's slowness is the median sample over ``NOMINAL_S``;
times divided by it are times at the speed the host had when
``NOMINAL_S`` was measured. The loop uses numpy and the standard library
only, so changes to kdlab never change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the loop's median time on the 2-vCPU Xeon (2.1 GHz) host the
# benchmark was tuned on. It sets the scale of the scaled times, not their
# spread.
NOMINAL_S = 0.18

_rng = np.random.default_rng(20220513)
_A = _rng.random((32, 256))
_B = _rng.random((256, 256))
_X = _rng.standard_normal((96, 32))
_W = _rng.standard_normal((32, 32))


def _small_matmuls():
    total = 0.0
    for _ in range(1_000):
        total += np.maximum(_A @ _B, 0.0).sum()
    return total


class _Node:
    __slots__ = ("value", "grad", "parents", "rule")

    def __init__(self, value, parents=(), rule=None):
        self.value, self.grad, self.parents, self.rule = value, None, parents, rule


def _graph_walks():
    for _ in range(2_500):
        x, w = _Node(_X), _Node(_W)
        m = _Node(x.value @ w.value, (x, w),
                  lambda g, x=x, w=w: (g @ w.value.T, x.value.T @ g))
        r = _Node(np.maximum(m.value, 0.0), (m,), lambda g, m=m: (g * (m.value > 0),))
        s = _Node(r.value.sum(), (r,), lambda g, r=r: (np.ones_like(r.value) * g,))
        s.grad = 1.0
        for node in (s, r, m):
            for parent, grad in zip(node.parents, node.rule(node.grad)):
                parent.grad = grad if parent.grad is None else parent.grad + grad
    return x.grad


def reference_seconds():
    """Wall time of one pass over the fixed reference loop."""
    t0 = time.perf_counter()
    _small_matmuls()
    _graph_walks()
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop samples taken through a run."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(reference_seconds())

    def factor(self):
        """The run's host slowness: the median sample over ``NOMINAL_S``."""
        return statistics.median(self.samples) / NOMINAL_S
