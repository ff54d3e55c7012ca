"""kdlab: a small laboratory for teacher-student distillation.

The library trains a compact student against a frozen, wider teacher by
scoring the student's adapted features with the teacher's own classifier
and matching the resulting cross-network logits. The same objective
extends to open-set semi-supervised training, where an unlabeled pool
mixes familiar classes with unknown ones. Alongside it sit the usual
baselines (temperature-softened logit matching, pseudo-labeling, an
out-of-distribution filter, two-view consistency), synthetic open-set
datasets, and a reproducible experiment harness.

Everything runs on a minimal float64 autodiff engine in ``autograd``;
seeded runs replay bit for bit.
"""

import os

# One BLAS thread unless the environment sets one: at kdlab's shapes a second
# costs more than it gives. Too late in a process that imported numpy first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The one name bound here: ``benchmarks/test_benchmark.py`` reads ``kdlab.Tensor``.
# Everything else is imported from its submodule, so ``import kdlab`` loads
# only ``kdlab.autograd``.
from .autograd import Tensor  # noqa: F401
