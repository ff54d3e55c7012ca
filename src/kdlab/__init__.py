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

from .autograd import (LOG_FLOOR, NumericError, ShapeError, Tensor, backward,
                       batch_norm, cosine_loss, l2_distance, linear, logistic_loss,
                       matmul, mse, no_grad, relu, sigmoid, slice_rows, softmax,
                       softmax_cross_entropy, softmax_values)
from .baselines import (MODES, OodDetector, RunResult, kd_loss, ood_filter,
                        pseudo_label, stage2_loss, train_with_mode)
from .config import (ArchParams, BaselineParams, ConfigError, ExperimentConfig,
                     OptimParams, RunParams, format_config, load_config,
                     override, parse_config)
from .data import (BatchSampler, DatasetParams, OpenSetDataset, UnlabeledPool, augment,
                   generate, load_dataset, one_hot, save_dataset, select_unlabeled)
from .distill import (AccuracyFloorError, DivergenceError, SrdConfig, feature_reg,
                      pretrain_teacher, srd_loss)
from .harness import compare, get_teacher, run, sweep, teacher_cache_key
from .metrics import (MetricsRecord, evaluate_accuracy, feature_dump, mimicry_kl,
                      roc_auc, top_k_accuracy, usage_curve)
from .models import (Adaptor, Affine, BatchNorm, Classifier, Network, build_pair,
                     load_checkpoint, make_network, save_checkpoint)
from .optim import Sgd

__version__ = "0.1.0"
