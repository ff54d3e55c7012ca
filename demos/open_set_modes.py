"""
Open-set pools: what helps and what poisons
===========================================

On a pool whose samples mostly come from classes the labels never name,
pseudo-labeling force-fits every pool point into a seen class and drags
accuracy below the labeled-only baseline. Distillation reads the teacher's
soft beliefs instead and survives; the OOD filter on top shows its usage
curve and detector quality. One seed, about 13 seconds on a 2-vCPU
machine.
"""

import os

# kdlab before numpy: importing kdlab sets the one-BLAS-thread default,
# which numpy reads when it loads.
from kdlab.baselines import train_with_mode
from kdlab.config import load_config, override
from kdlab.data import generate
from kdlab.harness import get_teacher
from kdlab.metrics import roc_auc, usage_curve

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0

cfg = load_config(os.path.join(ROOT, "presets", "openset.cfg"))
cfg = override(cfg, cache_dir=os.path.join(ROOT, "runs", "teacher-cache"),
               out=os.path.join(ROOT, "runs", "demo-openset"))
ds = generate(cfg.dataset)
tags, ind = ds.unlabeled.eval_view()
print(f"pool: {len(ds.unlabeled)} samples, {int(ind.sum())} from seen "
      f"classes, {int((~ind).sum())} from {cfg.dataset.unseen_classes} "
      f"unseen classes placed far from the seen ones")

teacher, _ = get_teacher(cfg, ds, SEED)
results = {}
for mode in ("supervised", "pseudo_label", "srd", "srd+ood"):
    results[mode] = train_with_mode(ds, teacher, override(cfg, mode=mode),
                                    SEED)

print("\nfinal test accuracy by mode:")
sup = results["supervised"].top1
for mode, r in results.items():
    print(f"  {mode:12s} top-1 {100 * r.top1:6.2f}%  "
          f"({100 * (r.top1 - sup):+.2f} vs supervised)")

# ----------------------------------------------------------------------
# how hard pseudo-labeling poisons itself here
# ----------------------------------------------------------------------

pool_feats, logits = teacher.predict(ds.unlabeled.inputs)
hard = np.argmax(logits, axis=1)
print(f"\nteacher hard labels on the pool: every one of the "
      f"{int((~ind).sum())} unseen-class samples gets forced into a seen "
      f"class (for example tag {tags[~ind][0]} -> class {hard[~ind][0]})")

# ----------------------------------------------------------------------
# the filter's view of the pool
# ----------------------------------------------------------------------

ood = results["srd+ood"]
curve = usage_curve(ood.usage)
first, last = curve[0], curve[-1]
print("\nood filter usage over training (this pool is entirely unseen, "
      "so kept means contaminating):")
print(f"  epoch {first['epoch']:2d}: kept "
      f"{100 * first['kept_frac']:.0f}% of the pool")
print(f"  epoch {last['epoch']:2d}: kept {100 * last['kept_frac']:.0f}%")

# With zero overlap the pool has no in-distribution half to rank against,
# so score the detector on its own training contrast: labeled features
# (positives) against pool features.
lab_feats, _ = teacher.predict(ds.labeled_x)
scores = np.concatenate([ood.detector.scores(lab_feats),
                         ood.detector.scores(pool_feats)])
positive = np.arange(len(scores)) < len(ds.labeled_x)
print(f"  detector ROC-AUC, labeled vs pool: "
      f"{roc_auc(scores, positive):.3f}")
