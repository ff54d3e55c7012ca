"""
What the synthetic open-set datasets look like
==============================================

Generates one small mixture dataset, inspects the unlabeled pool's
hidden composition, and shows the augmentation op and the CSV export.
"""

import os
import tempfile

# kdlab before numpy: importing kdlab sets the one-BLAS-thread default,
# which numpy reads when it loads.
from kdlab.data import DatasetParams, augment, export_csv, generate

import numpy as np

params = DatasetParams(seed=3, input_dim=8, classes=5, unseen_classes=6,
                       overlap=0.25, labeled_per_class=20,
                       unlabeled_per_class=30, test_per_class=15,
                       components_per_class=2, unseen_placement="mixed")
ds = generate(params)

print(f"labeled:   {len(ds.labeled_x)} points, "
      f"{params.classes} seen classes")
print(f"test:      {len(ds.test_x)} points")
print(f"unlabeled: {len(ds.unlabeled)} points "
      f"(overlap {params.overlap:.2f})")

# The pool's class tags are hidden from training; eval_view exposes them
# for diagnostics like this one.
tags, ind = ds.unlabeled.eval_view()
print(f"\npool composition: {int(ind.sum())} in-distribution, "
      f"{int((~ind).sum())} from {params.unseen_classes} unseen classes")
print("unseen tags present:", sorted({int(t) for t in tags[~ind]}))

# ----------------------------------------------------------------------
# augmentation: zero-mean jitter, strength in units of the class noise
# ----------------------------------------------------------------------

rng = np.random.default_rng(9)
batch = ds.labeled_x[:200]
views = augment(batch, 0.5, rng)
shift = np.linalg.norm(views - batch, axis=1)
print(f"\naugment(strength=0.5): mean per-point displacement "
      f"{shift.mean():.3f}, largest per-coordinate mean drift "
      f"{np.abs((views - batch).mean(axis=0)).max():.4f} (zero-mean op)")

# ----------------------------------------------------------------------
# CSV export: unlabeled.csv never carries the hidden columns
# ----------------------------------------------------------------------

out = tempfile.mkdtemp(prefix="kdlab-dataset-tour-")
export_csv(ds, out)
print(f"\nexported to {out}:")
for name in sorted(os.listdir(out)):
    with open(os.path.join(out, name)) as fh:
        header = fh.readline().strip()
        rows = sum(1 for _ in fh)
    print(f"  {name}: {rows} rows, columns [{header}]")
