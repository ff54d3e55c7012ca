"""
Distilling through the teacher's classifier
===========================================

The core result at full scale, one seed: a small student trained alone
versus the same student trained to place its adapted features where the
frozen teacher's classifier expects them. Takes about 10 seconds on a
2-vCPU machine.
"""

import os

from kdlab.baselines import train_with_mode
from kdlab.config import load_config, override
from kdlab.data import generate
from kdlab.harness import get_teacher
from kdlab.metrics import top_k_accuracy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0

cfg = load_config(os.path.join(ROOT, "presets", "standard.cfg"))
cfg = override(cfg, cache_dir=os.path.join(ROOT, "runs", "teacher-cache"),
               out=os.path.join(ROOT, "runs", "demo-gain"))
ds = generate(cfg.dataset)

print(f"dataset: {cfg.dataset.classes} seen classes in "
      f"R^{cfg.dataset.input_dim}, {len(ds.labeled_x)} labeled, "
      f"{len(ds.unlabeled)} unlabeled (overlap {cfg.dataset.overlap})")

teacher = get_teacher(cfg, ds, SEED)
_, logits = teacher.predict(ds.test_x)
t_acc = top_k_accuracy(logits, ds.test_y, 1)
print(f"teacher ({'x'.join(str(h) for h in cfg.teacher.hidden)}): "
      f"test top-1 {100 * t_acc:.2f}%")

results = {}
for mode in ("supervised", "srd"):
    results[mode] = train_with_mode(ds, teacher, override(cfg, mode=mode),
                                    SEED)
    r = results[mode]
    print(f"\n{mode} student "
          f"({'x'.join(str(h) for h in cfg.student.hidden)}):")
    for epoch in (0, 30, 60, cfg.run.epochs - 1):
        rec = r.records[epoch]
        print(f"  epoch {epoch:2d}: train loss {rec.total:.4f}, "
              f"test top-1 {100 * rec.test_acc:.2f}%")
    print(f"  final: top-1 {100 * r.top1:.2f}%, top-5 {100 * r.top5:.2f}%, "
          f"teacher-agreement KL {r.mimicry:.4f}")

gain = results["srd"].top1 - results["supervised"].top1
print(f"\ndistillation gain on this seed: {100 * gain:+.2f} points")
print("mimicry: lower KL means the student's predictions track the "
      "teacher's; distillation should (and does) sit below supervised.")
