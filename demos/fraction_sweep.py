"""
More unlabeled data, more accuracy
==================================

Runs the harness sweep over pool fractions with three seeds per point
and prints the curve for both selection policies. Artifacts (per-fraction
run directories, sweep.csv, sweep_report.txt) land under runs/demo-sweep.
About a minute on a 2-vCPU machine; the shipped claim uses five seeds and a 0.2 point
slack, so a small dip here is noise, not a contradiction.
"""

import os

from kdlab.config import load_config, override
from kdlab.harness import sweep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

base = load_config(os.path.join(ROOT, "presets", "standard.cfg"))
base = override(base, seeds=(0, 1, 2),
                cache_dir=os.path.join(ROOT, "runs", "teacher-cache"))

for policy in ("random", "teacher_score"):
    cfg = override(base, selection_policy=policy,
                   out=os.path.join(ROOT, "runs", "demo-sweep", policy))
    rows, trend_ok = sweep(cfg, fractions=(0.25, 0.5, 0.75, 1.0))
    print(f"\npolicy {policy}:")
    for row in rows:
        bar = "#" * int(60 * (row["mean_top1"] - 0.85) / 0.15)
        print(f"  fraction {row['fraction']:4.2f}: "
              f"{100 * row['mean_top1']:6.2f}% +- "
              f"{100 * row['std_top1']:.2f}  {bar}")
    print(f"  nondecreasing within 0.2pt slack: "
          f"{'yes' if trend_ok else 'no'}")
    print(f"  report: {os.path.join(cfg.run.out, 'sweep_report.txt')}")
