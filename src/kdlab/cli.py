"""Command-line front end.

Exit codes: 0 on success, 2 for configuration problems, 3 when teacher
pretraining misses its accuracy floor, 4 when training diverges to a
non-finite loss, 1 for other failures.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import POLICIES, ConfigError, override, parse_config
from .data import SettingError, export_csv, generate, save_dataset
from .distill import AccuracyFloorError, DivergenceError
from .harness import (SWEEP_FRACTIONS, compare, compare_markdown, get_teacher,
                      run, sweep, teacher_path, write_compare_csv)
from .metrics import evaluate_accuracy, feature_dump
from .models import build_pair, load_checkpoint


def _add_common(p):
    p.add_argument("--config", metavar="PATH",
                   help="configuration file; defaults apply when omitted")
    p.add_argument("--seed", type=int, metavar="N",
                   help="replace the configured seed list with this one seed")
    p.add_argument("--out", metavar="DIR", help="output directory")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kdlab",
        description="teacher-student distillation experiments on synthetic open-set data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write the dataset and CSV exports")
    _add_common(p)

    p = sub.add_parser("pretrain", help="stage 1 only: pretrain and cache teachers")
    _add_common(p)

    p = sub.add_parser("distill", help="full two-stage run for the configured mode")
    _add_common(p)
    p.add_argument("--mode", metavar="NAME", help="training mode override")
    p.add_argument("--fraction", type=float, metavar="F",
                   help="unlabeled fraction override")
    p.add_argument("--policy", choices=POLICIES,
                   help="unlabeled selection policy override")

    p = sub.add_parser("sweep", help="train across unlabeled fractions")
    _add_common(p)
    p.add_argument("--mode", metavar="NAME")
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--fractions", metavar="LIST",
                   default=",".join(str(f) for f in SWEEP_FRACTIONS),
                   help="comma-separated fractions (default %(default)s)")

    p = sub.add_parser("compare", help="tabulate finished runs side by side")
    p.add_argument("dirs", nargs="+", metavar="RUN_DIR")
    p.add_argument("--out", metavar="CSV", help="also write the table as CSV")

    p = sub.add_parser("dump-features", help="write one network's features as CSV")
    _add_common(p)
    p.add_argument("--net", choices=("teacher", "student"), default="teacher")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="weights to load; defaults to the cached teacher")
    p.add_argument("--split", choices=("labeled", "test"), default="test")
    return parser


# run field -> the flag that overrides it
_FLAGS = {"seeds": "--seed", "out": "--out", "mode": "--mode",
          "unlabeled_fraction": "--fraction", "selection_policy": "--policy"}


def _load_cfg(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            text = fh.read()
    else:
        text = ""
    cfg = parse_config(text)
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seeds"] = (args.seed,)
    if getattr(args, "out", None):
        updates["out"] = args.out
    if getattr(args, "mode", None):
        updates["mode"] = args.mode
    if getattr(args, "fraction", None) is not None:
        updates["unlabeled_fraction"] = args.fraction
    if getattr(args, "policy", None):
        updates["selection_policy"] = args.policy
    try:
        return override(cfg, **updates)
    except SettingError as exc:
        raise ConfigError(f"{_FLAGS[exc.key]}: {exc.message}") from None


def _cmd_generate_data(args):
    cfg = _load_cfg(args)
    out = cfg.run.out
    os.makedirs(out, exist_ok=True)
    ds = generate(cfg.dataset)
    path = os.path.join(out, "dataset.bin")
    save_dataset(path, ds)
    export_csv(ds, out)
    print(f"dataset: {path}")
    print(f"labeled {len(ds.labeled_x)}, test {len(ds.test_x)}, "
          f"unlabeled {len(ds.unlabeled)}")
    return 0


def _cmd_pretrain(args):
    cfg = _load_cfg(args)
    if getattr(args, "out", None):
        # For stage 1 the only output is the cache itself.
        cfg = override(cfg, cache_dir=args.out)
    ds = generate(cfg.dataset)
    for seed in cfg.run.seeds:
        teacher = get_teacher(cfg, ds, seed)
        acc = evaluate_accuracy(teacher, ds.test_x, ds.test_y)
        print(f"teacher seed {seed}: {teacher_path(cfg, seed)} (held-out acc {acc:.4f})")
    return 0


def _cmd_distill(args):
    cfg = _load_cfg(args)
    summary = run(cfg)
    print(f"mode {summary['mode']}: "
          f"top1 {100 * summary['mean_top1']:.2f} ± {100 * summary['std_top1']:.2f}, "
          f"top5 {100 * summary['mean_top5']:.2f} ± {100 * summary['std_top5']:.2f}, "
          f"mimicry KL {summary['mean_mimicry']:.4f}")
    print(f"results: {summary['out']}")
    return 0


def _cmd_sweep(args):
    cfg = _load_cfg(args)
    try:
        fractions = tuple(float(v) for v in args.fractions.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"--fractions: expected floats, got {args.fractions!r}") from None
    if not fractions:
        raise ConfigError("--fractions: needs at least one value")
    try:
        # sweep checks every fraction before it trains any
        rows, trend_ok = sweep(cfg, fractions)
    except SettingError as exc:
        raise ConfigError(f"--fractions: {exc.message}") from None
    for r in rows:
        print(f"fraction {r['fraction']:.2f}: "
              f"top1 {100 * r['mean_top1']:.2f} ± {100 * r['std_top1']:.2f}")
    print(f"trend nondecreasing within 0.2 points: {'yes' if trend_ok else 'no'}")
    return 0


def _cmd_compare(args):
    table = compare(args.dirs)
    print(compare_markdown(table))
    if args.out:
        write_compare_csv(args.out, table)
        print(f"table: {args.out}")
    return 0


def _cmd_dump_features(args):
    cfg = _load_cfg(args)
    ds = generate(cfg.dataset)
    seed = cfg.run.seeds[0]
    if args.net == "teacher" and not args.checkpoint:
        net = get_teacher(cfg, ds, seed)
    else:
        teacher, student, _ = build_pair(cfg, seed)
        net = teacher if args.net == "teacher" else student
        if not args.checkpoint:
            raise ConfigError("dump-features: student dumps need --checkpoint")
        arrays = load_checkpoint(args.checkpoint)
        net.load_state({k: v for k, v in arrays.items()
                        if not k.startswith("adaptor.")})
        net.set_frozen(True)
    x, y = (ds.labeled_x, ds.labeled_y) if args.split == "labeled" \
        else (ds.test_x, ds.test_y)
    os.makedirs(cfg.run.out, exist_ok=True)
    path = os.path.join(cfg.run.out, f"features_{args.net}_{args.split}.csv")
    feature_dump(net, x, y, path)
    print(f"features: {path}")
    return 0


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "pretrain": _cmd_pretrain,
    "distill": _cmd_distill,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "dump-features": _cmd_dump_features,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # a diverging run reports itself through DivergenceError; numpy's
        # overflow warnings on the way there would only bury that line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AccuracyFloorError as exc:
        print(f"pretraining failed: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
