"""Experiment configuration: parsing, validation, echo formatting.

The file format is line oriented: ``[section]`` headers group
``key = value`` pairs, blank lines and ``#`` comments are ignored.
Unknown sections or keys, malformed values and out-of-range settings are
rejected with the offending line number. An empty file is a complete,
valid configuration (every key has a default).

``format_config`` writes the fully resolved configuration back out in a
fixed order; parsing that echo reproduces the identical configuration.
"""

from __future__ import annotations

import dataclasses

from .data import PLACEMENTS, DatasetParams
from .distill import MODES, VARIANTS, SrdConfig

POLICIES = ("random", "teacher_score")


class ConfigError(ValueError):
    """A configuration problem, tagged with its source line (0 = file level)."""

    def __init__(self, message, line=0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclasses.dataclass(frozen=True)
class ArchParams:
    hidden: tuple
    feature_dim: int
    feature_norm: bool


@dataclasses.dataclass(frozen=True)
class OptimParams:
    lr: float
    momentum: float
    weight_decay: float
    milestones: tuple
    gamma: float
    batch_size: int
    unlabeled_batch_size: int


@dataclasses.dataclass(frozen=True)
class BaselineParams:
    kd_weight: float
    dac_weight: float
    dac_strength: float
    pseudo_weight: float
    ood_threshold: float
    detector_lr: float


@dataclasses.dataclass(frozen=True)
class RunParams:
    mode: str
    epochs: int
    teacher_epochs: int
    teacher_floor: float
    seeds: tuple
    use_unlabeled: bool
    unlabeled_fraction: float
    selection_policy: str
    out: str
    cache_dir: str


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetParams
    teacher: ArchParams
    student: ArchParams
    optimizer: OptimParams
    srd: SrdConfig
    baselines: BaselineParams
    run: RunParams


# section -> key -> (kind, default). kinds: int, float, bool, str, ints.
SCHEMA = {
    "dataset": {
        "seed": ("int", 0),
        "input_dim": ("int", 32),
        "classes": ("int", 8),
        "unseen_classes": ("int", 16),
        "overlap": ("float", 0.1),
        "labeled_per_class": ("int", 100),
        "unlabeled_per_class": ("int", 120),
        "test_per_class": ("int", 150),
        "components_per_class": ("int", 4),
        "class_separation": ("float", 1.0),
        "noise": ("float", 1.0),
        "unseen_placement": ("str", "mixed"),
    },
    "teacher": {
        "hidden": ("ints", (256, 256)),
        "feature_dim": ("int", 64),
        "feature_norm": ("bool", True),
    },
    "student": {
        "hidden": ("ints", (32, 32)),
        "feature_dim": ("int", 16),
        "feature_norm": ("bool", True),
    },
    "optimizer": {
        "lr": ("float", 0.05),
        "momentum": ("float", 0.9),
        "weight_decay": ("float", 5e-4),
        "milestones": ("ints", (60, 78)),
        "gamma": ("float", 0.1),
        "batch_size": ("int", 32),
        "unlabeled_batch_size": ("int", 64),
    },
    "distill": {
        "variant": ("str", "mse"),
        "alpha": ("float", 1.0),
        "beta": ("float", 1.0),
        "kd_temperature": ("float", 4.0),
        "kd_weight": ("float", 0.9),
        "dac_weight": ("float", 1.0),
        "dac_strength": ("float", 4.0),
        "pseudo_weight": ("float", 1.0),
        "ood_threshold": ("float", 0.5),
        "detector_lr": ("float", 0.05),
    },
    "run": {
        "mode": ("str", "srd"),
        "epochs": ("int", 90),
        "teacher_epochs": ("int", 90),
        "teacher_floor": ("float", 0.9),
        "seeds": ("ints", (0, 1, 2, 3, 4)),
        "use_unlabeled": ("bool", True),
        "unlabeled_fraction": ("float", 1.0),
        "selection_policy": ("str", "random"),
        "out": ("str", "runs/out"),
        "cache_dir": ("str", "runs/teacher-cache"),
    },
}


def _convert(raw, kind, section, key, line):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError(raw)
        if kind == "ints":
            return tuple(int(v) for v in raw.split(",") if v.strip()) if raw else ()
        return raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {kind}, got {raw!r}", line) from None
    raise AssertionError(kind)


def parse_config(text):
    """Parse configuration text into an ``ExperimentConfig``."""
    entries = {}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]", line_no)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line_no)
        if section is None:
            raise ConfigError("key appears before any [section] header", line_no)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", line_no)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", line_no)
        entries[(section, key)] = (value, line_no)

    values, lines = {}, {}
    for sec, keys in SCHEMA.items():
        for key, (kind, default) in keys.items():
            if (sec, key) in entries:
                raw, line_no = entries[(sec, key)]
                values[(sec, key)] = _convert(raw, kind, sec, key, line_no)
                lines[(sec, key)] = line_no
            else:
                if default is None:
                    raise ConfigError(f"missing required key {key!r} in [{sec}]")
                values[(sec, key)] = default
                lines[(sec, key)] = 0

    _precheck(values, lines)
    cfg = _build(values)
    _validate(cfg, lines)
    return cfg


def _precheck(values, lines):
    # SrdConfig validates itself on construction; repeat its checks here
    # first so a rejection still carries the offending source line.
    def bad(key, message):
        raise ConfigError(f"[distill] {key}: {message}",
                          lines[("distill", key)])

    if values[("distill", "variant")] not in VARIANTS:
        bad("variant", f"must be one of {', '.join(VARIANTS)}")
    if values[("distill", "alpha")] < 0.0:
        bad("alpha", "must be nonnegative")
    if values[("distill", "beta")] < 0.0:
        bad("beta", "must be nonnegative")
    if values[("distill", "kd_temperature")] <= 0.0:
        bad("kd_temperature", "must be positive")


def _build(values):
    def sec(name):
        return {k: values[(name, k)] for k in SCHEMA[name]}

    return ExperimentConfig(
        dataset=DatasetParams(**sec("dataset")),
        teacher=ArchParams(**sec("teacher")),
        student=ArchParams(**sec("student")),
        optimizer=OptimParams(**sec("optimizer")),
        srd=SrdConfig(**{k: values[("distill", k)]
                         for k in ("variant", "alpha", "beta", "kd_temperature")}),
        baselines=BaselineParams(**{k: values[("distill", k)]
                                    for k in ("kd_weight", "dac_weight", "dac_strength",
                                              "pseudo_weight", "ood_threshold",
                                              "detector_lr")}),
        run=RunParams(**sec("run")))


def _mlp_capacity(input_dim, arch, classes):
    dims = [input_dim, *arch.hidden, arch.feature_dim]
    n = sum(a * b + b for a, b in zip(dims, dims[1:]))
    if arch.feature_norm:
        n += 2 * arch.feature_dim
    return n + arch.feature_dim * classes


def _validate(cfg, lines):
    def bad(section, key, message):
        raise ConfigError(f"[{section}] {key}: {message}", lines[(section, key)])

    d, o, r = cfg.dataset, cfg.optimizer, cfg.run
    if d.classes < 2:
        bad("dataset", "classes", "needs at least 2 seen classes")
    if d.unseen_classes < 0:
        bad("dataset", "unseen_classes", "must be nonnegative")
    if not 0.0 <= d.overlap <= 1.0:
        bad("dataset", "overlap", f"must lie in [0, 1], got {d.overlap}")
    if d.unseen_placement not in PLACEMENTS:
        bad("dataset", "unseen_placement", f"must be one of {', '.join(PLACEMENTS)}")
    if min(d.input_dim, d.labeled_per_class, d.test_per_class,
           d.components_per_class) < 1:
        raise ConfigError("dataset sizes must be positive", 0)
    for name, arch in (("teacher", cfg.teacher), ("student", cfg.student)):
        if arch.feature_dim < 1:
            bad(name, "feature_dim", "must be positive")
        if any(h < 1 for h in arch.hidden):
            bad(name, "hidden", "layer widths must be positive")
    if _mlp_capacity(d.input_dim, cfg.teacher, d.classes) < \
            _mlp_capacity(d.input_dim, cfg.student, d.classes):
        bad("student", "hidden", "student capacity exceeds teacher capacity")
    if o.lr <= 0.0:
        bad("optimizer", "lr", "must be positive")
    if not 0.0 <= o.momentum < 1.0:
        bad("optimizer", "momentum", "must lie in [0, 1)")
    if o.weight_decay < 0.0:
        bad("optimizer", "weight_decay", "must be nonnegative")
    if not 0.0 < o.gamma <= 1.0:
        bad("optimizer", "gamma", "must lie in (0, 1]")
    if o.batch_size < 1:
        bad("optimizer", "batch_size", "must be positive")
    if o.unlabeled_batch_size < 0:
        bad("optimizer", "unlabeled_batch_size", "must be nonnegative")
    if cfg.baselines.detector_lr <= 0.0:
        bad("distill", "detector_lr", "must be positive")
    if not 0.0 <= cfg.baselines.ood_threshold <= 1.0:
        bad("distill", "ood_threshold", "must lie in [0, 1]")
    if r.mode not in MODES:
        bad("run", "mode", f"must be one of {', '.join(MODES)}")
    if r.epochs < 0 or r.teacher_epochs < 0:
        bad("run", "epochs", "must be nonnegative")
    if not 0.0 <= r.teacher_floor <= 1.0:
        bad("run", "teacher_floor", "must lie in [0, 1]")
    if not r.seeds:
        bad("run", "seeds", "needs at least one seed")
    if not 0.0 < r.unlabeled_fraction <= 1.0:
        bad("run", "unlabeled_fraction", f"must lie in (0, 1], got {r.unlabeled_fraction}")
    if r.selection_policy not in POLICIES:
        bad("run", "selection_policy", f"must be one of {', '.join(POLICIES)}")
    try:
        cfg.dataset.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _format_value(value, kind):
    if kind == "bool":
        return "true" if value else "false"
    if kind == "ints":
        return ",".join(str(v) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def format_config(cfg):
    """Resolved-configuration echo; parses back to an equal config."""
    holders = {
        "dataset": cfg.dataset, "teacher": cfg.teacher, "student": cfg.student,
        "optimizer": cfg.optimizer, "run": cfg.run,
    }
    out = ["# resolved configuration (init: fan-in scaled uniform)"]
    for section, keys in SCHEMA.items():
        out.append(f"[{section}]")
        for key, (kind, _) in keys.items():
            if section == "distill":
                holder = cfg.srd if hasattr(cfg.srd, key) else cfg.baselines
            else:
                holder = holders[section]
            out.append(f"{key} = {_format_value(getattr(holder, key), kind)}")
        out.append("")
    return "\n".join(out)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def override(cfg, **updates):
    """Functional updates on the frozen config tree.

    Accepts ``seeds``, ``mode``, ``out``, ``unlabeled_fraction``,
    ``selection_policy``, ``use_unlabeled`` and other run-level fields.
    """
    run = dataclasses.replace(cfg.run, **updates)
    return dataclasses.replace(cfg, run=run)
