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
import math

from .data import DatasetParams, SettingError
from .distill import MODES, SrdConfig
from .models import parameter_count

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


def _defaults(cls):
    """Schema entries of a dataclass whose field defaults are the config defaults."""
    return {f.name: (f.type, f.default) for f in dataclasses.fields(cls)}


# section -> key -> (kind, default). kinds: int, float, bool, str, ints.
SCHEMA = {
    "dataset": _defaults(DatasetParams),
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
        **_defaults(SrdConfig),
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

# ExperimentConfig field -> (the section its keys come from, the dataclass built)
PARTS = {
    "dataset": ("dataset", DatasetParams),
    "teacher": ("teacher", ArchParams),
    "student": ("student", ArchParams),
    "optimizer": ("optimizer", OptimParams),
    "srd": ("distill", SrdConfig),
    "baselines": ("distill", BaselineParams),
    "run": ("run", RunParams),
}


def _convert(raw, kind, section, key, line):
    try:
        if kind == "bool":
            if raw.lower() not in ("true", "false"):
                raise ValueError(raw)
            value = raw.lower() == "true"
        elif kind == "ints":
            value = tuple(int(v) for v in raw.split(",") if v.strip()) if raw else ()
        else:
            value = {"int": int, "float": float, "str": str}[kind](raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {kind}, got {raw!r}", line) from None
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}", line)
    return value


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
            raw, line_no = entries.get((sec, key), (None, 0))
            values[(sec, key)] = default if raw is None else _convert(raw, kind, sec, key, line_no)
            lines[(sec, key)] = line_no
    return _validated(values, lines)


def _validated(values, lines):
    """Build the configuration, mapping every out-of-range value to its line.

    ``DatasetParams`` and ``SrdConfig`` check their own fields and name the
    one at fault; the settings only the experiment reads are checked here.
    """
    def bad(section, key, message):
        raise ConfigError(f"[{section}] {key}: {message}", lines[(section, key)])

    parts = {}
    for field, (section, cls) in PARTS.items():
        try:
            parts[field] = cls(**{f.name: values[(section, f.name)]
                                  for f in dataclasses.fields(cls)})
        except SettingError as exc:
            bad(section, exc.key, exc.message)
    cfg = ExperimentConfig(**parts)

    d, o, r = cfg.dataset, cfg.optimizer, cfg.run
    for name, arch in (("teacher", cfg.teacher), ("student", cfg.student)):
        if arch.feature_dim < 1:
            bad(name, "feature_dim", "must be positive")
        if any(h < 1 for h in arch.hidden):
            bad(name, "hidden", "layer widths must be positive")
    if parameter_count(d.input_dim, cfg.teacher, d.classes) < \
            parameter_count(d.input_dim, cfg.student, d.classes):
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
    for key in ("epochs", "teacher_epochs"):
        if getattr(r, key) < 0:
            bad("run", key, "must be nonnegative")
    if not 0.0 <= r.teacher_floor <= 1.0:
        bad("run", "teacher_floor", "must lie in [0, 1]")
    if not r.seeds:
        bad("run", "seeds", "needs at least one seed")
    if any(seed < 0 for seed in r.seeds):
        bad("run", "seeds", "must be nonnegative")
    if not 0.0 < r.unlabeled_fraction <= 1.0:
        bad("run", "unlabeled_fraction", f"must lie in (0, 1], got {r.unlabeled_fraction}")
    if r.selection_policy not in POLICIES:
        bad("run", "selection_policy", f"must be one of {', '.join(POLICIES)}")
    return cfg


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
    out = ["# resolved configuration (init: fan-in scaled uniform)"]
    for section, keys in SCHEMA.items():
        out.append(f"[{section}]")
        holders = [getattr(cfg, f) for f, (sec, _) in PARTS.items() if sec == section]
        for key, (kind, _) in keys.items():
            holder = next(h for h in holders if hasattr(h, key))
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
