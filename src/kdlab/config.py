"""Experiment configuration: parsing, validation, echo formatting.

The file format is line oriented: ``[section]`` headers group
``key = value`` pairs, blank lines and ``#`` comments are ignored.
Unknown sections or keys, malformed values and out-of-range settings are
rejected with the offending line number. An empty file is a complete,
valid configuration: every key takes its value from ``DEFAULTS``.

Each part of the configuration is a frozen dataclass that checks its own
fields on construction, raising ``SettingError`` that names the field,
so ``dataclasses.replace`` and ``override`` check what they set.

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
    """One network's shape; the teacher's and the student's defaults differ."""

    hidden: tuple
    feature_dim: int
    feature_norm: bool

    def __post_init__(self):
        if self.feature_dim < 1:
            raise SettingError("feature_dim", "must be positive")
        if any(h < 1 for h in self.hidden):
            raise SettingError("hidden", "layer widths must be positive")


@dataclasses.dataclass(frozen=True)
class OptimParams:
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    milestones: tuple = (60, 78)
    gamma: float = 0.1
    batch_size: int = 32
    unlabeled_batch_size: int = 64

    def __post_init__(self):
        if self.lr <= 0.0:
            raise SettingError("lr", "must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise SettingError("momentum", "must lie in [0, 1)")
        if self.weight_decay < 0.0:
            raise SettingError("weight_decay", "must be nonnegative")
        if not 0.0 < self.gamma <= 1.0:
            raise SettingError("gamma", "must lie in (0, 1]")
        if self.batch_size < 1:
            raise SettingError("batch_size", "must be positive")
        if self.unlabeled_batch_size < 0:
            raise SettingError("unlabeled_batch_size", "must be nonnegative")


@dataclasses.dataclass(frozen=True)
class BaselineParams:
    kd_weight: float = 0.9
    dac_weight: float = 1.0
    dac_strength: float = 4.0
    pseudo_weight: float = 1.0
    ood_threshold: float = 0.5
    detector_lr: float = 0.05

    def __post_init__(self):
        if self.detector_lr <= 0.0:
            raise SettingError("detector_lr", "must be positive")
        if not 0.0 <= self.ood_threshold <= 1.0:
            raise SettingError("ood_threshold", "must lie in [0, 1]")


@dataclasses.dataclass(frozen=True)
class RunParams:
    mode: str = "srd"
    epochs: int = 90
    teacher_epochs: int = 90
    teacher_floor: float = 0.9
    seeds: tuple = (0, 1, 2, 3, 4)
    use_unlabeled: bool = True
    unlabeled_fraction: float = 1.0
    selection_policy: str = "random"
    out: str = "runs/out"
    cache_dir: str = "runs/teacher-cache"

    def __post_init__(self):
        if self.mode not in MODES:
            raise SettingError("mode", f"must be one of {', '.join(MODES)}")
        for key in ("epochs", "teacher_epochs"):
            if getattr(self, key) < 0:
                raise SettingError(key, "must be nonnegative")
        if not 0.0 <= self.teacher_floor <= 1.0:
            raise SettingError("teacher_floor", "must lie in [0, 1]")
        if not self.seeds:
            raise SettingError("seeds", "needs at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise SettingError("seeds", "must be nonnegative")
        for i, seed in enumerate(self.seeds):
            if seed in self.seeds[:i]:
                raise SettingError("seeds", f"seed {seed} appears twice")
        if not 0.0 < self.unlabeled_fraction <= 1.0:
            raise SettingError("unlabeled_fraction",
                               f"must lie in (0, 1], got {self.unlabeled_fraction}")
        if self.selection_policy not in POLICIES:
            raise SettingError("selection_policy", f"must be one of {', '.join(POLICIES)}")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetParams
    teacher: ArchParams
    student: ArchParams
    optimizer: OptimParams
    srd: SrdConfig
    baselines: BaselineParams
    run: RunParams

    def __post_init__(self):
        # the capacity rule; the key names the part and field a parse reports
        d = self.dataset
        if parameter_count(d.input_dim, self.teacher, d.classes) < \
                parameter_count(d.input_dim, self.student, d.classes):
            raise SettingError("student.hidden", "student capacity exceeds teacher capacity")


DEFAULTS = ExperimentConfig(
    dataset=DatasetParams(),
    teacher=ArchParams(hidden=(256, 256), feature_dim=64, feature_norm=True),
    student=ArchParams(hidden=(32, 32), feature_dim=16, feature_norm=True),
    optimizer=OptimParams(),
    srd=SrdConfig(),
    baselines=BaselineParams(),
    run=RunParams(),
)

# ExperimentConfig field -> the config-file section its keys live in
PARTS = {"dataset": "dataset", "teacher": "teacher", "student": "student",
         "optimizer": "optimizer", "srd": "distill", "baselines": "distill",
         "run": "run"}

# section -> key -> kind (int, float, bool, str, ints), from the field annotations
SCHEMA = {section: {f.name: {"tuple": "ints"}.get(f.type, f.type)
                    for part, sec in PARTS.items() if sec == section
                    for f in dataclasses.fields(getattr(DEFAULTS, part))}
          for section in dict.fromkeys(PARTS.values())}


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
    """Parse configuration text into an ``ExperimentConfig``.

    Each part starts from ``DEFAULTS`` and takes the keys the text sets;
    a value its part rejects is reported at the line that set it.
    """
    values, lines = {}, {}
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
        if (section, key) in values:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", line_no)
        values[(section, key)] = _convert(value, SCHEMA[section][key], section, key, line_no)
        lines[(section, key)] = line_no

    def bad(section, key, message):
        raise ConfigError(f"[{section}] {key}: {message}", lines.get((section, key), 0))

    parts = {}
    for part, section in PARTS.items():
        default = getattr(DEFAULTS, part)
        given = {f.name: values[(section, f.name)] for f in dataclasses.fields(default)
                 if (section, f.name) in values}
        try:
            parts[part] = dataclasses.replace(default, **given)
        except SettingError as exc:
            bad(section, exc.key, exc.message)
    try:
        return ExperimentConfig(**parts)
    except SettingError as exc:
        part, _, key = exc.key.partition(".")
        bad(PARTS[part], key, exc.message)


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
        holders = [getattr(cfg, part) for part, sec in PARTS.items() if sec == section]
        for key, kind in keys.items():
            holder = next(h for h in holders if hasattr(h, key))
            out.append(f"{key} = {_format_value(getattr(holder, key), kind)}")
        out.append("")
    return "\n".join(out)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def override(cfg, **updates):
    """Functional update of run-level fields on the frozen config tree.

    Accepts ``seeds``, ``mode``, ``out``, ``unlabeled_fraction``,
    ``selection_policy``, ``use_unlabeled`` and the other ``RunParams``
    fields. The new values are checked like parsed ones: a value out of
    range raises ``SettingError`` naming its field.
    """
    run = dataclasses.replace(cfg.run, **updates)
    return dataclasses.replace(cfg, run=run)
