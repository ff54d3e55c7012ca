"""Configuration parsing, validation messages, echo round trip."""

import dataclasses
import hashlib
import os

import pytest

from kdlab.config import DEFAULTS, ConfigError, format_config, override, parse_config
from kdlab.data import SettingError
from kdlab.harness import teacher_cache_key

PRESETS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "presets")


def _line_of(err):
    return err.value.line


def test_empty_text_is_the_default_configuration():
    cfg = parse_config("")
    assert cfg.dataset.classes == 8
    assert cfg.dataset.unseen_classes == 16
    assert cfg.dataset.overlap == 0.1
    assert cfg.teacher.hidden == (256, 256)
    assert cfg.student.hidden == (32, 32)
    assert cfg.optimizer.lr == 0.05
    assert cfg.optimizer.milestones == (60, 78)
    assert cfg.optimizer.unlabeled_batch_size == 64
    assert cfg.srd.variant == "mse"
    assert cfg.srd.alpha == 1.0 and cfg.srd.beta == 1.0
    assert cfg.run.mode == "srd"
    assert cfg.run.seeds == (0, 1, 2, 3, 4)
    assert cfg.run.epochs == 90
    assert cfg.run.teacher_floor == 0.9
    assert cfg == DEFAULTS


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config("\n# header note\n[dataset]\n\n# inline note\nclasses = 5\n")
    assert cfg.dataset.classes == 5


def test_partial_sections_inherit_the_rest():
    cfg = parse_config("[optimizer]\nlr = 0.01\n")
    assert cfg.optimizer.lr == 0.01
    assert cfg.optimizer.momentum == 0.9
    assert cfg.dataset.input_dim == 32


def test_format_parse_round_trip_is_exact():
    """Echo parsing reproduces the configuration object, field for field."""
    texts = ["",
             "[dataset]\nseed = 9\noverlap = 0.25\nunseen_placement = far\n",
             "[run]\nmode = kd+ood\nseeds = 3,4\nunlabeled_fraction = 0.5\n",
             "[optimizer]\nlr = 0.012345678901234567\nweight_decay = 1e-07\n"]
    for text in texts:
        cfg = parse_config(text)
        again = parse_config(format_config(cfg))
        assert again == cfg
        assert format_config(again) == format_config(cfg)


def test_override_touches_only_run_fields():
    cfg = parse_config("")
    out = override(cfg, mode="supervised", seeds=(7,), out="elsewhere")
    assert out.run.mode == "supervised"
    assert out.run.seeds == (7,)
    assert out.run.out == "elsewhere"
    assert out.dataset == cfg.dataset
    assert out.optimizer == cfg.optimizer
    assert cfg.run.mode == "srd"


@pytest.mark.parametrize("updates, key, message", [
    ({"seeds": (0, -1)}, "seeds", "must be nonnegative"),
    ({"seeds": ()}, "seeds", "needs at least one seed"),
    ({"seeds": (3, 1, 3)}, "seeds", "seed 3 appears twice"),
    ({"mode": "wizardry"}, "mode", "must be one of "),
    ({"selection_policy": "oracle"}, "selection_policy", "must be one of random, teacher_score"),
    ({"epochs": -1}, "epochs", "must be nonnegative"),
    ({"teacher_floor": 2.0}, "teacher_floor", "must lie in [0, 1]"),
    ({"unlabeled_fraction": 1.5}, "unlabeled_fraction", "must lie in (0, 1], got 1.5"),
], ids=["negative_seed", "no_seed", "repeated_seed", "mode", "policy", "epochs",
        "teacher_floor", "fraction"])
def test_override_checks_what_it_sets(updates, key, message):
    with pytest.raises(SettingError) as err:
        override(parse_config(""), **updates)
    assert err.value.key == key
    assert err.value.message.startswith(message)


@pytest.mark.parametrize("part, key, value", [
    ("teacher", "feature_dim", 0),
    ("student", "hidden", (8, 0)),
    ("optimizer", "lr", 0.0),
    ("optimizer", "unlabeled_batch_size", -1),
    ("baselines", "detector_lr", 0.0),
    ("baselines", "ood_threshold", 1.5),
    ("baselines", "kd_weight", -1.0),
    ("baselines", "dac_weight", -1.0),
    ("baselines", "pseudo_weight", -1.0),
    ("baselines", "dac_strength", -1.0),
])
def test_every_part_checks_its_own_fields(part, key, value):
    with pytest.raises(SettingError) as err:
        dataclasses.replace(getattr(DEFAULTS, part), **{key: value})
    assert err.value.key == key


# resolved.cfg sha256[:16], teacher cache key at seed 0, at seed 3
PINNED = {
    "far": ("3bdc141f3f7929fd", "db6dec2d6449da61", "f383afe8db3669d8"),
    "near": ("984228063f0f3b50", "e12a5fb6fc219afe", "4419bb1c38713eaa"),
    "openset": ("62e3f4eb4fee145d", "9a77258df7910a59", "02a81cee4df77f07"),
    "standard": ("2f8827388adc1cdb", "607bbfdf475bd455", "071f0a742718addb"),
    "empty": ("91d3ffeb4d1d64bd", "607bbfdf475bd455", "071f0a742718addb"),
}


@pytest.mark.parametrize("name", sorted(
    [f[:-len(".cfg")] for f in os.listdir(PRESETS) if f.endswith(".cfg")]) + ["empty"])
def test_presets_keep_their_echo_and_teacher_cache_keys(name):
    """A renamed or reordered field would change these and orphan every cached teacher."""
    assert name in PINNED, f"pin the digests of presets/{name}.cfg"
    text = ""
    if name != "empty":
        with open(os.path.join(PRESETS, f"{name}.cfg")) as fh:
            text = fh.read()
    cfg = parse_config(text)
    echo = hashlib.sha256(format_config(cfg).encode()).hexdigest()[:16]
    assert (echo, teacher_cache_key(cfg, 0), teacher_cache_key(cfg, 3)) == PINNED[name]


# rejection with line numbers
# ---------------------------

def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[dataset]\nseed = 1\n[plotting]\ncolor = red\n")
    assert _line_of(err) == 3


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[dataset]\nsneed = 1\n")
    assert _line_of(err) == 2
    assert "sneed" in str(err.value)


def test_duplicate_key_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nepochs = 5\nepochs = 6\n")
    assert _line_of(err) == 3
    assert "duplicate" in str(err.value)


def test_key_before_any_section_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("epochs = 5\n")
    assert _line_of(err) == 1


def test_missing_equals_sign_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nepochs 5\n")
    assert _line_of(err) == 2


def test_malformed_values_carry_their_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[dataset]\nclasses = many\n")
    assert _line_of(err) == 2
    with pytest.raises(ConfigError) as err:
        parse_config("[optimizer]\n\nlr = fast\n")
    assert _line_of(err) == 3
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nuse_unlabeled = maybe\n")
    assert _line_of(err) == 2


def test_out_of_range_values_carry_their_line():
    cases = [("[distill]\nalpha = -1\n", 2),
             ("[dataset]\noverlap = 1.5\n", 2),
             ("[optimizer]\nmomentum = 1.0\n", 2),
             ("[optimizer]\ngamma = 0\n", 2),
             ("[dataset]\n# padding\nunseen_placement = behind\n", 3),
             ("[run]\nmode = wizardry\n", 2),
             ("[distill]\nvariant = cubic\n", 2),
             ("[run]\nselection_policy = oracle\n", 2),
             ("[run]\nunlabeled_fraction = 0\n", 2),
             ("[run]\nteacher_floor = 2\n", 2),
             ("[optimizer]\nlr = nan\n", 2),
             ("[distill]\n\nalpha = nan\n", 3),
             ("[distill]\nkd_weight = inf\n", 2),
             ("[distill]\nkd_weight = -1\n", 2),
             ("[distill]\n\ndac_weight = -1\n", 3),
             ("[distill]\npseudo_weight = -1.0\n", 2),
             ("[distill]\ndac_strength = -0.5\n", 2)]
    for text, line in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert _line_of(err) == line, text


@pytest.mark.parametrize("text, line, message", [
    ("[run]\nepochs = 3\nteacher_epochs = -1\n", 3,
     "[run] teacher_epochs: must be nonnegative"),
    ("[dataset]\n# padding\ninput_dim = 0\n", 3, "[dataset] input_dim: must be positive"),
    ("[dataset]\nclasses = 4\ntest_per_class = 0\n", 3,
     "[dataset] test_per_class: must be positive"),
    ("[dataset]\noverlap = 0.5\nunseen_classes = 0\nunlabeled_per_class = 0\n", 4,
     "[dataset] unlabeled_per_class: overlap 0.5 asks for 4 seen classes "
     "in an unlabeled pool of size 0"),
    ("[dataset]\nunlabeled_per_class = -3\n", 2,
     "[dataset] unlabeled_per_class: must be nonnegative"),
    ("[dataset]\nseed = -2\n", 2, "[dataset] seed: must be nonnegative"),
    ("[run]\nmode = srd\nseeds = 0,-1\n", 3, "[run] seeds: must be nonnegative"),
    ("[run]\nseeds = 0, 0\nmode = srd\n", 2, "[run] seeds: seed 0 appears twice"),
], ids=["teacher_epochs", "input_dim", "test_per_class", "overlap_vs_empty_pool",
        "negative_pool", "negative_dataset_seed", "negative_run_seed", "repeated_run_seed"])
def test_dataset_and_run_errors_name_their_own_key_and_line(text, line, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert _line_of(err) == line
    assert str(err.value) == f"line {line}: {message}"


def test_student_above_teacher_is_rejected_at_parse_time():
    with pytest.raises(ConfigError) as err:
        parse_config("""[teacher]
hidden = 8
feature_dim = 4
[student]
hidden = 128,128
feature_dim = 64
""")
    assert str(err.value) == "line 5: [student] hidden: student capacity exceeds teacher capacity"


def test_a_replaced_part_is_held_to_the_capacity_rule():
    big = dataclasses.replace(DEFAULTS.student, hidden=(512, 512))
    with pytest.raises(SettingError) as err:
        dataclasses.replace(DEFAULTS, student=big)
    assert (err.value.key, err.value.message) == \
        ("student.hidden", "student capacity exceeds teacher capacity")
    small = dataclasses.replace(DEFAULTS.teacher, hidden=(4,), feature_dim=4)
    with pytest.raises(SettingError):
        dataclasses.replace(DEFAULTS, teacher=small)


def test_config_error_reports_file_level_without_a_line():
    err = ConfigError("broken")
    assert err.line == 0
    assert "line" not in str(err)


def test_seeds_must_be_nonempty():
    with pytest.raises(ConfigError):
        parse_config("[run]\nseeds =\n")


def test_milestone_and_seed_tuples_parse():
    cfg = parse_config("[optimizer]\nmilestones = 10,20,30\n"
                       "[run]\nseeds = 5\n")
    assert cfg.optimizer.milestones == (10, 20, 30)
    assert cfg.run.seeds == (5,)


def test_configs_are_frozen_values():
    cfg = parse_config("")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dataset.classes = 9
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.srd.alpha = 2.0
    assert cfg == parse_config("")
    assert hash(cfg.dataset) == hash(parse_config("").dataset)
    assert hash(cfg) == hash(parse_config(""))
