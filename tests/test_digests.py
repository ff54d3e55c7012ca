"""Pinned digests: what a run writes replays byte for byte across changes.

Every mode, the srd ``kl``/``pmse`` variants, labeled-only runs and half
pools under both selection policies train two seeds on a reduced config.
The sha256[:16] of every file they write, the teacher cache included,
must equal the pins in ``artifact_digests.json``. Bytes hold only per
environment, so the pins carry the fingerprint they were taken under, and
under any other fingerprint the test skips and says what differs.

The data layer has no matrix product, so its outputs depend on Python and
numpy only: ``data_digests.json`` pins the four presets' generated arrays,
an ``augment`` draw, ``random`` selection orders and one epoch of batch
indices, and skips only when the Python or numpy version differs.
"""

import dataclasses
import hashlib
import json
import os
import platform

import numpy as np
import pytest

from kdlab.config import POLICIES, override, parse_config
from kdlab.data import (DATASET_BLOCKS, BatchSampler, DatasetParams, augment, generate,
                        select_unlabeled)
from kdlab.distill import MODES
from kdlab.harness import run

HERE = os.path.dirname(__file__)
PINS = os.path.join(HERE, "artifact_digests.json")
DATA_PINS = os.path.join(HERE, "data_digests.json")
PRESETS = os.path.join(HERE, os.pardir, "presets")

REDUCED = """
[dataset]
classes = 4
labeled_per_class = 50
unlabeled_per_class = 60
test_per_class = 50
[run]
epochs = 3
teacher_epochs = 5
teacher_floor = 0.0
seeds = 0,1
"""

# case name -> run overrides, plus the srd variant under "variant"
CASES = {mode: {"mode": mode} for mode in MODES}
CASES.update({f"srd-{variant}": {"mode": "srd", "variant": variant}
              for variant in ("kl", "pmse")})
CASES.update({f"{mode}-labeled-only": {"mode": mode, "use_unlabeled": False}
              for mode in ("srd", "pseudo_label", "srd+dac")})
CASES.update({f"{mode}-half-{policy}": {"mode": mode, "unlabeled_fraction": 0.5,
                                        "selection_policy": policy}
              for mode in ("srd", "pseudo_label", "srd+dac") for policy in POLICIES})


def fingerprint():
    """What the bytes of a run depend on besides the code: Python, numpy, BLAS, machine."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "machine": platform.machine()}


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def digests(root):
    """sha256[:16] of every file the cases write under ``root``, keyed "dir/file"."""
    base = parse_config(REDUCED)
    cache = os.path.join(root, "teacher-cache")
    for name, case in CASES.items():
        updates = dict(case)
        variant = updates.pop("variant", base.srd.variant)
        cfg = override(base, out=os.path.join(root, name), cache_dir=cache, **updates)
        run(dataclasses.replace(cfg, srd=dataclasses.replace(cfg.srd, variant=variant)))
    table = {}
    for name in [*CASES, "teacher-cache"]:
        for file in sorted(os.listdir(os.path.join(root, name))):
            if file != "resolved.cfg":
                table[f"{name}/{file}"] = _sha(os.path.join(root, name, file))
    return table


def _array_sha(arr):
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(f"{arr.dtype.str} {arr.shape}\n".encode()
                          + arr.tobytes()).hexdigest()[:16]


def data_digests():
    """sha256[:16] of data-layer outputs, none of which touches BLAS."""
    table = {}
    for file in sorted(os.listdir(PRESETS)):
        with open(os.path.join(PRESETS, file)) as fh:
            ds = generate(parse_config(fh.read()).dataset)
        arrays = (ds.labeled_x, ds.labeled_y, ds.test_x, ds.test_y, ds.unlabeled.inputs,
                  *ds.unlabeled.eval_view())
        for name, arr in zip(DATASET_BLOCKS, arrays, strict=True):
            table[f"generate/{file[:-len('.cfg')]}/{name}"] = _array_sha(arr)
    ds = generate(DatasetParams())
    table["augment"] = _array_sha(augment(ds.labeled_x[:64], 4.0, np.random.default_rng(7)))
    for fraction in (0.1, 0.5):
        for seed in (0, 3):
            table[f"select_unlabeled/random/{fraction}/seed{seed}"] = _array_sha(
                select_unlabeled(ds.unlabeled, fraction, "random", seed=seed))
    batches = list(BatchSampler(32, 64, seed=0).epoch_batches(800, 2040, epoch=1))
    for i, name in enumerate(("rows", "u_idx")):
        table[f"epoch_batches/{name}"] = _array_sha(np.concatenate([b[i] for b in batches]))
    return table


def _check_pins(path, here, compute):
    """Skip unless ``here`` matches the pinned fingerprint; then compare digests."""
    with open(path) as fh:
        pinned = json.load(fh)
    differ = {k: (pinned["fingerprint"].get(k), v) for k, v in here.items()
              if pinned["fingerprint"].get(k) != v}
    if differ:
        pytest.skip(f"pins were taken under another environment (pinned, here): {differ}; "
                    "bytes hold only per environment")
    table = compute()
    if table != pinned["digests"]:
        wrong = sorted(k for k in table.keys() | pinned["digests"].keys()
                       if table.get(k) != pinned["digests"].get(k))
        new = json.dumps({"fingerprint": here, "digests": table}, indent=1, sort_keys=True)
        pytest.fail(f"{len(wrong)} digests differ from their pins, first {wrong[:5]}; "
                    f"the table this code writes:\n{new}")


def test_every_case_writes_the_pinned_bytes(tmp_path):
    _check_pins(PINS, fingerprint(), lambda: digests(str(tmp_path)))


def test_the_data_layer_replays_under_the_same_python_and_numpy():
    here = {k: v for k, v in fingerprint().items() if k in ("python", "numpy")}
    _check_pins(DATA_PINS, here, data_digests)
