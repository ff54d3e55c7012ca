"""Pinned artifact digests: what a run writes replays byte for byte across changes.

Every mode, the srd ``kl``/``pmse`` variants, labeled-only runs and half
pools under both selection policies train two seeds on a reduced config.
The sha256[:16] of every file they write, the teacher cache included,
must equal the pins in ``artifact_digests.json``. Bytes hold only per
environment, so the pins carry the fingerprint they were taken under, and
under any other fingerprint the test skips and says what differs.
"""

import dataclasses
import hashlib
import json
import os
import platform

import numpy as np
import pytest

from kdlab.config import POLICIES, override, parse_config
from kdlab.distill import MODES
from kdlab.harness import run

PINS = os.path.join(os.path.dirname(__file__), "artifact_digests.json")

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


def test_every_case_writes_the_pinned_bytes(tmp_path):
    with open(PINS) as fh:
        pinned = json.load(fh)
    here = fingerprint()
    if here != pinned["fingerprint"]:
        differ = {k: (pinned["fingerprint"].get(k), v) for k, v in here.items()
                  if pinned["fingerprint"].get(k) != v}
        pytest.skip(f"pins were taken under another environment (pinned, here): {differ}; "
                    "bytes hold only per environment")
    table = digests(str(tmp_path))
    if table != pinned["digests"]:
        wrong = sorted(k for k in table.keys() | pinned["digests"].keys()
                       if table.get(k) != pinned["digests"].get(k))
        new = json.dumps({"fingerprint": here, "digests": table}, indent=1, sort_keys=True)
        pytest.fail(f"{len(wrong)} artifacts differ from their pins, first {wrong[:5]}; "
                    f"the table this code writes:\n{new}")
