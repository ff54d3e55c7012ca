"""kdlab's API is what kdlab calls.

Spies on every public function of ``kdlab.autograd`` and every ``Tensor``
method, then drives the shipping traffic through ``harness``: every mode,
the srd ``kl`` and ``pmse`` variants and a ``teacher_score`` fraction
sweep, on the reduced digest config. A name that no shipping path reaches
is either removed or named in ``TRACER_HELD`` with its reason.
"""

import dataclasses
import functools
import inspect
import sys

from kdlab import autograd
from kdlab.autograd import Tensor
from kdlab.config import override, parse_config
from kdlab.distill import MODES
from kdlab.harness import run, sweep
from test_digests import REDUCED

# Reached only from benchmarks/tracer.py: its ``OPS`` wraps the first six,
# and it rebinds ``baselines.cosine_rows``, which baselines re-imports
# for it alone.
TRACER_HELD = ("sub", "div", "neg", "log", "sqrt", "tensor_sum", "cosine_rows")


def _public_functions():
    return {name: fn for name, fn in vars(autograd).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == autograd.__name__}


def _tensor_methods():
    return {f"Tensor.{name}": fn for name, fn in vars(Tensor).items()
            if inspect.isfunction(fn) and name not in ("__init__", "__repr__")}


def test_shipping_traffic_reaches_every_public_engine_name(tmp_path, monkeypatch):
    reached = set()

    def spy(name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return wrapped

    functions, methods = _public_functions(), _tensor_methods()
    # Rebound in every kdlab module that holds the function, as the tracer
    # does; the Tensor methods reach the ops through kdlab.autograd's globals.
    for name, fn in functions.items():
        wrapper = spy(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "kdlab" or mod_name.startswith("kdlab.")) \
                    and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    for name, fn in methods.items():
        monkeypatch.setattr(Tensor, name.split(".", 1)[1], spy(name, fn))

    base = override(parse_config(REDUCED), cache_dir=str(tmp_path / "teacher-cache"))
    for mode in MODES:
        run(override(base, mode=mode, out=str(tmp_path / mode)))
    for variant in ("kl", "pmse"):
        cfg = override(base, out=str(tmp_path / f"srd-{variant}"))
        run(dataclasses.replace(cfg, srd=dataclasses.replace(cfg.srd, variant=variant)))
    sweep(override(base, selection_policy="teacher_score", out=str(tmp_path / "sweep")),
          fractions=(0.5, 1.0))

    assert sorted((set(functions) | set(methods)) - reached) == sorted(TRACER_HELD)
