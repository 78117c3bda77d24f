"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps gbbkit
functions, methods and constructors by name.  ``Tracer.install`` looks
each one up as ``owner.__dict__[attr]``, so renaming or deleting one of
them stops a traced run with a KeyError.  This test reads the benchmark's
target list and resolves every gbbkit target the same way."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_gbbkit_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        # perfbench's top-level module names are generic; do not keep them
        for name in ("tracing", "common"):
            sys.modules.pop(name, None)
    targets = [t for t in tracing.TARGETS
               if t.module.split(".")[0] == "gbbkit"]
    assert len(targets) > 40
    missing = []
    for target in targets:
        owner = importlib.import_module(target.module)
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{target.module}.{target.attr}")
    assert not missing
