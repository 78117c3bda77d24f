"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps gbbkit
functions, methods and constructors by name.  ``Tracer.install`` looks
each one up as ``owner.__dict__[attr]``, so renaming or deleting one of
them stops a traced run with a KeyError.  This test reads the benchmark's
target list and resolves every gbbkit target the same way.  Some targets
also read fields of their results; those reads are made here on real
results."""

import importlib
import sys
from collections import Counter
from pathlib import Path

from gbbkit.fixtures import rose_wreath_recipe, square_quotient_bits
from gbbkit.quotients import verify_abelian_exact, verify_bounded

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        # perfbench's top-level module names are generic; do not keep them
        for name in ("tracing", "common"):
            sys.modules.pop(name, None)


def test_every_gbbkit_trace_target_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
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


def test_relator_check_counters_read_real_certificates(monkeypatch):
    """The counters of both relator-check targets, applied to their
    results: a certificate field they read and no test touched would
    otherwise fail only a traced bench run."""
    tracing = load_tracing(monkeypatch)
    square = square_quotient_bits((1, 0, 0, 0))
    wreath = rose_wreath_recipe(r=4)
    runs = {}
    for check, args in (
            (verify_abelian_exact,
             (square.presentation, square.target, square.theta)),
            (verify_bounded, (wreath.presentation, wreath.quotient.theta))):
        runs[check.__name__] = args, check(*args)
    counts = Counter()
    applied = []
    for target in tracing.TARGETS:
        if target.module == "gbbkit.quotients" and target.attr in runs:
            args, out = runs[target.attr]
            target.count(counts, args, {}, out)
            applied.append(target.attr)
    assert sorted(applied) == sorted(runs)
    assert dict(counts) == {"quotients.kernel_vectors": 0,
                            "quotients.loops_checked": 2,
                            "quotients.zero_loop_certs": 0}
