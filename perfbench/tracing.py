"""Per-layer tracing for the traced benchmark run.

gbbkit is measured from outside.  ``Tracer.install`` replaces the public
functions, methods and constructors listed in TARGETS with wrappers that
record a span (job, parent, layer, name, start, end) and update exact
counters, and ``uninstall`` puts the originals back.  Every module-level
binding of a wrapped function inside gbbkit is replaced, so calls between
gbbkit modules are traced too; the workload modules reach gbbkit through
module attributes for the same reason.
Nothing is installed in an untraced run.

Spans are timed with ``common.clock``, like the jobs.  A layer's self
time is the duration of its spans minus the time their child spans cover;
the job itself is a root span of layer ``bench``.
Element arithmetic is not wrapped, so it counts as self time of the layer
that calls it.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

from common import clock

LAYERS = ("simplicial", "covers", "groups", "intsets", "presentation",
          "quotients", "cubical", "dehn", "cli")


def _add(name, size=lambda args, kwargs, out: 1):
    """Counter update adding ``size(args, kwargs, result)`` to ``name``."""
    def count(counts, args, kwargs, out):
        counts[name] += size(args, kwargs, out)
    return count


def _links_checked(args, kwargs, out):
    validate = kwargs.get("validate_links", args[3] if len(args) > 3 else True)
    return len(out.vertices) if validate else 0


def _cube_cells(counts, args, kwargs, out):
    Y = args[0]
    counts["cubical.vertices"] += len(Y.vertices)
    counts["cubical.edges"] += len(Y.edges)
    counts["cubical.squares"] += len(Y.squares)


def _bounded_certificate(counts, args, kwargs, out):
    checked = out.certificate.loops_checked
    counts["quotients.loops_checked"] += checked
    counts["quotients.zero_loop_certs"] += checked == 0


def _dehn_steps(counts, args, kwargs, out):
    trace = kwargs.get("trace", args[2] if len(args) > 2 else None)
    if trace is not None:
        counts["dehn.steps"] += len(trace)
    counts["dehn.letters_in"] += len(args[1])


def _piece_check(counts, args, kwargs, out):
    counts["dehn.relators"] += out.relator_count
    # both orientations of every rotation of every relator
    counts["dehn.occurrences"] += sum(
        2 * abs(n) * args[0].l for n in out.per_relator_ratio)


@dataclass(frozen=True)
class Target:
    module: str
    attr: str                  # "function" or "Class.method"
    layer: str
    stage: str = ""            # metric that also collects the self time
    count: Callable = None     # count(counts, args, kwargs, result)
    span: bool = True          # False: count calls and errors only


TARGETS = (
    # simplicial
    *(Target("gbbkit.simplicial", attr, "simplicial", "complex_s")
      for attr in ("SimplicialComplex.__init__", "build_complex",
                   "barycentric", "subdivide_graph_edges", "star_union")),
    Target("gbbkit.simplicial", "octahedralize", "simplicial", "complex_s",
           _add("simplicial.octahedralize_calls")),
    # covers
    Target("gbbkit.covers", "build_cover", "covers", "build_s"),
    Target("gbbkit.covers", "pullback", "covers", "build_s"),
    Target("gbbkit.covers", "lifts_to_loop", "covers", "lift_s"),
    Target("gbbkit.covers", "RegularCover.lift_word", "covers", "lift_s",
           _add("covers.lift_calls")),
    # groups
    Target("gbbkit.groups", "subgroup_closure", "groups", "closure_s",
           lambda c, a, k, out: c.update({
               "groups.closure_calls": 1,
               "groups.closure_elements": len(out.elements)})),
    Target("gbbkit.groups", "PermutationGroup.__init__", "groups",
           "closure_s"),
    Target("gbbkit.groups", "r_set", "groups", "r_set_s"),
    Target("gbbkit.groups", "power_product", "groups", "power_product_s",
           _add("groups.power_product_calls")),
    Target("gbbkit.groups", "ore_commutator", "groups", "commutator_s"),
    Target("gbbkit.groups", "build_pqrs", "groups", "commutator_s"),
    # intsets
    Target("gbbkit.intsets", "PeriodicSet.__post_init__", "intsets",
           "normalize_s", _add("intsets.periodic_built")),
    Target("gbbkit.intsets", "GodelSet.f_certificate", "intsets", "fcert_s"),
    Target("gbbkit.intsets", "GodelSet.members_below", "intsets"),
    Target("gbbkit.intsets", "godel_window", "intsets"),
    Target("gbbkit.intsets", "nested_approx", "intsets"),
    *(Target("gbbkit.intsets", attr, "intsets",
             count=_add("intsets.membership_tests"), span=False)
      for attr in ("PeriodicSet.__contains__", "GodelSet.__contains__")),
    # presentation
    Target("gbbkit.presentation", "loops_upto", "presentation", "loops_s",
           _add("presentation.loops_enumerated",
                lambda args, kwargs, out: len(out))),
    Target("gbbkit.presentation", "relators_upto", "presentation",
           "loops_s"),
    Target("gbbkit.presentation", "GbbPresentation.__init__",
           "presentation"),
    Target("gbbkit.presentation", "necessary_conditions_report",
           "presentation"),
    # quotients
    Target("gbbkit.quotients", "verify_abelian_exact", "quotients",
           "verify_s", _add("quotients.kernel_vectors",
                            lambda args, kwargs, out:
                            len(out.certificate.kernel_generators))),
    Target("gbbkit.quotients", "verify_bounded", "quotients", "verify_s",
           _bounded_certificate),
    Target("gbbkit.quotients", "kernel_torsion_free", "quotients",
           "torsion_s"),
    Target("gbbkit.quotients", "stabilizer_image", "quotients",
           "stabilizer_s", _add("quotients.stabilizer_calls")),
    *(Target("gbbkit.quotients", attr, "quotients", "recipe_s")
      for attr in ("cocycle_recipe", "wreath_recipe",
                   "hw_product_quotient")),
    *(Target("gbbkit.quotients", attr, "quotients")
      for attr in ("loop_r_set", "star_abelian_check",
                   "FiniteQuotient.target_exponent")),
    # cubical
    Target("gbbkit.cubical", "QuotientCubeComplex.__init__", "cubical",
           "build_s", _cube_cells),
    Target("gbbkit.cubical", "build_quotient", "cubical", "links_s",
           _add("cubical.links_checked", _links_checked)),
    Target("gbbkit.cubical", "vertex_link", "cubical", "links_s"),
    Target("gbbkit.cubical", "hyperplanes", "cubical", "hyperplanes_s",
           _add("cubical.hyperplanes", lambda args, kwargs, out: len(out))),
    Target("gbbkit.cubical", "specialness", "cubical", "specialness_s"),
    Target("gbbkit.cubical", "cylinders", "cubical", "cylinders_s",
           _add("cubical.cylinders", lambda args, kwargs, out: len(out))),
    Target("gbbkit.cubical", "shift_stable_period", "cubical",
           "stabilize_s"),
    *(Target("gbbkit.cubical", attr, "cubical")
      for attr in ("vertical_shift_permutation", "cylinder_classes",
                   "orbit_characterization_holds")),
    # the link isomorphism tests of build_quotient and vertex_link
    Target("networkx", "is_isomorphic", "cubical",
           count=_add("cubical.iso_tests"), span=False),
    # dehn
    Target("gbbkit.dehn", "dehn_reduce", "dehn", "reduce_s", _dehn_steps),
    Target("gbbkit.dehn", "small_cancellation_check", "dehn",
           "piece_check_s", _piece_check),
    *(Target("gbbkit.dehn", attr, "dehn")
      for attr in ("is_identity", "CyclicPresentation.__init__",
                   "CyclicPresentation.relators_in_window")),
    # cli: the benchmark's own boundary around CliRunner.invoke
    Target("certify", "invoke_gbb", "cli", count=lambda c, a, k, out: c.update(
        {"cli.invocations": 1, "cli.output_bytes": len(out.stdout_bytes)})),
)

# baseline rows: (tagged job, [(sign, span name)]), summed over the
# inclusive durations of the outermost spans with that name in the job
ROWS = {
    "row.cube_q243_build_s":
        ("cube_q243", [(1, "QuotientCubeComplex.__init__")]),
    "row.cube_q243_links_s":
        ("cube_q243", [(1, "build_quotient"),
                       (-1, "QuotientCubeComplex.__init__")]),
    "row.cube_q243_specialness_s": ("cube_q243", [(1, "specialness")]),
    "row.cube_q243_cylinders_s": ("cube_q243", [(1, "cylinders")]),
    "row.dehn_reduce_540_s": ("dehn_reduce_540", [(1, "dehn_reduce")]),
    "row.dehn_reduce_2100_s": ("dehn_reduce_2100", [(1, "dehn_reduce")]),
    "row.rose_wreath_r12_b36_s":
        ("rose_wreath_r12_b36", [(1, "wreath_recipe")]),
    "row.f_certificate_4_s":
        ("f_certificate_4", [(1, "GodelSet.f_certificate")]),
}


class Tracer:
    def __init__(self):
        # (job id, parent span index, layer, name, start, end); the job
        # id is (round, job index) and the job's root span has parent None
        self.spans = []
        self.counts = defaultdict(Counter)    # round -> counter
        self.rows = {}                         # job id -> baseline row
        self._stack = []
        self._job = None
        self._counted_errors = set()
        self._patches = []

    # --- jobs --------------------------------------------------------------
    def begin_job(self, round_index, job_index, row):
        self._job = (round_index, job_index)
        if row:
            self.rows[self._job] = row
        self._stack[:] = [len(self.spans)]
        self.spans.append(None)

    def end_job(self, start, end):
        self.spans[self._stack[0]] = (self._job, None, "bench", "job",
                                      start, end)
        self._stack.clear()
        self._job = None

    # --- wrappers ------------------------------------------------------------
    def _counter(self):
        return self.counts[self._job[0] if self._job else None]

    def _error(self, layer, exc):
        if id(exc) not in self._counted_errors:
            self._counted_errors.add(id(exc))
            self._counter()[f"{layer}.errors"] += 1

    def _wrap(self, target, fn):
        layer, name, count = target.layer, target.attr, target.count
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            count(self._counter(), args, kwargs, out)
            return out

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self._job, parent, layer, name, start, end)
            if count is not None:
                count(self._counter(), args, kwargs, out)
            return out

        return traced if target.span else counted

    def install(self):
        """Wrap every target whose module is loaded."""
        modules = [m for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "gbbkit"]
        for target in TARGETS:
            owner = sys.modules.get(target.module)
            if owner is None:
                continue
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(target, original)
            self._patch(owner, attr, original, wrapped)
            if not path:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- aggregation -------------------------------------------------------
    def metrics(self, names):
        """Per-layer metrics for the metric ``names``: times are medians
        over the traced rounds of each round's total, counts are those of
        the first traced round."""
        child = defaultdict(float)
        for job, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_round = defaultdict(Counter)
        span_counts = Counter()
        for index, (job, parent, layer, name, start, end) in enumerate(
                self.spans):
            if job is None:
                continue
            totals = per_round[job[0]]
            own = end - start - child[index]
            totals[f"{layer}.self_s"] += own
            stage = STAGES.get((layer, name))
            if stage:
                totals[f"{layer}.{stage}"] += own
            if layer == "bench":
                totals["trace.job_s"] += end - start
            span_counts[job[0]] += 1
        for metric, (row, parts) in ROWS.items():
            for job, inclusive in self._outermost(row).items():
                per_round[job[0]][metric] += sum(
                    sign * inclusive.get(name, 0.0) for sign, name in parts)
        rounds = sorted(per_round)
        first = rounds[0]
        counts = self.counts[first]
        out = {}
        for metric in names:
            if metric.endswith("_s"):
                out[metric] = statistics.median(
                    per_round[r][metric] for r in rounds)
            elif metric == "trace.spans":
                out[metric] = span_counts[first]
            else:
                out[metric] = counts[metric]
        unstable = [m for m in names if not m.endswith("_s") and any(
            self.counts[r][m] != counts[m] for r in rounds)]
        return out, unstable

    def _outermost(self, row):
        """job -> {span name: inclusive seconds of the outermost spans of
        that name} for the jobs tagged with ``row``."""
        out = defaultdict(Counter)
        for index, (job, parent, _, name, start, end) in enumerate(
                self.spans):
            if self.rows.get(job) != row:
                continue
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][3] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                out[job][name] += end - start
        return out


STAGES = {(t.layer, t.attr): t.stage for t in TARGETS if t.stage}
