"""Command-line workbench.

Verbs: ``build-complex``, ``check-special``, ``verify-quotient``,
``recipe``, ``rset``, ``dehn``, ``report`` (the full square-family sweep),
and ``fixtures``.  Every run emits a report envelope (plain text or
``--json``) carrying a digest of the inputs, the verdicts and witnesses,
the certificate modes involved, and the tool version, so results are
reproducible from the report alone.

Exit codes: 0 = clean verdict, 1 = pathology verdict (not special, torsion
in the kernel, non-identity word, sweep mismatch), 2 = input errors (a
``GbbError`` or an unreadable file) and words that ``dehn`` cannot decide
(no C'(1/6) on the window), 3 = internal invariant violations and any
other exception.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field

import click

from . import __version__
from .cubical import (_link_tag, build_quotient, hyperplane_counts,
                      shift_stable_period, specialness)
from .dehn import CyclicPresentation, Word, is_identity, small_cancellation_check
from .errors import GbbError, InternalError
from .fixtures import (fixture_names, load_fixture, square_presentation,
                       square_quotient_bits)
from .groups import r_set
from .intsets import PeriodicSet
from .io_formats import (load_json, quotient_spec_from_json, set_from_json,
                         set_to_json)
from .presentation import GbbPresentation
from .quotients import kernel_torsion_free, verify_abelian_exact

QUOTIENT_FIXTURES = ("s9-index16", "s9-cocycle", "p3-cocycle")


@dataclass
class ReportEnvelope:
    command: str
    inputs: dict
    verdicts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    certificate_modes: list = field(default_factory=list)
    version: str = __version__

    @property
    def inputs_digest(self):
        blob = json.dumps(self.inputs, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def as_dict(self):
        return {
            "command": self.command,
            "version": self.version,
            "inputs": self.inputs,
            "inputs_digest": self.inputs_digest,
            "verdicts": self.verdicts,
            "witnesses": self.witnesses,
            "certificate_modes": self.certificate_modes,
        }

    def emit(self, as_json):
        if as_json:
            click.echo(json.dumps(self.as_dict(), indent=2, default=str))
            return
        click.echo(f"# {self.command} (gbbkit {self.version})")
        click.echo(f"inputs digest: {self.inputs_digest}")
        for k, v in self.inputs.items():
            click.echo(f"  input {k}: {v}")
        for k, v in self.verdicts.items():
            click.echo(f"{k}: {v}")
        for w in self.witnesses:
            click.echo(f"  witness: {w}")
        if self.certificate_modes:
            click.echo(f"certificates: {', '.join(self.certificate_modes)}")


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    """Run fn(); map error classes onto the exit-code contract: input
    errors exit 2, anything else is a bug and exits 3."""
    try:
        return fn()
    except InternalError as err:
        _fail(3, f"internal invariant violated: {err}")
    except (GbbError, OSError) as err:
        _fail(2, str(err))
    except Exception as err:
        import traceback  # imported only to report a bug: keeps start-up lean
        click.echo(traceback.format_exc(), err=True)
        _fail(3, f"internal error: {type(err).__name__}: {err}")


def _resolve_quotient(fixture, bits, quotient_file):
    """(presentation, quotient) from a fixture name, a 4-bit pattern for
    the square family, or a quotient-spec file paired with the square
    presentation."""
    sources = [x for x in (fixture, bits, quotient_file) if x]
    if len(sources) != 1:
        raise GbbError("give exactly one of --fixture / --bits / --quotient")
    if bits:
        if len(bits) != 4 or set(bits) - set("01"):
            raise GbbError("--bits wants four 0/1 characters, e.g. 1000")
        q = square_quotient_bits(tuple(int(b) for b in bits))
        return q.presentation, q
    if quotient_file:
        pres = square_presentation()
        target, theta = quotient_spec_from_json(load_json(quotient_file))
        return pres, verify_abelian_exact(pres, target, theta)
    if fixture not in QUOTIENT_FIXTURES:
        raise GbbError(
            f"fixture {fixture!r} is not a quotient fixture; "
            f"choose from {', '.join(QUOTIENT_FIXTURES)} or use --bits"
        )
    q = load_fixture(fixture)
    return q.presentation, q


def _cell_dump(Y):
    # Y.vertices are in sorted order: heights ascend, and each height's
    # cosets are named by their least elements, in index order
    verts = [{"id": i, "height": j, "coset": repr(r)}
             for i, (j, r) in enumerate(Y.vertices)]
    edges = [
        {
            "id": p,
            "height": e.j,
            "label": str(e.label),
            "coord": list(e.q.coords),
            "bottom": Y._bottom[p],
            "top": Y._top[p],
        }
        for p, e in enumerate(Y.edges)
    ]
    squares = [{"id": s, "sides": list(sides)}
               for s, sides in enumerate(Y._sides)]
    return {"vertices": verts, "edges": edges, "squares": squares}


def _specialness_verdicts(rep):
    return {
        "wrap": rep.wrap,
        "hyperplane_counts": {str(k): v for k, v in sorted(rep.counts.items())},
        "special": rep.special,
        "self_osculating_labels": list(rep.pattern()[1]),
        "inter_osculating_label_pairs": [list(p) for p in rep.pattern()[2]],
        "non_two_sided": len(rep.non_two_sided),
        "self_intersections": len(rep.self_intersections),
        "directed_hyperplane_counts": {
            str(k): v for k, v in
            sorted(hyperplane_counts(rep.planes, directed=True).items())
        },
    }


def _osculation_witnesses(rep):
    out = []
    for h, (e1, e2) in rep.self_osculations:
        out.append(f"self-osculation of {h}: {e1} / {e2}")
    for (h1, h2), (e1, e2) in rep.inter_osculations:
        out.append(f"inter-osculation {h1} x {h2}: {e1} / {e2}")
    return out


@click.group()
def main():
    """Workbench for edge-generated groups over finite regular covers."""


@main.command("fixtures")
@click.argument("action", default="list")
def fixtures_cmd(action):
    """List the built-in fixtures."""
    if action != "list":
        _fail(2, f"unknown fixtures action {action!r}")
    for name in fixture_names():
        click.echo(name)


@main.command("build-complex")
@click.option("--fixture", default=None, help="quotient fixture name")
@click.option("--bits", default=None, help="square-family C2 quotient, e.g. 1000")
@click.option("--quotient", "quotient_file", default=None,
              type=click.Path(exists=True), help="quotient spec JSON")
@click.option("--wrap", default=None, type=int, help="wrap period N")
@click.option("--dump-cells", is_flag=True, help="include the full cell table")
@click.option("--json", "as_json", is_flag=True)
def build_complex_cmd(fixture, bits, quotient_file, wrap, dump_cells, as_json):
    """Build the wrapped quotient cube complex and validate all links."""

    def run():
        pres, q = _resolve_quotient(fixture, bits, quotient_file)
        N = q.period if wrap is None else wrap
        Y = build_quotient(pres, q, N, require_torsion_free=True)
        env = ReportEnvelope(
            "build-complex",
            {"fixture": fixture, "bits": bits, "quotient": quotient_file,
             "wrap": N},
        )
        env.certificate_modes.append(q.mode)
        env.verdicts.update(Y.counts())
        env.verdicts["links_validated"] = True
        # build_quotient has certified each height's link against its tag,
        # and translation by Q carries it to the whole height
        env.verdicts["link_types"] = sorted({_link_tag(Y, j)
                                             for j in range(Y.N)})
        if dump_cells:
            env.verdicts["cells"] = _cell_dump(Y)
        env.emit(as_json)
        return 0

    sys.exit(_guard(run))


@main.command("check-special")
@click.option("--fixture", default=None)
@click.option("--bits", default=None)
@click.option("--quotient", "quotient_file", default=None,
              type=click.Path(exists=True))
@click.option("--wrap", default=None, type=int)
@click.option("--stabilize", is_flag=True,
              help="double the wrap until the verdict pattern stabilizes")
@click.option("--json", "as_json", is_flag=True)
def check_special_cmd(fixture, bits, quotient_file, wrap, stabilize, as_json):
    """Run the four-pathology specialness scan on the wrapped complex."""

    def run():
        pres, q = _resolve_quotient(fixture, bits, quotient_file)
        N = q.period if wrap is None else wrap
        env = ReportEnvelope(
            "check-special",
            {"fixture": fixture, "bits": bits, "quotient": quotient_file,
             "wrap": N, "stabilize": stabilize},
        )
        env.certificate_modes.append(q.mode)
        Y = build_quotient(pres, q, N, require_torsion_free=True)
        rep = specialness(Y)
        env.verdicts.update(_specialness_verdicts(rep))
        env.witnesses.extend(_osculation_witnesses(rep))
        special = rep.special
        if stabilize:
            shift = shift_stable_period(Y, rep)
            env.verdicts["stable_wrap"] = shift.stable_wrap
            env.verdicts["wrap_multiplier"] = shift.multiplier
            env.verdicts["shift_preserves_each_hyperplane"] = shift.preserves_each
            special = shift.special
        elif not special:
            # confirm genuine pathologies at the doubled wrap before reporting
            rep2 = specialness(build_quotient(pres, q, 2 * N,
                                              validate_links=False))
            env.verdicts["confirmed_at_wrap"] = 2 * N
            env.verdicts["confirmed"] = rep2.pattern() == rep.pattern()
        env.verdicts["special"] = special
        env.emit(as_json)
        return 0 if special else 1

    sys.exit(_guard(run))


@main.command("verify-quotient")
@click.option("--fixture", default=None)
@click.option("--bits", default=None)
@click.option("--quotient", "quotient_file", default=None,
              type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def verify_quotient_cmd(fixture, bits, quotient_file, as_json):
    """Verify a quotient's relator certificate and kernel torsion."""

    def run():
        pres, q = _resolve_quotient(fixture, bits, quotient_file)
        env = ReportEnvelope(
            "verify-quotient",
            {"fixture": fixture, "bits": bits, "quotient": quotient_file},
        )
        env.certificate_modes.append(q.mode)
        env.verdicts["certificate_passed"] = q.certificate.passed
        tf, witness = kernel_torsion_free(q)
        env.verdicts["kernel_torsion_free"] = tf
        if witness:
            env.witnesses.append(f"torsion at (exponent, deck) = {witness}")
        env.emit(as_json)
        return 0 if (q.certificate.passed and tf) else 1

    sys.exit(_guard(run))


@main.command("recipe")
@click.option("--kind", type=click.Choice(["cocycle", "wreath", "hw-product"]),
              required=True)
@click.option("--fixture", default=None,
              help="presentation fixture for cocycle (s9-pres), quotient "
                   "fixture for hw-product")
@click.option("--r", default=12, type=int, help="wreath: edge subdivision")
@click.option("--n", default=2, type=int, help="wreath: exponent modulus")
@click.option("--seed", default=0, type=int)
@click.option("--json", "as_json", is_flag=True)
def recipe_cmd(kind, fixture, r, n, seed, as_json):
    """Produce a verified quotient by one of the three recipes."""

    def run():
        env = ReportEnvelope(
            "recipe",
            {"kind": kind, "fixture": fixture, "r": r, "n": n, "seed": seed},
        )
        if kind == "cocycle":
            from .quotients import cocycle_recipe
            pres = load_fixture(fixture or "s9-pres")
            if not isinstance(pres, GbbPresentation):
                raise GbbError(f"fixture {fixture!r} is not a presentation")
            q = cocycle_recipe(pres)
        elif kind == "wreath":
            from .fixtures import rose_wreath_recipe
            result = rose_wreath_recipe(r=r, n=n)
            q = result.quotient
            env.verdicts["residues_detected"] = sorted(result.k_list)
        else:
            from .quotients import hw_product_quotient
            pres, q0 = _resolve_quotient(fixture or "s9-cocycle", None, None)
            q = hw_product_quotient(q0)
        env.certificate_modes.append(q.mode)
        env.verdicts["certificate_passed"] = q.certificate.passed
        tf, witness = kernel_torsion_free(q)
        env.verdicts["kernel_torsion_free"] = tf
        if witness:
            env.witnesses.append(f"torsion at {witness}")
        env.verdicts["target"] = str(q.target)
        env.emit(as_json)
        return 0 if tf else 1

    sys.exit(_guard(run))


@main.command("rset")
@click.option("--fixture", default="pqrs")
@click.option("--n", default=3, type=int)
@click.option("--k", default=1, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--json", "as_json", is_flag=True)
def rset_cmd(fixture, n, k, seed, as_json):
    """Exponent set of the detector quadruple's power products."""

    def run():
        if fixture != "pqrs":
            raise GbbError("rset currently works on the detector fixture")
        elements = load_fixture("pqrs", n=n, k=k, seed=seed)
        rs = r_set(list(elements))
        env = ReportEnvelope("rset", {"fixture": fixture, "n": n, "k": k,
                                      "seed": seed})
        env.verdicts["r_set"] = rs.describe()
        env.verdicts["complement_of"] = PeriodicSet(
            rs.modulus,
            frozenset(range(rs.modulus)) - rs.residues,
        ).describe()
        env.emit(as_json)
        return 0

    sys.exit(_guard(run))


@main.command("dehn")
@click.option("--l", "l", default=13, type=int)
@click.option("--set", "set_file", default=None, type=click.Path(exists=True),
              help="exponent set JSON; default 2Z")
@click.option("--word", required=True)
@click.option("--check-ratio", "check_ratio", default=None,
              type=click.IntRange(min=1),
              help="also certify the 1/m piece condition on the window")
@click.option("--window", default=6, type=int)
@click.option("--json", "as_json", is_flag=True)
def dehn_cmd(l, set_file, word, check_ratio, window, as_json):
    """Decide a word in the cyclic small-cancellation presentation."""

    def run():
        T = set_from_json(load_json(set_file)) if set_file \
            else PeriodicSet.multiples(2)
        pres = CyclicPresentation(l, T)
        w = Word.parse(word)
        env = ReportEnvelope(
            "dehn",
            {"l": l, "set": set_to_json(T), "word": word, "window": window},
        )
        if check_ratio:
            rep = small_cancellation_check(pres, check_ratio, window)
            env.verdicts["max_piece_ratio"] = rep.max_ratio
            env.verdicts[f"satisfies_C'(1/{check_ratio})"] = rep.passes
            env.certificate_modes.append("window-certified")
        if is_identity(pres, w):
            ident, code = True, 0
        else:
            # Dehn's algorithm decides the word problem only under C'(1/6),
            # so a word left non-empty proves nothing without it
            if check_ratio != 6:
                rep = small_cancellation_check(pres, 6, window)
            ident, code = (False, 1) if rep.passes else ("undecided", 2)
        env.verdicts["is_identity"] = ident
        env.emit(as_json)
        return code

    sys.exit(_guard(run))


# ---------------------------------------------------------------------------
# the square-family sweep


def sweep_square_family(wrap=2):
    """Enumerate the 15 nontrivial C2 quotients of the square family, tag
    the torsion-free kernels (odd bit count), run the specialness scan on
    those and on the coordinatewise index-16 quotient, and compare against
    the expected outcomes."""
    import itertools as it
    from .fixtures import square_index16_quotient

    pres = square_presentation()
    rows = []
    torsion_free = []
    for bits in it.product((0, 1), repeat=4):
        if not any(bits):
            continue
        q = square_quotient_bits(bits)
        tf, _ = kernel_torsion_free(q)
        rows.append({"bits": "".join(map(str, bits)), "torsion_free_kernel": tf})
        if tf:
            torsion_free.append((bits, q))
    expected_tf = 8
    verdicts = {
        "index2_quotients": len(rows),
        "torsion_free_kernels": sum(r["torsion_free_kernel"] for r in rows),
        "odd_cardinality_matches": all(
            r["torsion_free_kernel"] == (r["bits"].count("1") % 2 == 1)
            for r in rows
        ),
    }
    table = []
    all_non_special = True
    for bits, q in torsion_free:
        Y = build_quotient(pres, q, wrap)
        rep = specialness(Y)
        counts, selfosc, interosc = rep.pattern()
        table.append({
            "case": "".join(map(str, bits)),
            "counts": dict(counts),
            "self_osculating": list(selfosc),
            "inter_osculating": [list(p) for p in interosc],
            "special": rep.special,
        })
        all_non_special = all_non_special and not rep.special
    q16 = square_index16_quotient()
    rep16 = specialness(build_quotient(pres, q16, wrap))
    verdicts["index2_all_non_special"] = all_non_special
    verdicts["index16_special"] = rep16.special
    verdicts["matches_expected"] = (
        verdicts["index2_quotients"] == 15
        and verdicts["torsion_free_kernels"] == expected_tf
        and verdicts["odd_cardinality_matches"]
        and all_non_special
        and rep16.special
    )
    env = ReportEnvelope("report", {"sweep": "square-family", "wrap": wrap})
    env.certificate_modes.append("abelian-exact")
    env.verdicts.update(verdicts)
    env.verdicts["table"] = table
    return env


@main.command("report")
@click.option("--wrap", default=2, type=int)
@click.option("--json", "as_json", is_flag=True)
def report_cmd(wrap, as_json):
    """Run the full square-family sweep and compare against expectations."""

    def run():
        env = sweep_square_family(wrap=wrap)
        env.emit(as_json)
        return 0 if env.verdicts["matches_expected"] else 1

    sys.exit(_guard(run))


if __name__ == "__main__":
    main()
