"""Golden CLI outputs: the exit code and digests of stdout and stderr for
a fixed set of ``gbb`` invocations, run in-process.

The set covers every verb: the quotient verbs on the 15 bit patterns of
the square family at the default wrap and at wraps 2, 4 and 8, with and
without ``--stabilize``; the fixtures with ``--dump-cells`` at their
default and at explicit wraps; the three recipes, wreaths at several r
and n; ``rset`` at every k for n = 2..7; ``report``; ``dehn``; and
rejected inputs (zero, negative and misaligned wraps, unknown fixtures,
undecidable words).  A record holds the arguments, the exit code and the
first 16 hex digits of the sha256 of stdout and of stderr, where the
rejected inputs name their witnesses.  Output that depends on hash order
fails this under a second ``PYTHONHASHSEED``.

Regenerate the digest file after an intended change of output with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gbbkit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
BITS = [format(b, "04b") for b in range(1, 16)]
FIXTURES = ("s9-index16", "s9-cocycle", "p3-cocycle")


def _jobs():
    """One of each job the benchmark's certify mix runs."""
    out = [["verify-quotient", "--bits", b] for b in BITS]
    out += [["verify-quotient", "--fixture", f] for f in FIXTURES]
    out.append(["verify-quotient", "--bits", "12"])
    for wrap in ("2", "4", "8"):
        out.append(["check-special", "--bits", "1000", "--wrap", wrap])
        out.append(["check-special", "--fixture", "s9-index16", "--wrap", wrap])
    out.append(["check-special", "--bits", "1110", "--stabilize"])
    out.append(["check-special", "--fixture", "p3-cocycle", "--stabilize"])
    out += [["build-complex", "--fixture", f] for f in FIXTURES]
    out += [["recipe", "--kind", "wreath"],
            ["recipe", "--kind", "wreath", "--r", "16"],
            ["recipe", "--kind", "cocycle"],
            ["recipe", "--kind", "hw-product"],
            ["recipe", "--kind", "hw-product", "--fixture", "p3-cocycle"]]
    out += [["rset", "--n", str(n)] for n in range(2, 8)]
    out += [["report", "--wrap", "2"], ["report", "--wrap", "4"]]
    relator = " ".join(f"a{i} a{i}" for i in range(1, 14))
    out += [["dehn", "--word", relator, "--check-ratio", "6"],
            ["dehn", "--word", "a1 a2", "--check-ratio", "6"],
            ["dehn", "--word", "b1"]]
    return out


def invocations():
    out = [["fixtures"], ["fixtures", "bogus"]]
    for args in _jobs():
        out += [args, args + ["--json"]]
    for b in BITS:
        for wrap in ([], ["--wrap", "2"], ["--wrap", "4"], ["--wrap", "8"]):
            out.append(["check-special", "--bits", b, *wrap, "--json"])
            out.append(["build-complex", "--bits", b, *wrap, "--json"])
    for source in [["--bits", b] for b in BITS] + [["--fixture", f]
                                                 for f in FIXTURES]:
        out.append(["check-special", *source, "--stabilize"])
        out.append(["check-special", *source, "--stabilize", "--json"])
    for f, wrap in (("s9-index16", "4"), ("s9-cocycle", "4"),
                    ("p3-cocycle", "6")):
        out.append(["build-complex", "--fixture", f, "--dump-cells", "--json"])
        out.append(["build-complex", "--fixture", f, "--wrap", wrap,
                    "--dump-cells", "--json"])
    out.append(["build-complex", "--bits", "1000", "--wrap", "4",
                "--dump-cells", "--json"])
    out += [["build-complex", "--bits", "1000", "--wrap", "0"],
            ["check-special", "--bits", "1000", "--wrap", "-2"],
            ["check-special", "--fixture", "p3-cocycle", "--wrap", "4"],
            ["build-complex", "--fixture", "s9-pres"],
            ["build-complex", "--bits", "1000", "--fixture", "s9-index16"]]
    for n in range(2, 8):
        for k in range(1, n):
            out.append(["rset", "--n", str(n), "--k", str(k)])
            out.append(["rset", "--n", str(n), "--k", str(k), "--json"])
    out += [["rset", "--fixture", "square"],
            ["rset", "--n", "1"]]
    for r, n in (("4", "2"), ("4", "3"), ("6", "3"), ("8", "2"), ("12", "3")):
        out.append(["recipe", "--kind", "wreath", "--r", r, "--n", n, "--json"])
    out += [["recipe", "--kind", "cocycle", "--fixture", "s9-index16"],
            ["dehn", "--l", "7", "--word", "a1 a2", "--check-ratio", "6",
             "--json"]]
    return out


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return {"args": args, "exit": result.exit_code,
            "stdout": _digest(result.stdout), "stderr": _digest(result.stderr)}


def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_invocation():
    assert [r["args"] for r in golden()] == invocations()


@pytest.mark.parametrize("verb", sorted({args[0] for args in invocations()}))
def test_output_is_unchanged(verb):
    runner = CliRunner()
    changed = [(want, got) for want in golden() if want["args"][0] == verb
               for got in [record(runner, want["args"])] if got != want]
    assert not changed, changed[:3]


if __name__ == "__main__":
    runner = CliRunner()
    records = [record(runner, args) for args in invocations()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records)
                      + "\n]\n")
