"""certify: the end-user certification mix.

Library jobs: rose wreath recipes with their loop check, the 15
square-family quotients with ``kernel_torsion_free``, abelianized-kernel
products of the index-16, triple-cover and k-cycle cocycle quotients, and
seeded residue-detector draws.  ``gbb`` jobs: every verb, invoked
in-process through ``click.testing.CliRunner`` with ``--json``.  The seed
picks the detector draws, the cycle edge and generator power of each
k-cycle cover, and the job order.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import gbbkit.cli
from click.testing import CliRunner
from gbbkit import covers, fixtures, groups, presentation, quotients

from common import Job, check_fields
from cube import cycle_cocycle_quotient

WREATH_RUNS = ((4, 12), (6, 18), (8, 24), (12, 24), (12, 36))  # (r, bound)
CYCLE_KS = (4, 5, 6)
CYCLE_PRIMES = (2, 3, 5)
DETECTOR_DRAWS = 50
DIGESTS = Path(__file__).with_name("gbb_digests.json")
TWO_Z = (2, frozenset({0}))
ALL_Z = (1, frozenset({0}))


def as_set(s):
    return (s.modulus, s.residues)


# --- library jobs -----------------------------------------------------------


def run_square(bits):
    q = fixtures.square_quotient_bits(tuple(int(b) for b in bits))
    tf, _ = quotients.kernel_torsion_free(q)
    return {"mode": q.mode, "passed": q.certificate.passed,
            "torsion_free": tf}


def run_product(source, k=0, p=0, edge=0, power=1):
    if source == "index16":
        q0 = fixtures.square_index16_quotient()
    elif source == "triple":
        q0 = fixtures.triple_cover_quotient()
    else:
        _, q0 = cycle_cocycle_quotient(k, p, edge, power)
    q = quotients.hw_product_quotient(q0)
    tf, _ = quotients.kernel_torsion_free(q)
    return {"mode": q.mode, "passed": q.certificate.passed,
            "factors": q.target.factors, "torsion_free": tf}


def run_wreath(r, bound):
    res = fixtures.rose_wreath_recipe(r=r, n=2, loop_length_bound=bound)
    pres, q = res.presentation, res.quotient
    tf, _ = quotients.kernel_torsion_free(q)
    loops = []
    for loop in presentation.loops_upto(pres.L, bound, reduced=True):
        rs = groups.r_set([q.theta[e] for e in loop])
        lifts = covers.lifts_to_loop(pres.cover, loop)
        loops.append((loop, lifts, as_set(rs)))
    return {"passed": q.certificate.passed, "torsion_free": tf,
            "S": as_set(pres.S), "loops": loops}


def run_detector(sigma, n, k):
    alpha, beta = groups.ore_commutator(groups.Permutation(sigma))
    quad = list(groups.build_pqrs(alpha, beta, k, n))
    products = []
    for j in range(n):
        w = groups.power_product(quad, j)
        products.append((w.rotor, tuple(x.images for x in w.base)))
    return {"products": products, "r_set": as_set(groups.r_set(quad))}


def check_wreath(answer, expect):
    problems = check_fields(
        {k: answer[k] for k in ("passed", "torsion_free", "S")}, expect)
    for loop, lifts, rs in answer["loops"]:
        want = ALL_Z if lifts else expect["S"]
        if rs != want:
            problems.append(f"loop {loop}: exponent set {rs}, expected {want}")
    return problems


def check_detector(answer, expect):
    """a^j b^j c^j d^j is sigma placed at base index k-1 when j = k mod n,
    and the identity otherwise; so the exponent set is Z minus k + nZ."""
    n, k, sigma = expect["n"], expect["k"], expect["sigma"]
    ident = tuple(range(len(sigma)))
    problems = []
    for j, got in enumerate(answer["products"]):
        hit = j == k % n
        want = (0, tuple(sigma if hit and i == k - 1 else ident
                         for i in range(n)))
        if got != want:
            problems.append(
                f"power product at j={j} is {got}, expected {want}")
    want_rs = (n, frozenset(range(n)) - {k})
    if answer["r_set"] != want_rs:
        problems.append(f"r_set {answer['r_set']}, expected {want_rs}")
    return problems


def detector_draws(rng):
    draws = []
    while len(draws) < DETECTOR_DRAWS:
        degree = rng.randrange(3, 6)
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n)
        sigma = tuple(rng.sample(range(degree), degree))
        if _parity(sigma) or sigma == tuple(range(degree)):
            continue
        draws.append((sigma, n, k))
    return draws


def _parity(images):
    """(degree - number of cycles) mod 2."""
    seen, cycles = set(), 0
    for start in range(len(images)):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = images[x]
    return (len(images) - cycles) % 2


# --- gbb jobs -------------------------------------------------------------


def invoke_gbb(args):
    """The benchmark's boundary into the ``cli`` layer."""
    return CliRunner().invoke(gbbkit.cli.main, args)


def run_gbb(args):
    res = invoke_gbb(args)
    return {"exit_code": res.exit_code, "stdout": res.stdout,
            "exception": res.exception}


def check_gbb(answer, expect):
    exc = answer["exception"]
    if exc is not None and not isinstance(exc, SystemExit):
        return [f"raised {type(exc).__name__}: {exc}"]
    problems = []
    if answer["exit_code"] != expect["exit_code"]:
        problems.append(f"exit code {answer['exit_code']}, "
                        f"expected {expect['exit_code']}")
    if expect["exit_code"] == 2:
        return problems
    try:
        envelope = json.loads(answer["stdout"])
    except ValueError:
        return problems + ["output is not a JSON envelope"]
    if envelope["inputs_digest"] != expect["digest"]:
        problems.append(f"inputs_digest {envelope['inputs_digest']}, "
                        f"expected {expect['digest']}")
    verdicts = envelope["verdicts"]
    for key, want in expect["verdicts"].items():
        if verdicts.get(key) != want:
            problems.append(f"verdict {key} = {verdicts.get(key)!r}, "
                            f"expected {want!r}")
    return problems


def gbb_table():
    """(args, exit code, expected verdicts) for every gbb job."""
    out = []
    for b in range(1, 16):
        bits = format(b, "04b")
        odd = bits.count("1") % 2 == 1
        out.append((["verify-quotient", "--bits", bits], 0 if odd else 1,
                    {"certificate_passed": True, "kernel_torsion_free": odd}))
    for name in ("s9-index16", "s9-cocycle", "p3-cocycle"):
        out.append((["verify-quotient", "--fixture", name], 0,
                    {"certificate_passed": True, "kernel_torsion_free": True}))
    out.append((["verify-quotient", "--bits", "12"], 2, {}))
    for wrap in (2, 4, 8):
        out.append((["check-special", "--bits", "1000", "--wrap", str(wrap)],
                    1, {"special": False, "confirmed": True}))
        out.append((["check-special", "--fixture", "s9-index16", "--wrap",
                     str(wrap)], 0, {"special": True}))
    for source in (["--bits", "1110"], ["--fixture", "p3-cocycle"]):
        out.append((["check-special", *source, "--stabilize"], 1,
                    {"special": False, "wrap_multiplier": 1}))
    # |E| = |squares| = N |V(L)| |Q| at the default wrap N
    for name, cells in (("s9-index16", 2 * 4 * 16), ("s9-cocycle", 2 * 4 * 2),
                        ("p3-cocycle", 3 * 4 * 3)):
        out.append((["build-complex", "--fixture", name], 0,
                    {"links_validated": True, "edges": cells,
                     "squares": cells, "link_types": ["S(L)", "S(M)"]}))
    for extra in ([], ["--r", "16"]):
        out.append((["recipe", "--kind", "wreath", *extra], 0,
                    {"certificate_passed": True, "kernel_torsion_free": True,
                     "residues_detected": [1]}))
    for extra in (["--kind", "cocycle"], ["--kind", "hw-product"],
                  ["--kind", "hw-product", "--fixture", "p3-cocycle"]):
        out.append((["recipe", *extra], 0,
                    {"certificate_passed": True, "kernel_torsion_free": True}))
    for n in range(2, 8):
        rest = ",".join(str(r) for r in range(n) if r != 1)
        out.append((["rset", "--n", str(n)], 0,
                    {"r_set": f"{{{rest}}} mod {n}",
                     "complement_of": f"{{1}} mod {n}"}))
    for wrap in (2, 4):
        out.append((["report", "--wrap", str(wrap)], 0,
                    {"matches_expected": True, "index2_quotients": 15,
                     "torsion_free_kernels": 8, "index16_special": True}))
    relator = " ".join(f"a{i} a{i}" for i in range(1, 14))
    out.append((["dehn", "--word", relator, "--check-ratio", "6"], 0,
                {"is_identity": True, "satisfies_C'(1/6)": True}))
    out.append((["dehn", "--word", "a1 a2", "--check-ratio", "6"], 1,
                {"is_identity": False, "satisfies_C'(1/6)": True}))
    out.append((["dehn", "--word", "b1"], 2, {}))
    return out


# --- the mix ----------------------------------------------------------------


def make_jobs(seed):
    rng = random.Random(f"certify-{seed}")
    digests = json.loads(DIGESTS.read_text())
    jobs = []
    for r, bound in WREATH_RUNS:
        jobs.append(Job(
            f"rose wreath r={r} bound={bound}", run_wreath,
            {"r": r, "bound": bound}, check_wreath,
            {"passed": True, "torsion_free": True, "S": TWO_Z},
            row="rose_wreath_r12_b36" if (r, bound) == (12, 36) else ""))
    for b in range(1, 16):
        bits = format(b, "04b")
        jobs.append(Job(
            f"square bits={bits}", run_square, {"bits": bits}, check_fields,
            {"mode": "abelian-exact", "passed": True,
             "torsion_free": bits.count("1") % 2 == 1}))
    products = [("index16", {}, (2,) * 7), ("triple", {}, (3,) * 4)]
    for k in CYCLE_KS:
        for p in CYCLE_PRIMES:
            products.append(("cycle", {"k": k, "p": p,
                                       "edge": rng.randrange(k),
                                       "power": rng.randrange(1, p)},
                             (p,) * k))
    for source, params, factors in products:
        jobs.append(Job(
            f"hw product of {source} {params}", run_product,
            {"source": source, **params}, check_fields,
            {"mode": "abelian-exact", "passed": True, "factors": factors,
             "torsion_free": True}))
    for sigma, n, k in detector_draws(rng):
        jobs.append(Job(
            f"detector n={n} k={k}", run_detector,
            {"sigma": sigma, "n": n, "k": k}, check_detector,
            {"sigma": sigma, "n": n, "k": k}))
    for args, code, verdicts in gbb_table():
        args = args if code == 2 else args + ["--json"]
        key = " ".join(args)
        jobs.append(Job(
            f"gbb {key}", run_gbb, {"args": args}, check_gbb,
            {"exit_code": code, "verdicts": verdicts,
             "digest": digests.get(key)}))
    rng.shuffle(jobs)
    return jobs
