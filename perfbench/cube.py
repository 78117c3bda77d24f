"""cube: the wrapped cube-complex pipeline on large complexes.

Family: the k-cycle base (k in 4, 5, 6) with a connected cover whose deck
group is cyclic of prime order p (2, 3, 5), exponent set S = pZ.  The
quotient is ``cocycle_recipe``, optionally followed by
``hw_product_quotient``; the wrap N is p or 2p.  |Q| is p, or p^k for the
product, and runs from 2 to 243.  Members with |Q| > 243 are left out,
and so is the N = 2p wrap of members with |Q| > 32 (see README.md).  The
cheap cocycle members (|Q| = p) run in VARIANTS seeded variants each, with
distinct edges or powers, so that the latency percentiles, which fall
among them, rest on more than one sample per member.

One job builds the cover and the quotient, then runs ``build_quotient``
with link validation, ``hyperplanes``, ``specialness`` and ``cylinders``.
The seed picks the job order, the cycle edge that carries the deck
generator and the generator power.
"""

from __future__ import annotations

import random

from gbbkit import covers, cubical, fixtures, groups, intsets, presentation
from gbbkit import quotients

from common import Job

KS = (4, 5, 6)
PRIMES = (2, 3, 5)
MAX_Q = 243
MAX_Q_DOUBLE_WRAP = 32
VARIANTS = 3


def family():
    """(k, p, product, N) for every member of the family; the row
    "cube_q243" is the |Q| = 243 member."""
    out = []
    for k in KS:
        for p in PRIMES:
            for product in (False, True):
                order = p ** k if product else p
                if order > MAX_Q:
                    continue
                for N in (p, 2 * p):
                    if N == p or order <= MAX_Q_DOUBLE_WRAP:
                        out.append((k, p, product, N))
    return out


def cycle_cocycle_quotient(k, p, edge, power):
    """The k-cycle with the cover whose deck group Z/p is generated by
    the ``power``-th power of a p-cycle on the edge from v<edge>, S = pZ,
    and its classifying-cocycle quotient."""
    L = fixtures.cycle_complex(k)
    g = groups.Permutation.from_cycles(p, tuple(range(p))) ** power
    cover = covers.build_cover(L, groups.PermutationGroup(p, [g]),
                               {(f"v{edge}", f"v{(edge + 1) % k}"): g}, "v0")
    pres = presentation.GbbPresentation(
        L, cover, intsets.PeriodicSet.multiples(p))
    return pres, quotients.cocycle_recipe(pres)


def run_job(k, p, product, N, edge, power):
    pres, q = cycle_cocycle_quotient(k, p, edge, power)
    if product:
        q = quotients.hw_product_quotient(q)
    Y = cubical.build_quotient(pres, q, N, validate_links=True)
    planes = cubical.hyperplanes(Y)
    special = cubical.specialness(Y).special
    cubical.cylinders(Y)
    return Y, planes, special


def expected(k, p, product, N):
    """Cell counts from the parametrization: heights in S carry |Q|
    vertices, the others |Q|/p (P_j has order p there); edges and squares
    are free Q-torsors over each height and base vertex or edge.  The
    product targets, and only they, give special complexes."""
    order = p ** k if product else p
    return {
        "vertices": (N // p) * order + (N - N // p) * order // p,
        "edges": N * k * order,
        "squares": N * k * order,
        "special": product,
    }


def check(answer, expect):
    Y, planes, special = answer
    problems = []
    for key, got in (("vertices", len(Y.vertices)), ("edges", len(Y.edges)),
                     ("squares", len(Y.squares))):
        if got != expect[key]:
            problems.append(f"|{key}| = {got}, expected {expect[key]}")
    edges = set(Y.edges)
    members = [e for h in planes for e in h.edges]
    if len(members) != len(edges) or set(members) != edges:
        problems.append("hyperplane edge sets do not partition the edges")
    if special != expect["special"]:
        problems.append(f"special = {special}, expected {expect['special']}")
    return problems


def make_jobs(seed):
    rng = random.Random(f"cube-{seed}")
    jobs = []
    for k, p, product, N in family():
        order = p ** k if product else p
        row = "cube_q243" if order == MAX_Q else ""
        name = f"cube k={k} p={p} {'product' if product else 'cocycle'} N={N}"
        # distinct (edge, power) choices, so that no two jobs repeat
        choices = [(edge, power) for edge in range(k) for power in range(1, p)]
        for edge, power in rng.sample(choices, 1 if product else VARIANTS):
            inputs = {"k": k, "p": p, "product": product, "N": N,
                      "edge": edge, "power": power}
            jobs.append(Job(name, run_job, inputs, check,
                            expected(k, p, product, N), row))
    rng.shuffle(jobs)
    return jobs
