"""Finite quotients of the edge-generated groups, with verification
certificates, stabilizer images, torsion-free-kernel checking, and the
three quotient recipes (classifying cocycle, wreath labelling, product
with the abelianized kernel).

A quotient is a map theta on directed edges of the base, compatible with
edge reversal, that kills every relator.  One check, verify_bounded,
decides this exactly for every finite target, on the fundamental cycles
of the cover's spanning tree, through the maps rho_j that the cycles'
j-voltages induce on the deck monodromy: at j = 1 alone for abelian
targets, where rho_j = j rho_1, and at every j of one period otherwise,
the residues swept in order so that each voltage is one product past
the last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm

from .covers import build_cover, lifts_to_loop
from .errors import QuotientError
from .groups import (AbelianGroup, Permutation, PermutationGroup, Subgroup,
                     TupleElement, WreathElement, build_pqrs, ore_commutator,
                     power_product, r_set)
from .intsets import PeriodicSet, gcd_of_set
from .presentation import GbbPresentation
from .simplicial import star_union, subdivide_graph_edges


@dataclass
class CycleCertificate:
    mode: str
    exponent_window: int       # one period of every power product
    loops_checked: int         # fundamental cycles of the spanning tree
    failures: list = field(default_factory=list)
    # always empty: read only by perfbench's tracer, which counts its length
    kernel_generators = ()

    @property
    def passed(self):
        return not self.failures


class FiniteQuotient:
    """theta on directed edges into a finite target, plus its certificate."""

    def __init__(self, presentation, target, theta, mode, certificate):
        self.presentation = presentation
        self.target = target
        self.theta = dict(theta)
        self.mode = mode
        self.certificate = certificate
        self._rho = {}  # residue j mod the period -> (rho_j, its image)

    def __call__(self, edge):
        return self.theta[edge]

    def target_exponent(self):
        """lcm of the orders of the theta images: every power product over
        theta is periodic in the exponent with this period.  For an abelian
        target it is the exponent of the subgroup the images generate.
        theta(b, a) = theta(a, b)^-1 has the order of theta(a, b), and the
        identity has order 1, so one order is taken per edge {a, b} with a
        nontrivial value."""
        values = {frozenset(e): g for e, g in self.theta.items()}
        return lcm(1, *(g.order() for g in values.values()
                        if not g.is_identity()))

    @cached_property
    def period(self):
        """lcm(period of S, orders of the theta images): membership in S,
        every power product over theta and so every rho_j repeat in j with
        this period."""
        return lcm(self.presentation.S.modulus, self.target_exponent())

    def rho(self, j, volts=None):
        """(rho_j as a dict in walk order, its image), evaluated once per
        residue r of j modulo the period and shared by every caller, which
        must not change them.  For an abelian target rho_r = r rho_1 is read
        off rho_1's values; rho_1, and every rho_r of another target, is
        stabilizer_image(self, r, volts), where ``volts``, if given, are the
        fundamental cycles' j-voltages (the relator check's sweep has them
        at hand).  A rho_j that is not a homomorphism raises on every
        call."""
        r = j % self.period
        if r not in self._rho:
            if isinstance(self.target, AbelianGroup) and r != 1 % self.period:
                rho_1 = self.rho(1)[0]
                values = tuple(v ** r for v in rho_1.values())
                self._rho[r] = dict(zip(rho_1, values)), Subgroup(
                    values[0].parent_key(), values, frozenset(values))
            else:
                self._rho[r] = stabilizer_image(self, r, volts)
        return self._rho[r]

    @cached_property
    def identity(self):
        """The identity of the target: read off the target when it is an
        abelian group, otherwise off a theta value."""
        if isinstance(self.target, AbelianGroup):
            return self.target.identity()
        for g in self.theta.values():
            return g.identity_like()
        raise QuotientError("theta has no value to name the target identity")

    @cached_property
    def tau(self):
        """The theta-potentials: u -> the theta product along the cover's
        path word to u, one product per spanning-tree vertex (the path
        words list each parent first, and end with the tree edge from it).
        A fundamental cycle through (a, b) has theta value
        tau(a) theta(a, b) tau(b)^-1."""
        cover = self.presentation.cover
        tau = {cover.base_vertex: self.identity}
        for u, word in cover.path_words.items():
            if word:
                tau[u] = tau[word[-1][0]] * self.theta[word[-1]]
        return tau

    def __repr__(self):
        return f"FiniteQuotient(mode={self.mode}, target={self.target})"


def _complete_theta(pres, theta):
    """Fill in reverses (as inverses), check reversal compatibility and
    reject keys that are not directed edges of L."""
    full = {}
    for e in pres.L.edges():
        a, b = tuple(e)
        ta, tb = theta.get((a, b)), theta.get((b, a))
        if ta is None and tb is None:
            raise QuotientError(f"theta missing on edge ({a},{b})")
        if ta is None:
            ta = tb.inverse()
        elif tb is None:
            tb = ta.inverse()
        elif tb != ta.inverse():
            raise QuotientError(f"theta not reversal-compatible on ({a},{b})")
        full[(a, b)] = ta
        full[(b, a)] = tb
    for key in theta:
        if key not in full:
            raise QuotientError(f"theta on non-edge {key}")
    return full


def verify_abelian_exact(pres: GbbPresentation, target: AbelianGroup, theta):
    """verify_bounded onto an abelian target.  The name is kept for its
    callers and for perfbench's tracer, which wraps it."""
    return verify_bounded(pres, theta, target)


def verify_bounded(pres, theta, target=None):
    """Exact relator verification for any finite target; returns the
    verified quotient.  At exponent j, a loop's power product is its
    voltage under e -> theta(e)^j, which is multiplicative along loops
    (Gross and Tucker, Topological Graph Theory, 1987), so the fundamental
    cycles decide at each j of one period: in S their voltages must be
    trivial, and failures name (fundamental cycle, j); outside S only the
    lifting loops must die, i.e. the voltages must factor through the deck
    labels, and rho_j names where two of them clash.  The residues are
    swept in order, so each power of a nontrivial theta value on the
    cycles is one product past the last.

    Onto an AbelianGroup ``target`` (mode abelian-exact; otherwise
    cycle-exact) the cycles' deck labels must commute, and rho_j = j rho_1,
    so rho_1 and d v = 0 for each cycle value v, d the gcd of S, decide;
    failures name (fundamental cycle, d).  perfbench's tracer wraps the
    function by its name."""
    full = _complete_theta(pres, theta)
    cover = pres.cover
    abelian = isinstance(target, AbelianGroup)
    if abelian:
        for a, b in itertools.combinations(cover.monodromy.generators, 2):
            if a * b != b * a:
                raise QuotientError(
                    "exact verification needs commuting deck monodromy labels"
                )
    mode = "abelian-exact" if abelian else "cycle-exact"
    quotient = FiniteQuotient(pres, target, full, mode, None)
    cert = quotient.certificate = CycleCertificate(
        mode=mode,
        exponent_window=quotient.period,
        loops_checked=len(cover.cycle_basis),
    )
    if abelian:
        quotient.rho(1)
        tau, d = quotient.tau, gcd_of_set(pres.S)
        for (a, b), loop in cover.cycle_basis.items():
            v = tau[a] * full[(a, b)] * tau[b].inverse()
            if not (v ** d).is_identity():
                cert.failures.append((loop, d))
    else:
        loops = list(cover.cycle_basis.values())
        values = list(dict.fromkeys(full[e] for loop in loops for e in loop
                                    if not full[e].is_identity()))
        powers = [g.identity_like() for g in values]     # g^j at residue j
        at = {g: i for i, g in enumerate(values)}
        cycles = [[at[full[e]] for e in loop if full[e] in at]
                  for loop in loops]
        for j in range(cert.exponent_window):
            volts = []
            for cycle in cycles:
                v = quotient.identity
                for i in cycle:
                    v = v * powers[i]
                volts.append(v)
            if j in pres.S:
                cert.failures += [(loop, j) for loop, v in zip(loops, volts)
                                  if not v.is_identity()]
            else:
                quotient.rho(j, volts)
            powers = [p * g for p, g in zip(powers, values)]
    if cert.failures:
        shown = cert.failures[:3]
        if abelian:    # named by the relator family that d generates
            shown = [("exponent-family", loop, False) for loop, _ in shown]
        raise QuotientError(f"theta does not kill the relators: {shown}")
    return quotient


# ---------------------------------------------------------------------------
# stabilizer images and torsion


def stabilizer_image(quotient, j, volts=None):
    """The map rho_j: deck -> target sending the deck label of a loop to
    its power product of theta at exponent j.  That power product is the
    loop's voltage under e -> theta(e)^j, so rho_j is fixed by the
    j-voltages v_k of the fundamental cycles: along the cover's walk of the
    deck group, rho(1) = 1 and rho(g s_k) = rho(g) v_k at the step that
    first reaches g s_k, where s_k is the k-th cycle's deck label.  Every
    other step of the walk must agree; together they make rho_j a
    homomorphism through which every voltage factors.  ``volts`` are the
    v_k if the caller has them, else they are power products.  Returns
    (rho_j as a dict in walk order, its image as the subgroup of its
    values).  For residues j in the exponent set, rho_j is trivial by
    construction of the certificates."""
    cover = quotient.presentation.cover
    walk, labels = cover.walk, cover.monodromy.generators
    if volts is None:
        volts = [power_product([quotient.theta[e] for e in loop], j)
                 for loop in cover.cycle_basis.values()]
    value = [quotient.identity]
    for i, row in enumerate(cover.steps):
        for k, x in enumerate(row):
            v = value[i] * volts[k]
            if x == len(value):
                value.append(v)
            elif v != value[x]:
                raise QuotientError(
                    f"rho_{j} is not a homomorphism at ({walk[i]},"
                    f"{labels[k]}): theta is not a verified quotient"
                )
    rho = dict(zip(walk, value))
    return rho, Subgroup(value[0].parent_key(), tuple(value),
                         frozenset(value))


def kernel_torsion_free(quotient):
    """True iff every torsion catalog element dies nowhere in the kernel:
    for each residue j outside the exponent set, modulo the quotient's
    period, the map rho_j must be injective on the deck group.  Returns
    (bool, witness) with witness = (j, g) on failure: j least, and g the
    first element of the cover's walk that rho_j kills.

    For an abelian target rho_j = j rho_1 kills g exactly when the order o
    of rho_1(g) divides j.  Whether k o lies in S repeats in k with period
    m / gcd(o, m), m the modulus of S, so j is the least k o outside S over
    those k and the distinct orders o: O(m) membership tests per order,
    whatever the period.  Other targets (the wreath powers) walk the deck
    group once per residue."""
    pres, ident = quotient.presentation, quotient.identity
    S, walk = pres.S, pres.cover.walk       # walk[0] is the identity
    if isinstance(quotient.target, AbelianGroup):
        orders = [v.order() for v in quotient.rho(1)[0].values()][1:]
        m = S.modulus
        least = [next((k * o for k in range(m // gcd(o, m))
                       if k * o not in S), None) for o in set(orders)]
        j = min((j for j in least if j is not None), default=None)
        if j is None:
            return True, None
        i = next(i for i, o in enumerate(orders) if j % o == 0)
        return False, (j, walk[i + 1])
    for j in itertools.filterfalse(S.__contains__, range(quotient.period)):
        rho, _ = quotient.rho(j)
        for g, v in rho.items():
            if v == ident and g != walk[0]:
                return False, (j, g)
    return True, None


def loop_r_set(quotient, loop):
    """Exponent set of the theta images along a loop.  For a quotient with
    torsion-free kernel and a non-lifting loop this must equal the
    presentation's exponent set; a mismatch is raised as it flags torsion
    in the kernel.  The kernel is scanned only on such a mismatch."""
    pres = quotient.presentation
    rs = r_set([quotient.theta[e] for e in loop])
    if (rs != pres.S and not lifts_to_loop(pres.cover, loop)
            and kernel_torsion_free(quotient)[0]):
        raise QuotientError(
            f"exponent set of a non-lifting loop is {rs.describe()} "
            f"but S = {pres.S.describe()}: kernel has torsion"
        )
    return rs


def star_abelian_check(quotient):
    """For every adjacent pair u,v: the theta images of the directed edges
    of St(u) u St(v) must pairwise commute.  Returns (bool, witness)."""
    L = quotient.presentation.L
    for e in L.edges():
        u, v = sorted(e, key=L.vertex_position)
        sub, _ = star_union(L, u, v)
        gens = [quotient.theta[d] for d in sub.directed_edges()]
        for a, b in itertools.combinations(gens, 2):
            if a * b != b * a:
                return False, (u, v, a, b)
    return True, None


# ---------------------------------------------------------------------------
# recipes


def cocycle_recipe(pres: GbbPresentation):
    """For a connected cover with cyclic deck group of prime order p and
    exponent set pZ: transport the edge labels along an isomorphism
    deck -> Z/p (the logarithm to the base of the first element of order
    p, read off the cover's walk) to get theta; the certificate is exact
    and the kernel is torsion-free: rho_1 is that isomorphism, every
    nonzero value has order p, and so rho_j = j rho_1 kills only the
    identity for every j outside pZ."""
    deck = pres.cover.deck
    p = deck.order
    if not _is_prime(p):
        raise QuotientError(f"deck group order {p} is not prime")
    if pres.S != PeriodicSet.multiples(p):
        raise QuotientError(
            f"exponent set must be {p}Z for the classifying-cocycle recipe"
        )
    walk, steps = pres.cover.walk, pres.cover.steps
    if len(walk) != p:
        raise QuotientError("the classifying-cocycle recipe needs a "
                            "connected cover")
    # following a nontrivial cycle label s from the identity meets s^i at
    # the i-th step; gen = s^m, so the logarithm to the base gen is i / m
    k = next(k for k, x in enumerate(steps[0]) if x)
    power, x = {}, 0
    for i in range(p):
        power[walk[x]] = i
        x = steps[x][k]
    gen = next(g for g in deck if g.order() == p)
    unit = pow(power[gen], -1, p)
    target = AbelianGroup((p,))
    theta = {}
    for (a, b) in pres.L.directed_edges():
        theta[(a, b)] = target.element(
            (power[pres.cover.label(a, b)] * unit,))
    q = verify_abelian_exact(pres, target, theta)
    tf, witness = kernel_torsion_free(q)
    if not tf:
        raise QuotientError(f"internal: cocycle kernel has torsion at {witness}")
    return q


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


@dataclass
class WreathRecipeResult:
    presentation: GbbPresentation
    quotient: FiniteQuotient
    subdivision: object            # GraphSubdivision
    per_k: dict                    # k -> {edge index -> (a, b, c, d)}
    k_list: tuple


def wreath_recipe(graph, sigma, r, n, s0, base_vertex=None, seed=0):
    """Build the wreath-product labelling certifying exponent set
    S = (s0 mod n) over the r-fold edge subdivision of a multigraph.

    ``sigma`` maps edge indices to even permutations (identity entries
    allowed; a spanning set of edges should be trivial).  For each residue
    k in {1..n-1} outside s0, sigma(e) is written as a commutator and the
    four detector elements are placed on the first four sub-edges of e;
    the product labelling over all such k is theta.  The deck group is
    generated by the sigma values, acting on the subdivision via the last
    sub-edge of each original edge.  The certificate is exact."""
    if r < 4:
        raise QuotientError("edge subdivision must have r >= 4")
    if n < 1:
        raise QuotientError("n must be >= 1")
    s0 = frozenset(x % n for x in s0)
    if 0 not in s0:
        raise QuotientError("exponent residues must contain 0 (normalize first)")
    for i, g in sigma.items():
        if g.parity() != 0:
            raise QuotientError(f"sigma on edge {i} is odd")

    sub = subdivide_graph_edges(graph, r)
    degrees = {g.size for g in sigma.values()}
    if len(degrees) != 1:
        raise QuotientError("sigma values must share a degree")
    (N,) = degrees

    deck = PermutationGroup(N, list(sigma.values()))
    labels = {}
    for i, path in sub.edge_paths.items():
        g = sigma.get(i, deck.identity)
        labels[path[-1]] = g
    if base_vertex is None:
        base_vertex = graph.vertices[0]
    cover = build_cover(sub.complex, deck, labels, base_vertex)

    S = PeriodicSet(n, s0)
    pres = GbbPresentation(sub.complex, cover, S)

    k_list = tuple(k for k in range(1, n) if k not in s0)
    per_k = {}
    decompositions = {}
    for i in sorted(sigma):
        decompositions[i] = ore_commutator(sigma[i], seed=seed)

    for k in k_list:
        per_k[k] = {}
        for i in sub.edge_paths:
            alpha, beta = decompositions.get(
                i, (Permutation.identity(N), Permutation.identity(N))
            )
            per_k[k][i] = build_pqrs(alpha, beta, k, n)

    wreath_ident = WreathElement.rho(n, N).identity_like() if k_list else None
    position_of = {}
    for i, path in sub.edge_paths.items():
        for pos, d_edge in enumerate(path):
            position_of[d_edge] = (i, pos, False)
            position_of[(d_edge[1], d_edge[0])] = (i, pos, True)

    theta = {}
    for (a, b) in sub.complex.directed_edges():
        parts = []
        for k in k_list:
            i, pos, reverse = position_of[(a, b)]
            val = per_k[k][i][pos] if pos < 4 else wreath_ident
            parts.append(val.inverse() if reverse else val)
        theta[(a, b)] = TupleElement(tuple(parts))

    quotient = verify_bounded(pres, theta)
    quotient.target = ("wreath-power", N, n, len(k_list))
    if k_list:
        tf, witness = kernel_torsion_free(quotient)
        if not tf:
            raise QuotientError(f"wreath labelling kernel has torsion at {witness}")
    return WreathRecipeResult(pres, quotient, sub, per_k, k_list)


def hw_product_quotient(quotient, m=None):
    """Augment a verified quotient with the largest abelian quotient of
    the level-zero kernel: the new coordinate sends the edge (x, y) to
    e_y - e_x written in the sum-zero submodule of the free Z/m-module on
    the base vertices (basis e_v - e_v0).  Loops map to zero there, so
    every relator still dies, and the result is re-verified exactly.  The
    quotient must be abelian."""
    if not isinstance(quotient.target, AbelianGroup):
        raise QuotientError("the product recipe needs an abelian quotient")
    pres = quotient.presentation
    L = pres.L
    if m is None:
        m = quotient.target_exponent()
    if m < 1:
        raise QuotientError("m must be >= 1")
    verts = list(L.vertices)
    idx = {v: i - 1 for i, v in enumerate(verts)}  # v0 -> -1 (zero vector)
    dim = len(verts) - 1

    def phi_coords(a, b):
        c = [0] * dim
        if idx[b] >= 0:
            c[idx[b]] += 1
        if idx[a] >= 0:
            c[idx[a]] -= 1
        return tuple(x % m for x in c)

    target = AbelianGroup(quotient.target.factors + (m,) * dim)
    theta = {}
    for (a, b) in L.directed_edges():
        theta[(a, b)] = target.element(
            quotient.theta[(a, b)].coords + phi_coords(a, b)
        )
    return verify_abelian_exact(pres, target, theta)
