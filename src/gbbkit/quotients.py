"""Finite quotients of the edge-generated groups, with verification
certificates, stabilizer images, torsion-free-kernel checking, and the
three quotient recipes (classifying cocycle, wreath labelling, product
with the abelianized kernel).

A quotient is a map theta on directed edges of the base, compatible with
edge reversal, that kills every relator.  Verification is exact for
abelian targets (a cycle-basis computation, see verify_abelian_exact) and
window-bounded otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm

from .covers import build_cover, lifts_to_loop
from .errors import QuotientError
from .groups import (AbelianGroup, Permutation, PermutationGroup,
                     TupleElement, WreathElement, build_pqrs, ore_commutator,
                     power_product, r_set, subgroup_closure)
from .intsets import PeriodicSet, gcd_of_set
from .presentation import GbbPresentation, loops_upto
from .simplicial import star_union, subdivide_graph_edges


@dataclass
class AbelianExactCertificate:
    mode: str
    basis_loops: list          # cycle-basis loops (directed edge tuples)
    basis_labels: list         # their deck monodromy elements
    kernel_generators: list    # integer vectors spanning the label kernel
    d: int                     # additive generator of the subgroup <S>
    checks: list = field(default_factory=list)
    passed: bool = True


@dataclass
class BoundedCertificate:
    mode: str
    loop_length_bound: int
    exponent_window: int
    loops_checked: int
    failures: list = field(default_factory=list)

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

    def __call__(self, edge):
        return self.theta[edge]

    def value_of_word(self, word):
        out = None
        for e in word:
            v = self.theta[e]
            out = v if out is None else out * v
        if out is None:
            raise QuotientError("empty word has no defined parent")
        return out

    def target_exponent(self):
        """Exponent of the subgroup of the target generated by the theta
        images."""
        sub = subgroup_closure(list(self.theta.values()))
        return sub.exponent()

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


def _cycle_basis(pres):
    """Loops built from the cover's spanning tree: one per non-tree edge,
    path-to-u + edge + reversed path-to-v.  Every loop is an integer
    combination of these in homology, which is all an abelian target can
    see."""
    cover = pres.cover
    tree_edges = set()
    for u, word in cover.path_words.items():
        for (a, b) in word:
            tree_edges.add(frozenset((a, b)))
    basis = []
    for e in pres.L.edges():
        if e in tree_edges:
            continue
        a, b = sorted(e, key=pres.L.vertex_position)
        loop = (
            cover.path_words[a]
            + ((a, b),)
            + tuple((y, x) for (x, y) in reversed(cover.path_words[b]))
        )
        basis.append(loop)
    return basis


def _label_kernel_generators(labels, bound=2 * 10 ** 6):
    """Generators of the lattice {x in Z^k : prod labels[i]^{x_i} = 1}.

    The lattice contains ord(label_i) * e_i for each i, so it is generated
    by those together with the finitely many mixed tuples found by
    enumerating the box of residues.  Requires the labels to commute."""
    k = len(labels)
    if k == 0:
        return []
    for a, b in itertools.combinations(labels, 2):
        if a * b != b * a:
            raise QuotientError(
                "exact verification needs commuting deck monodromy labels"
            )
    orders = [g.order() for g in labels]
    total = 1
    for o in orders:
        total *= o
    if total > bound:
        raise QuotientError(
            f"label kernel enumeration too large ({total} > {bound})"
        )
    gens = []
    for i, o in enumerate(orders):
        vec = [0] * k
        vec[i] = o
        gens.append(tuple(vec))
    for combo in itertools.product(*(range(o) for o in orders)):
        if all(c == 0 for c in combo):
            continue
        prod = labels[0].identity_like()
        for g, c in zip(labels, combo):
            prod = prod * (g ** c)
        if prod.is_identity():
            gens.append(combo)
    return gens


def verify_abelian_exact(pres: GbbPresentation, target: AbelianGroup, theta):
    """Exact relator verification for an abelian target.

    theta kills every relator iff
      (a) it vanishes on every integer combination of cycle-basis loops
          whose deck monodromy is trivial (those combinations are exactly
          the lifting classes an abelian group can distinguish), and
      (b) d * theta(b) = 0 for every basis loop b, where d generates the
          subgroup of Z generated by the exponent set (this encodes the
          n-in-S relator family, which is closed under the shifts by d).
    Returns the verified quotient."""
    full = _complete_theta(pres, theta)
    basis = _cycle_basis(pres)
    labels = [pres.cover.lift_word(loop) for loop in basis]
    values = [_word_value(full, loop, target) for loop in basis]
    cert = AbelianExactCertificate(
        mode="abelian-exact",
        basis_loops=basis,
        basis_labels=labels,
        kernel_generators=[],
        d=gcd_of_set(pres.S),
    )
    kernel = _label_kernel_generators(labels)
    cert.kernel_generators = kernel
    for vec in kernel:
        acc = target.identity()
        for c, v in zip(vec, values):
            acc = acc * (v ** c)
        ok = acc.is_identity()
        cert.checks.append(("kernel-vector", vec, ok))
        if not ok:
            cert.passed = False
    d = cert.d
    for loop, v in zip(basis, values):
        ok = (v ** d).is_identity()
        cert.checks.append(("exponent-family", loop, ok))
        if not ok:
            cert.passed = False
    if not cert.passed:
        bad = [c for c in cert.checks if not c[-1]]
        raise QuotientError(f"theta does not kill the relators: {bad[:3]}")
    return FiniteQuotient(pres, target, full, "abelian-exact", cert)


def _word_value(full_theta, word, target=None):
    out = None
    for e in word:
        v = full_theta[e]
        out = v if out is None else out * v
    if out is None:
        if target is None:
            raise QuotientError("empty word needs a target for its identity")
        return target.identity()
    return out


def verify_bounded(pres, theta, loop_length_bound=12, exponent_window=None):
    """Window-bounded relator verification for arbitrary targets: every
    relator over cyclically reduced loops up to the length bound and
    exponents in the window must die.  (Backtracks telescope inside power
    products, so reduced loops decide the full family at each length.)"""
    full = _complete_theta(pres, theta)
    sub = subgroup_closure(list(full.values()))
    if exponent_window is None:
        exponent_window = lcm(pres.S.modulus, sub.exponent())
    cert = BoundedCertificate(
        mode="bounded",
        loop_length_bound=loop_length_bound,
        exponent_window=exponent_window,
        loops_checked=0,
    )
    for loop in loops_upto(pres.L, loop_length_bound, reduced=True):
        cert.loops_checked += 1
        lifts = lifts_to_loop(pres.cover, loop)
        gs = [full[e] for e in loop]
        for j in range(exponent_window):
            should_die = (j in pres.S) or lifts
            if should_die and not power_product(gs, j).is_identity():
                cert.failures.append((loop, j))
    if cert.failures:
        raise QuotientError(
            f"theta does not kill bounded relators: {cert.failures[:3]}"
        )
    return FiniteQuotient(pres, None, full, "bounded", cert)


# ---------------------------------------------------------------------------
# stabilizer images and torsion


def stabilizer_image(quotient, j):
    """The map rho_j: deck -> target sending g to the power product of
    theta over the loop word realizing g, at exponent j; checked to be a
    homomorphism on all pairs.  Returns (rho_j as a dict, image subgroup).
    For residues j in the exponent set, rho_j is trivial by construction
    of the certificates."""
    pres = quotient.presentation
    cover = pres.cover
    rho = {}
    for g, word in cover.loop_words.items():
        if not word:
            rho[g] = _identity_of(quotient)
        else:
            rho[g] = power_product([quotient.theta[e] for e in word], j)
    for g in rho:
        for h in rho:
            if rho[g] * rho[h] != rho[g * h]:
                raise QuotientError(
                    f"rho_{j} is not a homomorphism at ({g},{h}): "
                    "theta is not a verified quotient"
                )
    image = subgroup_closure(list(rho.values()))
    return rho, image


def _identity_of(quotient):
    some = next(iter(quotient.theta.values()))
    return some.identity_like()


def kernel_torsion_free(quotient):
    """True iff every torsion catalog element dies nowhere in the kernel:
    for each residue j outside the exponent set (mod lcm(period, target
    exponent)) the map rho_j must be injective on the deck group.  Returns
    (bool, witness) with witness = (j, g) on failure."""
    pres = quotient.presentation
    m = lcm(pres.S.modulus, quotient.target_exponent())
    ident = _identity_of(quotient)
    for j in range(m):
        if j in pres.S:
            continue
        rho, _ = stabilizer_image(quotient, j)
        for g, v in rho.items():
            if v == ident and g != pres.cover.deck.identity:
                return False, (j, g)
    return True, None


def loop_r_set(quotient, loop):
    """Exponent set of the theta images along a loop.  For a quotient with
    torsion-free kernel and a non-lifting loop this must equal the
    presentation's exponent set; a mismatch is raised as it flags torsion
    in the kernel."""
    pres = quotient.presentation
    rs = r_set([quotient.theta[e] for e in loop])
    tf, _ = kernel_torsion_free(quotient)
    if tf and not lifts_to_loop(pres.cover, loop) and rs != pres.S:
        raise QuotientError(
            f"exponent set of a non-lifting loop is {rs.describe()} "
            f"but S = {pres.S.describe()}: kernel has torsion"
        )
    return rs


def star_abelian_check(quotient, L=None):
    """For every adjacent pair u,v: the theta images of the directed edges
    of St(u) u St(v) must pairwise commute.  Returns (bool, witness)."""
    if L is None:
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
    """For a cover with cyclic deck group of prime order p and exponent
    set pZ: transport the edge labels along an isomorphism deck -> Z/p to
    get theta; the certificate is exact and the kernel is torsion-free
    (rho_j = j * rho_1 is injective for j prime to p)."""
    deck = pres.cover.deck
    p = deck.order
    if not _is_prime(p):
        raise QuotientError(f"deck group order {p} is not prime")
    if pres.S != PeriodicSet.multiples(p):
        raise QuotientError(
            f"exponent set must be {p}Z for the classifying-cocycle recipe"
        )
    gen = next(g for g in deck if g.order() == p)
    dlog = {}
    acc = deck.identity
    for i in range(p):
        dlog[acc] = i
        acc = acc * gen
    target = AbelianGroup((p,))
    theta = {}
    for (a, b) in pres.L.directed_edges():
        theta[(a, b)] = target.element((dlog[pres.cover.label(a, b)],))
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


def wreath_recipe(graph, sigma, r, n, s0, base_vertex=None,
                  loop_length_bound=12, seed=0):
    """Build the wreath-product labelling certifying exponent set
    S = (s0 mod n) over the r-fold edge subdivision of a multigraph.

    ``sigma`` maps edge indices to even permutations (identity entries
    allowed; a spanning set of edges should be trivial).  For each residue
    k in {1..n-1} outside s0, sigma(e) is written as a commutator and the
    four detector elements are placed on the first four sub-edges of e;
    the product labelling over all such k is theta.  The deck group is
    generated by the sigma values, acting on the subdivision via the last
    sub-edge of each original edge."""
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

    quotient = verify_bounded(pres, theta, loop_length_bound=loop_length_bound)
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
    every relator still dies; for abelian inputs the result is re-verified
    exactly."""
    pres = quotient.presentation
    L = pres.L
    if m is None:
        m = quotient.target_exponent()
    if m < 1:
        raise QuotientError("m must be >= 1")
    verts = list(L.vertices)
    v0 = verts[0]
    idx = {v: i - 1 for i, v in enumerate(verts)}  # v0 -> -1 (zero vector)
    dim = len(verts) - 1

    def phi_coords(a, b):
        c = [0] * dim
        if idx[b] >= 0:
            c[idx[b]] += 1
        if idx[a] >= 0:
            c[idx[a]] -= 1
        return tuple(x % m for x in c)

    if isinstance(quotient.target, AbelianGroup):
        target = AbelianGroup(quotient.target.factors + (m,) * dim)
        theta = {}
        for (a, b) in L.directed_edges():
            theta[(a, b)] = target.element(
                quotient.theta[(a, b)].coords + phi_coords(a, b)
            )
        return verify_abelian_exact(pres, target, theta)
    # generic targets: pair componentwise, keep the bounded certificate mode
    hcoord = AbelianGroup((m,) * dim)
    theta = {}
    for (a, b) in L.directed_edges():
        theta[(a, b)] = TupleElement(
            (quotient.theta[(a, b)], hcoord.element(phi_coords(a, b)))
        )
    out = verify_bounded(
        pres, theta,
        loop_length_bound=getattr(quotient.certificate, "loop_length_bound", 12),
    )
    out.target = ("product", quotient.target, ("abelian", hcoord.factors))
    return out
