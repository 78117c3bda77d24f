"""Built-in example inputs used by the CLI and the test suite.

The central family lives on the 4-cycle w-x-y-z with the connected double
cover given by labelling the edge (z, w) with the deck involution, and
exponent set 2Z.  The sixteen quotients onto powers of C2 (fifteen
nontrivial index-2 ones plus the coordinatewise index-16 one) exercise the
torsion criteria and the cube-complex checker end to end.
"""

from __future__ import annotations

from .covers import build_cover
from .errors import InputError
from .groups import AbelianGroup, Permutation, PermutationGroup
from .intsets import GodelSet, PeriodicSet
from .presentation import GbbPresentation
from .quotients import (cocycle_recipe, verify_abelian_exact, wreath_recipe)
from .simplicial import Graph, build_complex

# directed-edge names used throughout the square family
SQUARE_EDGES = {
    "a": ("w", "x"),
    "b": ("x", "y"),
    "c": ("y", "z"),
    "d": ("z", "w"),
}


def square_complex():
    """The boundary of a square: 4-cycle on w, x, y, z."""
    return build_complex(
        ["w", "x", "y", "z"],
        [{"w", "x"}, {"x", "y"}, {"y", "z"}, {"z", "w"}],
    )


def square_cover():
    """Connected double cover of the 4-cycle (an 8-cycle): the edge
    (z, w) carries the deck involution."""
    L = square_complex()
    swap = Permutation((1, 0))
    deck = PermutationGroup(2, [swap])
    return L, build_cover(L, deck, {("z", "w"): swap}, "w")


def square_presentation(S=None):
    L, cover = square_cover()
    if S is None:
        S = PeriodicSet.multiples(2)
    return GbbPresentation(L, cover, S)


def square_quotient_bits(bits, pres=None):
    """Quotient onto C2 with theta(a), theta(b), theta(c), theta(d) given
    by the four bits (edges a=(w,x), b=(x,y), c=(y,z), d=(z,w)), of
    ``pres`` or of a new square_presentation()."""
    if pres is None:
        pres = square_presentation()
    target = AbelianGroup((2,))
    theta = {
        SQUARE_EDGES[name]: target.element((bit,))
        for name, bit in zip("abcd", bits)
    }
    return verify_abelian_exact(pres, target, theta)


def square_index16_quotient(pres=None):
    """The coordinatewise quotient onto C2^4: each edge generator maps to
    its own basis vector."""
    if pres is None:
        pres = square_presentation()
    target = AbelianGroup((2, 2, 2, 2))
    theta = {}
    for i, name in enumerate("abcd"):
        coords = [0, 0, 0, 0]
        coords[i] = 1
        theta[SQUARE_EDGES[name]] = target.element(coords)
    return verify_abelian_exact(pres, target, theta)


def square_cocycle_quotient():
    """The order-2 classifying-cocycle quotient of the square family."""
    return cocycle_recipe(square_presentation())


def cycle_complex(k, prefix="v"):
    names = [f"{prefix}{i}" for i in range(k)]
    return build_complex(
        names, [{names[i], names[(i + 1) % k]} for i in range(k)]
    )


def triple_cover_presentation():
    """4-cycle base with a connected 3-fold cover (a 12-cycle): one edge
    carries a 3-cycle deck generator; exponent set 3Z."""
    L = cycle_complex(4)
    rho = Permutation.from_cycles(3, (0, 1, 2))
    deck = PermutationGroup(3, [rho])
    cover = build_cover(L, deck, {("v3", "v0"): rho}, "v0")
    return GbbPresentation(L, cover, PeriodicSet.multiples(3))


def triple_cover_quotient():
    return cocycle_recipe(triple_cover_presentation())


def single_edge_trivial():
    """Single edge, trivial deck, trivial target, S = Z: the smallest
    possible wrapped complex (one vertex per height)."""
    L = build_complex(["u", "v"], [{"u", "v"}])
    deck = PermutationGroup(1, [])
    cover = build_cover(L, deck, {}, "u")
    pres = GbbPresentation(L, cover, PeriodicSet.all_integers())
    target = AbelianGroup(())
    theta = {("u", "v"): target.identity()}
    return pres, verify_abelian_exact(pres, target, theta)


def annulus_complex():
    """A flag triangulation of the annulus: 8 vertices, 8 triangles;
    2-dimensional and not simply connected."""
    a = [f"a{i}" for i in range(4)]
    b = [f"b{i}" for i in range(4)]
    tris = []
    for i in range(4):
        j = (i + 1) % 4
        tris.append({a[i], a[j], b[i]})
        tris.append({a[j], b[i], b[j]})
    return build_complex(a + b, tris)


def rose_graph(petals=2, vertex="o"):
    return Graph((vertex,), tuple((vertex, vertex) for _ in range(petals)))


def rose_wreath_recipe(r=12, n=2, s0=(0,), loop_length_bound=12):
    """Two-petal rose, deck of order 3 inside the alternating group on 4
    symbols (one nontrivial petal), r-fold edge subdivision, detector
    labelling for S = (s0 mod n).  ``loop_length_bound`` is accepted for
    existing callers and ignored: the certificate is exact."""
    sigma3 = Permutation.from_cycles(4, (0, 1, 2))
    graph = rose_graph(2)
    sigma = {0: sigma3, 1: Permutation.identity(4)}
    return wreath_recipe(graph, sigma, r, n, frozenset(s0))


def pqrs_fixture(n=3, k=1, seed=0):
    """A commutator pair for a 3-cycle in the alternating group on 4
    symbols, and the corresponding detector quadruple."""
    from .groups import build_pqrs, ore_commutator

    sigma = Permutation.from_cycles(4, (0, 1, 2))
    alpha, beta = ore_commutator(sigma, seed=seed)
    return build_pqrs(alpha, beta, k, n)


def dehn_presentation_periodic(l=13):
    from .dehn import CyclicPresentation

    return CyclicPresentation(l, PeriodicSet.multiples(2))


def dehn_presentation_godel(l=13, position_bound=6):
    """Relator exponents drawn from the digit-encoded set of {0, 2}:
    0, 1, 100, 101, 10100, ... certified below 10^position_bound."""
    from .dehn import CyclicPresentation

    return CyclicPresentation(
        l, GodelSet(frozenset({0, 2}), position_bound)
    )


FIXTURES = {
    "square": square_complex,
    "square-cover": square_cover,
    "s9-pres": square_presentation,
    "s9-index16": square_index16_quotient,
    "s9-cocycle": square_cocycle_quotient,
    "p3-cocycle": triple_cover_quotient,
    "trivial": single_edge_trivial,
    "annulus": annulus_complex,
    "rose-wreath": rose_wreath_recipe,
    "pqrs": pqrs_fixture,
    "dehn-2z": dehn_presentation_periodic,
    "dehn-godel": dehn_presentation_godel,
}


def fixture_names():
    return sorted(FIXTURES)


def load_fixture(name, **kwargs):
    if name not in FIXTURES:
        raise InputError(f"unknown fixture {name!r}; try: {', '.join(fixture_names())}")
    return FIXTURES[name](**kwargs)
