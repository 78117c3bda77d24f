"""Differential tests of the equivariant cube pipeline.

The link certificate checks one vertex per height through the map the
parametrization predicts.  The reference oracle kept here is the per-vertex
validator it replaced: every vertex link, built from the bottom/top
incidence, is tested for isomorphism with the doubled base or doubled
cover by networkx VF2.  Cylinder stabilizers, now read off coordinate
differences, are compared with the brute-force translation test."""

import functools

import networkx as nx
import pytest

from gbbkit import cubical
from gbbkit.covers import build_cover
from gbbkit.cubical import build_quotient, cylinders, vertex_link
from gbbkit.errors import InternalError
from gbbkit.fixtures import (cycle_complex, single_edge_trivial,
                             square_index16_quotient, square_presentation,
                             square_quotient_bits, triple_cover_presentation,
                             triple_cover_quotient)
from gbbkit.groups import Permutation, PermutationGroup
from gbbkit.intsets import PeriodicSet
from gbbkit.presentation import GbbPresentation
from gbbkit.quotients import cocycle_recipe, hw_product_quotient
from gbbkit.simplicial import octahedralize

# --- the per-vertex VF2 oracle ----------------------------------------------


def oracle_link_graph(Y, v):
    g = nx.Graph()
    x = Y.vertex_position(v)
    ups = [Y.edges[p] for p in Y._ups[x]]
    downs = [Y.edges[p] for p in Y._downs[x]]
    g.add_nodes_from((e, "up") for e in ups)
    g.add_nodes_from((e, "down") for e in downs)
    for e in (*ups, *downs):
        for s in Y._squares_at[Y.position(e)]:
            sq = Y.squares[s >> 2]
            for corner, end1, end2 in (
                (Y.bottom(sq.e1), (sq.e1, "up"), (sq.e2, "up")),
                (Y.top(sq.e1), (sq.e1, "down"), (sq.e3, "up")),
                (Y.top(sq.e2), (sq.e2, "down"), (sq.e4, "up")),
                (Y.top(sq.e3), (sq.e3, "down"), (sq.e4, "down")),
            ):
                if corner == v:
                    g.add_edge(end1, end2)
    return g


@functools.cache
def oracle_doubled_graph(cx):
    oc = octahedralize(cx)
    g = nx.Graph()
    g.add_nodes_from(oc.vertices)
    g.add_edges_from(tuple(e) for e in oc.edges())
    # isomorphism ignores node names; integer names hash fast
    return nx.convert_node_labels_to_integers(g)


def oracle_tag(Y, g, v):
    """The tag the VF2 version of ``vertex_link`` gave the link graph g."""
    g = nx.convert_node_labels_to_integers(g)
    if nx.is_isomorphic(g, oracle_doubled_graph(Y.presentation.L)):
        return "S(L)"
    if nx.is_isomorphic(g, oracle_doubled_graph(Y.presentation.cover.total)):
        return "S(M)"
    return "quotient-of-S(M)" if v[0] not in Y.presentation.S else "unknown"


def oracle_accepts(Y, tags):
    """The verdict of the per-vertex VF2 validator, read off the VF2 tags:
    every link at a height in S is the doubled base, and every link at a
    height outside S with rho_j injective is the doubled cover."""
    gl = oracle_doubled_graph(Y.presentation.L)
    gm = oracle_doubled_graph(Y.presentation.cover.total)
    cover_tags = {"S(M)", "S(L)"} if nx.is_isomorphic(gl, gm) else {"S(M)"}
    deck = Y.presentation.cover.deck
    for v, tag in tags.items():
        j = v[0]
        if j in Y.presentation.S:
            if tag != "S(L)":
                return False
        elif len(set(Y.rho[j].values())) == deck.order and (
                tag not in cover_tags):
            return False
    return True


def new_accepts(Y):
    try:
        cubical._validate_all_links(Y)
    except InternalError:
        return False
    return True


# --- the families ------------------------------------------------------------


def cycle_cocycle_quotient(k, p, edge, power):
    """The k-cycle whose edge from v<edge> carries the power-th power of a
    p-cycle generating the deck group Z/p, with S = pZ, and its
    classifying-cocycle quotient."""
    L = cycle_complex(k)
    g = Permutation.from_cycles(p, tuple(range(p))) ** power
    cover = build_cover(L, PermutationGroup(p, [g]),
                        {(f"v{edge}", f"v{(edge + 1) % k}"): g}, "v0")
    return cocycle_recipe(GbbPresentation(L, cover, PeriodicSet.multiples(p)))


def cube_family(max_order):
    """(name, presentation, quotient, wrap) for the k-cycle covers, k in
    4, 5, 6, with deck group Z/p, p in 2, 3, 5: the cocycle quotient
    (|Q| = p) and its product quotient (|Q| = p^k) when |Q| <= max_order,
    at wraps p and 2p, over every edge and power."""
    for k in (4, 5, 6):
        for p in (2, 3, 5):
            for edge in range(k):
                for power in range(1, p):
                    q = cycle_cocycle_quotient(k, p, edge, power)
                    variants = [("cocycle", q)]
                    if p ** k <= max_order:
                        variants.append(("product", hw_product_quotient(q)))
                    for kind, quotient in variants:
                        for N in (p, 2 * p):
                            yield (f"k={k} p={p} {kind} N={N} edge={edge} "
                                   f"power={power}", quotient.presentation,
                                   quotient, N)


def fixture_family():
    pres = square_presentation()
    for n in range(1, 16):
        bits = tuple((n >> i) & 1 for i in range(4))
        q = square_quotient_bits(bits)
        for N in (2, 4):
            yield f"bits={bits} N={N}", pres, q, N
    yield "index16", pres, square_index16_quotient(), 2
    yield ("triple cover", triple_cover_presentation(),
           triple_cover_quotient(), 3)
    yield ("trivial",) + single_edge_trivial() + (1,)


CUBES = list(cube_family(32))
FIXTURES = list(fixture_family())


def test_families_are_complete():
    # 210 cocycle members, 18 product members with |Q| <= 32; 30 bit
    # patterns and wraps, index-16, the triple cover and the trivial complex
    assert (len(CUBES), len(FIXTURES)) == (228, 33)


# --- differential tests ------------------------------------------------------


@pytest.fixture(scope="module")
def complexes():
    """Both families, built without link validation."""
    return [(name, build_quotient(pres, q, N, validate_links=False))
            for name, pres, q, N in FIXTURES + CUBES]


def test_links_tags_and_verdicts_match_vf2_oracle(complexes):
    """Per vertex, the adjacency-set link equals the oracle's link graph
    and the certified tag equals the tag VF2 finds; per complex, the
    one-vertex-per-height validator accepts exactly where the per-vertex
    VF2 validator does."""
    for name, Y in complexes:
        tags = {}
        for v in Y.vertices:
            link, tag = vertex_link(Y, v)
            g = oracle_link_graph(Y, v)
            assert set(link) == set(g.nodes), (name, v)
            assert {frozenset((a, b)) for a in link for b in link[a]} == {
                frozenset(e) for e in g.edges}, (name, v)
            tags[v] = oracle_tag(Y, g, v)
            assert tag == tags[v], (name, v)
        assert new_accepts(Y) == oracle_accepts(Y, tags), name


def test_cylinder_stabilizers_match_brute_force(complexes):
    for name, Y in complexes:
        for c in cylinders(Y):
            brute = {g for g in Y.Q.elements()
                     if all(Y.translate_edge(e, g) in c.edges
                            for e in c.edges)}
            assert c.stabilizer == brute, (name, c)


# --- negative tests ----------------------------------------------------------


def test_perturbed_tau_names_link_edge():
    # height 1 is outside S = 2Z, where rho_1 is injective onto Q = C2:
    # shifting tau(x) moves the predicted image of every x-edge arriving
    # at a vertex of height 1 to the other sheet of the cover
    Y = build_quotient(square_presentation(),
                       square_quotient_bits((1, 0, 0, 0)), 2)
    Y.tau["x"] = Y.tau["x"] * Y.Q.element((1,))
    with pytest.raises(InternalError,
                       match=r"link at \(1, .*\) is not the doubled cover "
                             r"total space: link edge .*E\(j=0,x,"):
        cubical._validate_all_links(Y)


def test_dropped_doubled_edge_names_link_edge():
    Y = build_quotient(square_presentation(),
                       square_quotient_bits((1, 0, 0, 0)), 2)
    nodes, edges = cubical._doubled(Y, "S(L)")
    dropped = frozenset({("w", 1), ("x", -1)})
    Y._link_models["S(L)"] = (nodes, edges - {dropped})
    with pytest.raises(InternalError,
                       match=r"link at \(0, .*\) is not the doubled base: "
                             r"link edge .* maps to .* not an edge of S\(L\)"):
        cubical._validate_all_links(Y)
    # the same tampering makes vertex_link stop certifying the height
    assert vertex_link(Y, Y.vertices[0])[1] == "unknown"


def test_extra_doubled_edge_names_missing_link_edge():
    Y = build_quotient(square_presentation(),
                       square_quotient_bits((1, 0, 0, 0)), 2)
    nodes, edges = cubical._doubled(Y, "S(L)")
    # w and y are opposite corners of the square base
    Y._link_models["S(L)"] = (nodes, edges | {frozenset({("w", 1),
                                                         ("y", 1)})})
    with pytest.raises(InternalError,
                       match=r"no link edge \(E\(j=0,w,.*'up'\) -- "
                             r"\(E\(j=0,y,.*'up'\) over the edge "
                             r"\('w', 1\) -- \('y', 1\) of S\(L\)"):
        cubical._validate_all_links(Y)

