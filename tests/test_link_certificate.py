"""Differential tests of the equivariant cube pipeline.

The link certificate checks one vertex per height through the map the
parametrization predicts.  The reference oracle kept here is the per-vertex
validator it replaced: every vertex link, built from the bottom/top
incidence, is tested for isomorphism with the doubled base or doubled
cover by networkx VF2.  Cylinder stabilizers, now read off coordinate
differences, are compared with the brute-force translation test."""

import functools
import itertools

import networkx as nx
import pytest

from gbbkit import cubical
from gbbkit.covers import build_cover
from gbbkit.cubical import build_quotient, cylinders, vertex_link
from gbbkit.errors import InternalError, QuotientError
from gbbkit.fixtures import (cycle_complex, single_edge_trivial,
                             square_index16_quotient, square_presentation,
                             square_quotient_bits, triple_cover_presentation,
                             triple_cover_quotient)
from gbbkit.groups import AbelianGroup, Permutation, PermutationGroup
from gbbkit.intsets import PeriodicSet
from gbbkit.presentation import GbbPresentation
from gbbkit.quotients import (cocycle_recipe, hw_product_quotient,
                              kernel_torsion_free, verify_abelian_exact)
from gbbkit.simplicial import octahedralize

# --- the per-vertex VF2 oracle ----------------------------------------------


@functools.lru_cache(maxsize=1)
def incidence(Y):
    """The incidence position lists of every cell of Y, derived from the
    ends of its edges and the sides of its squares, once per complex: the
    edges rising from and arriving at each vertex, and 4 s + k for each
    square s at an edge as its side k."""
    ups, downs = [[] for _ in Y.vertices], [[] for _ in Y.vertices]
    for p, (b, t) in enumerate(zip(Y._bottom, Y._top)):
        ups[b].append(p)
        downs[t].append(p)
    squares_at = [[] for _ in Y.edges]
    for s, sides in enumerate(Y._sides):
        for k, p in enumerate(sides):
            squares_at[p].append(4 * s + k)
    return ups, downs, squares_at


def oracle_link_graph(Y, v):
    g = nx.Graph()
    x = Y.vertex_position(v)
    ups_at, downs_at, squares_at = incidence(Y)
    ups = [Y.edges[p] for p in ups_at[x]]
    downs = [Y.edges[p] for p in downs_at[x]]
    g.add_nodes_from((e, "up") for e in ups)
    g.add_nodes_from((e, "down") for e in downs)
    for e in (*ups, *downs):
        for s in squares_at[Y.position(e)]:
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
    # the base edge {w, x} loses its voltage, as if it were no edge of L
    eta = Y.presentation.cover.eta
    del eta[("w", "x")], eta[("x", "w")]
    with pytest.raises(InternalError,
                       match=r"link at \(0, .*\) is not the doubled base: "
                             r"link edge .* maps to .* not an edge of S\(L\)"):
        cubical._validate_all_links(Y)
    # the same damage makes vertex_link stop certifying the height
    assert vertex_link(Y, Y.vertices[0])[1] == "unknown"


def test_extra_doubled_edge_names_missing_link_edge():
    Y = build_quotient(square_presentation(),
                       square_quotient_bits((1, 0, 0, 0)), 2)
    # w and y are opposite corners of the square base
    eta, deck = Y.presentation.cover.eta, Y.presentation.cover.deck
    eta[("w", "y")] = eta[("y", "w")] = deck.identity
    with pytest.raises(InternalError,
                       match=r"no link edge \(E\(j=1,w,.*'down'\) -- "
                             r"\(E\(j=1,y,.*'down'\) over the edge "
                             r"\('w', -1\) -- \('y', -1\) of S\(L\)"):
        cubical._validate_all_links(Y)


# --- torsion heights ---------------------------------------------------------


def torsion_bits():
    """The bit patterns whose quotient kernel has torsion."""
    patterns = (tuple((n >> i) & 1 for i in range(4)) for n in range(1, 16))
    return [bits for bits in patterns
            if not kernel_torsion_free(square_quotient_bits(bits))[0]]


def z4_quotients(m, labellings=None):
    """The quotients among the Z/4 labellings of the 4-cycle whose cover
    has deck Z/4, with S = mZ: theta(v_i, v_i+1) is the i-th value of each
    labelling, all 256 of them by default."""
    L = cycle_complex(4)
    c = Permutation.from_cycles(4, (0, 1, 2, 3))
    cover = build_cover(L, PermutationGroup(4, [c]), {("v3", "v0"): c}, "v0")
    pres = GbbPresentation(L, cover, PeriodicSet.multiples(m))
    T = AbelianGroup((4,))
    edges = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")]
    out = []
    for values in labellings or itertools.product(range(4), repeat=4):
        try:
            out.append(verify_abelian_exact(
                pres, T, {e: T.element((x,)) for e, x in zip(edges, values)}))
        except QuotientError:
            pass
    return out


def test_every_height_is_certified(monkeypatch):
    """The 7 torsion bit patterns and the Z/4 family, at their periods and
    twice them, build with their links validated, and the certificate reads
    the link at the first vertex of every height, the torsion heights (where
    1 <= |P_j| < |deck| outside S) included, each certified with its tag."""
    bits = torsion_bits()
    assert len(bits) == 7
    family = [square_quotient_bits(b) for b in bits]
    family += z4_quotients(4) + z4_quotients(2)
    assert len(family) == 7 + 256 + 128
    read = []
    link = cubical._link

    def reading_link(Y, v):
        read.append(v)
        return link(Y, v)

    monkeypatch.setattr(cubical, "_link", reading_link)
    tags = set()
    for q in family:
        pres, order = q.presentation, q.presentation.cover.deck.order
        for N in (q.period, 2 * q.period):
            read.clear()
            Y = build_quotient(pres, q, N, validate_links=True)
            assert read == Y._height_start[:-1]
            for j in range(N):
                tag = vertex_link(Y, Y.vertices[Y._height_start[j]])[1]
                if j not in pres.S and Y.P[j].order < order:
                    assert tag == ("S(L)" if Y.P[j].order == 1
                                   else "quotient-of-S(M)")
                    tags.add(tag)
    assert tags == {"S(L)", "quotient-of-S(M)"}


def test_perturbed_tau_names_link_end_at_a_torsion_height():
    # theta(v0, v1) = 2 with S = 4Z: rho_1 has the image P_1 = {0, 2} of
    # order 2 in the deck Z/4; moving tau(v1) by 1 takes the offset of every
    # v1-edge arriving at height 1 out of P_1
    (q,) = z4_quotients(4, [(2, 0, 0, 0)])
    Y = build_quotient(q.presentation, q, q.period)
    assert Y.P[1].order == 2
    Y.tau = dict(Y.tau)
    Y.tau["v1"] = Y.tau["v1"] * Y.Q.element((1,))
    with pytest.raises(InternalError,
                       match=r"link at \(1, .*\) is not the doubled quotient "
                             r"of the cover total space: link end "
                             r"\(E\(j=0,v1,.*'down'\) maps to .*, not a "
                             r"vertex of quotient-of-S\(M\)"):
        cubical._validate_all_links(Y)
