"""Differential tests of the integer-indexed cube complex against the code
it replaced.

The oracles kept here are the object-keyed pipeline: a build that computes
every cell's coordinates by group products and keys its incidence by Edge
objects, union-find over Edge-keyed dicts for hyperplanes, cylinders and
cylinder classes, an osculation scan that visits every vertex, and link
models taken from ``octahedralize``.  The library now stores cells by
position, runs union-find on int lists, and scans the other vertices of a
height only when its first vertex has an osculation.  Cells, incidence,
hyperplanes, specialness reports and witnesses, cylinders and link tags
must agree.

Also kept is the two-model link certificate, which checked the heights in
S against the closed-form 1-skeleton of S(L) and the injective heights
against that of S(M), built from the cover's total space.  The library
checks every height against one doubled derived graph; at the heights the
two-model certificate checked, verdicts and messages must agree."""

import copy
import functools
import heapq
import itertools
import re

import pytest

from gbbkit import cubical, quotients
from gbbkit.cli import _osculation_witnesses
from gbbkit.cubical import (Edge, Square, build_quotient, cylinders,
                            hyperplanes, specialness, vertex_link,
                            vertical_shift_permutation)
from gbbkit.errors import InternalError
from gbbkit.fixtures import square_presentation, square_quotient_bits
from gbbkit.groups import Subgroup
from gbbkit.quotients import hw_product_quotient, stabilizer_image
from gbbkit.simplicial import octahedralize

from test_cli import count_calls
from test_link_certificate import (CUBES, FIXTURES, cycle_cocycle_quotient,
                                   incidence)

# --- the object-keyed oracles ---------------------------------------------------


class ReferenceComplex:
    """The product-based build, with Edge-keyed incidence."""

    def __init__(self, pres, quotient, N):
        self.presentation, self.quotient, self.N = pres, quotient, N
        self.Q = Q = quotient.target
        cover, L = pres.cover, pres.L
        self.rho, self.P = {}, {}
        for j in range(N):
            self.rho[j], image = stabilizer_image(quotient, j)
            self.P[j] = frozenset(image.elements)
        self.tau = {}
        for u in L.vertices:
            val = Q.identity()
            for e in cover.path_words[u]:
                val = val * quotient.theta[e]
            self.tau[u] = val
        rho_eta = {(j, a, b): self.rho[j][cover.eta[(a, b)]]
                   for j in range(N) for a, b in L.directed_edges()}
        self.vertices = []
        vertex_of = {}
        for j in range(N):
            for q in Q.elements():
                if (j, q) in vertex_of:
                    continue
                coset = sorted(q * p for p in self.P[j])
                for x in coset:
                    vertex_of[(j, x)] = (j, coset[0])
                self.vertices.append((j, coset[0]))
        self.edges = [Edge(j, u, q) for j in range(N) for u in L.vertices
                      for q in Q.elements()]
        self.ends = {}
        self.edges_by_bottom, self.edges_by_top = {}, {}
        for e in self.edges:
            bottom = vertex_of[(e.j, e.q)]
            top = vertex_of[((e.j + 1) % N, e.q * self.tau[e.label])]
            self.ends[e] = (bottom, top)
            self.edges_by_bottom.setdefault(bottom, []).append(e)
            self.edges_by_top.setdefault(top, []).append(e)
        edge_at = {(e.j, e.label, e.q): e for e in self.edges}
        self.squares = []
        self.squares_of_edge = {e: [] for e in self.edges}
        for j in range(N):
            j1 = (j + 1) % N
            for base_edge in L.edges():
                u, u2 = sorted(base_edge, key=L.vertex_position)
                d2 = rho_eta[(j, u, u2)].inverse()
                d3 = self.tau[u] * rho_eta[(j1, u, u2)].inverse()
                d4 = self.tau[u2] * rho_eta[(1 % N, u, u2)]
                for q in Q.elements():
                    sq = Square(edge_at[(j, u, q)], edge_at[(j, u2, q * d2)],
                                edge_at[(j1, u2, q * d3)],
                                edge_at[(j1, u, q * d4)])
                    self.squares.append(sq)
                    for e in sq.sides():
                        self.squares_of_edge[e].append(sq)
        self.link_models = {}


class EdgeUnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] is not x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self.parent[ra] = rb


PARTNER = {
    (0, "up"): (1, "up"), (1, "up"): (0, "up"),
    (0, "down"): (2, "up"), (2, "up"): (0, "down"),
    (1, "down"): (3, "up"), (3, "up"): (1, "down"),
    (2, "down"): (3, "down"), (3, "down"): (2, "down"),
}


def ref_link(R, v):
    link = {(e, "up"): set() for e in R.edges_by_bottom.get(v, ())}
    link.update(((e, "down"), set()) for e in R.edges_by_top.get(v, ()))
    for (e, role), near in link.items():
        for sq in R.squares_of_edge[e]:
            sides = sq.sides()
            for k, side in enumerate(sides):
                if side is e:
                    other, other_role = PARTNER[(k, role)]
                    near.add((sides[other], other_role))
    return link


def ref_doubled(R, tag):
    if tag not in R.link_models:
        cover = R.presentation.cover
        if tag == "S(L)":
            oc = octahedralize(R.presentation.L)
            name = {x: x for x in oc.vertices}
        else:
            oc = octahedralize(cover.total)
            name = {((u, g), sign): ((u, g * cover.h[u].inverse()), sign)
                    for (u, g), sign in oc.vertices}
        R.link_models[tag] = (
            frozenset(name.values()),
            frozenset(frozenset(name[x] for x in e) for e in oc.edges()),
        )
    return R.link_models[tag]


# --- the two-model certificate the derived-graph check replaced ------------


def old_model(Y, tag):
    """The doubled complex ``tag`` as (vertices, edges), built as the
    two-model certificate built it: V x {+1, -1} and the edges
    {(a, s), (b, t)}, with V and the edges those of L for 'S(L)', and for
    'S(M)' those of the cover's total space with each vertex (u, g)
    renamed (u, g h(u)^-1)."""
    cover = Y.presentation.cover
    if tag == "S(L)":
        K = Y.presentation.L
        name = {x: x for x in K.vertices}
    else:
        K = cover.total
        name = {(u, g): (u, g * cover.h[u].inverse()) for u, g in K.vertices}
    signs = (1, -1)
    return (frozenset((name[x], s) for x in K.vertices for s in signs),
            frozenset(frozenset(((name[a], s), (name[b], t)))
                      for a, b in K.edges() for s in signs for t in signs))


def old_link_mismatch(Y, v, link, tag, model):
    """The two-model certificate at the vertex at position v against the
    model ``tag``.  At 'S(M)' heights rho_j is injective, and the model's
    vertices (u, g) are named (u, rho_j(g)), and the link ends by their
    offsets, rather than the offsets pulled back through rho_j^-1: a
    renaming by a bijection, which keeps the verdict and lets the messages
    be compared with the derived-graph check's."""
    nodes, edges = model
    j, r = Y.vertices[v]
    if tag == "S(M)":
        rename = {(u, g): (u, Y.rho[j][g]) for (u, g), _ in nodes}
        nodes = {(rename[x], s) for x, s in nodes}
        edges = {frozenset((rename[x], s) for x, s in e) for e in edges}
    phi = {}
    for end in link:
        e, role = cubical._end(Y, end)
        sign = 1 if role == "up" else -1
        if tag == "S(L)":
            phi[end] = (e.label, sign)
        else:
            reached = e.q if role == "up" else e.q * Y.tau[e.label]
            phi[end] = ((e.label, r * reached.inverse()), sign)
    name = functools.partial(cubical._end, Y)
    back = {}
    for end, image in phi.items():
        if image not in nodes:
            return (f"link end {name(end)} maps to {image}, not a vertex of "
                    f"{tag}")
        if image in back:
            return (f"link ends {name(back[image])} and {name(end)} both map "
                    f"to {image}")
        back[image] = end
    if len(back) != len(nodes):
        missing = min(nodes - back.keys(), key=repr)
        return f"no link end maps to the vertex {missing} of {tag}"
    hit = set()
    for a, near in link.items():
        for b in near:
            image = frozenset((phi[a], phi[b]))
            if image not in edges:
                return (f"link edge {name(a)} -- {name(b)} maps to {phi[a]} "
                        f"-- {phi[b]}, not an edge of {tag}")
            hit.add(image)
    if len(hit) != len(edges):
        x, y = min((sorted(e, key=repr) for e in edges - hit), key=repr)
        return (f"no link edge {name(back[x])} -- {name(back[y])} over the "
                f"edge {x} -- {y} of {tag}")
    return None


def old_tags(Y):
    """The model the two-model certificate checked each height against:
    S(L) in S, S(M) outside S where rho_j is injective, and none at the
    other heights."""
    order = Y.presentation.cover.deck.order
    return {j: "S(L)" if j in Y.presentation.S else "S(M)"
            for j in range(Y.N)
            if j in Y.presentation.S or Y.P[j].order == order}


def old_validate(Y, models):
    """The two-model certificate's message, or None: the heights in S
    first, then the others it checks."""
    tags = old_tags(Y)
    for tag, model in (("S(L)", "the doubled base"),
                       ("S(M)", "the doubled cover total space")):
        for j in sorted(j for j, t in tags.items() if t == tag):
            v = Y._height_start[j]
            reason = old_link_mismatch(Y, v, cubical._link(Y, v), tag,
                                       models[tag])
            if reason is not None:
                return f"link at {Y.vertices[v]} is not {model}: {reason}"
    return None


def ref_link_mismatch(R, v, link, tag):
    nodes, edges = ref_doubled(R, tag)
    if tag == "S(L)":
        phi = {end: (end[0].label, {"up": 1, "down": -1}[end[1]])
               for end in link}
    else:
        j, r = v
        deck_of = {x: g for g, x in R.rho[j].items()}
        phi = {}
        for e, role in link:
            reached = e.q if role == "up" else e.q * R.tau[e.label]
            phi[(e, role)] = ((e.label, deck_of.get(r * reached.inverse())),
                              {"up": 1, "down": -1}[role])
    back = {}
    for end, image in phi.items():
        if image not in nodes:
            return f"link end {end} maps to {image}, not a vertex of {tag}"
        if image in back:
            return f"link ends {back[image]} and {end} both map to {image}"
        back[image] = end
    if len(back) != len(nodes):
        missing = min(nodes - back.keys(), key=repr)
        return f"no link end maps to the vertex {missing} of {tag}"
    hit = set()
    for a, near in link.items():
        for b in near:
            image = frozenset((phi[a], phi[b]))
            if image not in edges:
                return (f"link edge {a} -- {b} maps to {phi[a]} -- {phi[b]}, "
                        f"not an edge of {tag}")
            hit.add(image)
    if len(hit) != len(edges):
        x, y = min((sorted(e, key=repr) for e in edges - hit), key=repr)
        return (f"no link edge {back[x]} -- {back[y]} over the edge "
                f"{x} -- {y} of {tag}")
    return None


def ref_injective(R, j):
    return len(set(R.rho[j].values())) == R.presentation.cover.deck.order


def ref_tag(R, v):
    link = ref_link(R, v)
    j = v[0]
    if len(R.P[j]) == 1 and ref_link_mismatch(R, v, link, "S(L)") is None:
        return "S(L)"
    if ref_injective(R, j) and ref_link_mismatch(R, v, link, "S(M)") is None:
        return "S(M)"
    return "quotient-of-S(M)" if j not in R.presentation.S else "unknown"


def ref_validate(R):
    """The certificate message at the first vertex of each height, or None."""
    first = {}
    for v in R.vertices:
        first.setdefault(v[0], v)
    for j, v in first.items():
        if j in R.presentation.S:
            tag, model = "S(L)", "the doubled base"
        elif ref_injective(R, j):
            tag, model = "S(M)", "the doubled cover total space"
        else:
            continue
        reason = ref_link_mismatch(R, v, ref_link(R, v), tag)
        if reason is not None:
            return f"link at {v} is not {model}: {reason}"
    return None


def ref_hyperplanes(R):
    uf = EdgeUnionFind(R.edges)
    for sq in R.squares:
        uf.union(sq.e1, sq.e4)
        uf.union(sq.e2, sq.e3)
    classes = {}
    for e in R.edges:
        classes.setdefault(uf.find(e), []).append(e)
    ordered = sorted(classes.values(),
                     key=lambda members: (str(members[0].label),
                                          members[0].j))
    return [cubical.Hyperplane(i, frozenset(members), members[0].label)
            for i, members in enumerate(ordered)]


def ref_specialness(R):
    """The scan over every vertex."""
    planes = ref_hyperplanes(R)
    plane_of = {e: h for h in planes for e in h.edges}
    counts = {}
    for h in planes:
        counts[h.label] = counts.get(h.label, 0) + 1
    report = cubical.SpecialnessReport(wrap=R.N, counts=counts)
    for sq in R.squares:
        if sq.e1.j != sq.e2.j or sq.e3.j != sq.e4.j:
            report.non_two_sided.append(sq)
    adjacent_planes = {e: set() for e in R.edges}
    for sq in R.squares:
        for a, b in ((sq.e1, sq.e2), (sq.e1, sq.e3), (sq.e2, sq.e4),
                     (sq.e3, sq.e4)):
            adjacent_planes[a].add(plane_of[b].index)
            adjacent_planes[b].add(plane_of[a].index)
            if plane_of[a] is plane_of[b]:
                report.self_intersections.append((plane_of[a], sq))
    seen_self, seen_inter = set(), set()
    for v in R.vertices:
        link = ref_link(R, v)
        ends = [(end, plane_of[end[0]], adjacent_planes[end[0]])
                for end in sorted(link, key=lambda n: (repr(n[0]), n[1]))]
        for i, ((e1, r1), h1, crossing1) in enumerate(ends):
            linked = link[(e1, r1)]
            for end2, h2, crossing2 in ends[i + 1:]:
                e2, r2 = end2
                if e1 is e2 or end2 in linked:
                    continue
                if h1 is h2:
                    if r1 == r2 and h1.index not in seen_self:
                        seen_self.add(h1.index)
                        report.self_osculations.append((h1, (e1, e2)))
                elif h2.index in crossing1 and h1.index in crossing2:
                    key = frozenset((h1.index, h2.index))
                    if key not in seen_inter:
                        seen_inter.add(key)
                        report.inter_osculations.append(((h1, h2), (e1, e2)))
    report.inter_osculations.sort(
        key=lambda item: sorted((item[0][0].index, item[0][1].index)))
    report.self_osculations.sort(key=lambda item: item[0].index)
    return report


def ref_cylinders(R):
    L = R.presentation.L
    edges_of, squares_of = {}, {}
    for item in enumerate(R.edges):
        edges_of.setdefault(item[1].label, []).append(item)
    for item in enumerate(R.squares):
        squares_of.setdefault(item[1].labels(), []).append(item)
    out = []
    for simplex in sorted(L.simplices,
                          key=lambda s: (len(s), sorted(map(str, s)))):
        member_edges = [e for _, e in heapq.merge(
            *(edges_of[u] for u in simplex))]
        member_squares = [sq for _, sq in heapq.merge(*(
            squares_of.get(frozenset(pair), ())
            for pair in itertools.combinations(simplex, 2)))]
        uf = EdgeUnionFind(member_edges)
        if len(simplex) == 1:
            (u,) = tuple(simplex)
            for e in member_edges:
                uf.union(e, Edge((e.j + 1) % R.N, u, e.q * R.tau[u]))
        for sq in member_squares:
            uf.union(sq.e1, sq.e2)
            uf.union(sq.e1, sq.e3)
            uf.union(sq.e1, sq.e4)
        comps, squares_in = {}, {}
        for e in member_edges:
            comps.setdefault(uf.find(e), []).append(e)
        for sq in member_squares:
            squares_in.setdefault(uf.find(sq.e1), []).append(sq)
        for root, members in comps.items():
            e0 = members[0]
            back = e0.q.inverse()
            stab = frozenset(e.q * back for e in members
                             if e.j == e0.j and e.label == e0.label)
            out.append(cubical.Cylinder(frozenset(simplex), frozenset(members),
                                        tuple(squares_in.get(root, ())), stab))
    return out


def ref_cylinder_classes(R, label, cyls):
    edges = [e for e in R.edges if e.label == label]
    uf = EdgeUnionFind(edges)
    for c in cyls:
        members = [e for e in c.edges if e.label == label]
        for e in members[1:]:
            uf.union(members[0], e)
    classes = {}
    for e in edges:
        classes.setdefault(uf.find(e), set()).add(e)
    return [frozenset(v) for v in classes.values()]


def ref_shift_permutation(R, planes):
    step = R.presentation.S.modulus
    index_of = {e: h.index for h in planes for e in h.edges}
    return {h.index: index_of[Edge((e.j + step) % R.N, e.label, e.q)]
            for h in planes for e in (next(iter(h.edges)),)}


# --- the families ------------------------------------------------------------------


def large_family():
    """The 15 bit patterns at wrap 8, and the |Q| = 81 and 243 product
    members of the cube family (k = 4, 5 with p = 3) at wrap p, over every
    edge and power."""
    pres = square_presentation()
    for n in range(1, 16):
        bits = tuple((n >> i) & 1 for i in range(4))
        yield f"bits={bits} N=8", pres, square_quotient_bits(bits), 8
    for k in (4, 5):
        for edge in range(k):
            for power in (1, 2):
                q = hw_product_quotient(cycle_cocycle_quotient(k, 3, edge,
                                                               power))
                yield (f"k={k} p=3 product N=3 edge={edge} power={power}",
                       q.presentation, q, 3)


SMALL = FIXTURES + CUBES
LARGE = list(large_family())


def test_families_are_complete():
    assert (len(SMALL), len(LARGE)) == (261, 33)


def test_vertices_are_sorted():
    """The cell dump numbers vertices by their positions, which is their
    sorted order: heights ascend, and each coset is named by its least
    element, the first one met in index order."""
    for name, pres, q, N in SMALL:
        Y = build_quotient(pres, q, N, validate_links=False)
        assert Y.vertices == sorted(Y.vertices), name


# --- differential tests ------------------------------------------------------


def incidence_views(Y):
    """Y's incidence position lists keyed by cells, as the reference keeps
    them: the edges rising from and arriving at each vertex, and the
    squares at each edge."""
    ups, downs, squares_at = incidence(Y)
    return ({Y.vertices[v]: [Y.edges[p] for p in ps]
             for v, ps in enumerate(ups)},
            {Y.vertices[v]: [Y.edges[p] for p in ps]
             for v, ps in enumerate(downs)},
            {e: [Y.squares[s >> 2] for s in at]
             for e, at in zip(Y.edges, squares_at)})


def assert_same(Y, R, name, all_links):
    assert Y.vertices == R.vertices, name
    assert Y.edges == R.edges, name
    assert Y.squares == R.squares, name
    for e in Y.edges:
        assert (Y.bottom(e), Y.top(e)) == R.ends[e], (name, e)
    assert incidence_views(Y) == (R.edges_by_bottom, R.edges_by_top,
                                  R.squares_of_edge), name

    planes = hyperplanes(Y)
    ref_planes = ref_hyperplanes(R)
    assert [(h.index, h.edges, h.label) for h in planes] == [
        (h.index, h.edges, h.label) for h in ref_planes], name
    assert vertical_shift_permutation(Y, planes) == ref_shift_permutation(
        R, ref_planes), name

    rep, ref = specialness(Y), ref_specialness(R)
    for attr in ("wrap", "counts", "non_two_sided", "self_intersections",
                 "self_osculations", "inter_osculations"):
        assert getattr(rep, attr) == getattr(ref, attr), (name, attr)
    assert _osculation_witnesses(rep) == _osculation_witnesses(ref), name

    cyls, ref_cyls = cylinders(Y), ref_cylinders(R)
    assert cyls == ref_cyls, name
    for u in Y.presentation.L.vertices:
        through = [c for c in cyls if u in c.label]
        assert cubical._cylinder_classes(Y, u, through) == (
            ref_cylinder_classes(R, u, through)), (name, u)

    assert old_model(Y, "S(L)") == ref_doubled(R, "S(L)"), name
    assert old_model(Y, "S(M)") == ref_doubled(R, "S(M)"), name
    vertices = Y.vertices if all_links else [
        v for i, v in enumerate(Y.vertices) if i in Y._height_start]
    for v in vertices:
        link, tag = vertex_link(Y, v)
        assert link == ref_link(R, v), (name, v)
        assert tag == ref_tag(R, v), (name, v)


@pytest.mark.parametrize("family", ["small", "large"])
def test_cells_planes_reports_cylinders_and_links_match(family):
    cases = SMALL if family == "small" else LARGE
    for name, pres, q, N in cases:
        Y = build_quotient(pres, q, N, validate_links=True)
        assert_same(Y, ReferenceComplex(pres, q, N), name,
                    all_links=family == "small")


def test_transport_tables_are_multiples_of_rho_1():
    """The builder reads rho_j and its image P_j from the quotient, which
    reads them off rho_1 as rho_j = j rho_1; on every quotient of both
    families, at every height and so at every residue modulo the period,
    they equal what stabilizer_image gives, in walk order."""
    for name, pres, q, N in SMALL + LARGE:
        Y = build_quotient(pres, q, N, validate_links=False)
        for j in range(N):
            assert (Y.rho[j], Y.P[j]) == stabilizer_image(q, j), (name, j)
            assert Y.rho[j] is q.rho(j)[0], (name, j)


@pytest.mark.parametrize("k, p, product, N", [(5, 3, True, 3),
                                              (6, 5, False, 10)])
def test_one_cube_job_computes_each_fact_once(monkeypatch, k, p, product, N):
    """The cube job of the benchmark, on the |Q| = 243 product member and
    a (6, 5, 10) cocycle member: one union-find for the hyperplanes, one
    build of each vertex's link, shared by the certificate and the scan,
    one stabilizer and one height check per simplex, and no
    stabilizer_image past the relator check's rho_1."""
    q = cycle_cocycle_quotient(k, p, 1, 2)
    if product:
        q = hw_product_quotient(q)
    counts = count_calls(monkeypatch, [
        (cubical, "_hyperplanes"), (cubical, "_assert_heights"),
        (quotients, "stabilizer_image")])
    built, calls = [], []
    link = cubical._link

    def recording_link(Y, v):
        calls.append(v)
        if v not in Y._links:
            built.append(v)
        return link(Y, v)

    monkeypatch.setattr(cubical, "_link", recording_link)
    Y = build_quotient(q.presentation, q, N, validate_links=True)
    planes = hyperplanes(Y)
    assert specialness(Y).special == product
    cyls = cylinders(Y)
    simplices = q.presentation.L.simplices
    assert counts == {"_hyperplanes": 1, "_assert_heights": len(simplices),
                      "stabilizer_image": 0}
    assert len(planes) and len(built) == len(set(built)) < len(calls)
    assert not hasattr(cubical, "_difference")
    # incidence lists are no part of the complex
    assert not any(hasattr(Y, name)
                   for name in ("_ups", "_downs", "_squares_at"))
    for simplex in simplices:
        assert len({id(c.stabilizer) for c in cyls
                    if c.label == simplex}) == 1, simplex


def test_scan_skips_heights_without_osculations(monkeypatch):
    """The scan visits every vertex of a height whose first vertex has an
    osculation and only the first vertex of the others: on the special
    |Q| = 243 member that is one vertex per height."""
    _, pres, q, N = LARGE[-1]
    Y = build_quotient(pres, q, N)
    visited = []
    link = cubical._link

    def counting_link(Y, v):
        visited.append(v)
        return link(Y, v)

    monkeypatch.setattr(cubical, "_link", counting_link)
    assert specialness(Y).special
    assert visited == Y._height_start[:-1]
    assert len(Y.vertices) > 3 * N


# --- certificate messages --------------------------------------------------------


def own_eta(Y):
    """Give Y copies of its presentation, cover and voltages eta, which
    other complexes share, and return the copy of eta."""
    Y.presentation = copy.copy(Y.presentation)
    Y.presentation.cover = copy.copy(Y.presentation.cover)
    Y.presentation.cover.eta = dict(Y.presentation.cover.eta)
    return Y.presentation.cover.eta


def with_P(Y, j, elements):
    """Give Y the set ``elements`` in place of P_j."""
    Y.P = {**Y.P, j: Subgroup(Y.Q.identity().parent_key(), (),
                              frozenset(elements))}


def tamperings():
    """(description, function) pairs that damage the derived-graph check's
    input, the voltages eta or a set P_j, in ways that reach each of the
    certificate's messages.  Each takes the complex and the two-model
    certificate's models and returns the first height it damages, or None
    where it finds nothing to damage; a damage to eta is made to the
    models too."""

    def drop_edge(Y, models):
        a, b = min(Y.presentation.L.edges(), key=lambda e: sorted(map(str, e)))
        eta = own_eta(Y)
        del eta[(a, b)], eta[(b, a)]
        for tag, (nodes, edges) in models.items():
            # the base vertex of a model vertex
            label = (lambda x: x[0]) if tag == "S(L)" else (lambda x: x[0][0])
            models[tag] = nodes, frozenset(
                e for e in edges if {label(x) for x in e} != {a, b})
        return 0

    def add_edge(Y, models):
        L = Y.presentation.L
        a, b = next((a, b) for a, b in itertools.combinations(L.vertices, 2)
                    if not L.has_simplex({a, b}))
        eta, deck = own_eta(Y), Y.presentation.cover.deck
        eta[(a, b)] = eta[(b, a)] = deck.identity
        lifts = {"S(L)": [(a, b)],
                 "S(M)": [((a, g), (b, g)) for g in deck]}
        for tag, (nodes, edges) in models.items():
            models[tag] = nodes, edges | {
                frozenset(((x, s), (y, t))) for x, y in lifts[tag]
                for s in (1, -1) for t in (1, -1)}
        return 0

    def drop_vertex(Y, models):
        j = next((j for j in range(Y.N) if Y.P[j].order > 2), None)
        if j is not None:
            P = Y.P[j].elements
            with_P(Y, j, P - {max(P, key=lambda x: x.coords)})
        return j

    def add_vertex(Y, models):
        extra = max(Y.Q.elements(), key=lambda x: x.coords)
        with_P(Y, 0, Y.P[0].elements | {extra})
        return 0

    return [("drop edge", drop_edge), ("add edge", add_edge),
            ("drop vertex", drop_vertex), ("add vertex", add_vertex)]


# what each damage makes the certificate say
MIRRORED = {"drop edge", "add edge"}
WITNESS = {
    "drop edge": r"link edge \(E.*\) -- \(E.*\) maps to .*, not an edge of",
    "add edge": r"no link edge \(E.*\) -- \(E.*\) over the edge .* of",
    "drop vertex": r"link end \(E.*\) maps to .*, not a vertex of",
    "add vertex": r"no link end maps to the vertex .* of",
}


def new_message(Y):
    try:
        cubical._validate_all_links(Y)
    except InternalError as err:
        return str(err)
    return None


@pytest.mark.parametrize("description,tamper", tamperings())
def test_certificate_messages_match(description, tamper):
    """Damage to eta reaches every height; the messages equal the two-model
    certificate's on the same damage to its models, at the first height and
    at the first S(M) height.  Damage to a P_j is named at that height."""
    damaged = 0
    for name, pres, q, N in FIXTURES[:-1]:
        Y = build_quotient(pres, q, N)
        models = {tag: old_model(Y, tag) for tag in ("S(L)", "S(M)")}
        assert new_message(Y) is None and old_validate(Y, models) is None
        j = tamper(Y, models)
        if j is None:
            continue
        message = new_message(Y)
        if description in MIRRORED:
            assert message == old_validate(Y, models), (name, description)
            injective = [i for i, tag in old_tags(Y).items() if tag == "S(M)"]
            for i in injective[:1]:
                v = Y._height_start[i]
                link = cubical._link(Y, v)
                assert cubical._link_mismatch(Y, v, link, "S(M)") == (
                    old_link_mismatch(Y, v, link, "S(M)", models["S(M)"]))
        damaged += 1
        assert re.match(rf"link at \({j}, .*\) is not the doubled .*: "
                        rf"{WITNESS[description]}", message), (name, message)
    assert damaged


def test_damage_to_a_shared_P_j_is_named_at_its_own_height():
    """Heights j and j + period share the objects rho_j and P_j, and with
    them one model of the derived graph; a P_j replaced at the later
    height is a new object, checked against a model of its own."""
    q = cycle_cocycle_quotient(4, 3, 0, 1)
    Y = build_quotient(q.presentation, q, 2 * q.period)
    j = Y.N - 1
    assert Y.P[j] is Y.P[j - q.period] and Y.P[j].order == 3
    P = Y.P[j].elements
    with_P(Y, j, P - {max(P, key=lambda x: x.coords)})
    assert re.match(rf"link at \({j}, .*\) is not the doubled .*: "
                    rf"{WITNESS['drop vertex']}", new_message(Y))


def test_derived_graph_check_matches_the_two_model_certificate():
    """At every height the two-model certificate checks, on every member of
    FIXTURES (the 15 bit patterns at N and 2N among them), the derived-graph
    check reads the same tag and gives the same verdict and message, on the
    complex as built and with tau(u) moved by each generator of Q."""
    verdicts = set()
    for name, pres, q, N in FIXTURES:
        Y = build_quotient(pres, q, N, validate_links=False)
        models = {tag: old_model(Y, tag) for tag in ("S(L)", "S(M)")}
        tau = Y.tau
        units = [Y.Q.element([int(i == k) for i in range(len(Y.Q.factors))])
                 for k in range(len(Y.Q.factors))]
        for move in [None] + [(u, g) for u in pres.L.vertices for g in units]:
            Y.tau = dict(tau)
            if move is not None:
                u, g = move
                Y.tau[u] = Y.tau[u] * g
            for j, tag in old_tags(Y).items():
                assert cubical._link_tag(Y, j) == tag, (name, j)
                v = Y._height_start[j]
                link = cubical._link(Y, v)
                reason = cubical._link_mismatch(Y, v, link, tag)
                assert reason == old_link_mismatch(Y, v, link, tag,
                                                   models[tag]), (name, move, j)
                verdicts.add((tag, reason is None))
    assert verdicts == {("S(L)", True), ("S(M)", True), ("S(M)", False)}


def test_perturbed_tau_fails_at_the_same_link():
    pres, q = square_presentation(), square_quotient_bits((1, 0, 0, 0))
    Y, R = build_quotient(pres, q, 2), ReferenceComplex(pres, q, 2)
    for X in (Y, R):
        X.tau["x"] = X.tau["x"] * X.Q.element((1,))
    # several link edges fail; both name the first failing end in link
    # order, and its partner from a set
    message, ref = new_message(Y), ref_validate(R)
    assert message.split(" -- ")[0] == ref.split(" -- ")[0] == (
        "link at (1, Ab(0,)) is not the doubled cover total space: link edge "
        "(E(j=1,w,(0,)), 'up')")
    assert "(E(j=0,x," in message and "(E(j=0,x," in ref
