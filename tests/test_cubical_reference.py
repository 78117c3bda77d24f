"""Differential tests of the integer-indexed cube complex against the code
it replaced.

The oracles kept here are the object-keyed pipeline: a build that computes
every cell's coordinates by group products and keys its incidence by Edge
objects, union-find over Edge-keyed dicts for hyperplanes, cylinders and
cylinder classes, an osculation scan that visits every vertex, and link
models taken from ``octahedralize``.  The library now stores cells by
position, runs union-find on int lists, scans the other vertices of a
height only when its first vertex has an osculation, and builds the doubled
complexes' 1-skeletons in closed form.  Cells, incidence, hyperplanes,
specialness reports and witnesses, cylinders, link tags and certificate
messages must agree."""

import heapq
import itertools

import pytest

from gbbkit import cubical
from gbbkit.cli import _osculation_witnesses
from gbbkit.cubical import (Edge, Square, build_quotient, cylinders,
                            hyperplanes, specialness, vertex_link,
                            vertical_shift_permutation)
from gbbkit.errors import InternalError
from gbbkit.fixtures import square_presentation, square_quotient_bits
from gbbkit.quotients import hw_product_quotient, stabilizer_image
from gbbkit.simplicial import octahedralize

from test_link_certificate import CUBES, FIXTURES, cycle_cocycle_quotient

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


# --- differential tests ------------------------------------------------------


def incidence_views(Y):
    """Y's incidence position lists keyed by cells, as the reference keeps
    them: the edges rising from and arriving at each vertex, and the
    squares at each edge."""
    return ({Y.vertices[v]: [Y.edges[p] for p in ps]
             for v, ps in enumerate(Y._ups)},
            {Y.vertices[v]: [Y.edges[p] for p in ps]
             for v, ps in enumerate(Y._downs)},
            {e: [Y.squares[s >> 2] for s in at]
             for e, at in zip(Y.edges, Y._squares_at)})


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

    assert cubical._doubled(Y, "S(L)") == ref_doubled(R, "S(L)"), name
    assert cubical._doubled(Y, "S(M)") == ref_doubled(R, "S(M)"), name
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


def tamperings():
    """(description, function) pairs that damage a complex's link models in
    ways that reach each of the certificate's messages."""

    def drop_edge(Y, tag):
        nodes, edges = Y[tag]
        Y[tag] = (nodes, edges - {min(edges, key=lambda e: sorted(map(repr, e)))})

    def add_edge(Y, tag):
        nodes, edges = Y[tag]
        a, b = sorted(nodes, key=repr)[:2]
        Y[tag] = (nodes, edges | {frozenset((a, b))})

    def drop_vertex(Y, tag):
        nodes, edges = Y[tag]
        Y[tag] = (nodes - {min(nodes, key=repr)}, edges)

    def add_vertex(Y, tag):
        nodes, edges = Y[tag]
        Y[tag] = (nodes | {("extra", 1)}, edges)

    return [("drop edge", drop_edge), ("add edge", add_edge),
            ("drop vertex", drop_vertex), ("add vertex", add_vertex)]


def new_message(Y):
    try:
        cubical._validate_all_links(Y)
    except InternalError as err:
        return str(err)
    return None


@pytest.mark.parametrize("description,tamper", tamperings())
def test_certificate_messages_match(description, tamper):
    for name, pres, q, N in FIXTURES[:-1]:
        for tag in ("S(L)", "S(M)"):
            Y = build_quotient(pres, q, N)
            R = ReferenceComplex(pres, q, N)
            assert new_message(Y) is None and ref_validate(R) is None
            cubical._doubled(Y, tag)
            ref_doubled(R, tag)
            tamper(Y._link_models, tag)
            tamper(R.link_models, tag)
            assert Y._link_models == R.link_models
            message = new_message(Y)
            assert message == ref_validate(R), (name, description, tag)
            if tag == "S(L)":
                assert message is not None, (name, description)


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
