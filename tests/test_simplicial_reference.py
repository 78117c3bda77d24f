"""Differential tests of the index-based SimplicialComplex.

The reference oracle kept here is the implementation it replaced: it
closes the given simplices downward, keeps the simplices that lie in no
other one by testing every pair, decides flagness from networkx's
maximal-clique enumeration, and answers edges, neighbours and
connectivity by scanning all simplices.  Every complex built on the
families below is rebuilt by the oracle from the same constructor
arguments, and every attribute and query result must be equal.
Components, on these families and on pullbacks, are compared with the
breadth-first search that ``covers.pullback`` used to run on its own
adjacency dict, and ``is_suitable`` with the scan of every maximal
simplex per edge that it replaced."""

import itertools
import random

import networkx as nx
import pytest

from gbbkit.covers import RegularCover, build_cover, pullback
from gbbkit.fixtures import (annulus_complex, cycle_complex, fixture_names,
                             load_fixture, rose_graph, square_complex,
                             square_cover)
from gbbkit.groups import Permutation, PermutationGroup
from gbbkit.simplicial import (SimplicialComplex, SimplicialMap, barycentric,
                               build_complex, identity_map, identity_record,
                               is_suitable, octahedralize,
                               subdivide_graph_edges)

# --- the scanning oracle -----------------------------------------------------


class ReferenceComplex:
    """The replaced SimplicialComplex, without its input validation."""

    def __init__(self, vertices, maximal_simplices):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        simplices = set()
        for s in maximal_simplices:
            fs = frozenset(s)
            for k in range(1, len(fs) + 1):
                for face in itertools.combinations(
                        sorted(fs, key=self._index.get), k):
                    simplices.add(frozenset(face))
        for v in self.vertices:
            simplices.add(frozenset({v}))
        self.simplices = frozenset(simplices)
        self.maximal_simplices = tuple(
            sorted(
                (s for s in simplices if not any(s < t for t in simplices)),
                key=lambda s: sorted(self._index[v] for v in s),
            )
        )
        self.dimension = max(len(s) for s in simplices) - 1
        self.is_flag = self._compute_flag()
        self.is_connected = self._compute_connected()

    def edges(self):
        return sorted(
            (s for s in self.simplices if len(s) == 2),
            key=lambda s: sorted(self._index[v] for v in s),
        )

    def directed_edges(self):
        out = []
        for e in self.edges():
            a, b = sorted(e, key=self._index.get)
            out.append((a, b))
            out.append((b, a))
        return out

    def neighbors(self, v):
        return sorted(
            {w for s in self.simplices if len(s) == 2 and v in s
             for w in s if w != v},
            key=self._index.get,
        )

    def _compute_flag(self):
        # flag iff every maximal clique of the 1-skeleton spans a simplex
        g = nx.Graph()
        g.add_nodes_from(range(len(self.vertices)))
        for e in self.edges():
            a, b = tuple(e)
            g.add_edge(self._index[a], self._index[b])
        return all(
            frozenset(self.vertices[i] for i in clique) in self.simplices
            for clique in nx.find_cliques(g)
        )

    def _compute_connected(self):
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return len(seen) == len(self.vertices)


def reference_components(total):
    """The breadth-first search that pullback ran on the total space: the
    components as frozensets, ordered by their first vertex."""
    adj = {v: set() for v in total.vertices}
    for s in total.simplices:
        if len(s) == 2:
            a, b = s
            adj[a].add(b)
            adj[b].add(a)
    components = []
    remaining = set(total.vertices)
    while remaining:
        seed = next(v for v in total.vertices if v in remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in comp:
                        comp.add(w)
                        nxt.append(w)
            frontier = nxt
        components.append(frozenset(comp))
        remaining -= comp
    return components


def assert_matches_reference(cx, vertices, maximal_simplices):
    ref = ReferenceComplex(vertices, maximal_simplices)
    assert cx.vertices == ref.vertices
    assert cx.simplices == ref.simplices
    assert cx.maximal_simplices == ref.maximal_simplices
    assert cx.dimension == ref.dimension
    assert cx.is_flag == ref.is_flag
    assert cx.is_connected == ref.is_connected
    assert cx.edges() == ref.edges()
    assert cx.directed_edges() == ref.directed_edges()
    for v in cx.vertices:
        assert cx.neighbors(v) == ref.neighbors(v)
    assert cx.components() == reference_components(ref)
    return ref


@pytest.fixture
def built(monkeypatch):
    """Records (complex, vertices, maximal simplices) for every
    SimplicialComplex constructed while the test runs."""
    records = []
    init = SimplicialComplex.__init__

    def recording_init(self, vertices, maximal_simplices):
        vertices, maximal_simplices = list(vertices), list(maximal_simplices)
        init(self, vertices, maximal_simplices)
        records.append((self, vertices, maximal_simplices))

    monkeypatch.setattr(SimplicialComplex, "__init__", recording_init)
    return records


def check_all(records):
    """Compare every recorded complex with the oracle; return the oracles."""
    return [assert_matches_reference(*rec) for rec in records]


# --- small graphs -------------------------------------------------------------


def small_graph_complexes():
    """(vertices, maximal simplices) for every graph on at most five
    labelled vertices: its clique complex (given by all its cliques, in a
    seeded order), its bare 1-skeleton, and two seeded random fillings of
    its cliques with at least three vertices.  The vertex order is a seeded
    shuffle, so it differs from the order of the labels."""
    rng = random.Random(6)
    out = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
            cliques = [c for k in range(1, n + 1)
                       for c in itertools.combinations(range(n), k)
                       if all(p in edges for p in itertools.combinations(c, 2))]
            names = [f"v{i}" for i in range(n)]
            vertices = rng.sample(names, n)

            def named(simplices):
                return [{names[i] for i in s} for s in simplices]

            big = [c for c in cliques if len(c) >= 3]
            out.append((vertices, named(rng.sample(cliques, len(cliques)))))
            out.append((vertices, named(sorted(edges))))
            for _ in range(2):
                filling = [c for c in big if rng.random() < 0.5]
                out.append((vertices, named(sorted(edges) + filling)))
    return out


def test_small_graph_complexes_match_reference():
    family = small_graph_complexes()
    assert len(family) == 4 * (1 + 2 + 8 + 64 + 1024)
    refs = [assert_matches_reference(build_complex(vs, ms), vs, ms)
            for vs, ms in family]
    # both verdicts of both predicates occur, and so does a 4-simplex
    assert {r.is_flag for r in refs} == {True, False}
    assert {r.is_connected for r in refs} == {True, False}
    assert max(r.dimension for r in refs) == 4


# --- library families ---------------------------------------------------------


def covers_in(obj):
    """The covers a fixture holds, directly or through its presentation."""
    if isinstance(obj, tuple):
        return [c for x in obj for c in covers_in(x)]
    if isinstance(obj, RegularCover):
        return [obj]
    for attr in ("cover", "presentation"):
        if hasattr(obj, attr):
            return covers_in(getattr(obj, attr))
    return []


def test_fixtures_match_reference(built):
    # a cover builds its total space when first read
    for name in fixture_names():
        for cover in covers_in(load_fixture(name)):
            cover.total
    refs = check_all(built)
    assert len(refs) > 10
    assert any(r.dimension == 2 for r in refs)


# (k, p, edge, power) for every cover of the cube family
CUBE_COVERS = [(k, p, edge, power) for k in (4, 5, 6) for p in (2, 3, 5)
               for edge in range(k) for power in range(1, p)]


def cube_cover(k, p, edge, power):
    """The k-cycle with deck group Z/p generated by the power-th power of
    a p-cycle on the edge from v<edge>."""
    g = Permutation.from_cycles(p, tuple(range(p))) ** power
    return build_cover(cycle_complex(k), PermutationGroup(p, [g]),
                       {(f"v{edge}", f"v{(edge + 1) % k}"): g}, "v0")


def test_cube_family_covers_and_octahedralizations_match_reference(built):
    covers = [cube_cover(*params) for params in CUBE_COVERS]
    for cover in covers:
        octahedralize(cover.base)
        octahedralize(cover.total)
    assert len(covers) == 105
    # per cover: base, total space and both octahedralizations
    assert len(check_all(built)) == 4 * 105


def two_simplex():
    return build_complex(["p", "q", "r"], [{"p", "q", "r"}])


def test_barycentric_subdivisions_match_reference(built):
    for factory in (square_complex, annulus_complex, two_simplex):
        for iterations in (1, 2):
            barycentric(factory(), iterations)
    refs = check_all(built)
    assert max(len(r.vertices) for r in refs) > 100


def test_rose_edge_subdivisions_match_reference(built):
    for petals in (1, 2, 3):
        for r in (3, 4, 12, 16):
            subdivide_graph_edges(rose_graph(petals), r)
    refs = check_all(built)
    assert len(refs) == 12
    # a loop cut into three edges is a hollow triangle
    assert [r.is_flag for r in refs] == [False, True, True, True] * 3


# --- pullback components ------------------------------------------------------


def pullback_cases():
    """(cover, map into its base): identity maps, barycentric
    approximations, and paths folded onto one edge, whose pullbacks have
    one component per deck element when the edge is unlabelled."""
    _, cover = square_cover()
    covers = [cover] + [cube_cover(*params) for params in CUBE_COVERS[::7]]
    for cover in covers:
        base = cover.base
        yield cover, identity_map(base)
        yield cover, barycentric(base, 1).approximation
        a, b = base.edges()[1]
        path = build_complex(range(5), [{i, i + 1} for i in range(4)])
        yield cover, SimplicialMap(path, base,
                                   {i: (a, b)[i % 2] for i in range(5)})


def test_pullback_components_match_reference():
    counts = set()
    for cover, f in pullback_cases():
        res = pullback(cover, f)
        assert res.components == reference_components(res.cover.total)
        counts.add(len(res.components))
    assert counts == {1, 2, 3, 5}


# --- suitability ----------------------------------------------------------------


def reference_is_suitable(record):
    """The replaced check: per edge, scan every maximal simplex of the
    subdivision for the star and every maximal simplex of the original
    for one containing the image."""
    sub = record.subdivided
    orig = record.original
    f = record.approximation
    for e in sub.edges():
        u, v = tuple(e)
        verts = set()
        for s in sub.maximal_simplices:
            if u in s or v in s:
                verts |= s
        img = frozenset(f(w) for w in verts)
        if not any(img <= m for m in orig.maximal_simplices):
            return False, (u, v, img)
    return True, None


def test_is_suitable_matches_reference():
    verdicts = []
    factories = [square_complex, annulus_complex, two_simplex]
    factories += [lambda n=n: cycle_complex(n) for n in range(3, 13)]
    for factory in factories:
        for record in (identity_record(factory()),
                       barycentric(factory(), 1), barycentric(factory(), 2)):
            verdict = is_suitable(record)
            assert verdict == reference_is_suitable(record)
            verdicts.append(verdict[0])
    # only the 2-simplex passes without the second subdivision
    assert verdicts == ([False, False, True] * 2 + [True] * 3
                        + [False, False, True] * 10)
