"""Finite simplicial complexes, subdivisions, and approximation maps.

Complexes are stored by their maximal simplices over an ordered vertex
list; the vertex order doubles as the total order used by the
least-vertex approximation rule, so every construction here is
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import ComplexError


class SimplicialComplex:
    """An abstract finite simplicial complex.

    Immutable by convention after construction.  ``vertices`` fixes the
    vertex order; simplices are frozensets of vertices.

    Every query is answered from one vertex-adjacency index built at
    construction.  A simplex s is maximal iff no common neighbour w of its
    vertices makes s + {w} a simplex, and the complex is flag iff every
    such w does: by induction on size, every clique is then a simplex
    (the vertices are, and a clique K + {w} extends the simplex K).  One
    pass over the simplices and their common neighbours decides both.
    """

    def __init__(self, vertices, maximal_simplices):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ComplexError("duplicate vertices")
        if not vertices:
            raise ComplexError("empty vertex list")
        vset = set(vertices)
        maxs = []
        for s in maximal_simplices:
            fs = frozenset(s)
            if not fs:
                raise ComplexError("empty simplex")
            if not fs <= vset:
                raise ComplexError(f"simplex {sorted(s)} not a subset of the vertices")
            maxs.append(fs)
        self.vertices = vertices
        self._index = index = {v: i for i, v in enumerate(vertices)}
        # close downward; include isolated vertices as 0-simplices
        simplices = {frozenset({v}) for v in vertices}
        for fs in maxs:
            for k in range(2, len(fs) + 1):
                simplices.update(map(frozenset, itertools.combinations(fs, k)))
        self.simplices = frozenset(simplices)

        adj = {v: set() for v in vertices}
        for s in simplices:
            if len(s) == 2:
                a, b = s
                adj[a].add(b)
                adj[b].add(a)
        self._neighbors = {v: sorted(adj[v], key=index.__getitem__) for v in vertices}
        self._edge_pairs = [(a, b) for a in vertices for b in self._neighbors[a]
                            if index[b] > index[a]]
        self._edges = [frozenset(p) for p in self._edge_pairs]

        maximal = []
        flag = True
        for s in simplices:
            common = set.intersection(*(adj[v] for v in s))
            extends = [s | {w} in simplices for w in common]
            if not any(extends):
                maximal.append(s)
            flag = flag and all(extends)
        self.maximal_simplices = tuple(
            sorted(maximal, key=lambda s: sorted(index[v] for v in s))
        )
        self.dimension = max(len(s) for s in maximal) - 1
        self.is_flag = flag
        self._components = self._compute_components()
        self.is_connected = len(self._components) == 1

    # --- basic queries -------------------------------------------------
    def vertex_position(self, v):
        return self._index[v]

    def least_vertex(self, simplex):
        return min(simplex, key=self._index.get)

    def has_simplex(self, s):
        return frozenset(s) in self.simplices

    def edges(self):
        """The edges as frozensets, ordered by their vertex positions."""
        return list(self._edges)

    def directed_edges(self):
        out = []
        for a, b in self._edge_pairs:
            out.append((a, b))
            out.append((b, a))
        return out

    def neighbors(self, v):
        """The vertices adjacent to v, in vertex order."""
        return list(self._neighbors[v])

    def components(self):
        """The vertex sets of the connected components, ordered by their
        first vertex."""
        return list(self._components)

    def _compute_components(self):
        seen = set()
        components = []
        for seed in self.vertices:
            if seed in seen:
                continue
            comp = {seed}
            frontier = [seed]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in self._neighbors[v]:
                        if w not in comp:
                            comp.add(w)
                            nxt.append(w)
                frontier = nxt
            seen |= comp
            components.append(frozenset(comp))
        return tuple(components)

    def __repr__(self):
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"dim {self.dimension}, flag={self.is_flag})"
        )


def build_complex(vertex_list, maximal_simplices):
    return SimplicialComplex(vertex_list, maximal_simplices)


class SimplicialMap:
    """A vertex map between complexes sending simplices to simplices."""

    def __init__(self, source, target, vertex_map):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        missing = [v for v in source.vertices if v not in self.vertex_map]
        if missing:
            raise ComplexError(f"vertex map missing {missing[:3]}")
        for s in source.maximal_simplices:
            img = frozenset(self.vertex_map[v] for v in s)
            if not target.has_simplex(img):
                raise ComplexError(
                    f"image of simplex {sorted(map(str, s))} is not a simplex"
                )

    def __call__(self, v):
        return self.vertex_map[v]

    def compose(self, other):
        """self after other (other: A -> B, self: B -> C)."""
        return SimplicialMap(
            other.source,
            self.target,
            {v: self.vertex_map[other.vertex_map[v]] for v in other.source.vertices},
        )


def identity_map(L):
    return SimplicialMap(L, L, {v: v for v in L.vertices})


# ---------------------------------------------------------------------------
# octahedralization


def octahedralize(L):
    """Double every vertex into a +/- pair; signed tuples span a simplex
    exactly when their underlying vertices do.  The result of a single
    n-simplex is the boundary pattern of the (n+1)-dimensional octahedron
    analogue."""
    vertices = []
    for v in L.vertices:
        vertices.append((v, 1))
        vertices.append((v, -1))
    maximal = []
    for s in L.maximal_simplices:
        base = sorted(s, key=L.vertex_position)
        for signs in itertools.product((1, -1), repeat=len(base)):
            maximal.append(frozenset(zip(base, signs)))
    return SimplicialComplex(vertices, maximal)


def star_union(L, u, v):
    """The subcomplex St(u) u St(v) for adjacent u, v, with its inclusion
    into L."""
    if not L.has_simplex({u, v}):
        raise ComplexError(f"{u} and {v} are not adjacent")
    maxs = [s for s in L.maximal_simplices if u in s or v in s]
    used = sorted({w for s in maxs for w in s}, key=L.vertex_position)
    sub = SimplicialComplex(used, maxs)
    incl = SimplicialMap(sub, L, {w: w for w in used})
    return sub, incl


# ---------------------------------------------------------------------------
# subdivisions


@dataclass
class SubdivisionRecord:
    original: SimplicialComplex
    subdivided: SimplicialComplex
    approximation: SimplicialMap
    kind: str
    edge_paths: dict = field(default_factory=dict)


def identity_record(L):
    return SubdivisionRecord(L, L, identity_map(L), "identity")


def _sd_once(L):
    """One barycentric subdivision.  Vertices of the result are the
    simplices of L (named by their sorted vertex tuples), ordered by
    (dimension, vertex positions); maximal simplices are the full flags of
    faces of maximal simplices.  The approximation sends each
    simplex-vertex to its least vertex."""

    def name(s):
        return tuple(sorted(s, key=L.vertex_position))

    simp_sorted = sorted(
        L.simplices, key=lambda s: (len(s), tuple(L.vertex_position(v) for v in name(s)))
    )
    vertices = [name(s) for s in simp_sorted]

    maximal = []

    def flags(s):
        if len(s) == 1:
            yield [s]
            return
        for sub in itertools.combinations(sorted(s, key=L.vertex_position), len(s) - 1):
            for fl in flags(frozenset(sub)):
                yield fl + [s]

    for m in L.maximal_simplices:
        for fl in flags(m):
            maximal.append(frozenset(name(s) for s in fl))
    sd = SimplicialComplex(vertices, maximal)
    approx = SimplicialMap(sd, L, {name(s): L.least_vertex(s) for s in L.simplices})
    return sd, approx


def barycentric(L, iterations=1):
    """Barycentric subdivision with the least-vertex approximation map.
    For two iterations the approximations compose, sending a chain of
    chains to the least vertex of its smallest member."""
    if iterations not in (1, 2):
        raise ComplexError("iterations must be 1 or 2")
    sd1, f1 = _sd_once(L)
    if iterations == 1:
        return SubdivisionRecord(L, sd1, f1, "barycentric")
    sd2, f2 = _sd_once(sd1)
    return SubdivisionRecord(L, sd2, f1.compose(f2), "second-barycentric")


def is_suitable(record):
    """Check the approximation-compatibility condition: for every edge
    {u,v} of the subdivided complex, the vertex images of St(u) u St(v)
    must lie inside a single simplex of the original.

    Only the record's stored (least-vertex) approximation is tested; the
    verdict is relative to that canonical choice.  Returns (bool, witness)
    where the witness on failure is (u, v, image-vertex-set).  The closed
    stars and, in the original, the maximal simplices at each vertex are
    indexed once, so the check is linear in the size of the complexes."""
    sub = record.subdivided
    f = record.approximation
    star = {v: set() for v in sub.vertices}
    for s in sub.maximal_simplices:
        for v in s:
            star[v] |= s
    maximal_at = {v: [] for v in record.original.vertices}
    for m in record.original.maximal_simplices:
        for v in m:
            maximal_at[v].append(m)
    for e in sub.edges():
        u, v = tuple(e)
        img = frozenset(f(w) for w in star[u] | star[v])
        # a simplex containing img contains f(u)
        if not any(img <= m for m in maximal_at[f(u)]):
            return False, (u, v, img)
    return True, None


# ---------------------------------------------------------------------------
# graphs (allowing loops and parallel edges) and edge subdivisions


@dataclass(frozen=True)
class Graph:
    """A finite multigraph: ordered vertices and a tuple of directed edge
    pairs (u, v); loops (u == v) and repeats allowed.  Edge identity is
    positional."""

    vertices: tuple
    edge_list: tuple

    def __post_init__(self):
        vs = set(self.vertices)
        for u, v in self.edge_list:
            if u not in vs or v not in vs:
                raise ComplexError(f"edge ({u},{v}) uses unknown vertices")

    def vertex_position(self, v):
        return self.vertices.index(v)


@dataclass
class GraphSubdivision:
    """Each edge of a multigraph replaced by a path of r edges.

    ``edge_paths[i]`` lists the r directed sub-edges of edge i, oriented
    along the stored edge direction.  ``collapse_vertex_map`` realizes the
    approximation that sends interior vertices to the lesser endpoint of
    their edge (loops: to the unique endpoint)."""

    graph: Graph
    r: int
    complex: SimplicialComplex
    edge_paths: dict
    collapse_vertex_map: dict

    @property
    def kind(self):
        return "graph-edge-subdivision"


def subdivide_graph_edges(graph, r):
    if r < 1:
        raise ComplexError("r must be >= 1")
    for i, (u, v) in enumerate(graph.edge_list):
        if u == v and r < 3:
            raise ComplexError(f"loop edge {i} needs r >= 3 to stay simplicial")

    counts = {}
    for u, v in graph.edge_list:
        key = frozenset((u, v))
        counts[key] = counts.get(key, 0) + 1
    for key, c in counts.items():
        if c > 1 and r < 2:
            raise ComplexError("parallel edges need r >= 2 to stay simplicial")

    vertices = list(graph.vertices)
    maximal = []
    edge_paths = {}
    collapse = {v: v for v in graph.vertices}
    for i, (u, v) in enumerate(graph.edge_list):
        interior = [("e", i, t) for t in range(1, r)]
        vertices.extend(interior)
        chain = [u] + interior + [v]
        path = [(chain[t], chain[t + 1]) for t in range(r)]
        maximal.extend(frozenset(p) for p in path)
        edge_paths[i] = path
        lesser = u if u == v else min(u, v, key=graph.vertex_position)
        for w in interior:
            collapse[w] = lesser
    cx = SimplicialComplex(vertices, maximal)
    return GraphSubdivision(graph, r, cx, edge_paths, collapse)


def collapse_map(fine, coarse):
    """The simplicial collapse from an r >= 12 edge subdivision onto the
    r = 4 subdivision of the same multigraph.

    Per original edge with fine path p0..pr and coarse path q0..q4, the
    sub-edges at positions 2, 5, r-4, r-1 map homeomorphically onto the
    four coarse edges and everything else collapses to vertices.  Any
    three consecutive fine edges then land in a single vertex or edge,
    which is checked."""
    if fine.graph != coarse.graph:
        raise ComplexError("subdivisions of different graphs")
    if coarse.r != 4:
        raise ComplexError("coarse subdivision must have r = 4")
    r = fine.r
    if r < 12:
        raise ComplexError("fine subdivision needs r >= 12")

    vmap = {v: v for v in fine.graph.vertices}
    for i in fine.edge_paths:
        fine_chain = [fine.edge_paths[i][0][0]] + [e[1] for e in fine.edge_paths[i]]
        coarse_chain = [coarse.edge_paths[i][0][0]] + [e[1] for e in coarse.edge_paths[i]]
        q = coarse_chain  # q0..q4

        def assign(p_index, q_index):
            vmap[fine_chain[p_index]] = q[q_index]

        # plateau/transition layout keeping three-in-a-row images small:
        # p0,p1 -> q0 | e2 | p2..p4 -> q1 | e5 | p5..p_{r-5} -> q2 |
        # e_{r-4} | p_{r-4}..p_{r-2} -> q3 | e_{r-1} | p_{r-1},p_r -> q4
        for t in range(0, 2):
            assign(t, 0)
        for t in range(2, 5):
            assign(t, 1)
        for t in range(5, r - 4):
            assign(t, 2)
        for t in range(r - 4, r - 1):
            assign(t, 3)
        for t in range(r - 1, r + 1):
            assign(t, 4)

    m = SimplicialMap(fine.complex, coarse.complex, vmap)

    # three consecutive fine edges must image into a vertex or one edge
    for i, path in fine.edge_paths.items():
        for t in range(len(path) - 2):
            verts = {path[t][0], path[t][1], path[t + 1][1], path[t + 2][1]}
            img = frozenset(vmap[w] for w in verts)
            if len(img) > 2 or (len(img) == 2 and not coarse.complex.has_simplex(img)):
                raise ComplexError(
                    f"three-consecutive-edges condition fails on edge {i} at {t}"
                )
    return m
