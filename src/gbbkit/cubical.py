"""Compact wrapped quotient cube complexes.

Given a verified abelian quotient theta of the edge-generated group and a
wrap period N (a multiple of lcm(period of S, exponent of the target Q)),
this module builds a finite square complex whose vertices, edges, and
squares are parametrized by explicit group data:

* heights j live in Z/N;
* rho_j is the stabilizer image at height j (for abelian Q, rho_j = j * rho_1)
  with image P_j <= Q; P_j is trivial whenever j is a residue of S;
* vertices at height j are the cosets Q/P_j;
* edges at height j are triples (j, u, q) for u a base vertex and q in Q:
  a free Q-torsor for each (j, u); the edge runs from (j, q + P_j) up to
  (j+1, q + tau(u) + P_{j+1}) where tau(u) = theta(path word to u);
* squares sit over base edges {u, u'}: the square with lower-left edge
  (j, u, q) and second label u' has sides

      E1 = (j,   u,  q)                                   lower-left
      E2 = (j,   u', q - rho_j(eta(u,u')))                lower-right
      E3 = (j+1, u', q + tau(u) - rho_{j+1}(eta(u,u')))   upper-left
      E4 = (j+1, u,  q + tau(u') + rho_1(eta(u,u')))      upper-right

  where eta is the cover's edge-transport element.  Corner closure (the
  tops of E3 and E4 agree at height j+2) is asserted during construction.

Q acts on the complex by translating the torsor coordinate,
(j, u, q') -> (j, u, q' + q).  Construction asserts once that, for each
height and base edge, the sides of every square sit at the same offsets
from its lower-left side and the lower-left side runs over Q exactly once.
Translation then maps squares to squares, so it is an automorphism, and it
acts transitively on the cosets Q/P_j, the vertices of height j.  Links and
the four specialness pathologies are local and invariant under
automorphisms (Haglund and Wise, "Special cube complexes", GAFA 18, 2008),
so one vertex v = (j, r) per height carries the link certificate.  Its
link must be the doubled base complex S(L) (height in S) or the doubled
total space S(M) of the cover (height outside S, rho_j injective), through
the map the parametrization predicts:

* height in S:  (e, up) -> (label(e), +1),  (e, down) -> (label(e), -1);
* otherwise:    (j, u, q') up      -> ((u, rho_j^-1(r - q')), +1),
                (j-1, u, q'') down -> ((u, rho_j^-1(r - q'' - tau(u))), -1),
  onto S(M) with each vertex (u, g) of the cover renamed (u, g h(u)^-1),
  h(u) the deck element of the chosen lift of u.

The certificate checks that the map is a bijection onto the vertices of
the doubled complex and that the edge sets are equal; a mismatch names the
link edge.  Heights outside S where rho_j is not injective are unchecked.

Hyperplanes, the four specialness pathologies, cylinders and their
stabilizers, and the vertical-shift stabilization analysis all operate on
this finite model.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import lcm

from .errors import CubicalError, InternalError
from .groups import AbelianGroup
from .quotients import FiniteQuotient, stabilizer_image
from .simplicial import octahedralize


@dataclass(frozen=True)
class Edge:
    """A vertical edge of the wrapped complex: height of its bottom end,
    base-vertex label, and torsor coordinate in Q."""

    j: int
    label: object
    q: object  # AbelianElement

    def __post_init__(self):
        # edges key every incidence table, so hash each one once
        object.__setattr__(self, "_hash", hash((self.j, self.label, self.q)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild rather than copy the cached hash, which differs between
        # processes for string labels
        return Edge, (self.j, self.label, self.q)

    def __repr__(self):
        return f"E(j={self.j},{self.label},{self.q.coords})"


@dataclass(frozen=True)
class Square:
    """A square recorded by its four sides; e1/e4 share one label, e2/e3
    the other; e1, e2 are the lower sides."""

    e1: Edge
    e2: Edge
    e3: Edge
    e4: Edge

    def sides(self):
        return (self.e1, self.e2, self.e3, self.e4)

    def labels(self):
        return frozenset((self.e1.label, self.e2.label))


class QuotientCubeComplex:
    def __init__(self, pres, quotient, N):
        self.presentation = pres
        self.quotient = quotient
        self.N = N
        self._link_models = {}  # link tag -> its doubled complex
        self._build()

    # -- construction ---------------------------------------------------
    def _build(self):
        pres = self.presentation
        quotient = self.quotient
        if quotient.mode != "abelian-exact" or not isinstance(
            quotient.target, AbelianGroup
        ):
            raise CubicalError(
                "the cube-complex builder needs an exactly verified abelian "
                "quotient"
            )
        self.Q = quotient.target
        S = pres.S
        base_period = lcm(S.modulus, self.Q.exponent if self.Q.factors else 1)
        if self.N < 1 or self.N % base_period:
            raise CubicalError(
                f"wrap N={self.N} must be a positive multiple of "
                f"lcm(period(S), exponent(Q)) = {base_period}"
            )
        N = self.N
        cover = pres.cover
        L = pres.L

        # transport tables
        self.rho = {}
        self.P = {}  # height -> frozenset of subgroup elements
        for j in range(N):
            self.rho[j], image = stabilizer_image(quotient, j)
            self.P[j] = frozenset(image.elements)
        for j in range(N):
            if j in S and len(self.P[j]) != 1:
                raise InternalError("P_j nontrivial at a height in S")
        self.tau = {}
        ident = self.Q.identity()
        for u in L.vertices:
            word = cover.path_words[u]
            val = ident
            for e in word:
                val = val * quotient.theta[e]
            self.tau[u] = val
        self.rho_eta = {}  # (j, u, u') -> rho_j(eta(u,u')) as Q element
        for j in range(N):
            for (a, b) in L.directed_edges():
                self.rho_eta[(j, a, b)] = self.rho[j][cover.eta[(a, b)]]

        # vertices: cosets Q/P_j, canonical representative = min of coset
        self.vertices = []
        vertex_of = {}  # (j, element) -> (j, representative of its coset)
        for j in range(N):
            for q in self.Q.elements():
                if (j, q) in vertex_of:
                    continue
                coset = sorted(q * p for p in self.P[j])
                v = (j, coset[0])
                for x in coset:
                    vertex_of[(j, x)] = v
                self.vertices.append(v)

        # edges, with their bottom and top vertices computed once
        self.edges = [
            Edge(j, u, q)
            for j in range(N)
            for u in L.vertices
            for q in self.Q.elements()
        ]
        self._ends = {}  # edge -> (bottom vertex, top vertex)
        self._edges_by_bottom = {}
        self._edges_by_top = {}
        for e in self.edges:
            j1 = (e.j + 1) % N
            bottom = vertex_of[(e.j, e.q)]
            top = vertex_of[(j1, e.q * self.tau[e.label])]
            self._ends[e] = (bottom, top)
            self._edges_by_bottom.setdefault(bottom, []).append(e)
            self._edges_by_top.setdefault(top, []).append(e)

        # squares, one per (height, base edge, torsor coordinate); their
        # sides are the edge objects above
        edge_at = {(e.j, e.label, e.q): e for e in self.edges}
        self.squares = []
        self._squares_of_edge = {e: [] for e in self.edges}
        for j in range(N):
            j1 = (j + 1) % N
            for base_edge in L.edges():
                u, u2 = sorted(base_edge, key=L.vertex_position)
                d2 = self.rho_eta[(j, u, u2)].inverse()
                d3 = self.tau[u] * self.rho_eta[(j1, u, u2)].inverse()
                d4 = self.tau[u2] * self.rho_eta[(1 % N, u, u2)]
                for q in self.Q.elements():
                    sq = Square(edge_at[(j, u, q)], edge_at[(j, u2, q * d2)],
                                edge_at[(j1, u2, q * d3)],
                                edge_at[(j1, u, q * d4)])
                    self._check_square(sq)
                    self.squares.append(sq)
                    for e in sq.sides():
                        self._squares_of_edge[e].append(sq)
        self._check_translation()

    def _check_square(self, sq):
        # lower sides share the bottom corner; vertical sides close up
        if self.bottom(sq.e1) != self.bottom(sq.e2):
            raise InternalError("square corners do not close at the bottom")
        if self.top(sq.e1) != self.bottom(sq.e3):
            raise InternalError("square corners do not close on the left")
        if self.top(sq.e2) != self.bottom(sq.e4):
            raise InternalError("square corners do not close on the right")
        if self.top(sq.e3) != self.top(sq.e4):
            raise InternalError("square corners do not close at the top")
        if sq.e1.label == sq.e2.label:
            raise InternalError("adjacent square sides share a label")

    def _check_translation(self):
        """Translation by Q maps squares to squares: over each height and
        base edge, every square's sides sit at one set of offsets from its
        lower-left side, whose coordinate runs over Q exactly once."""
        factors = self.Q.factors
        shapes = {}  # (j, u, u') -> (side offsets, lower-left coordinates)
        for sq in self.squares:
            e1 = sq.e1
            c1 = e1.q.coords
            shape = tuple(
                (e.j, e.label, tuple((x - y) % f for x, y, f in
                                     zip(e.q.coords, c1, factors)))
                for e in (sq.e2, sq.e3, sq.e4))
            key = (e1.j, e1.label, sq.e2.label)
            first, coords = shapes.setdefault(key, (shape, []))
            if shape != first:
                raise InternalError(
                    f"square {sq.sides()} is not a translate of the first "
                    f"square over {key}")
            coords.append(c1)
        for key, (_, coords) in shapes.items():
            if len(coords) != self.Q.order or len(set(coords)) != len(coords):
                raise InternalError(
                    f"the squares over {key} do not form one Q-orbit")

    # -- incidence -------------------------------------------------------
    def bottom(self, e):
        return self._ends[e][0]

    def top(self, e):
        return self._ends[e][1]

    def translate_edge(self, e, q):
        """The action of Q on edges (translation of the torsor coordinate)."""
        return Edge(e.j, e.label, e.q * q)

    def counts(self):
        per_height_vertices = {}
        for (j, _) in self.vertices:
            per_height_vertices[j] = per_height_vertices.get(j, 0) + 1
        return {
            "vertices_per_height": per_height_vertices,
            "edges": len(self.edges),
            "squares": len(self.squares),
        }

    def __repr__(self):
        return (
            f"QuotientCubeComplex(N={self.N}, |V|={len(self.vertices)}, "
            f"|E|={len(self.edges)}, |sq|={len(self.squares)})"
        )


def build_quotient(pres, quotient: FiniteQuotient, N, validate_links=True,
                   require_torsion_free=False):
    """Build the wrapped complex and (by default) certify the link at one
    vertex per height against the expected doubled complexes; a link
    failure is an internal construction trap, not a data error."""
    Y = QuotientCubeComplex(pres, quotient, N)
    if require_torsion_free:
        from .quotients import kernel_torsion_free
        ok, witness = kernel_torsion_free(quotient)
        if not ok:
            raise CubicalError(f"quotient kernel has torsion: {witness}")
    if validate_links:
        _validate_all_links(Y)
    return Y


# ---------------------------------------------------------------------------
# links

_SIGN = {"up": 1, "down": -1}

# the corners of a square pair edge-ends, written (side index, role):
# bottom of e1 and e2, top of e1 = bottom of e3, top of e2 = bottom of e4,
# top of e3 and e4; each end of each side lies in exactly one corner
_PARTNER = {
    (0, "up"): (1, "up"), (1, "up"): (0, "up"),
    (0, "down"): (2, "up"), (2, "up"): (0, "down"),
    (1, "down"): (3, "up"), (3, "up"): (1, "down"),
    (2, "down"): (3, "down"), (3, "down"): (2, "down"),
}


def _link(Y, v):
    """The link of a vertex as adjacency sets: nodes are edge-ends incident
    at v ((edge, 'up') for edges rising from v, (edge, 'down') for edges
    arriving at v) and link edges come from the four corners of each
    square at v.  The corner through an end at v lies at v, because the
    construction checks that every square's corners close."""
    link = {(e, "up"): set() for e in Y._edges_by_bottom.get(v, ())}
    link.update(((e, "down"), set()) for e in Y._edges_by_top.get(v, ()))
    for (e, role), near in link.items():
        for sq in Y._squares_of_edge[e]:
            sides = sq.sides()
            for k, side in enumerate(sides):
                if side is e:  # squares are built from Y's own edge objects
                    other, other_role = _PARTNER[(k, role)]
                    near.add((sides[other], other_role))
    return link


def _doubled(Y, tag):
    """(vertices, edges) of the doubled complex a link of type ``tag`` must
    equal: octahedralize(L) for 'S(L)'; for 'S(M)', octahedralize of the
    cover's total space with each vertex (u, g) renamed (u, g h(u)^-1)."""
    if tag not in Y._link_models:
        cover = Y.presentation.cover
        if tag == "S(L)":
            oc = octahedralize(Y.presentation.L)
            name = {x: x for x in oc.vertices}
        else:
            oc = octahedralize(cover.total)
            name = {((u, g), sign): ((u, g * cover.h[u].inverse()), sign)
                    for (u, g), sign in oc.vertices}
        Y._link_models[tag] = (
            frozenset(name.values()),
            frozenset(frozenset(name[x] for x in e) for e in oc.edges()),
        )
    return Y._link_models[tag]


def _predicted_map(Y, v, link, tag):
    """The map from the link at v = (j, r) onto the doubled complex that
    the parametrization predicts (see the module docstring); an end whose
    offset lies outside P_j maps to a deck element of None."""
    if tag == "S(L)":
        return {end: (end[0].label, _SIGN[end[1]]) for end in link}
    j, r = v
    deck_of = {x: g for g, x in Y.rho[j].items()}
    out = {}
    for e, role in link:
        reached = e.q if role == "up" else e.q * Y.tau[e.label]
        out[(e, role)] = ((e.label, deck_of.get(r * reached.inverse())),
                          _SIGN[role])
    return out


def _link_mismatch(Y, v, link, tag):
    """None when the predicted map is an isomorphism from the link at v
    onto the doubled complex ``tag``; otherwise the reason, naming the
    link end or link edge that does not match."""
    nodes, edges = _doubled(Y, tag)
    phi = _predicted_map(Y, v, link, tag)
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


def _injective(Y, j):
    return len(set(Y.rho[j].values())) == Y.presentation.cover.deck.order


def vertex_link(Y, v):
    """(link, tag): the link as adjacency sets over edge-ends, and 'S(L)'
    for the doubled base or 'S(M)' for the doubled cover total space when
    the predicted map certifies it; otherwise 'quotient-of-S(M)' at
    heights outside S and 'unknown' at heights in S."""
    link = _link(Y, v)
    j = v[0]
    if len(Y.P[j]) == 1 and _link_mismatch(Y, v, link, "S(L)") is None:
        return link, "S(L)"
    if _injective(Y, j) and _link_mismatch(Y, v, link, "S(M)") is None:
        return link, "S(M)"
    if j not in Y.presentation.S:
        return link, "quotient-of-S(M)"
    return link, "unknown"


def _validate_all_links(Y):
    """Certify the link at the first vertex of each height; translation by
    Q, asserted during construction, carries it to the other vertices of
    that height."""
    S = Y.presentation.S
    first = {}
    for v in Y.vertices:
        first.setdefault(v[0], v)
    for j, v in first.items():
        if j in S:
            tag, model = "S(L)", "the doubled base"
        elif _injective(Y, j):
            tag, model = "S(M)", "the doubled cover total space"
        else:
            continue
        reason = _link_mismatch(Y, v, _link(Y, v), tag)
        if reason is not None:
            raise InternalError(f"link at {v} is not {model}: {reason}")


# ---------------------------------------------------------------------------
# hyperplanes


@dataclass
class Hyperplane:
    index: int
    edges: frozenset
    label: object
    two_sided: bool = True

    def __repr__(self):
        return f"Hyperplane(#{self.index}, label={self.label}, size={len(self.edges)})"


class _UnionFind:
    """Union-find over the given items; every root is one of the items
    themselves, so identity decides."""

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


def hyperplanes(Y):
    """Equivalence classes of edges under the opposite-sides-of-a-square
    relation.  Opposite sides always point the same vertical way, so the
    directed classes come in matched up/down pairs over the same edge set;
    each class is reported once, with two-sidedness asserted."""
    uf = _UnionFind(Y.edges)
    for sq in Y.squares:
        if sq.e1.label != sq.e4.label or sq.e2.label != sq.e3.label:
            raise InternalError("opposite square sides carry distinct labels")
        uf.union(sq.e1, sq.e4)
        uf.union(sq.e2, sq.e3)
    classes = {}
    for e in Y.edges:
        classes.setdefault(uf.find(e), []).append(e)
    out = []
    for i, (_, members) in enumerate(sorted(
        classes.items(), key=lambda kv: (str(kv[1][0].label), kv[1][0].j)
    )):
        labels = {e.label for e in members}
        if len(labels) != 1:
            raise InternalError("hyperplane with mixed labels")
        out.append(Hyperplane(i, frozenset(members), labels.pop()))
    return out


def hyperplane_counts(planes, directed=False):
    """Per-label class counts.  By default each underlying (undirected)
    hyperplane is counted once; with ``directed=True`` every two-sided
    hyperplane is counted as its matched pair of up/down directed classes,
    so the counts double."""
    counts = {}
    for h in planes:
        weight = 1
        if directed:
            if not h.two_sided:
                raise CubicalError(
                    "directed counting requires two-sided hyperplanes")
            weight = 2
        counts[h.label] = counts.get(h.label, 0) + weight
    return counts


# ---------------------------------------------------------------------------
# specialness


@dataclass
class SpecialnessReport:
    wrap: int
    counts: dict
    non_two_sided: list = field(default_factory=list)
    self_intersections: list = field(default_factory=list)
    self_osculations: list = field(default_factory=list)
    inter_osculations: list = field(default_factory=list)

    @property
    def special(self):
        return not (
            self.non_two_sided
            or self.self_intersections
            or self.self_osculations
            or self.inter_osculations
        )

    def pattern(self):
        """A wrap-independent signature of the verdict: per-label counts,
        which labels self-osculate, and which label pairs inter-osculate."""
        return (
            tuple(sorted((str(k), v) for k, v in self.counts.items())),
            tuple(sorted({str(h.label) for h, _ in self.self_osculations})),
            tuple(sorted({
                tuple(sorted((str(a.label), str(b.label))))
                for (a, b), _ in self.inter_osculations
            })),
        )


def specialness(Y):
    """Full pathology scan over vertex stars.

    Each vertical edge carries two directed versions; directing both
    members of a contact pair toward their shared vertex makes that
    vertex the common terminal vertex, so contacts are enumerated per
    vertex from the link: two edge-ends at a vertex form an *osculating
    contact* when no square corner at that vertex pairs them.  (The
    corner criterion, rather than mere co-membership in some square, is
    what makes the scan correct on branched complexes, where two edges
    can share both endpoints and lie in a common square that witnesses
    adjacency at only one of the two.)

    * A hyperplane directly self-osculates when two of its own edges
      form an osculating contact with consistent direction (two arrivals
      sharing a top, or two departures sharing a bottom).
    * Two hyperplanes inter-osculate when they carry an osculating
      contact (e1, e2) that witnesses a crossing locally on both sides:
      e1 is an adjacent square side of some edge of the other hyperplane
      and symmetrically for e2.  (The global-crossing variant -- any
      osculating contact between hyperplanes that intersect somewhere --
      is strictly coarser and misreports branched cylinder complexes
      whose walls merge far away from the contact.)
    * A hyperplane self-intersects when adjacent sides of a square
      belong to it.  Two-sidedness holds by vertical orientation and is
      asserted via the height pattern of every square."""
    planes = hyperplanes(Y)
    plane_of = {}
    for h in planes:
        for e in h.edges:
            plane_of[e] = h

    report = SpecialnessReport(wrap=Y.N, counts=hyperplane_counts(planes))

    # two-sidedness: a square never has opposite sides with opposite
    # vertical direction in this model; assert the stronger statement that
    # opposite sides sit at the same height offset pattern
    for sq in Y.squares:
        if sq.e1.j != sq.e2.j or sq.e3.j != sq.e4.j:
            report.non_two_sided.append(sq)

    # self-intersection scan; also collect, per edge, the hyperplanes of
    # its adjacent square sides (the local crossing data)
    adjacent_planes = {e: set() for e in Y.edges}
    for sq in Y.squares:
        for a, b in ((sq.e1, sq.e2), (sq.e1, sq.e3), (sq.e2, sq.e4), (sq.e3, sq.e4)):
            adjacent_planes[a].add(plane_of[b].index)
            adjacent_planes[b].add(plane_of[a].index)
            if plane_of[a] is plane_of[b]:
                report.self_intersections.append((plane_of[a], sq))

    name = {e: repr(e) for e in Y.edges}
    seen_self = set()
    seen_inter = set()
    for v in Y.vertices:
        link = _link(Y, v)
        ends = [(end, plane_of[end[0]], adjacent_planes[end[0]])
                for end in sorted(link, key=lambda n: (name[n[0]], n[1]))]
        for i, ((e1, r1), h1, crossing1) in enumerate(ends):
            linked = link[(e1, r1)]
            for end2, h2, crossing2 in ends[i + 1:]:
                # link ends carry Y's own edge objects
                e2, r2 = end2
                if e1 is e2 or end2 in linked:
                    continue
                if h1 is h2:
                    # same direction toward v means same link role
                    if r1 == r2 and h1.index not in seen_self:
                        seen_self.add(h1.index)
                        report.self_osculations.append((h1, (e1, e2)))
                elif h2.index in crossing1 and h1.index in crossing2:
                    key = frozenset((h1.index, h2.index))
                    if key not in seen_inter:
                        seen_inter.add(key)
                        report.inter_osculations.append(((h1, h2), (e1, e2)))
    report.inter_osculations.sort(
        key=lambda item: sorted((item[0][0].index, item[0][1].index))
    )
    report.self_osculations.sort(key=lambda item: item[0].index)
    return report


# ---------------------------------------------------------------------------
# cylinders


@dataclass
class Cylinder:
    label: frozenset          # simplex of L
    edges: frozenset          # member edges
    squares: tuple
    stabilizer: frozenset     # elements of Q preserving the cylinder

    def __repr__(self):
        return (
            f"Cylinder(label={sorted(map(str, self.label))}, "
            f"{len(self.edges)} edges, stab order {len(self.stabilizer)})"
        )


def cylinders(Y):
    """Components, per base simplex, of the cells carrying that simplex's
    labels.  Connectivity runs through squares (all four sides of a square
    over the simplex belong to one component) and, for vertex labels,
    through the vertical continuation (j, u, q) -> (j+1, u, q + tau(u));
    components are NOT merged across mere vertex contact at branched
    vertices.  Each cylinder records its setwise stabilizer in Q.

    Translation by Q is a label-preserving automorphism that commutes with
    the vertical continuation, so it permutes the components over each
    simplex, and q stabilizes the component C through e0 exactly when
    e0 + q lies in C."""
    L = Y.presentation.L
    edges_of = {}    # label -> [(position in Y.edges, edge)]
    for item in enumerate(Y.edges):
        edges_of.setdefault(item[1].label, []).append(item)
    squares_of = {}  # label pair -> [(position in Y.squares, square)]
    for item in enumerate(Y.squares):
        squares_of.setdefault(item[1].labels(), []).append(item)
    out = []
    for simplex in sorted(L.simplices, key=lambda s: (len(s), sorted(map(str, s)))):
        member_edges = [e for _, e in heapq.merge(
            *(edges_of[u] for u in simplex))]
        member_squares = [sq for _, sq in heapq.merge(*(
            squares_of.get(frozenset(pair), ())
            for pair in itertools.combinations(simplex, 2)))]
        uf = _UnionFind(member_edges)
        if len(simplex) == 1:
            (u,) = tuple(simplex)
            for e in member_edges:
                cont = Edge((e.j + 1) % Y.N, u, e.q * Y.tau[u])
                uf.union(e, cont)
        for sq in member_squares:
            uf.union(sq.e1, sq.e2)
            uf.union(sq.e1, sq.e3)
            uf.union(sq.e1, sq.e4)
        comps = {}
        for e in member_edges:
            comps.setdefault(uf.find(e), []).append(e)
        squares_in = {}
        for sq in member_squares:
            squares_in.setdefault(uf.find(sq.e1), []).append(sq)
        for root, members in comps.items():
            e0 = members[0]
            back = e0.q.inverse()
            stab = frozenset(e.q * back for e in members
                             if e.j == e0.j and e.label == e0.label)
            cyl = Cylinder(frozenset(simplex), frozenset(members),
                           tuple(squares_in.get(root, ())), stab)
            _assert_heights(Y, cyl)
            out.append(cyl)
    return out


def _assert_heights(Y, cyl):
    """Every cylinder contains an edge of every height for each of its
    labels."""
    for u in cyl.label:
        heights = {e.j for e in cyl.edges if e.label == u}
        if heights != set(range(Y.N)):
            raise InternalError(
                f"cylinder over {sorted(map(str, cyl.label))} misses heights "
                f"for label {u}"
            )


def cylinder_classes(Y, label):
    """Partition of the edges with a given base-vertex label by the
    equivalence generated by co-membership in a cylinder."""
    cyls = [c for c in cylinders(Y) if label in c.label]
    return _cylinder_classes(Y, label, cyls)


def _cylinder_classes(Y, label, cyls):
    edges = [e for e in Y.edges if e.label == label]
    uf = _UnionFind(edges)
    for c in cyls:
        members = [e for e in c.edges if e.label == label]
        for e in members[1:]:
            uf.union(members[0], e)
    classes = {}
    for e in edges:
        classes.setdefault(uf.find(e), set()).add(e)
    return [frozenset(v) for v in classes.values()]


def orbit_characterization_holds(Y, label):
    """For each fixed-height edge, its class members at the same height
    must form the orbit of the subgroup generated by the stabilizers of
    the cylinders through it."""
    cyls = [c for c in cylinders(Y) if label in c.label]
    for cls in _cylinder_classes(Y, label, cyls):
        e0 = next(iter(cls))
        through = [c for c in cyls if e0 in c.edges]
        gen = {Y.Q.identity()}
        frontier = {Y.Q.identity()}
        gens = {q for c in through for q in c.stabilizer}
        while frontier:
            nxt = set()
            for a in frontier:
                for b in gens:
                    x = a * b
                    if x not in gen:
                        gen.add(x)
                        nxt.add(x)
            frontier = nxt
        orbit = {Y.translate_edge(e0, q) for q in gen}
        same_height = {e for e in cls if e.j == e0.j}
        if orbit != same_height:
            return False
    return True


# ---------------------------------------------------------------------------
# shift stabilization


@dataclass
class ShiftReport:
    stable_wrap: int
    multiplier: int           # stable_wrap / N0
    pattern: tuple
    shift_permutation: dict   # hyperplane index -> hyperplane index
    preserves_each: bool
    special: bool


def vertical_shift_permutation(Y, planes, step=None):
    """The permutation induced on hyperplanes by the height shift
    j -> j + step (default: the period of S); theta is invariant under
    that shift, so the map sends cells to cells."""
    if step is None:
        step = Y.presentation.S.modulus
    index_of = {}
    for h in planes:
        for e in h.edges:
            index_of[e] = h.index
    perm = {}
    for h in planes:
        e = next(iter(h.edges))
        shifted = Edge((e.j + step) % Y.N, e.label, e.q)
        perm[h.index] = index_of[shifted]
    return perm


def shift_stable_period(pres, quotient, N0):
    """Build the wrapped complex at N0, 2*N0, 4*N0, ... until the
    specialness pattern (per-label hyperplane counts, self-osculating
    labels, inter-osculating label pairs) stabilizes between consecutive
    wraps, building at most four complexes (links are not revalidated);
    report the stable wrap, the vertical-shift permutation of hyperplanes
    there, and whether the shift preserves each hyperplane."""
    prev = None
    N = N0
    for _ in range(4):
        Y = build_quotient(pres, quotient, N, validate_links=False)
        rep = specialness(Y)
        pat = rep.pattern()
        if prev is not None and pat == prev[1]:
            stable_Y, stable_rep = prev[0], prev[2]
            planes = hyperplanes(stable_Y)
            perm = vertical_shift_permutation(stable_Y, planes)
            return ShiftReport(
                stable_wrap=stable_Y.N,
                multiplier=stable_Y.N // N0,
                pattern=prev[1],
                shift_permutation=perm,
                preserves_each=all(k == v for k, v in perm.items()),
                special=stable_rep.special,
            )
        prev = (Y, pat, rep)
        N *= 2
    raise CubicalError(f"pattern did not stabilize within 4 doublings from {N0}")
