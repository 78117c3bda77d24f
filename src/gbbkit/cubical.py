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

Every cell is addressed by its position.  Q is indexed once, in
``Q.elements()`` order, and translation by an element d is the table of
positions of q + d over that index.  Edge (j, u, q) sits at position
(j |V(L)| + u) |Q| + q of ``edges`` (u and q by their positions), and the
square with lower-left side (j, u, q) over the b-th base edge at
(j |E(L)| + b) |Q| + q of ``squares``.  The ends of an edge, the sides of
a square and the squares at an edge are int lists, filled from translation
tables, so no cell needs a group product; hyperplanes and cylinders are
unions over those lists.

Q acts on the complex by translating the torsor coordinate,
(j, u, q') -> (j, u, q' + q).  The construction makes this an
automorphism: for each height and base edge, the lower-left side of a
square runs over Q exactly once, and every other side is read from a
fixed translation table, so it sits at the same offset from the
lower-left side in every square.  Translation therefore maps squares to
squares, and it acts transitively on the cosets Q/P_j, the vertices of
height j.  Links and the four specialness pathologies are local and
invariant under automorphisms (Haglund and Wise, "Special cube
complexes", GAFA 18, 2008), so one vertex v = (j, r) per height carries
the link certificate.  Its link must be the doubled base complex S(L)
(height in S) or the doubled total space S(M) of the cover (height
outside S, rho_j injective), through the map the parametrization
predicts:

* height in S:  (e, up) -> (label(e), +1),  (e, down) -> (label(e), -1);
* otherwise:    (j, u, q') up      -> ((u, rho_j^-1(r - q')), +1),
                (j-1, u, q'') down -> ((u, rho_j^-1(r - q'' - tau(u))), -1),
  onto S(M) with each vertex (u, g) of the cover renamed (u, g h(u)^-1),
  h(u) the deck element of the chosen lift of u.

The doubled complexes enter only through their 1-skeletons, which have a
closed form: the vertices V x {+1, -1} and, for every edge {a, b}, the four
edges {(a, s), (b, t)}.  The certificate checks that the map is a
bijection onto those vertices and that the edge sets are equal; a mismatch
names the link edge.  Heights outside S where rho_j is not injective are
unchecked.  They occur exactly when the kernel has torsion, and
``build_quotient`` refuses such a quotient on request.

The same translation skips most of the osculation scan.  It permutes the
vertices of a height, carries the link of one onto the link of the other
and hyperplanes onto hyperplanes, and keeps the squares, so it carries an
osculating contact to an osculating contact and keeps whether its two
edges lie in one hyperplane and whether they cross locally.  So if no
contact at the first vertex of a height is a self- or inter-osculation, no
contact at any vertex of that height is one.  The scan visits the first
vertex of each height and goes on to the other vertices of that height
only when the first has such a contact, which keeps the scan order, and so
every witness, unchanged.

Hyperplanes, the four specialness pathologies, cylinders and their
stabilizers, and the vertical-shift stabilization analysis all operate on
this finite model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .errors import CubicalError, InternalError
from .groups import AbelianGroup, subgroup_closure
from .quotients import FiniteQuotient, stabilizer_image


@dataclass(frozen=True)
class Edge:
    """A vertical edge of the wrapped complex: height of its bottom end,
    base-vertex label, and torsor coordinate in Q."""

    j: int
    label: object
    q: object  # AbelianElement

    def __post_init__(self):
        # edges are the members of hyperplanes and cylinders, so hash
        # each one once
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


def _translation(factors, shift):
    """Translation by the element with coordinates ``shift``, as the list
    of positions of q + shift over q in ``elements()`` order."""
    table = [0]
    for f, c in zip(factors, shift):
        digits = [(x + c) % f for x in range(f)]
        table = [t * f + d for t in table for d in digits]
    return table


def _unite(parent, positions):
    """Put ``positions`` into one class of the union-find over the list
    ``parent``, halving the paths it walks."""
    root = None
    for p in positions:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        if root is None:
            root = p
        elif p != root:
            parent[p] = root


def _difference(Y, x, y):
    """The element q_x - q_y of Q, for Q positions x and y."""
    elements = Y._elements
    return elements[Y._index[tuple(
        (a - b) % f for a, b, f in zip(elements[x].coords, elements[y].coords,
                                       Y.Q.factors))]]


def _label_positions(Y, u):
    """The positions of the edges with the u-th label, ascending."""
    nQ, nV = len(Y._elements), len(Y._label_index)
    return [p for j in range(Y.N)
            for p in range((j * nV + u) * nQ, (j * nV + u + 1) * nQ)]


def _find(parent, p):
    while parent[p] != p:
        parent[p] = p = parent[parent[p]]
    return p


def _classes(parent, positions):
    """The union-find classes met by ``positions``, each listed in that
    order, keyed by their roots and ordered by their first member."""
    classes = {}
    for p in positions:
        classes.setdefault(_find(parent, p), []).append(p)
    return classes


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
        factors = self.Q.factors

        # the index of Q and of the base vertices
        elements = self._elements = list(self.Q.elements())
        self._index = {q.coords: i for i, q in enumerate(elements)}
        self._label_index = {u: i for i, u in enumerate(L.vertices)}
        nQ, nV = len(elements), len(L.vertices)

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
            val = ident
            for e in cover.path_words[u]:
                val = val * quotient.theta[e]
            self.tau[u] = val
        self._tau_shift = [_translation(factors, self.tau[u].coords)
                           for u in L.vertices]

        # vertices: cosets Q/P_j, each named by its least element, which is
        # the first one met in index order
        self.vertices = []
        self._height_start = []  # height -> position of its first vertex
        self._vertex_at = []     # height -> Q position -> vertex position
        for j in range(N):
            cosets = [_translation(factors, p.coords) for p in self.P[j]]
            owner = [-1] * nQ
            self._height_start.append(len(self.vertices))
            for x in range(nQ):
                if owner[x] < 0:
                    for shift in cosets:
                        owner[shift[x]] = len(self.vertices)
                    self.vertices.append((j, elements[x]))
            self._vertex_at.append(owner)
        self._height_start.append(len(self.vertices))

        # edges and the vertex positions of their ends
        self.edges = [Edge(j, u, q) for j in range(N) for u in L.vertices
                      for q in elements]
        self._bottom, self._top = [], []
        for j in range(N):
            here, above = self._vertex_at[j], self._vertex_at[(j + 1) % N]
            for shift in self._tau_shift:
                self._bottom.extend(here)
                self._top.extend([above[x] for x in shift])
        self._ups = [[] for _ in self.vertices]    # edges rising from v
        self._downs = [[] for _ in self.vertices]  # edges arriving at v
        for p, (b, t) in enumerate(zip(self._bottom, self._top)):
            self._ups[b].append(p)
            self._downs[t].append(p)

        # squares, one per (height, base edge, torsor coordinate), as the
        # positions of their sides; _squares_at lists 4 s + k for each
        # square s with the edge as its side k
        self._sides = []
        self._squares_at = [[] for _ in self.edges]
        for j in range(N):
            j1 = (j + 1) % N
            for base_edge in L.edges():
                u, u2 = sorted(base_edge, key=L.vertex_position)
                eta = cover.eta[(u, u2)]
                a, b = self._label_index[u], self._label_index[u2]
                d2 = self.rho[j][eta].inverse()
                d3 = self.tau[u] * self.rho[j1][eta].inverse()
                d4 = self.tau[u2] * self.rho[1 % N][eta]
                t2, t3, t4 = (_translation(factors, d.coords)
                              for d in (d2, d3, d4))
                o1, o2 = (j * nV + a) * nQ, (j * nV + b) * nQ
                o3, o4 = (j1 * nV + b) * nQ, (j1 * nV + a) * nQ
                for x in range(nQ):
                    sides = (o1 + x, o2 + t2[x], o3 + t3[x], o4 + t4[x])
                    self._check_square(sides)
                    s = 4 * len(self._sides)
                    self._sides.append(sides)
                    for k, p in enumerate(sides):
                        self._squares_at[p].append(s + k)
        edges = self.edges
        self.squares = [Square(edges[p1], edges[p2], edges[p3], edges[p4])
                        for p1, p2, p3, p4 in self._sides]

    def _check_square(self, sides):
        # lower sides share the bottom corner; vertical sides close up
        s1, s2, s3, s4 = sides
        bottom, top = self._bottom, self._top
        if bottom[s1] != bottom[s2]:
            raise InternalError("square corners do not close at the bottom")
        if top[s1] != bottom[s3]:
            raise InternalError("square corners do not close on the left")
        if top[s2] != bottom[s4]:
            raise InternalError("square corners do not close on the right")
        if top[s3] != top[s4]:
            raise InternalError("square corners do not close at the top")
        nQ, nV = len(self._elements), len(self._label_index)
        if (s1 // nQ - s2 // nQ) % nV == 0:
            raise InternalError("adjacent square sides share a label")

    # -- incidence -------------------------------------------------------
    def position(self, e):
        """The position of the edge e in ``edges``."""
        return ((e.j * len(self._label_index) + self._label_index[e.label])
                * len(self._elements) + self._index[e.q.coords])

    def vertex_position(self, v):
        """The position of the vertex v = (j, r) in ``vertices``."""
        j, r = v
        return self._vertex_at[j][self._index[r.coords]]

    def bottom(self, e):
        return self.vertices[self._bottom[self.position(e)]]

    def top(self, e):
        return self.vertices[self._top[self.position(e)]]

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
    failure is an internal construction trap, not a data error.

    With ``require_torsion_free`` a kernel with torsion is refused, with
    the witness ``kernel_torsion_free`` names: the least height j outside
    S where rho_j is not injective, and the first deck element rho_j
    kills.  N is a multiple of that check's modulus, so the heights of Y
    cover it."""
    Y = QuotientCubeComplex(pres, quotient, N)
    if require_torsion_free:
        identity = pres.cover.deck.identity
        for j in range(N):
            if j not in pres.S and not _injective(Y, j):
                g = next(g for g, v in Y.rho[j].items()
                         if v.is_identity() and g != identity)
                raise CubicalError(f"quotient kernel has torsion: {(j, g)}")
    if validate_links:
        _validate_all_links(Y)
    return Y


# ---------------------------------------------------------------------------
# links

# a link end is 2 p + 1 for the edge at position p rising from the vertex
# and 2 p for the edge arriving at it
_UP, _DOWN = 1, 0
_ROLE = ("down", "up")
_SIGN = (-1, 1)

# the corners of a square pair side ends, written 2 k + role for side k:
# bottom of e1 and e2, top of e1 = bottom of e3, top of e2 = bottom of e4,
# top of e3 and e4; each end of each side lies in exactly one corner
_CORNERS = ((0 + _UP, 2 + _UP), (0 + _DOWN, 4 + _UP),
            (2 + _DOWN, 6 + _UP), (4 + _DOWN, 6 + _DOWN))
_PARTNER = {a: b for corner in _CORNERS for a, b in (corner, corner[::-1])}


def _link(Y, v):
    """The link of the vertex at position v as adjacency sets over link
    ends; link edges come from the four corners of each square at v.  The
    corner through an end at v lies at v, because the construction checks
    that every square's corners close."""
    link = {2 * p + _UP: set() for p in Y._ups[v]}
    link.update((2 * p + _DOWN, set()) for p in Y._downs[v])
    sides, at = Y._sides, Y._squares_at
    for end, near in link.items():
        role = end & 1
        for s in at[end >> 1]:
            other = _PARTNER[2 * (s & 3) + role]
            near.add(2 * sides[s >> 2][other >> 1] + (other & 1))
    return link


def _end(Y, end):
    """A link end as (edge, 'up' or 'down')."""
    return (Y.edges[end >> 1], _ROLE[end & 1])


def _doubled(Y, tag):
    """(vertices, edges) of the 1-skeleton of the doubled complex a link of
    type ``tag`` must equal: V x {+1, -1} and {(a, s), (b, t)} for each
    edge {a, b} and signs s, t, where V and the edges are those of L for
    'S(L)', and for 'S(M)' those of the cover's total space with each
    vertex (u, g) renamed (u, g h(u)^-1)."""
    if tag not in Y._link_models:
        cover = Y.presentation.cover
        if tag == "S(L)":
            K = Y.presentation.L
            name = {x: x for x in K.vertices}
        else:
            K = cover.total
            name = {(u, g): (u, g * cover.h[u].inverse())
                    for u, g in K.vertices}
        signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        Y._link_models[tag] = (
            frozenset((name[x], s) for x in K.vertices for s in (1, -1)),
            frozenset(frozenset(((name[a], s), (name[b], t)))
                      for a, b in K.edges() for s, t in signs),
        )
    return Y._link_models[tag]


def _predicted_map(Y, v, link, tag):
    """The map from the link at the vertex at position v onto the doubled
    complex that the parametrization predicts (see the module docstring);
    an end whose offset lies outside P_j maps to a deck element of
    None."""
    labels = Y.presentation.L.vertices
    nQ, nV = len(Y._elements), len(labels)
    if tag == "S(L)":
        return {end: (labels[(end >> 1) // nQ % nV], _SIGN[end & 1])
                for end in link}
    j, r = Y.vertices[v]
    deck_of = {x.coords: g for g, x in Y.rho[j].items()}
    out = {}
    for end in link:
        p = end >> 1
        u = labels[p // nQ % nV]
        reached = Y._elements[p % nQ].coords
        if not end & 1:
            reached = [a + b for a, b in zip(reached, Y.tau[u].coords)]
        offset = tuple((a - b) % f for a, b, f in
                       zip(r.coords, reached, Y.Q.factors))
        out[end] = ((u, deck_of.get(offset)), _SIGN[end & 1])
    return out


def _edge_id(a, b, n):
    return a * n + b if a < b else b * n + a


def _model_ids(Y, tag):
    """The doubled complex ``tag`` with integer ids: its vertices, a map
    from each to its id (its place in the vertices), and a map from the id
    of each edge (from the ids of its ends) to the edge.  An edge end off
    the vertices, in a damaged model, gets the id n = |vertices|, which no
    link end maps to."""
    nodes, edges = _doubled(Y, tag)
    ids = {x: i for i, x in enumerate(nodes)}
    n = len(ids)
    return nodes, ids, {_edge_id(*(ids.get(x, n) for x in e), n + 1): e
                        for e in edges}


def _link_mismatch(Y, v, link, tag, model):
    """None when the predicted map is an isomorphism from the link at the
    vertex at position v onto the doubled complex ``tag``, given as
    ``_model_ids(Y, tag)``; otherwise the reason, naming the link end or
    link edge that does not match."""
    nodes, ids, edges = model
    n = len(ids)
    phi = _predicted_map(Y, v, link, tag)
    id_of, back = {}, {}
    for end, image in phi.items():
        i = ids.get(image)
        if i is None:
            return (f"link end {_end(Y, end)} maps to {image}, not a vertex "
                    f"of {tag}")
        if i in back:
            return (f"link ends {_end(Y, back[i])} and {_end(Y, end)} both "
                    f"map to {image}")
        id_of[end] = i
        back[i] = end
    if len(back) != n:
        missing = min((x for x in nodes if ids[x] not in back), key=repr)
        return f"no link end maps to the vertex {missing} of {tag}"
    hit = set()
    for a, near in link.items():
        for b in near:
            i = _edge_id(id_of[a], id_of[b], n + 1)
            if i not in edges:
                return (f"link edge {_end(Y, a)} -- {_end(Y, b)} maps to "
                        f"{phi[a]} -- {phi[b]}, not an edge of {tag}")
            hit.add(i)
    if len(hit) != len(edges):
        x, y = min((sorted(e, key=repr) for i, e in edges.items()
                    if i not in hit), key=repr)
        return (f"no link edge {_end(Y, back[ids[x]])} -- "
                f"{_end(Y, back[ids[y]])} over the edge {x} -- {y} of {tag}")
    return None


def _injective(Y, j):
    return len(set(Y.rho[j].values())) == Y.presentation.cover.deck.order


def vertex_link(Y, v):
    """(link, tag): the link as adjacency sets over edge-ends
    ((edge, 'up') for edges rising from v, (edge, 'down') for edges
    arriving at v), and 'S(L)' for the doubled base or 'S(M)' for the
    doubled cover total space when the predicted map certifies it;
    otherwise 'quotient-of-S(M)' at heights outside S and 'unknown' at
    heights in S."""
    i = Y.vertex_position(v)
    link = _link(Y, i)
    j = v[0]
    if len(Y.P[j]) == 1 and _link_mismatch(
            Y, i, link, "S(L)", _model_ids(Y, "S(L)")) is None:
        tag = "S(L)"
    elif _injective(Y, j) and _link_mismatch(
            Y, i, link, "S(M)", _model_ids(Y, "S(M)")) is None:
        tag = "S(M)"
    elif j not in Y.presentation.S:
        tag = "quotient-of-S(M)"
    else:
        tag = "unknown"
    named = {_end(Y, end): {_end(Y, b) for b in near}
             for end, near in link.items()}
    return named, tag


def _validate_all_links(Y):
    """Certify the link at the first vertex of each height; translation by
    Q, asserted during construction, carries it to the other vertices of
    that height."""
    S = Y.presentation.S
    models = {}
    for j in range(Y.N):
        v = Y._height_start[j]
        if j in S:
            tag, name = "S(L)", "the doubled base"
        elif _injective(Y, j):
            tag, name = "S(M)", "the doubled cover total space"
        else:
            continue
        if tag not in models:
            models[tag] = _model_ids(Y, tag)
        reason = _link_mismatch(Y, v, _link(Y, v), tag, models[tag])
        if reason is not None:
            raise InternalError(
                f"link at {Y.vertices[v]} is not {name}: {reason}")


# ---------------------------------------------------------------------------
# hyperplanes


@dataclass
class Hyperplane:
    index: int
    edges: frozenset
    label: object
    two_sided: bool = True
    # the positions of the edges in Y.edges, ascending
    positions: tuple = field(default=(), repr=False, compare=False)

    def __repr__(self):
        return f"Hyperplane(#{self.index}, label={self.label}, size={len(self.edges)})"


def hyperplanes(Y):
    """Equivalence classes of edges under the opposite-sides-of-a-square
    relation.  Opposite sides always point the same vertical way, so the
    directed classes come in matched up/down pairs over the same edge set;
    each class is reported once, with two-sidedness asserted."""
    nQ = len(Y._elements)
    nV = len(Y._label_index)
    parent = list(range(len(Y.edges)))
    for s1, s2, s3, s4 in Y._sides:
        if (s1 // nQ - s4 // nQ) % nV or (s2 // nQ - s3 // nQ) % nV:
            raise InternalError("opposite square sides carry distinct labels")
        _unite(parent, (s1, s4))
        _unite(parent, (s2, s3))
    labels = Y.presentation.L.vertices
    names = [str(u) for u in labels]
    classes = sorted(_classes(parent, range(len(Y.edges))).values(),
                     key=lambda ps: (names[ps[0] // nQ % nV],
                                     ps[0] // (nQ * nV)))
    out = []
    for i, members in enumerate(classes):
        kinds = {p // nQ % nV for p in members}
        if len(kinds) != 1:
            raise InternalError("hyperplane with mixed labels")
        out.append(Hyperplane(i, frozenset(Y.edges[p] for p in members),
                              labels[kinds.pop()], positions=tuple(members)))
    return out


def _plane_at(Y, planes):
    """The hyperplane index of each edge, by position."""
    plane_at = [0] * len(Y.edges)
    for h in planes:
        for p in h.positions:
            plane_at[p] = h.index
    return plane_at


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
    # the hyperplanes the scan computed, indexed as in the witnesses
    planes: list = field(default_factory=list, repr=False, compare=False)

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
    adjacency at only one of the two.)  The other vertices of a height
    are scanned only when a contact at its first vertex is one of the
    osculations below (see the module docstring).

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
    plane_at = _plane_at(Y, planes)
    report = SpecialnessReport(wrap=Y.N, counts=hyperplane_counts(planes),
                               planes=planes)
    per_height = len(Y._elements) * len(Y._label_index)

    # two-sidedness: a square never has opposite sides with opposite
    # vertical direction in this model; assert the stronger statement that
    # opposite sides sit at the same height offset pattern
    for sq, (s1, s2, s3, s4) in zip(Y.squares, Y._sides):
        if s1 // per_height != s2 // per_height or (
                s3 // per_height != s4 // per_height):
            report.non_two_sided.append(sq)

    # self-intersection scan; also collect, per edge, the hyperplanes of
    # its adjacent square sides (the local crossing data)
    adjacent_planes = [set() for _ in Y.edges]
    for sq, (s1, s2, s3, s4) in zip(Y.squares, Y._sides):
        for a, b in ((s1, s2), (s1, s3), (s2, s4), (s3, s4)):
            ha, hb = plane_at[a], plane_at[b]
            adjacent_planes[a].add(hb)
            adjacent_planes[b].add(ha)
            if ha == hb:
                report.self_intersections.append((planes[ha], sq))

    names = {}
    seen_self = set()
    seen_inter = set()

    def name(end):
        p = end >> 1
        if p not in names:
            names[p] = repr(Y.edges[p])
        return names[p], end & 1

    def scan(v):
        """Record the osculations at the vertex at position v; True when
        it has any, recorded before or not."""
        link = _link(Y, v)
        ends = [(end, end >> 1, plane_at[end >> 1],
                 adjacent_planes[end >> 1]) for end in sorted(link, key=name)]
        found = False
        for i, (end1, e1, h1, crossing1) in enumerate(ends):
            linked = link[end1]
            for end2, e2, h2, crossing2 in ends[i + 1:]:
                if e1 == e2 or end2 in linked:
                    continue
                if h1 == h2:
                    # same direction toward v means same link role
                    if (end1 ^ end2) & 1 == 0:
                        found = True
                        if h1 not in seen_self:
                            seen_self.add(h1)
                            report.self_osculations.append(
                                (planes[h1], (Y.edges[e1], Y.edges[e2])))
                elif h2 in crossing1 and h1 in crossing2:
                    found = True
                    key = frozenset((h1, h2))
                    if key not in seen_inter:
                        seen_inter.add(key)
                        report.inter_osculations.append(
                            ((planes[h1], planes[h2]),
                             (Y.edges[e1], Y.edges[e2])))
        return found

    starts = Y._height_start
    for j in range(Y.N):
        if scan(starts[j]):
            for v in range(starts[j] + 1, starts[j + 1]):
                scan(v)
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
    # the positions of the member edges in Y.edges, ascending
    positions: tuple = field(default=(), repr=False, compare=False)

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
    N, nQ, nV = Y.N, len(Y._elements), len(Y._label_index)
    base_edges = {e: b for b, e in enumerate(L.edges())}
    nB = len(base_edges)
    out = []
    for simplex in sorted(L.simplices, key=lambda s: (len(s), sorted(map(str, s)))):
        labels = [Y._label_index[u] for u in simplex]
        member_edges = sorted(p for u in labels for p in _label_positions(Y, u))
        faces = sorted(base_edges[e] for e in base_edges if e <= simplex)
        member_squares = [s for j in range(N) for b in faces
                          for s in range((j * nB + b) * nQ,
                                         (j * nB + b + 1) * nQ)]
        parent = list(range(len(Y.edges)))
        if len(labels) == 1:
            (u,) = labels
            shift = Y._tau_shift[u]
            for p in member_edges:
                j1 = (p // (nV * nQ) + 1) % N
                _unite(parent, (p, (j1 * nV + u) * nQ + shift[p % nQ]))
        for s in member_squares:
            _unite(parent, Y._sides[s])
        squares_in = {}
        for s in member_squares:
            squares_in.setdefault(_find(parent, Y._sides[s][0]), []).append(s)
        for root, members in _classes(parent, member_edges).items():
            p0 = members[0]
            block, x0 = divmod(p0, nQ)
            stab = frozenset(_difference(Y, p % nQ, x0) for p in members
                             if p // nQ == block)
            cyl = Cylinder(frozenset(simplex),
                           frozenset(Y.edges[p] for p in members),
                           tuple(Y.squares[s] for s in squares_in.get(root, ())),
                           stab, positions=tuple(members))
            _assert_heights(Y, cyl)
            out.append(cyl)
    return out


def _assert_heights(Y, cyl):
    """Every cylinder contains an edge of every height for each of its
    labels."""
    nQ, nV = len(Y._elements), len(Y._label_index)
    for u in cyl.label:
        i = Y._label_index[u]
        heights = {p // (nQ * nV) for p in cyl.positions if p // nQ % nV == i}
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
    nQ, nV = len(Y._elements), len(Y._label_index)
    u = Y._label_index[label]
    positions = _label_positions(Y, u)
    parent = list(range(len(Y.edges)))
    for c in cyls:
        members = [p for p in c.positions if p // nQ % nV == u]
        if members:
            _unite(parent, members)
    return [frozenset(Y.edges[p] for p in members)
            for members in _classes(parent, positions).values()]


def orbit_characterization_holds(Y, label):
    """For each fixed-height edge, its class members at the same height
    must form the orbit of the subgroup generated by the stabilizers of
    the cylinders through it."""
    cyls = [c for c in cylinders(Y) if label in c.label]
    for cls in _cylinder_classes(Y, label, cyls):
        e0 = next(iter(cls))
        gens = {q for c in cyls if e0 in c.edges for q in c.stabilizer}
        generated = subgroup_closure(gens, identity=Y.Q.identity()).elements
        orbit = {Y.translate_edge(e0, q) for q in generated}
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


def vertical_shift_permutation(Y, planes):
    """The permutation induced on hyperplanes by the height shift by the
    period of S; theta is invariant under that shift, so the map sends
    cells to cells."""
    plane_at = _plane_at(Y, planes)
    shift = (Y.presentation.S.modulus * len(Y._elements)
             * len(Y._label_index))
    return {h.index: plane_at[(h.positions[0] + shift) % len(Y.edges)]
            for h in planes}


def shift_stable_period(Y, report):
    """Starting from the wrapped complex Y at wrap N0 and its specialness
    report, build the complex at 2*N0, 4*N0 and 8*N0, as far as needed,
    until the specialness pattern (per-label hyperplane counts,
    self-osculating labels, inter-osculating label pairs) stabilizes
    between consecutive wraps (links are not revalidated); report the
    stable wrap, the vertical-shift permutation of hyperplanes there, and
    whether the shift preserves each hyperplane."""
    N0, pattern = Y.N, report.pattern()
    for N in (2 * N0, 4 * N0, 8 * N0):
        Y2 = build_quotient(Y.presentation, Y.quotient, N,
                            validate_links=False)
        report2 = specialness(Y2)
        pattern2 = report2.pattern()
        if pattern2 == pattern:
            perm = vertical_shift_permutation(Y, report.planes)
            return ShiftReport(
                stable_wrap=Y.N,
                multiplier=Y.N // N0,
                pattern=pattern,
                shift_permutation=perm,
                preserves_each=all(k == v for k, v in perm.items()),
                special=report.special,
            )
        Y, report, pattern = Y2, report2, pattern2
    raise CubicalError(f"pattern did not stabilize within 4 doublings from {N0}")
