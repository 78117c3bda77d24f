"""Compact wrapped quotient cube complexes.

Given a verified abelian quotient theta of the edge-generated group and a
wrap period N (a multiple of the quotient's period, lcm(period of S,
orders of the theta images)), this module builds a finite square complex
whose vertices, edges, and squares are parametrized by explicit group
data:

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
(j |E(L)| + b) |Q| + q of ``squares``.  The ends of an edge and the sides
of a square are int lists, filled from translation tables, so no cell
needs a group product; hyperplanes, kept with each edge's plane index,
and cylinders are unions over those lists.  No cell keeps incidence
lists: the squares at a vertex are read off only where a link is built,
the square at q over a base edge having each corner at the coset of q
plus an offset fixed for that height and base edge.

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
the link certificate.  Its link must be the doubled derived graph of L
under the voltages rho_j eta (Gross and Tucker, "Topological Graph
Theory", 1987, 2.1): the vertices V(L) x P_j x {+1, -1}, and for every
base edge {a, b}, offset x in P_j and signs s, t the edge
{((a, x), s), ((b, x + rho_j(eta(a, b))), t)}.  It is the doubled base
S(L) where P_j is trivial (every height in S), the doubled total space
S(M) of the cover, each vertex (u, g) renamed (u, rho_j(g h(u)^-1)) with
h(u) the deck element of the chosen lift of u, where rho_j is injective,
and otherwise the doubling of M / ker rho_j.  The parametrization
predicts the map onto it, in Q coordinates:

* (j, u, q') up      -> ((u, r - q'), +1),
* (j-1, u, q'') down -> ((u, r - q'' - tau(u)), -1),

and where P_j is trivial the offset is forced, so an end maps by its
label alone.  The certificate checks that the map is a bijection onto
the vertices, that every link edge over a base edge {a, b} joins offsets
x_b = x_a + rho_j(eta(a, b)), and that the link has all
4 |E(L)| |P_j| edges; a mismatch names the link end or link edge.

The same translation skips most of the osculation scan.  It permutes the
vertices of a height, carries the link of one onto the link of the other
and hyperplanes onto hyperplanes, and keeps the squares, so it carries an
osculating contact to an osculating contact and keeps whether its two
edges lie in one hyperplane and whether they cross locally.  So if no
contact at the first vertex of a height is a self- or inter-osculation, no
contact at any vertex of that height is one.  The scan visits the first
vertex of each height and goes on to the other vertices of that height
only when the first has such a contact.  At a vertex the link ends,
sorted by name, are bucketed by hyperplane, and an end is paired only
with the later ends of its own hyperplane in its role and of hyperplanes
crossing it locally both ways.  A hyperplane or pair with a witness is
skipped, unless the vertex must still settle whether the other vertices
of its height are visited.  So every witness is the first in scan order.

Hyperplanes, the four specialness pathologies, cylinders and their
stabilizers, and the vertical-shift stabilization analysis all operate on
this finite model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CubicalError, InternalError
from .groups import AbelianGroup, subgroup_closure
from .quotients import FiniteQuotient, kernel_torsion_free


@dataclass(frozen=True, init=False)
class Edge:
    """A vertical edge of the wrapped complex: height of its bottom end,
    base-vertex label, and torsor coordinate in Q."""

    j: int
    label: object
    q: object  # AbelianElement

    def __init__(self, j, label, q):
        # edges are the members of hyperplanes and cylinders, so hash
        # each one once; a frozen instance is filled in through its dict
        d = self.__dict__
        d["j"], d["label"], d["q"], d["_hash"] = j, label, q, hash((j, label, q))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild rather than copy the cached hash, which differs between
        # processes for string labels
        return Edge, (self.j, self.label, self.q)

    def __repr__(self):
        return f"E(j={self.j},{self.label},{self.q.coords})"


@dataclass(frozen=True, init=False)
class Square:
    """A square recorded by its four sides; e1/e4 share one label, e2/e3
    the other; e1, e2 are the lower sides."""

    e1: Edge
    e2: Edge
    e3: Edge
    e4: Edge

    def __init__(self, e1, e2, e3, e4):
        d = self.__dict__
        d["e1"], d["e2"], d["e3"], d["e4"] = e1, e2, e3, e4

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


# the most edges a complex may have: the group layer's bound on every
# enumeration (cayley_walk, _TABLE_BOUND)
_EDGE_BOUND = 10 ** 6


class QuotientCubeComplex:
    def __init__(self, pres, quotient, N):
        self.presentation = pres
        self.quotient = quotient
        self.N = N
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
        if self.N < 1 or self.N % quotient.period:
            raise CubicalError(
                f"wrap N={self.N} must be a positive multiple of "
                f"lcm(period(S), orders of the theta images) = "
                f"{quotient.period}"
            )
        N = self.N
        cover = pres.cover
        L = pres.L
        factors = self.Q.factors
        size = N * len(L.vertices) * self.Q.order
        if size > _EDGE_BOUND:
            raise CubicalError(
                f"wrap N={N} over |Q|={self.Q.order} needs {size} edges, "
                f"more than the builder's bound of {_EDGE_BOUND}")

        # the index of Q and of the base vertices
        elements = self._elements = list(self.Q.elements())
        self._index = {q.coords: i for i, q in enumerate(elements)}
        self._label_index = {u: i for i, u in enumerate(L.vertices)}
        nQ, nV = len(elements), len(L.vertices)

        self.rho, self.P = {}, {}  # height -> rho_j, its image P_j
        for j in range(N):
            self.rho[j], self.P[j] = quotient.rho(j)
            if j in S and self.P[j].order != 1:
                raise InternalError("P_j nontrivial at a height in S")
        self.tau = quotient.tau
        self._tau_shift = [_translation(factors, self.tau[u].coords)
                           for u in L.vertices]

        # vertices: cosets Q/P_j, each named by its least element, which is
        # the first one met in index order
        self.vertices = []
        self._height_start = []  # height -> position of its first vertex
        self._vertex_at = []     # height -> Q position -> vertex position
        self._members = []       # vertex position -> its Q positions
        for j in range(N):
            cosets = [_translation(factors, p.coords)
                      for p in self.P[j].elements]
            owner = [-1] * nQ
            self._height_start.append(len(self.vertices))
            for x in range(nQ):
                if owner[x] < 0:
                    coset = sorted(shift[x] for shift in cosets)
                    for y in coset:
                        owner[y] = len(self.vertices)
                    self._members.append(coset)
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

        # squares, one per (height, base edge, torsor coordinate), as the
        # positions of their sides; _corners holds, per (height, base
        # edge), the Q positions of 0, -tau(u), -d2 - tau(u') and
        # -d3 - tau(u'): the squares with their k-th corner at the vertex
        # through q are those at the coset of q plus the k-th of them
        self._minus_tau = [shift.index(0) for shift in self._tau_shift]
        self._sides = []
        self._corners = []
        tables = {}  # the offsets read rho_j, so they repeat with the period
        for j in range(N):
            j1 = (j + 1) % N
            for base_edge in L.edges():
                u, u2 = sorted(base_edge, key=L.vertex_position)
                a, b = self._label_index[u], self._label_index[u2]
                key = (j % quotient.period, a, b)
                if key not in tables:
                    eta = cover.eta[(u, u2)]
                    d2 = self.rho[j][eta].inverse()
                    d3 = self.tau[u] * self.rho[j1][eta].inverse()
                    d4 = self.tau[u2] * self.rho[1 % N][eta]
                    t2, t3, t4 = (_translation(factors, d.coords)
                                  for d in (d2, d3, d4))
                    down = self._minus_tau[b]
                    tables[key] = t2, t3, t4, (0, self._minus_tau[a],
                                               t2.index(down), t3.index(down))
                t2, t3, t4, corners = tables[key]
                self._corners.append(corners)
                o1, o2 = (j * nV + a) * nQ, (j * nV + b) * nQ
                o3, o4 = (j1 * nV + b) * nQ, (j1 * nV + a) * nQ
                squares = list(zip(range(o1, o1 + nQ), [o2 + x for x in t2],
                                   [o3 + x for x in t3], [o4 + x for x in t4]))
                self._check_squares(squares)
                if a == b:
                    raise InternalError("adjacent square sides share a label")
                self._sides.extend(squares)
        edges = self.edges
        self.squares = [Square(edges[p1], edges[p2], edges[p3], edges[p4])
                        for p1, p2, p3, p4 in self._sides]
        self._planes = None    # the hyperplanes, computed on first request
        self._plane_at = None  # with them: edge position -> plane index
        self._links = {}       # vertex position -> link, built on first read

    def _check_squares(self, squares):
        # lower sides share the bottom corner; vertical sides close up
        bottom, top = self._bottom, self._top
        meet = [(bottom[s1], top[s1], top[s2], top[s3])
                for s1, s2, s3, s4 in squares]
        other = [(bottom[s2], bottom[s3], bottom[s4], top[s4])
                 for s1, s2, s3, s4 in squares]
        if meet != other:
            k = next(k for a, b in zip(meet, other) if a != b
                     for k in range(4) if a[k] != b[k])
            raise InternalError("square corners do not close " + (
                "at the bottom", "on the left", "on the right", "at the top")[k])

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
        start = self._height_start
        return {
            "vertices_per_height": {j: start[j + 1] - start[j]
                                    for j in range(self.N)},
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
    kills."""
    Y = QuotientCubeComplex(pres, quotient, N)
    if require_torsion_free:
        tf, witness = kernel_torsion_free(quotient)
        if not tf:
            raise CubicalError(f"quotient kernel has torsion: {witness}")
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
# top of e3 and e4; each end of each side lies in exactly one corner, and
# the corners lie 0, 1, 1 and 2 heights above the square's bottom
_CORNERS = ((0 + _UP, 2 + _UP), (0 + _DOWN, 4 + _UP),
            (2 + _DOWN, 6 + _UP), (4 + _DOWN, 6 + _DOWN))
_RISE = (0, 1, 1, 2)

# the doubled complex a link must be, by its tag
_MODELS = {"S(L)": "the doubled base",
           "S(M)": "the doubled cover total space",
           "quotient-of-S(M)": "the doubled quotient of the cover total space"}


def _link(Y, v):
    """The link of the vertex at position v as adjacency sets over link
    ends, built once per complex: one link edge for each square corner at
    v, which the construction checks to close.  It reads only what the
    construction stored, never eta, P_j or tau, which the certificate
    reads afresh."""
    link = Y._links.get(v)
    if link is not None:
        return link
    nQ, nV, N = len(Y._elements), len(Y._label_index), Y.N
    nB = len(Y._corners) // N
    j, r = Y.vertices[v]
    x, at, members = Y._index[r.coords], Y._vertex_at[j], Y._members

    def coset(shift):
        # the Q positions of the coset of P_j through q_x + q_shift; x is
        # 0 at the first vertex of a height
        if x:
            e = Y._elements
            shift = Y._index[tuple((a + b) % f for a, b, f in zip(
                e[x].coords, e[shift].coords, Y.Q.factors))]
        return members[at[shift]]

    below = (j - 1) % N
    link = {2 * ((j * nV + u) * nQ + y) + _UP: set()
            for u in range(nV) for y in members[v]}
    link.update((2 * ((below * nV + u) * nQ + y) + _DOWN, set())
                for u in range(nV) for y in coset(Y._minus_tau[u]))
    sides = Y._sides
    for k, (a, b) in enumerate(_CORNERS):
        sa, ra, sb, rb = a >> 1, a & 1, b >> 1, b & 1
        height = (j - _RISE[k]) % N
        for i in range(height * nB, (height + 1) * nB):
            base = i * nQ
            for y in coset(Y._corners[i][k]):
                square = sides[base + y]
                end_a, end_b = 2 * square[sa] + ra, 2 * square[sb] + rb
                link[end_a].add(end_b)
                link[end_b].add(end_a)
    Y._links[v] = link
    return link


def _end(Y, end):
    """A link end as (edge, 'up' or 'down')."""
    return (Y.edges[end >> 1], _ROLE[end & 1])


def _link_tag(Y, j):
    """The doubled complex the links of height j must be: the base's where
    P_j is trivial, the cover total space's where rho_j is injective, and
    otherwise its quotient by the kernel of rho_j."""
    order = Y.P[j].order
    if order == 1:
        return "S(L)"
    if order == Y.presentation.cover.deck.order:
        return "S(M)"
    return "quotient-of-S(M)"


def _link_model(Y, j):
    """(P, slot, near): the doubled derived graph of height j, which reads
    the height only through rho_j and P_j.  P is P_j sorted, slot the
    place of an offset in P, and near[u nP + x] holds each u' nP + x' with
    x' = x + rho_j(eta(u, u')), rho_j(eta(a, b)) read once per directed
    base edge."""
    P = sorted(Y.P[j].elements, key=lambda x: x.coords)
    slot = {x.coords: i for i, x in enumerate(P)}
    rho, index, nP = Y.rho[j], Y._label_index, len(P)
    near = [set() for _ in range(len(index) * nP)]
    for (a, b), g in Y.presentation.cover.eta.items():
        ua, ub, d = index[a], index[b], rho[g].coords
        for x, q in enumerate(P):
            y = slot.get(tuple((c + e) % f for c, e, f in
                               zip(q.coords, d, Y.Q.factors)))
            if y is not None:
                near[ua * nP + x].add(ub * nP + y)
    return P, slot, near


def _link_mismatch(Y, v, link, tag, model=None):
    """None when the link at the vertex at position v is the doubled
    derived graph the module docstring describes, through the map it
    predicts; otherwise the reason, naming the link end or link edge that
    does not match.  ``model`` is the height's _link_model, built here
    when not given."""
    labels = Y.presentation.L.vertices
    nQ, nV, factors = len(Y._elements), len(labels), Y.Q.factors
    j, r = Y.vertices[v]
    P, slot, near = model or _link_model(Y, j)
    nP, trivial = len(P), tag == "S(L)"

    def image(i):
        """The vertex of the doubled complex with id i."""
        u, x = divmod(i >> 1, nP)
        return (labels[u] if trivial else (labels[u], P[x]), _SIGN[i & 1])

    # ends to vertex ids 2 (u nP + x) + sign bit, x the place of the offset
    # in P; where P_j is trivial the offset is forced and not read
    tau = [Y.tau[u].coords for u in labels]
    no_shift = (0,) * len(factors)
    id_of, back = {}, {}
    for end in link:
        p = end >> 1
        u = p // nQ % nV
        x = 0
        if not trivial:
            offset = tuple(
                (a - b - c) % f for a, b, c, f in
                zip(r.coords, Y._elements[p % nQ].coords,
                    no_shift if end & 1 else tau[u], factors))
            x = slot.get(offset)
            if x is None:
                image_end = ((labels[u], Y.Q.element(offset)), _SIGN[end & 1])
                return (f"link end {_end(Y, end)} maps to {image_end}, not "
                        f"a vertex of {tag}")
        i = 2 * (u * nP + x) + (end & 1)
        if i in back:
            return (f"link ends {_end(Y, back[i])} and {_end(Y, end)} both "
                    f"map to {image(i)}")
        id_of[end] = i
        back[i] = end
    if len(back) != 2 * nV * nP:
        missing = min((image(i) for i in range(2 * nV * nP) if i not in back),
                      key=repr)
        return f"no link end maps to the vertex {missing} of {tag}"

    hits = 0
    for a, ends in link.items():
        expected = near[id_of[a] >> 1]
        for b in ends:
            if id_of[b] >> 1 not in expected:
                return (f"link edge {_end(Y, a)} -- {_end(Y, b)} maps to "
                        f"{image(id_of[a])} -- {image(id_of[b])}, not an "
                        f"edge of {tag}")
        hits += len(ends)
    # every end meets two ends over each neighbour of its label
    if hits == 4 * nP * len(Y.presentation.cover.eta):
        return None
    model = {frozenset((2 * n + s, 2 * m + t)) for n, ms in enumerate(near)
             for m in ms for s in (0, 1) for t in (0, 1)}
    model -= {frozenset((id_of[a], id_of[b])) for a, ends in link.items()
              for b in ends}
    if not model:
        return None
    x, y = min((sorted(e, key=lambda i: repr(image(i))) for e in model),
               key=lambda e: repr([image(i) for i in e]))
    return (f"no link edge {_end(Y, back[x])} -- {_end(Y, back[y])} over "
            f"the edge {image(x)} -- {image(y)} of {tag}")


def vertex_link(Y, v):
    """(link, tag): the link as adjacency sets over edge-ends
    ((edge, 'up') for edges rising from v, (edge, 'down') for edges
    arriving at v), and the doubled complex the certificate shows it to
    be: 'S(L)' for the doubled base (P_j trivial), 'S(M)' for the doubled
    cover total space (rho_j injective), 'quotient-of-S(M)' for its
    quotient by the kernel of rho_j (otherwise), each certified, and
    'unknown' when the certificate fails."""
    i = Y.vertex_position(v)
    link = _link(Y, i)
    tag = _link_tag(Y, v[0])
    if _link_mismatch(Y, i, link, tag) is not None:
        tag = "unknown"
    named = {_end(Y, end): {_end(Y, b) for b in near}
             for end, near in link.items()}
    return named, tag


def _validate_all_links(Y):
    """Certify the link at the first vertex of each height against the
    doubled complex its tag names.  Translation by Q, asserted during
    construction, carries it to the other vertices of that height.  The
    heights that share the objects rho_j and P_j share their model, built
    afresh on each call."""
    models = {}
    for j in range(Y.N):
        v = Y._height_start[j]
        tag = _link_tag(Y, j)
        key = id(Y.rho[j]), id(Y.P[j])
        if key not in models:
            models[key] = _link_model(Y, j)
        reason = _link_mismatch(Y, v, _link(Y, v), tag, models[key])
        if reason is not None:
            raise InternalError(
                f"link at {Y.vertices[v]} is not {_MODELS[tag]}: {reason}")


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
    each class is reported once, with two-sidedness asserted.  The classes
    are computed once per complex, with the index of each edge's class by
    its position; each call returns a new list."""
    if Y._planes is None:
        Y._planes, Y._plane_at = _hyperplanes(Y)
    return list(Y._planes)


def _hyperplanes(Y):
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
    out, plane_at = [], [0] * len(Y.edges)
    for i, members in enumerate(classes):
        kinds = {p // nQ % nV for p in members}
        if len(kinds) != 1:
            raise InternalError("hyperplane with mixed labels")
        out.append(Hyperplane(i, frozenset(Y.edges[p] for p in members),
                              labels[kinds.pop()], positions=tuple(members)))
        for p in members:
            plane_at[p] = i
    return out, plane_at


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
    plane_at = Y._plane_at
    report = SpecialnessReport(wrap=Y.N, counts=hyperplane_counts(planes),
                               planes=planes)
    per_height = len(Y._elements) * len(Y._label_index)

    # two-sidedness: a square never has opposite sides with opposite
    # vertical direction in this model; assert the stronger statement that
    # opposite sides sit at the same height offset pattern.  Opposite sides
    # lie in one hyperplane, so the four pairs of adjacent sides each pair
    # h1 (of s1, s4) with h2 (of s2, s3): self-intersections, one per pair,
    # and per edge the hyperplanes of its adjacent sides (local crossings)
    adjacent_planes = [set() for _ in Y.edges]
    for sq, (s1, s2, s3, s4) in zip(Y.squares, Y._sides):
        if s1 // per_height != s2 // per_height or (
                s3 // per_height != s4 // per_height):
            report.non_two_sided.append(sq)
        h1, h2 = plane_at[s1], plane_at[s2]
        adjacent_planes[s1].add(h2)
        adjacent_planes[s4].add(h2)
        adjacent_planes[s2].add(h1)
        adjacent_planes[s3].add(h1)
        if h1 == h2:
            report.self_intersections.extend([(planes[h1], sq)] * 4)

    names = {}
    seen = set()  # the planes and plane pairs with a witness

    def name(end):
        p = end >> 1
        if p not in names:
            names[p] = repr(Y.edges[p])
        return names[p], end & 1

    def scan(v, settle):
        """Record the first witness, in scan order, of each osculation at
        the vertex at position v that has none yet.  With ``settle``, tell
        whether v has any osculation, recorded before or not: a plane or
        pair with a witness is then skipped only once v has one."""
        link = _link(Y, v)
        ends = sorted(link, key=name)
        bucket = {}  # plane -> the places of its ends in ``ends``
        for i, end in enumerate(ends):
            bucket.setdefault(plane_at[end >> 1], []).append(i)
        found = False
        for i, end1 in enumerate(ends):
            e1, linked = end1 >> 1, link[end1]
            h1 = plane_at[e1]
            # a self-osculation pairs ends of one plane in the same role
            # (the same direction toward v), an inter-osculation ends of
            # two planes that cross locally at both edges
            for h2 in (h1, *adjacent_planes[e1]):
                key = h1 if h2 == h1 else (h1, h2) if h1 < h2 else (h2, h1)
                if h2 not in bucket or key in seen and (found or not settle):
                    continue
                for k in bucket[h2]:
                    end2 = ends[k]
                    if k <= i or end2 in linked or (
                            (end1 ^ end2) & 1 if h2 == h1
                            else h1 not in adjacent_planes[end2 >> 1]):
                        continue
                    found = True
                    if key not in seen:
                        seen.add(key)
                        witness = (Y.edges[e1], Y.edges[end2 >> 1])
                        if h2 == h1:
                            report.self_osculations.append(
                                (planes[h1], witness))
                        else:
                            report.inter_osculations.append(
                                ((planes[h1], planes[h2]), witness))
                    break
        return found

    starts = Y._height_start
    for j in range(Y.N):
        more = starts[j + 1] - starts[j] > 1
        if scan(starts[j], more) and more:
            for v in range(starts[j] + 1, starts[j + 1]):
                scan(v, False)
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
    e0 + q lies in C.  The first component over a simplex has an edge of
    every height for each label (asserted), so every other one is a
    translate of it and shares its stabilizer, computed once per simplex."""
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
        stab = None
        for root, members in _classes(parent, member_edges).items():
            if stab is None:
                # the first component: q stabilizes it when q_p - q_p0 = q
                # for an edge p in the block of its first edge p0
                _assert_heights(Y, simplex, members)
                block, x0 = divmod(members[0], nQ)
                shift = Y._elements[x0].inverse()
                stab = frozenset(Y._elements[p % nQ] * shift for p in members
                                 if p // nQ == block)
            out.append(Cylinder(
                frozenset(simplex), frozenset(Y.edges[p] for p in members),
                tuple(Y.squares[s] for s in squares_in.get(root, ())),
                stab, positions=tuple(members)))
    return out


def _assert_heights(Y, simplex, members):
    """The component with the edge positions ``members`` contains an edge
    of every height for each label of ``simplex``."""
    nQ, nV = len(Y._elements), len(Y._label_index)
    for u in simplex:
        i = Y._label_index[u]
        heights = {p // (nQ * nV) for p in members if p // nQ % nV == i}
        if heights != set(range(Y.N)):
            raise InternalError(
                f"cylinder over {sorted(map(str, simplex))} misses heights "
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
    plane_at = Y._plane_at
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
