"""Finite regular covers of complexes, presented by deck-group edge
labellings.

A labelling assigns a deck element to each directed edge of the base,
antisymmetrically under reversal.  The total space has vertex set
(base vertex, deck element); walking a directed edge (u, u') from (u, g)
lands at (u', g * label(u, u')), so deck transformations (left
multiplication) commute with projection and act freely and transitively on
fibers.  A loop downstairs lifts to a loop exactly when the ordered
product of its labels is the identity.

The cover object also carries the base-lift bookkeeping that later
constructions need: a spanning tree with path words w_u to each vertex
and its fundamental cycles, one per non-tree edge, loop words gamma_g
realizing every deck element as the endpoint of a lifted loop, and the
deck elements eta(u, u') describing where the edge lift at the chosen
lifts lands, which are also the deck labels of the fundamental cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CoverError
from .groups import subgroup_closure
from .simplicial import SimplicialComplex, SimplicialMap


class RegularCover:
    def __init__(self, base, deck, labelling, base_vertex, total, h, path_words,
                 cycle_basis, loop_words, eta, connected, monodromy):
        self.base = base
        self.deck = deck
        self.labelling = labelling  # (u, u') -> deck element, both directions
        self.base_vertex = base_vertex
        self.total = total
        self.h = h  # u -> deck element of the chosen lift
        self.path_words = path_words  # u -> tuple of directed edges, v0 -> u
        # non-tree edge (a, b) -> its fundamental cycle, deck label eta[(a, b)]
        self.cycle_basis = cycle_basis
        self.loop_words = loop_words  # deck element -> tuple of directed edges
        self.eta = eta  # (u, u') -> deck element
        self.connected = connected
        self.monodromy = monodromy

    def label(self, u, v):
        return self.labelling[(u, v)]

    def lift_word(self, word, start=None):
        """Endpoint fiber element of the lift of a directed edge word."""
        g = self.deck.identity if start is None else start
        for (u, v) in word:
            g = g * self.labelling[(u, v)]
        return g

    def __repr__(self):
        return (
            f"RegularCover(base {len(self.base.vertices)} vertices, "
            f"deck order {self.deck.order}, connected={self.connected})"
        )


def _complete_labelling(L, labelling, deck):
    """Fill in reverses and default missing edges to the identity; check
    antisymmetry when both directions are supplied."""
    full = {}
    for e in L.edges():
        a, b = tuple(e)
        la = labelling.get((a, b))
        lb = labelling.get((b, a))
        if la is None and lb is None:
            la = deck.identity
            lb = deck.identity
        elif la is None:
            la = lb.inverse()
        elif lb is None:
            lb = la.inverse()
        elif lb != la.inverse():
            raise CoverError(f"labels on ({a},{b}) are not antisymmetric")
        if la not in deck or lb not in deck:
            raise CoverError(f"label on ({a},{b}) is not a deck element")
        full[(a, b)] = la
        full[(b, a)] = lb
    for key in labelling:
        if key not in full:
            raise CoverError(f"label on non-edge {key}")
    return full


def _check_word(L, word, closed=False):
    if not word:
        if closed:
            return
        raise CoverError("empty word")
    for (u, v) in word:
        if not L.has_simplex({u, v}) or u == v:
            raise CoverError(f"({u},{v}) is not a directed edge")
    for i in range(len(word) - 1):
        if word[i][1] != word[i + 1][0]:
            raise CoverError("word is not a path")
    if closed and word[-1][1] != word[0][0]:
        raise CoverError("word is not closed")


def build_cover(L, deck, labelling, base_vertex, allow_disconnected=False):
    """Assemble the cover: total space, connectivity (with the monodromy
    subgroup as the certificate of failure), spanning-tree lifts, path
    words and fundamental cycles, loop words for every deck element, and
    the edge-transport elements eta."""
    if base_vertex not in L.vertices:
        raise CoverError(f"unknown base vertex {base_vertex}")
    if not L.is_connected:
        raise CoverError("base complex must be connected")
    full = _complete_labelling(L, labelling, deck)

    deck_elems = list(deck)

    # total-space simplices: the lift of a simplex through fiber point g
    # places vertex w at g * label(u0, w) for the least vertex u0; this is
    # consistent only if the labels satisfy the cocycle condition on the
    # simplex, which is exactly the condition for the simplex to lift.
    total_vertices = [(u, g) for u in L.vertices for g in deck_elems]
    total_max = []
    for s in L.maximal_simplices:
        vs = sorted(s, key=L.vertex_position)
        u0 = vs[0]
        if len(vs) >= 2:
            for i in range(1, len(vs)):
                for j in range(i + 1, len(vs)):
                    lhs = full[(u0, vs[i])] * full[(vs[i], vs[j])]
                    if lhs != full[(u0, vs[j])]:
                        raise CoverError(
                            f"labels are inconsistent on simplex {vs}: "
                            "the simplex does not lift"
                        )
        for g in deck_elems:
            lifted = [(u0, g)] + [(w, g * full[(u0, w)]) for w in vs[1:]]
            total_max.append(frozenset(lifted))
    total = SimplicialComplex(total_vertices, total_max)

    # connectivity via BFS over the total 1-skeleton from (v0, 1), tracking
    # projected words so loop words come for free
    ident = deck.identity
    start = (base_vertex, ident)
    reach_word = {start: ()}
    reached = [start]
    for (u, g) in reached:
        for w in L.neighbors(u):
            tgt = (w, g * full[(u, w)])
            if tgt not in reach_word:
                reach_word[tgt] = reach_word[(u, g)] + ((u, w),)
                reached.append(tgt)
    connected = len(reach_word) == len(total_vertices)

    # spanning tree, breadth first from the base vertex: path words, tree
    # edges and chosen lifts h(u) = h(parent) * label(parent, u)
    path_words = {base_vertex: ()}
    h = {base_vertex: ident}
    tree = set()
    order = [base_vertex]
    for u in order:
        for w in L.neighbors(u):
            if w not in path_words:
                path_words[w] = path_words[u] + ((u, w),)
                h[w] = h[u] * full[(u, w)]
                tree.add(frozenset((u, w)))
                order.append(w)
    # eta(a, b) = h(a) label(a, b) h(b)^-1 is the deck label of the lift of
    # path(a) + (a, b) + path(b)^-1, the fundamental cycle of a non-tree
    # edge; the cycles generate the fundamental group freely
    eta = {}
    for (a, b) in L.directed_edges():
        eta[(a, b)] = h[a] * full[(a, b)] * h[b].inverse()
    cycle_basis = {}
    for e in L.edges():
        if e not in tree:
            a, b = sorted(e, key=L.vertex_position)
            cycle_basis[(a, b)] = (
                path_words[a] + ((a, b),)
                + tuple((y, x) for (x, y) in reversed(path_words[b]))
            )

    # monodromy: subgroup generated by spanning-tree-normalized labels
    mono_gens = [eta[tuple(e)] for e in L.edges()]
    monodromy = subgroup_closure(mono_gens, identity=ident)
    if not connected and not allow_disconnected:
        raise CoverError(
            f"cover is disconnected: labels generate a subgroup of order "
            f"{monodromy.order} < {deck.order}",
            subgroup=monodromy,
        )

    # loop words for every deck element reachable in the total space
    loop_words = {}
    for (u, g), word in reach_word.items():
        if u == base_vertex and g not in loop_words:
            loop_words[g] = word
    if connected and len(loop_words) != deck.order:
        raise CoverError("internal: loop words incomplete on a connected cover")

    return RegularCover(
        L, deck, full, base_vertex, total, h, path_words, cycle_basis,
        loop_words, eta, connected, monodromy,
    )


def lifts_to_loop(cover, loop_word):
    """True when the closed directed edge path lifts to a loop upstairs,
    i.e. its label product is the deck identity."""
    _check_word(cover.base, loop_word, closed=True)
    return cover.lift_word(loop_word) == cover.deck.identity


@dataclass
class PullbackResult:
    cover: RegularCover
    components: list
    stabilizer: object  # Subgroup: common stabilizer of each component


def pullback(cover, f: SimplicialMap, base_vertex=None):
    """Pull the cover back along a map into its base.  Edges that f
    collapses to vertices get trivial labels; others inherit the label of
    their image edge.  Returns the (possibly disconnected) pulled-back
    cover together with its total-space components and the subgroup
    generated by the pulled-back monodromy, which stabilizes each
    component."""
    L = f.source
    if f.target is not cover.base:
        raise CoverError("map target is not the cover's base")
    if base_vertex is None:
        base_vertex = L.vertices[0]
    lab = {}
    for (a, b) in L.directed_edges():
        fa, fb = f(a), f(b)
        if fa == fb:
            lab[(a, b)] = cover.deck.identity
        else:
            lab[(a, b)] = cover.label(fa, fb)
    pulled = build_cover(L, cover.deck, lab, base_vertex, allow_disconnected=True)
    return PullbackResult(pulled, pulled.total.components(), pulled.monodromy)
