"""Finite regular covers of complexes, presented by deck-group edge
labellings.

A labelling assigns a deck element to each directed edge of the base,
antisymmetrically under reversal.  The total space has vertex set
(base vertex, deck element); walking a directed edge (u, u') from (u, g)
lands at (u', g * label(u, u')), so deck transformations (left
multiplication) commute with projection and act freely and transitively on
fibers.  A loop downstairs lifts to a loop exactly when the ordered
product of its labels is the identity.

``build_cover`` checks the labels and records the base-lift bookkeeping
that later constructions need; the total space is built only when
``total`` is first read.  The bookkeeping is a spanning tree with path
words w_u to each vertex and its fundamental cycles, one per non-tree
edge; the deck elements eta(u, u') describing where the edge lift at the
chosen lifts lands, which are also the deck labels of the fundamental
cycles; and one breadth-first walk of the monodromy group those labels
generate, off which connectivity, the label kernel and the stabilizer
images are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CoverError
from .groups import Subgroup, cayley_walk
from .simplicial import SimplicialComplex, SimplicialMap


class RegularCover:
    def __init__(self, base, deck, labelling, base_vertex, h, path_words,
                 cycle_basis, eta, connected, monodromy, walk, steps):
        self.base = base
        self.deck = deck
        self.labelling = labelling  # (u, u') -> deck element, both directions
        self.base_vertex = base_vertex
        self.h = h  # u -> deck element of the chosen lift
        self.path_words = path_words  # u -> tuple of directed edges, v0 -> u
        # non-tree edge (a, b) -> its fundamental cycle, deck label eta[(a, b)]
        self.cycle_basis = cycle_basis
        self.eta = eta  # (u, u') -> deck element
        self.connected = connected
        self.monodromy = monodromy
        # the breadth-first walk of the monodromy group from the identity:
        # walk[steps[i][k]] = walk[i] * (deck label of the k-th cycle)
        self.walk = walk
        self.steps = steps

    @cached_property
    def total(self):
        """The total space: the lift of a simplex through fiber point g
        places its vertex w at g * label(u0, w), u0 its least vertex, which
        the cocycle condition ``build_cover`` checks makes a simplex."""
        L, full = self.base, self.labelling
        deck_elems = list(self.deck)
        maximal = []
        for s in L.maximal_simplices:
            u0, *rest = sorted(s, key=L.vertex_position)
            for g in deck_elems:
                maximal.append(frozenset(
                    [(u0, g)] + [(w, g * full[(u0, w)]) for w in rest]))
        return SimplicialComplex(
            [(u, g) for u in L.vertices for g in deck_elems], maximal)

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
    """Check the labels and assemble the cover: spanning-tree lifts, path
    words and fundamental cycles, the edge-transport elements eta, and the
    walk of the monodromy group, which decides connectivity (the monodromy
    subgroup is the certificate of failure)."""
    if base_vertex not in L.vertices:
        raise CoverError(f"unknown base vertex {base_vertex}")
    if not L.is_connected:
        raise CoverError("base complex must be connected")
    full = _complete_labelling(L, labelling, deck)

    # a simplex lifts exactly when its labels satisfy the cocycle
    # condition on it
    for s in L.maximal_simplices:
        u0, *rest = sorted(s, key=L.vertex_position)
        for i, a in enumerate(rest):
            for b in rest[i + 1:]:
                if full[(u0, a)] * full[(a, b)] != full[(u0, b)]:
                    raise CoverError(
                        f"labels are inconsistent on simplex {[u0, *rest]}: "
                        "the simplex does not lift"
                    )

    # spanning tree, breadth first from the base vertex: path words, tree
    # edges and chosen lifts h(u) = h(parent) * label(parent, u)
    ident = deck.identity
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

    # monodromy: the labels of the fundamental cycles generate it (tree
    # edges have eta = 1), and its walk reaches the whole deck group exactly
    # when the total space is connected
    labels = [eta[e] for e in cycle_basis]
    walk, steps = cayley_walk(labels, ident)
    monodromy = Subgroup(ident.parent_key(), tuple(labels), frozenset(walk))
    connected = len(walk) == deck.order
    if not connected and not allow_disconnected:
        raise CoverError(
            f"cover is disconnected: labels generate a subgroup of order "
            f"{monodromy.order} < {deck.order}",
            subgroup=monodromy,
        )

    return RegularCover(
        L, deck, full, base_vertex, h, path_words, cycle_basis,
        eta, connected, monodromy, walk, steps,
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
