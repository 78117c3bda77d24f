"""Regular covers from deck-group edge labellings."""

import pytest

from gbbkit.covers import build_cover, lifts_to_loop, pullback
from gbbkit.cubical import build_quotient, cylinders, hyperplanes, specialness
from gbbkit.errors import CoverError
from gbbkit.fixtures import cycle_complex, square_complex, square_cover
from gbbkit.groups import Permutation, PermutationGroup
from gbbkit.intsets import PeriodicSet
from gbbkit.presentation import GbbPresentation
from gbbkit.quotients import cocycle_recipe
from gbbkit.simplicial import SimplicialComplex, SimplicialMap, build_complex
from test_quotient_reference import reference_loop_words


def test_square_double_cover_is_an_octagon():
    L, cover = square_cover()
    assert cover.connected
    assert len(cover.total.vertices) == 8
    assert len(cover.total.edges()) == 8
    # the total space is a single cycle: every vertex has two neighbors
    assert all(len(cover.total.neighbors(v)) == 2 for v in cover.total.vertices)


def test_loop_lifting_criterion():
    L, cover = square_cover()
    loop = (("w", "x"), ("x", "y"), ("y", "z"), ("z", "w"))
    assert not lifts_to_loop(cover, loop)       # one pass uses the swap
    double = loop + loop
    assert lifts_to_loop(cover, double)
    backtrack = (("w", "x"), ("x", "w"))
    assert lifts_to_loop(cover, backtrack)


def test_chosen_lifts_and_eta():
    L, cover = square_cover()
    ident = cover.deck.identity
    swap = Permutation((1, 0))
    # BFS tree from w uses the labelled edge (w,z): z's lift starts at the
    # swapped sheet, everything else at the identity sheet
    assert cover.h["w"] == ident and cover.h["x"] == ident
    assert cover.h["y"] == ident and cover.h["z"] == swap
    # tree edges get trivial eta; the swap reappears on the chord (y,z)
    assert cover.eta[("z", "w")] == ident
    assert cover.eta[("y", "z")] == swap
    assert cover.eta[("z", "y")] == swap
    assert cover.eta[("w", "x")] == ident
    # eta is the tree-normalized label: h_u * label * h_v^-1
    for (a, b) in L.directed_edges():
        assert cover.eta[(a, b)] == cover.h[a] * cover.label(a, b) * cover.h[b].inverse()


def test_loop_words_realize_deck_elements():
    L, cover = square_cover()
    loop_words = reference_loop_words(cover)
    assert set(loop_words) == set(cover.walk) == set(cover.deck)
    for g, word in loop_words.items():
        assert cover.lift_word(word) == g
        if word:
            assert word[0][0] == cover.base_vertex
            assert word[-1][1] == cover.base_vertex


def test_antisymmetry_enforced():
    L = square_complex()
    swap = Permutation((1, 0))
    deck = PermutationGroup(2, [swap])
    with pytest.raises(CoverError):
        build_cover(L, deck, {("z", "w"): swap, ("w", "z"): deck.identity}, "w")


def test_disconnected_cover_reports_subgroup():
    L = square_complex()
    deck = PermutationGroup(2, [Permutation((1, 0))])
    with pytest.raises(CoverError) as err:
        build_cover(L, deck, {}, "w")  # trivial labels: two components
    assert err.value.subgroup is not None
    assert err.value.subgroup.order == 1


def test_simplex_lifting_consistency():
    cx = build_complex(["p", "q", "r"], [{"p", "q", "r"}])
    swap = Permutation((1, 0))
    deck = PermutationGroup(2, [swap])
    # a triangle with label product != 1 on its boundary cannot lift
    with pytest.raises(CoverError):
        build_cover(cx, deck, {("p", "q"): swap}, "p")


def test_pullback_along_identity_and_collapse():
    L, cover = square_cover()
    ident = SimplicialMap(L, L, {v: v for v in L.vertices})
    res = pullback(cover, ident, base_vertex="w")
    assert len(res.components) == 1
    assert res.stabilizer.order == 2

    # collapsing map from a path complex: pulled-back labels are trivial
    P = build_complex(["s", "t"], [{"s", "t"}])
    f = SimplicialMap(P, L, {"s": "w", "t": "x"})
    res2 = pullback(cover, f, base_vertex="s")
    assert len(res2.components) == 2
    assert res2.stabilizer.order == 1


# --- the total space, built only when read -------------------------------------


def eager_total(L, deck, full):
    """The total space as build_cover once assembled it on every call: the
    lift through each fiber point g of each maximal simplex, with least
    vertex u0, places w at g * label(u0, w)."""
    deck_elems = list(deck)
    total_max = []
    for s in L.maximal_simplices:
        vs = sorted(s, key=L.vertex_position)
        for g in deck_elems:
            total_max.append(frozenset(
                [(vs[0], g)] + [(w, g * full[(vs[0], w)]) for w in vs[1:]]))
    return SimplicialComplex([(u, g) for u in L.vertices for g in deck_elems],
                             total_max)


def cycle_cover(p):
    """The 4-cycle with deck Z/p, a p-cycle on the edge (v0, v1)."""
    L = cycle_complex(4)
    g = Permutation.from_cycles(p, tuple(range(p)))
    return L, build_cover(L, PermutationGroup(p, [g]), {("v0", "v1"): g}, "v0")


@pytest.mark.parametrize("make", [square_cover, lambda: cycle_cover(5)],
                         ids=["square", "Z/5"])
def test_cube_pipeline_never_builds_the_total_space(make):
    L, cover = make()
    q = cocycle_recipe(GbbPresentation(L, cover,
                                       PeriodicSet.multiples(cover.deck.order)))
    Y = build_quotient(q.presentation, q, q.period)
    hyperplanes(Y)
    specialness(Y)
    cylinders(Y)
    assert "total" not in vars(cover)


@pytest.mark.parametrize("make", [square_cover, lambda: cycle_cover(5),
                                  lambda: cycle_cover(101)],
                         ids=["square", "Z/5", "Z/101"])
def test_total_space_matches_the_eager_build(make):
    L, cover = make()
    assert "total" not in vars(cover)
    want = eager_total(L, cover.deck, cover.labelling)
    assert cover.total.vertices == want.vertices
    assert cover.total.maximal_simplices == want.maximal_simplices
    assert cover.total is cover.total
