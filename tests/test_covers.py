"""Regular covers from deck-group edge labellings."""

import pytest

from gbbkit.covers import build_cover, lifts_to_loop, pullback
from gbbkit.errors import CoverError
from gbbkit.fixtures import square_complex, square_cover
from gbbkit.groups import Permutation, PermutationGroup
from gbbkit.simplicial import SimplicialMap, build_complex
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
