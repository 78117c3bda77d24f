"""Wrapped quotient cube complexes: cells, links, hyperplanes, specialness,
cylinders, and shift stabilization.  Expected values are hand-derived from
the defining formulas and frozen here."""

import itertools

import pytest

from gbbkit.cubical import (build_quotient, cylinder_classes, cylinders,
                            hyperplane_counts, hyperplanes,
                            orbit_characterization_holds, shift_stable_period,
                            specialness, vertical_shift_permutation)
from gbbkit.errors import CubicalError
from gbbkit.fixtures import (SQUARE_EDGES, single_edge_trivial,
                             square_index16_quotient, square_presentation,
                             square_quotient_bits, triple_cover_presentation,
                             triple_cover_quotient)
from gbbkit.groups import AbelianGroup, subgroup_closure
from gbbkit.quotients import kernel_torsion_free, verify_abelian_exact


def counts_by_label(rep):
    return {str(k): v for k, v in rep.counts.items()}


# --- construction invariants -------------------------------------------------


def test_cell_counts_index2():
    pres = square_presentation()
    Y = build_quotient(pres, square_quotient_bits((1, 0, 0, 0)), 2)
    c = Y.counts()
    # P_0 trivial (two cosets of C2), P_1 = C2 (one coset)
    assert c["vertices_per_height"] == {0: 2, 1: 1}
    # 2 heights x 4 base vertices x |Q|=2 torsor coordinates
    assert c["edges"] == 16
    # 2 heights x 4 base edges x 2 torsor coordinates
    assert c["squares"] == 16


def test_cell_counts_index16():
    Y = build_quotient(square_presentation(), square_index16_quotient(), 2)
    c = Y.counts()
    assert c["vertices_per_height"] == {0: 16, 1: 8}
    assert c["edges"] == 2 * 4 * 16
    assert c["squares"] == 2 * 4 * 16


def test_wrap_must_be_multiple_of_base_period():
    pres = square_presentation()  # S = 2Z, C2 target: base period 2
    with pytest.raises(CubicalError):
        build_quotient(pres, square_quotient_bits((1, 0, 0, 0)), 3)
    # Z/4 target, theta(a) of order 2: the period is lcm(2, 2) = 2, not
    # lcm(2, exponent(Q)) = 4
    Z4 = AbelianGroup((4,))
    q = verify_abelian_exact(pres, Z4, {
        SQUARE_EDGES[name]: Z4.element((2 if name == "a" else 0,))
        for name in "abcd"})
    assert q.period == 2
    for N in (2, 4):
        assert build_quotient(pres, q, N).N == N
    with pytest.raises(CubicalError, match="positive multiple .* = 2$"):
        build_quotient(pres, q, 3)


def test_torsion_free_guard():
    pres = square_presentation()
    q_bad = square_quotient_bits((1, 1, 0, 0))
    with pytest.raises(CubicalError):
        build_quotient(pres, q_bad, 2, require_torsion_free=True)


def test_torsion_guard_names_the_kernel_torsion_witness():
    """The guard reads its witness off the rho_j of the built complex; it
    names the one kernel_torsion_free names, at wraps 2 and 4."""
    pres = square_presentation()
    for bits in itertools.product((0, 1), repeat=4):
        if not any(bits):
            continue
        q = square_quotient_bits(bits)
        tf, witness = kernel_torsion_free(q)
        for N in (2, 4):
            if tf:
                build_quotient(pres, q, N, require_torsion_free=True)
                continue
            with pytest.raises(CubicalError) as err:
                build_quotient(pres, q, N, require_torsion_free=True)
            assert str(err.value) == f"quotient kernel has torsion: {witness}"


# --- hyperplanes --------------------------------------------------------------


def test_hyperplanes_label_pure_and_two_sided():
    Y = build_quotient(square_presentation(), square_quotient_bits((1, 0, 0, 0)), 4)
    planes = hyperplanes(Y)
    assert all(h.two_sided for h in planes)
    for h in planes:
        assert len({e.label for e in h.edges}) == 1
    # every edge belongs to exactly one wall
    assert sum(len(h.edges) for h in planes) == len(Y.edges)


def test_hyperplane_counts_directed_doubles():
    Y = build_quotient(square_presentation(), square_index16_quotient(), 2)
    planes = hyperplanes(Y)
    und = hyperplane_counts(planes)
    dirc = hyperplane_counts(planes, directed=True)
    assert und == {lbl: 8 for lbl in "wxyz"}
    assert dirc == {lbl: 16 for lbl in "wxyz"}


# --- specialness: frozen verdicts ---------------------------------------------


def test_specialness_bits_1000():
    pres = square_presentation()
    Y = build_quotient(pres, square_quotient_bits((1, 0, 0, 0)), 2)
    rep = specialness(Y)
    assert counts_by_label(rep) == {"w": 1, "x": 1, "y": 2, "z": 2}
    _, selfosc, interosc = rep.pattern()
    assert selfosc == ("w", "x")
    assert interosc == (("w", "x"),)
    assert not rep.special
    assert not rep.self_intersections and not rep.non_two_sided


def test_specialness_bits_1110():
    pres = square_presentation()
    Y = build_quotient(pres, square_quotient_bits((1, 1, 1, 0)), 2)
    rep = specialness(Y)
    assert counts_by_label(rep) == {"w": 1, "x": 2, "y": 2, "z": 1}
    _, selfosc, interosc = rep.pattern()
    assert selfosc == ("w", "z")
    assert interosc == (("w", "x"), ("w", "z"), ("x", "y"), ("y", "z"))
    assert not rep.special


def test_all_torsion_free_index2_not_special():
    pres = square_presentation()
    for bits in itertools.product((0, 1), repeat=4):
        if sum(bits) % 2 == 0:
            continue
        Y = build_quotient(pres, square_quotient_bits(bits), 2)
        assert not specialness(Y).special, bits


def test_index16_is_special():
    Y = build_quotient(square_presentation(), square_index16_quotient(), 2)
    rep = specialness(Y)
    assert rep.special


def test_trivial_complex_is_special():
    pres, q = single_edge_trivial()
    Y = build_quotient(pres, q, 1)
    assert specialness(Y).special


def test_triple_cover_pattern():
    Y = build_quotient(triple_cover_presentation(), triple_cover_quotient(), 3)
    rep = specialness(Y)
    assert counts_by_label(rep) == {"v0": 1, "v1": 3, "v2": 3, "v3": 1}
    _, selfosc, interosc = rep.pattern()
    assert selfosc == ("v0", "v3")
    assert interosc == (("v0", "v3"),)


def test_pattern_stable_under_doubling():
    pres = square_presentation()
    q = square_quotient_bits((1, 0, 0, 0))
    pats = set()
    for N in (2, 4, 8):
        Y = build_quotient(pres, q, N, validate_links=(N == 2))
        pats.add(specialness(Y).pattern())
    assert len(pats) == 1


# --- cylinders -----------------------------------------------------------------


def test_cylinder_classes_index16_match_cosets():
    Y = build_quotient(square_presentation(), square_index16_quotient(), 2)
    classes = cylinder_classes(Y, "x")
    # the subgroup generated by theta(a), theta(b) has order 4 inside C2^4,
    # so its cosets cut the x-edges at a fixed height into 16/4 = 4 classes
    theta = Y.quotient.theta
    H = subgroup_closure([theta[("w", "x")], theta[("x", "y")]]).elements
    assert len(H) == 4
    assert len(classes) == Y.Q.order // len(H) == 4
    # class membership of a fixed-height edge depends exactly on q mod H
    for cls in classes:
        by_height = {}
        for e in cls:
            by_height.setdefault(e.j, set()).add(e.q)
        for qs in by_height.values():
            q0 = next(iter(qs))
            assert qs == {q0 * h for h in H}
    assert orbit_characterization_holds(Y, "x")


def test_cylinders_have_stabilizers_and_squares():
    Y = build_quotient(square_presentation(), square_quotient_bits((1, 0, 0, 0)), 2)
    for c in cylinders(Y):
        assert Y.Q.identity() in c.stabilizer
        for sq in c.squares:
            assert sq.labels() <= c.label


# --- shift stabilization ---------------------------------------------------------


def test_shift_stable_period_index2():
    Y = build_quotient(square_presentation(), square_quotient_bits((1, 0, 0, 0)), 2)
    rep = shift_stable_period(Y, specialness(Y))
    assert rep.stable_wrap == 2 and rep.multiplier == 1
    assert rep.preserves_each
    assert not rep.special


def test_vertical_shift_is_permutation():
    Y = build_quotient(square_presentation(), square_quotient_bits((1, 0, 0, 0)), 4)
    planes = hyperplanes(Y)
    perm = vertical_shift_permutation(Y, planes)
    assert sorted(perm) == sorted(perm.values())
