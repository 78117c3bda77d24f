"""Finite quotients: certificates, torsion, recipes."""

import itertools

import pytest

from gbbkit.covers import build_cover
from gbbkit.cubical import build_quotient, hyperplanes, specialness
from gbbkit.errors import QuotientError
from gbbkit.fixtures import (SQUARE_EDGES, cycle_complex, rose_wreath_recipe,
                             square_presentation, square_quotient_bits,
                             triple_cover_presentation, triple_cover_quotient)
from gbbkit import groups, quotients
from gbbkit.groups import (AbelianGroup, Permutation, PermutationGroup,
                           TupleElement)
from gbbkit.intsets import PeriodicSet
from gbbkit.presentation import GbbPresentation
from gbbkit.quotients import (cocycle_recipe, hw_product_quotient,
                              kernel_torsion_free, loop_r_set,
                              stabilizer_image, star_abelian_check,
                              verify_abelian_exact, verify_bounded)
from gbbkit.simplicial import build_complex

SQUARE_LOOP = (("w", "x"), ("x", "y"), ("y", "z"), ("z", "w"))


def bits_theta(bits, target):
    return {SQUARE_EDGES[name]: target.element((bit,))
            for name, bit in zip("abcd", bits)}


# --- exact verification -----------------------------------------------------


def test_abelian_exact_accepts_and_rejects():
    pres = square_presentation()
    target = AbelianGroup((2,))
    # any C2 assignment works here: the square loop does not lift and S=2Z,
    # so the only constraints are 2*theta = 0
    q = square_quotient_bits((1, 0, 0, 0))
    assert q.certificate.passed
    # a C4 target with an odd total over the non-lifting loop violates the
    # d * theta(loop) = 0 family (d = 2, theta(loop) of order 4)
    t4 = AbelianGroup((4,))
    theta = {SQUARE_EDGES["a"]: t4.element((1,)),
             SQUARE_EDGES["b"]: t4.element((0,)),
             SQUARE_EDGES["c"]: t4.element((0,)),
             SQUARE_EDGES["d"]: t4.element((0,))}
    with pytest.raises(QuotientError):
        verify_abelian_exact(pres, t4, theta)


def test_abelian_exact_kernel_lattice_constraint():
    # S = Z makes d = 1: every basis loop value must vanish individually
    from gbbkit.covers import build_cover
    from gbbkit.groups import PermutationGroup, Permutation
    from gbbkit.presentation import GbbPresentation
    from gbbkit.fixtures import square_complex

    L = square_complex()
    deck = PermutationGroup(1, [])
    cover = build_cover(L, deck, {}, "w")
    pres = GbbPresentation(L, cover, PeriodicSet.all_integers())
    t2 = AbelianGroup((2,))
    with pytest.raises(QuotientError):
        verify_abelian_exact(pres, t2, bits_theta((1, 0, 0, 0), t2))
    q = verify_abelian_exact(pres, t2, bits_theta((1, 1, 0, 0), t2))
    assert q.certificate.passed


def test_theta_reversal_completion():
    q = square_quotient_bits((1, 0, 0, 0))
    for (a, b) in q.presentation.L.directed_edges():
        assert q.theta[(a, b)] == q.theta[(b, a)].inverse()


def test_theta_on_a_non_edge_is_rejected():
    pres = square_presentation()
    t2 = AbelianGroup((2,))
    theta = bits_theta((1, 0, 0, 0), t2)
    theta[("w", "y")] = t2.element((0,))
    with pytest.raises(QuotientError, match="non-edge"):
        verify_abelian_exact(pres, t2, theta)
    with pytest.raises(QuotientError, match="non-edge"):
        verify_bounded(pres, theta)


def point_presentation(S):
    """One vertex, no edge, trivial deck group."""
    L = build_complex(["u"], [{"u"}])
    cover = build_cover(L, PermutationGroup(1, []), {}, "u")
    return GbbPresentation(L, cover, S)


@pytest.mark.parametrize("S", [PeriodicSet.all_integers(),
                               PeriodicSet.multiples(2)])
def test_point_base_quotient(S):
    """With no edge there is no theta value to read the identity off: an
    abelian target names it, and the wrapped complex is one edge per
    height and coset, each its own hyperplane."""
    pres = point_presentation(S)
    q = verify_abelian_exact(pres, AbelianGroup((2,)), {})
    assert kernel_torsion_free(q) == (True, None)
    for N in (q.period, 2 * q.period):
        Y = build_quotient(pres, q, N)
        assert specialness(Y).special
        assert len(hyperplanes(Y)) == len(Y.edges) == 2 * N


@pytest.mark.parametrize("S", [PeriodicSet.all_integers(),
                               PeriodicSet.multiples(2)])
def test_point_base_without_a_target_is_an_input_error(S):
    pres = point_presentation(S)
    with pytest.raises(QuotientError, match="no value to name"):
        kernel_torsion_free(verify_bounded(pres, {}))


# --- stabilizer images and torsion ------------------------------------------


def test_stabilizer_images_trivial_inside_S():
    q = square_quotient_bits((1, 0, 0, 0))
    for j in (0, 2, 4):
        rho, image = stabilizer_image(q, j)
        assert image.order == 1
    rho1, image1 = stabilizer_image(q, 1)
    assert image1.order == 2  # rho_1 injective on the C2 deck


def test_torsion_free_iff_odd_bit_count():
    for bits in itertools.product((0, 1), repeat=4):
        if not any(bits):
            continue
        q = square_quotient_bits(bits)
        tf, witness = kernel_torsion_free(q)
        assert tf == (sum(bits) % 2 == 1), bits
        if not tf:
            assert witness is not None


def test_index2_quotient_census():
    nontrivial = [bits for bits in itertools.product((0, 1), repeat=4)
                  if any(bits)]
    assert len(nontrivial) == 15
    torsion_free = [bits for bits in nontrivial if sum(bits) % 2 == 1]
    assert len(torsion_free) == 8


def test_loop_r_set_matches_S():
    q = square_quotient_bits((1, 0, 0, 0))
    assert loop_r_set(q, SQUARE_LOOP) == PeriodicSet.multiples(2)
    # torsion case: theta sums to zero over the loop, so its exponent set
    # is all of Z and strictly contains S -- the excess witnesses torsion
    q_bad = square_quotient_bits((1, 1, 0, 0))
    assert loop_r_set(q_bad, SQUARE_LOOP) == PeriodicSet.all_integers()


def test_star_abelian_check():
    q = square_quotient_bits((1, 0, 0, 0))
    ok, witness = star_abelian_check(q)
    assert ok


# --- cycle-exact verification ------------------------------------------------


def test_bounded_certificate_on_abelian_data():
    pres = square_presentation()
    t2 = AbelianGroup((2,))
    q = verify_bounded(pres, bits_theta((1, 0, 0, 0), t2))
    assert q.mode == q.certificate.mode == "cycle-exact"
    assert q.certificate.passed
    assert q.certificate.loops_checked == 1


def test_bounded_certificate_rejects():
    pres = square_presentation()
    t3 = AbelianGroup((3,))
    with pytest.raises(QuotientError):
        # order-3 values cannot die at every even exponent
        verify_bounded(pres, bits_theta((1, 0, 0, 0), t3))


def test_relator_check_sweeps_the_residues(monkeypatch):
    """On rose_wreath_recipe(r=8, n=8) the relator check raises nothing
    to a power: at each residue it builds the cycles' voltages from one
    current power per distinct nontrivial theta value on the cycles, walks
    the deck group, and advances those powers by one product each.  So it
    takes at most period * (values + cycle edges + |walk| * cycles) = 224
    products, and at most 152 counting nontrivial values and edges alone;
    advancing every theta value, the reverse edges' included, takes more.
    Onto Z/2 x Z/P, P = 10^9 + 7, it evaluates rho_1 alone, whatever the
    period 2P."""
    from test_cli import count_calls

    res = rose_wreath_recipe(r=8, n=8)
    pres, theta = res.presentation, res.quotient.theta
    cover = pres.cover
    on_cycles = [theta[e] for loop in cover.cycle_basis.values()
                 for e in loop]
    nontrivial = [g for g in on_cycles if not g.is_identity()]
    period, walk, cycles = (res.quotient.period, len(cover.walk),
                            len(cover.cycle_basis))
    sizes = (period, len(set(on_cycles)), len(set(nontrivial)),
             len(on_cycles), len(nontrivial), walk, cycles)
    assert sizes == (8, 6, 5, 16, 8, 3, 2)
    counts = count_calls(monkeypatch, [(groups, "power_product"),
                                       (TupleElement, "__mul__"),
                                       (quotients, "stabilizer_image")])
    assert verify_bounded(pres, theta).certificate.passed
    assert counts["power_product"] == 0
    assert counts["__mul__"] <= period * (
        len(set(nontrivial)) + len(nontrivial) + walk * cycles) == 152
    assert period * (len(set(on_cycles)) + len(on_cycles)
                     + walk * cycles) == 224
    P = 10 ** 9 + 7
    target = AbelianGroup((2, P))
    coords = {"a": (1, 1), "b": (0, P - 1), "c": (0, 0), "d": (0, 0)}
    counts["stabilizer_image"] = 0
    q = verify_abelian_exact(square_presentation(), target, {
        SQUARE_EDGES[name]: target.element(c) for name, c in coords.items()})
    assert q.period == 2 * P and q.certificate.passed
    assert counts["stabilizer_image"] == 1


# --- recipes -----------------------------------------------------------------


def test_cocycle_recipe_p2():
    q = cocycle_recipe(square_presentation())
    assert q.mode == "abelian-exact"
    assert kernel_torsion_free(q)[0]
    # theta mirrors the deck labels: only the labelled edge is nontrivial
    assert q.theta[("z", "w")].coords == (1,)
    assert q.theta[("w", "x")].coords == (0,)


def test_cocycle_recipe_p3():
    q = triple_cover_quotient()
    assert kernel_torsion_free(q)[0]
    assert q.target.factors == (3,)


def test_cocycle_recipe_preconditions():
    pres = square_presentation(S=PeriodicSet.multiples(4))
    with pytest.raises(QuotientError):
        cocycle_recipe(pres)


def test_cocycle_recipe_reads_the_logarithm_off_the_walk(monkeypatch):
    """On the 4-cycle with deck Z/101 labelled by g^3, g the first element
    of order 101, theta is the logarithm to the base g, read off the
    cover's walk without one permutation product; a disconnected cover
    has no such walk and is refused."""
    p, L = 101, cycle_complex(4)
    g = Permutation.from_cycles(p, tuple(range(p)))
    deck = PermutationGroup(p, [g])
    assert next(h for h in deck if h.order() == p) == g
    cover = build_cover(L, deck, {("v0", "v1"): g ** 3}, "v0")
    products = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    q = cocycle_recipe(GbbPresentation(L, cover, PeriodicSet.multiples(p)))
    assert products == []
    assert {e: v.coords for e, v in q.theta.items() if v.coords != (0,)} == {
        ("v0", "v1"): (3,), ("v1", "v0"): (p - 3,)}
    monkeypatch.undo()
    split = build_cover(L, deck, {("v0", "v1"): g, ("v1", "v2"): g ** -1},
                        "v0", allow_disconnected=True)
    with pytest.raises(QuotientError, match="needs a connected cover"):
        cocycle_recipe(GbbPresentation(L, split, PeriodicSet.multiples(p)))


def test_hw_product_needs_an_abelian_quotient():
    q = rose_wreath_recipe(r=4, n=2).quotient
    with pytest.raises(QuotientError, match="needs an abelian quotient"):
        hw_product_quotient(q)


def test_hw_product_preserves_certificates():
    for q0 in (cocycle_recipe(square_presentation()), triple_cover_quotient()):
        q = hw_product_quotient(q0)
        assert q.mode == "abelian-exact"
        assert q.certificate.passed
        assert kernel_torsion_free(q)[0]
        # new coordinates vanish on loops: stabilizer images unchanged
        _, im0 = stabilizer_image(q0, 1)
        _, im1 = stabilizer_image(q, 1)
        assert im1.order == im0.order


def test_wreath_recipe_small():
    result = rose_wreath_recipe(r=4, n=2, s0=(0,))
    assert result.quotient.certificate.passed
    assert result.k_list == (1,)
    tf, _ = kernel_torsion_free(result.quotient)
    assert tf


def test_wreath_certificate_checks_every_fundamental_cycle():
    """Past r = 12 no reduced loop of the rose subdivision has length at
    most the default window of 12; the certificate still checks both
    petals' cycles, and the window no longer affects it."""
    q = rose_wreath_recipe(r=16).quotient
    assert q.mode == "cycle-exact"
    assert q.certificate.loops_checked == 2
    assert q.certificate.passed
    assert (rose_wreath_recipe(r=4, loop_length_bound=4).quotient.certificate
            == rose_wreath_recipe(r=4, loop_length_bound=36).quotient
            .certificate)
