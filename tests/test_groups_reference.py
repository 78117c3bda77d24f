"""Differential tests of the group layer against the code it replaced.

Exponent sets were computed by raising every element of the list to each
j of one period by square-and-multiply; the library now reads g^j off one
cyclic power table per distinct element.  The order of a wreath element
was found by multiplying it by itself until the identity; the library now
reads it off the rotor and the base of one power.  Exponent sets must be
equal on detector quadruples, on the theta labels of wreath loops, on
seeded permutation lists and on abelian and tuple lists, and orders must
be equal over whole small wreath products."""

import itertools
import random
from math import lcm

import pytest

from gbbkit import groups
from gbbkit.errors import GroupError
from gbbkit.fixtures import rose_wreath_recipe
from gbbkit.groups import (AbelianGroup, Permutation, TupleElement,
                           WreathElement, build_pqrs, ore_commutator,
                           power_product, r_set, symmetric_group)
from gbbkit.intsets import PeriodicSet
from gbbkit.presentation import loops_upto
from gbbkit.quotients import hw_product_quotient

from test_quotient_reference import cycle_cocycle_quotient

# --- the oracles -----------------------------------------------------------------


def reference_order(g):
    """The least k >= 1 with g^k = 1, by repeated multiplication."""
    k, acc = 1, g
    while not acc.is_identity():
        acc = acc * g
        k += 1
    return k


def reference_r_set(elements):
    """The replaced exponent set: every power product of one period."""
    m = lcm(1, *(reference_order(g) for g in elements))
    residues = frozenset(
        j for j in range(m) if power_product(elements, j).is_identity())
    return PeriodicSet(m, residues)


def assert_same_r_set(elements):
    got = r_set(elements)
    assert got == reference_r_set(elements)
    return got


# --- the families ----------------------------------------------------------------

# one even permutation of each nontrivial cycle type, degrees 3 to 5
SIGMAS = [
    Permutation.from_cycles(3, (0, 1, 2)),
    Permutation.from_cycles(4, (0, 1, 2)),
    Permutation.from_cycles(4, (0, 1), (2, 3)),
    Permutation.from_cycles(5, (0, 1, 2)),
    Permutation.from_cycles(5, (0, 1), (2, 3)),
    Permutation.from_cycles(5, (0, 1, 2, 3, 4)),
]


def rand_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_detector_quads_match_reference():
    """Commutator pairs detect exactly k mod n; seeded pairs that are not
    commutator pairs give other exponent sets."""
    rng = random.Random(3)
    for sigma in SIGMAS:
        pair = ore_commutator(sigma)
        for n in range(2, 7):
            for k in range(1, n):
                rs = assert_same_r_set(list(build_pqrs(*pair, k, n)))
                assert rs == PeriodicSet(n, frozenset(range(n)) - {k})
                seeded = (rand_perm(rng, sigma.size), rand_perm(rng, sigma.size))
                assert_same_r_set(list(build_pqrs(*seeded, k, n)))


@pytest.mark.parametrize("n", [2, 3])
def test_wreath_loop_labels_match_reference(n):
    """The theta labels of every reduced loop up to length 3r."""
    lifting = non_lifting = 0
    for r in (4, 6, 8, 12):
        res = rose_wreath_recipe(r=r, n=n)
        q, pres = res.quotient, res.presentation
        loops = loops_upto(pres.L, 3 * r, reduced=True)
        assert loops
        for loop in loops:
            rs = assert_same_r_set([q.theta[e] for e in loop])
            if rs.is_all:
                lifting += 1
            else:
                assert rs == pres.S
                non_lifting += 1
    assert lifting and non_lifting


def test_seeded_permutation_lists_match_reference():
    rng = random.Random(11)
    sizes = set()
    for _ in range(200):
        degree = rng.randrange(2, 7)
        pool = [rand_perm(rng, degree) for _ in range(3)]
        pool.append(Permutation.identity(degree))
        elements = [rng.choice(pool) for _ in range(rng.randrange(1, 6))]
        sizes.add(assert_same_r_set(elements).modulus)
    assert len(sizes) > 5


def test_abelian_and_tuple_lists_match_reference():
    """Loops of hw-products of k-cycle cocycles, as abelian lists and as
    tuple lists paired with seeded permutations and wreath elements."""
    rng = random.Random(7)
    checked = 0
    for k, p in ((4, 2), (4, 3), (5, 2)):
        cocycle = cycle_cocycle_quotient(k, p)
        for q in (cocycle, hw_product_quotient(cocycle)):
            for loop in loops_upto(q.presentation.L, k + 2):
                labels = [q.theta[e] for e in loop]
                assert_same_r_set(labels)
                perms = [rand_perm(rng, 3) for _ in labels]
                wreaths = [WreathElement(
                    tuple(rand_perm(rng, 3) for _ in range(2)),
                    rng.randrange(2)) for _ in labels]
                assert_same_r_set([TupleElement((a, b, c)) for a, b, c
                                   in zip(labels, perms, wreaths)])
                checked += 1
    G = AbelianGroup((4, 6))
    for coords in itertools.product(range(4), range(6)):
        assert_same_r_set([G.element(coords), G.element((1, 2)),
                           G.element(coords)])
    assert checked > 50


def test_r_set_input_errors():
    with pytest.raises(GroupError, match="empty element list"):
        r_set([])
    for elements in (
            [Permutation.identity(2), Permutation.identity(3)],
            [Permutation.from_cycles(3, (0, 1)), AbelianGroup((3,)).identity()],
            [WreathElement.rho(2, 3), WreathElement.rho(3, 3)]):
        with pytest.raises(GroupError, match="mixed parent groups"):
            r_set(elements)


def test_r_set_takes_no_power_product_and_no_order(monkeypatch):
    """The exponent set of a detector quadruple is read off power tables:
    neither power_product nor an element's order is called."""
    def refuse(*args, **kwargs):
        raise AssertionError("r_set computed a power from scratch")

    quad = list(build_pqrs(*ore_commutator(SIGMAS[1]), 2, 5))
    monkeypatch.setattr(groups, "power_product", refuse)
    monkeypatch.setattr(WreathElement, "order", refuse)
    monkeypatch.setattr(WreathElement, "__pow__", refuse)
    assert r_set(quad) == PeriodicSet(5, frozenset({0, 1, 3, 4}))


# --- closed-form wreath orders ------------------------------------------------------


def wreath_product(degree, n):
    perms = list(symmetric_group(degree))
    for base in itertools.product(perms, repeat=n):
        for rotor in range(n):
            yield WreathElement(base, rotor)


@pytest.mark.parametrize("degree, n", [(3, 1), (3, 2), (3, 3), (4, 2)])
def test_wreath_order_matches_iterated_products(degree, n):
    orders = set()
    for w in wreath_product(degree, n):
        assert w.order() == reference_order(w)
        orders.add(w.order())
    assert max(orders) > n


def test_detector_orders_match_iterated_products():
    for sigma in SIGMAS:
        alpha, beta = ore_commutator(sigma)
        for n in range(2, 7):
            for k in range(1, n):
                for w in build_pqrs(alpha, beta, k, n):
                    assert w.order() == reference_order(w) == n
