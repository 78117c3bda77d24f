"""Differential tests of the group layer against the code it replaced.

Exponent sets were computed by raising every element of the list to each
j of one period by square-and-multiply; the library now reads g^j off one
cyclic power table per distinct element.  A wreath element was stored as
its base and rotor, its product was n permutation products on a rotated
base and its order was read off the rotor and the base of one power; the
library now stores its permutation of the n*N points, so that a product
is one composition of image tuples and the order the lcm of its cycle
lengths.  Exponent sets must be equal on detector quadruples, on the theta
labels of wreath loops, on seeded permutation lists and on abelian and
tuple lists; products, inverses, powers, orders, equality and reprs must
be equal over whole small wreath products."""

import itertools
import random
from math import gcd, lcm

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

from test_quotient_reference import as_permutation, cycle_cocycle_quotient

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


# --- wreath elements against their (base, rotor) arithmetic -----------------------


def reference_wreath_mul(u, v):
    """The replaced product of (base, rotor) pairs: position i of the
    product is u.base[i] * v.base[i - u.rotor]."""
    (base, r), (others, s) = u, v
    n = len(base)
    shifted = others[n - r:] + others[:n - r]
    return tuple(map(Permutation.__mul__, base, shifted)), (r + s) % n


def reference_wreath_inverse(u):
    base, r = u
    n = len(base)
    return tuple(base[(i + r) % n].inverse() for i in range(n)), -r % n


def reference_wreath_pow(u, k):
    if k < 0:
        return reference_wreath_pow(reference_wreath_inverse(u), -k)
    base, _ = u
    out = (tuple(p.identity_like() for p in base), 0)
    for _ in range(k):
        out = reference_wreath_mul(out, u)
    return out


def reference_wreath_order(u):
    """The replaced closed form: k = n / gcd(n, rotor) is the order of
    the rotor, so u^k lies in the base group, and the order of u is k
    times the lcm of the orders of the entries of u^k."""
    base, r = u
    k = len(base) // gcd(len(base), r)
    return k * lcm(1, *(p.order() for p in reference_wreath_pow(u, k)[0]))


def reference_wreath_group(degree, n):
    perms = list(symmetric_group(degree))
    return [(base, rotor) for base in itertools.product(perms, repeat=n)
            for rotor in range(n)]


def assert_wreath_matches(u, w):
    """w is the element the pair u names: same fields, repr, hash, and the
    same block in the permutation test_quotient_reference closes in."""
    base, rotor = u
    assert (w.base, w.rotor, w.n, w.degree) == (base, rotor, len(base),
                                                base[0].size)
    assert repr(w) == f"Wr(base={list(base)}, rotor={rotor})"
    checked = WreathElement(w.base, w.rotor)
    assert checked == w and hash(checked) == hash(w)
    assert as_permutation(TupleElement((w,))).images == w.images


def check_wreath_pairs(group, partners):
    """Every element of group (as (base, rotor) pairs) against the oracle:
    its products with each partner, its inverse, its powers -3..6 and its
    order."""
    elements = {u: WreathElement(*u) for u in group}
    assert len(set(elements.values())) == len(elements)
    for u, w in elements.items():
        assert_wreath_matches(u, w)
        for v in partners(u):
            product = reference_wreath_mul(u, v)
            assert_wreath_matches(product, w * elements[v])
            assert (w * elements[v] == w) == (product == u)
        assert_wreath_matches(reference_wreath_inverse(u), w.inverse())
        for k in range(-3, 7):
            assert_wreath_matches(reference_wreath_pow(u, k), w ** k)
        assert w.order() == reference_wreath_order(u)
        assert w.is_identity() == (reference_wreath_order(u) == 1)


@pytest.mark.parametrize("degree, n", [(3, 2), (2, 3)])
def test_wreath_arithmetic_matches_reference_exhaustively(degree, n):
    group = reference_wreath_group(degree, n)
    check_wreath_pairs(group, lambda u: group)


def test_wreath_arithmetic_matches_reference_on_a_sample():
    """S_3 wr C_3, 648 elements, each against a fixed seeded sample of 30."""
    group = reference_wreath_group(3, 3)
    sample = random.Random(9).sample(group, 30)
    check_wreath_pairs(group, lambda u: sample)


# --- wreath orders against iterated products -------------------------------------


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
