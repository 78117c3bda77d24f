"""Group layer: permutations, wreath products, commutators, detectors."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbbkit.errors import GroupError
from gbbkit.groups import (AbelianElement, AbelianGroup, Permutation,
                           PermutationGroup, TupleElement, WreathElement,
                           build_pqrs, cayley_walk,
                           ore_commutator, power_product, r_set,
                           subgroup_closure, symmetric_group)


def rand_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


# --- permutations ----------------------------------------------------------


def test_malformed_images_raise():
    for images in ((0, 0), (1, 2), (0, 2, 2), (-1, 0), (0, 1, 3)):
        with pytest.raises(GroupError, match="not a permutation"):
            Permutation(images)
    with pytest.raises(GroupError, match="not a permutation"):
        Permutation.from_cycles(3, (0, 1), (1, 2))


def test_unchecked_results_equal_checked_ones():
    """Products, inverses and powers skip the constructor's check; over
    S_4 each equals the permutation the checked constructor builds from
    its images.  Wreath products over S_3 wr C_3, abelian products over
    Z/4 x Z/6 and products, inverses and powers of tuples of these skip
    their constructors too, and equal, with equal hashes, what the checked
    constructors build from their fields."""
    group = list(symmetric_group(4))
    for p in group:
        for q in group:
            product = p * q
            assert product == Permutation(product.images)
            assert product.images == tuple(p(q(i)) for i in range(4))
        inverse = p.inverse()
        assert inverse == Permutation(inverse.images)
        assert (p * inverse).is_identity()
        for k in range(-5, 6):
            power = p ** k
            assert power == Permutation(power.images)
            assert hash(power) == hash(Permutation(power.images))
        assert p ** 0 == Permutation.identity(4) == Permutation((0, 1, 2, 3))

    # wreath products over S_3 wr C_3: every element times a seeded sample
    s3 = list(symmetric_group(3))
    wreath = [WreathElement(base, rotor)
              for base in itertools.product(s3, repeat=3)
              for rotor in range(3)]
    rng = random.Random(5)
    for w in rng.sample(wreath, 12):
        for v in wreath:
            for product in (w * v, v * w):
                checked = WreathElement(product.base, product.rotor)
                assert product == checked and hash(product) == hash(checked)
                assert 0 <= product.rotor < 3
        inverse = w.inverse()
        assert inverse == WreathElement(inverse.base, inverse.rotor)
        assert (w * inverse).is_identity()
    w = wreath[-1]
    assert (w * w).base == tuple(
        w.base[i] * w.base[(i - w.rotor) % 3] for i in range(3))

    # abelian products over Z/4 x Z/6: every pair
    group = list(AbelianGroup((4, 6)).elements())
    for a in group:
        for b in group:
            product = a * b
            checked = AbelianElement((4, 6), product.coords)
            assert product == checked and hash(product) == hash(checked)
            assert product.coords == ((a.coords[0] + b.coords[0]) % 4,
                                      (a.coords[1] + b.coords[1]) % 6)

    # tuples of an abelian, a permutation and a wreath part: every pair
    rng = random.Random(4)
    tuples = [TupleElement((group[rng.randrange(24)], rand_perm(rng, 3),
                            rng.choice(wreath))) for _ in range(6)]
    for t in tuples:
        results = [t * u for u in tuples] + [t.inverse()]
        results += [t ** k for k in range(-4, 5)]
        for got in results:
            checked = TupleElement(got.parts)
            assert got == checked and hash(got) == hash(checked)
        assert t.inverse().parts == tuple(p.inverse() for p in t.parts)
        assert (t ** 3).parts == tuple(p ** 3 for p in t.parts)

    # mismatched sizes, degrees and factors still raise; S_3 wr C_2 and
    # S_2 wr C_3 both act on 6 points, and their identities differ
    six_points = WreathElement.rho(2, 3).identity_like()
    assert six_points.images == WreathElement.rho(3, 2).identity_like().images
    assert six_points != WreathElement.rho(3, 2).identity_like()
    mismatched = [
        (Permutation.identity(3), Permutation.identity(4),
         "permutation size mismatch"),
        (wreath[0], WreathElement.rho(2, 3), "mixed wreath parents"),
        (wreath[0], WreathElement.rho(3, 4), "mixed wreath parents"),
        (six_points, WreathElement.rho(3, 2), "mixed wreath parents"),
        (group[0], AbelianGroup((6, 4)).identity(), "mixed abelian parents"),
        (group[0], AbelianGroup((4,)).identity(), "mixed abelian parents"),
    ]
    for a, b, message in mismatched:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(GroupError, match=message):
                x * y


def test_composition_is_functional():
    p = Permutation.from_cycles(3, (0, 1))
    q = Permutation.from_cycles(3, (1, 2))
    # (p * q)(x) = p(q(x))
    assert (p * q)(1) == p(q(1)) == p(2) == 2
    assert (p * q).images == tuple(p(q(i)) for i in range(3))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_composition_at_the_smallest_degrees(n):
    """Degrees 0 and 1 hold only the identity, and their products are
    image tuples like any other; degree 2 is the first with a swap."""
    for p in (Permutation(tuple(range(n))), Permutation.identity(n)):
        for q in (p, Permutation(tuple(range(n)))):
            assert type((p * q).images) is tuple
            assert p * q == Permutation(tuple(range(n)))
            assert (p * q).is_identity() and (p * q).size == n
    swap = Permutation(tuple(reversed(range(n))))
    assert (swap * swap).is_identity()
    assert (swap * Permutation.identity(n)).images == swap.images
    assert PermutationGroup(n, []).order == 1
    if n == 2:
        assert not swap.is_identity() and PermutationGroup(2, [swap]).order == 2


@given(st.integers(min_value=1, max_value=7), st.integers())
@settings(max_examples=40)
def test_inverse_and_order(n, seed):
    rng = random.Random(seed)
    p = rand_perm(rng, n)
    assert (p * p.inverse()).is_identity()
    assert (p ** p.order()).is_identity()
    assert all(not (p ** k).is_identity() for k in range(1, p.order()))


def test_parity_matches_transposition_count():
    assert Permutation.from_cycles(4, (0, 1)).parity() == 1
    assert Permutation.from_cycles(4, (0, 1, 2)).parity() == 0
    assert Permutation.identity(4).parity() == 0


def test_invalid_permutation():
    with pytest.raises(GroupError):
        Permutation((0, 0, 1))


# --- abelian elements ------------------------------------------------------


def test_abelian_arithmetic():
    G = AbelianGroup((2, 4))
    a = G.element((1, 3))
    assert (a * a).coords == (0, 2)
    assert a.inverse().coords == (1, 1)
    assert a.order() == 4
    assert len(list(G.elements())) == 8
    assert G.exponent == 4


def test_abelian_inverse_power_and_identity_match_the_constructor():
    """inverse, ** and identity_like skip the validating constructor and
    reduce their coordinates themselves: over Z/4 x Z/6, for every element
    and every exponent from -13 to 13, they equal the constructor's
    result."""
    factors = (4, 6)
    for a in AbelianGroup(factors).elements():
        results = [(a.inverse(), [-c for c in a.coords]),
                   (a.identity_like(), [0, 0])]
        results += [(a ** k, [k * c for c in a.coords])
                    for k in range(-13, 14)]
        for got, coords in results:
            checked = AbelianElement(factors, tuple(coords))
            assert got == checked and hash(got) == hash(checked)


# --- wreath elements -------------------------------------------------------


def test_rotor_conjugation_shifts_positions():
    n, deg = 4, 5
    rng = random.Random(1)
    x = rand_perm(rng, deg)
    rho = WreathElement.rho(n, deg)
    for i in range(n):
        elem = WreathElement.at_position(x, i, n)
        conj = rho * elem * rho.inverse()
        assert conj == WreathElement.at_position(x, (i + 1) % n, n)


def test_wreath_base_of_mixed_degrees_raises():
    """A base whose entries differ in degree has no layout on n*N points
    and is refused where it is built, not at its first product."""
    with pytest.raises(GroupError, match=r"wreath base of mixed degrees: \[2, 3\]"):
        WreathElement((Permutation((1, 0)), Permutation((0, 2, 1))), 1)
    with pytest.raises(GroupError, match="empty wreath base"):
        WreathElement((), 0)
    with pytest.raises(GroupError, match="wreath base of degree 0"):
        WreathElement((Permutation(()),) * 2, 1)


@pytest.mark.parametrize("degree, n", [(1, 1), (1, 2), (2, 1)])
def test_wreath_arithmetic_on_one_or_two_points(degree, n):
    """S_1 wr C_1 acts on one point and holds only the identity; S_1 wr C_2
    and S_2 wr C_1 act on two points and hold one element of order 2."""
    elements = [WreathElement(base, rotor)
                for base in itertools.product(symmetric_group(degree), repeat=n)
                for rotor in range(n)]
    assert len(set(elements)) == len(elements) == (1 if degree * n == 1 else 2)
    for w in elements:
        assert type(w.images) is tuple and len(w.images) == degree * n
        assert (w * w.inverse()).is_identity() and (w.inverse() * w).is_identity()
        for v in elements:
            product = w * v
            assert type(product.images) is tuple
            assert product == WreathElement(product.base, product.rotor)
        for k in range(-3, 4):
            power = w ** k
            assert type(power.images) is tuple
            assert power.is_identity() == (k % w.order() == 0)
        assert w.identity_like().is_identity() and w.identity_like().n == n
    orders = sorted(w.order() for w in elements)
    assert orders == ([1] if degree * n == 1 else [1, 2])


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=5),
       st.integers())
@settings(max_examples=40)
def test_wreath_group_laws(n, deg, seed):
    rng = random.Random(seed)

    def rand_wreath():
        return WreathElement(
            tuple(rand_perm(rng, deg) for _ in range(n)), rng.randrange(n)
        )

    a, b, c = rand_wreath(), rand_wreath(), rand_wreath()
    assert (a * b) * c == a * (b * c)
    assert (a * a.inverse()).is_identity()
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a ** 3 == a * a * a


# --- power products and exponent sets -------------------------------------


def test_power_product_and_r_set():
    G = AbelianGroup((6,))
    gs = [G.element((2,)), G.element((4,))]  # sum 6 = 0 mod 6 always
    assert r_set(gs).is_all
    gs2 = [G.element((1,)), G.element((1,))]
    assert r_set(gs2) == __import__("gbbkit").intsets.PeriodicSet(3, frozenset({0}))


@given(st.integers(min_value=2, max_value=5), st.integers(),
       st.integers(min_value=-6, max_value=6))
@settings(max_examples=40)
def test_r_set_is_a_group_of_periods(deg, seed, j):
    rng = random.Random(seed)
    gs = [rand_perm(rng, deg) for _ in range(rng.randrange(1, 4))]
    rs = r_set(gs)
    assert 0 in rs
    # the period divides the exponent of the generated subgroup
    sub = subgroup_closure(gs)
    assert sub.exponent() % rs.modulus == 0
    assert (j in rs) == power_product(gs, j).is_identity()


def test_power_product_rejects_mixed_parents():
    with pytest.raises(GroupError):
        power_product([Permutation.identity(2), Permutation.identity(3)], 1)


# --- commutator decomposition ---------------------------------------------


def test_ore_commutator_small_exhaustive():
    for sigma in symmetric_group(4):
        if sigma.parity():
            continue
        alpha, beta = ore_commutator(sigma)
        assert alpha * beta * alpha.inverse() * beta.inverse() == sigma


def test_ore_commutator_rejects_odd():
    with pytest.raises(GroupError):
        ore_commutator(Permutation.from_cycles(4, (0, 1)))


# --- residue detectors -----------------------------------------------------


def detector_check(sigma, k, n):
    alpha, beta = ore_commutator(sigma)
    a, b, c, d = build_pqrs(alpha, beta, k, n)
    expected = WreathElement.at_position(sigma, k - 1, n)
    for j in range(n):
        prod = power_product([a, b, c, d], j)
        if j == k % n:
            assert prod == expected
        else:
            assert prod.is_identity()
    for g in (a, b, c, d):
        assert g.order() == n


def test_detector_identity_seeded_draws():
    rng = random.Random(2024)
    for _ in range(50):
        deg = rng.randrange(3, 6)  # N <= 5
        n = rng.randrange(2, 7)    # n <= 6
        k = rng.randrange(1, n)
        while True:
            sigma = rand_perm(rng, deg)
            if sigma.parity() == 0:
                break
        detector_check(sigma, k, n)


@pytest.mark.parametrize("sigma", [
    Permutation.from_cycles(3, (0, 1, 2)),
    Permutation.from_cycles(4, (0, 1), (2, 3)),
    Permutation.from_cycles(5, (0, 1, 2, 3, 4)),
], ids=repr)
def test_detector_lemma(sigma):
    """For every n <= 12, k < n and j < 2n, a^j b^j c^j d^j is [alpha, beta]
    at base index k-1 when j = k mod n, and the identity otherwise."""
    alpha, beta = ore_commutator(sigma)
    commutator = alpha * beta * alpha.inverse() * beta.inverse()
    for n in range(2, 13):
        for k in range(1, n):
            quad = build_pqrs(alpha, beta, k, n)
            placed = WreathElement.at_position(commutator, k - 1, n)
            for j in range(2 * n):
                product = power_product(quad, j)
                if j % n == k:
                    assert product == placed, (n, k, j)
                else:
                    assert product.is_identity(), (n, k, j)


def test_detector_k_bounds():
    with pytest.raises(GroupError):
        build_pqrs(Permutation.identity(3), Permutation.identity(3), 0, 3)


# --- closures and products --------------------------------------------------


def test_cayley_walk_steps_by_right_multiplication():
    gens = [Permutation.from_cycles(3, (0, 1)),
            Permutation.from_cycles(3, (0, 1, 2))]
    identity = Permutation.identity(3)
    elements, steps = cayley_walk(gens, identity)
    assert elements[0] == identity
    assert sorted(elements) == sorted(symmetric_group(3))
    assert elements[1:3] == gens
    for i, row in enumerate(steps):
        assert [elements[x] for x in row] == [elements[i] * g for g in gens]
    assert cayley_walk([], identity) == ([identity], [[]])
    with pytest.raises(GroupError, match="exceeded bound 5"):
        cayley_walk(gens, identity, bound=5)
    assert len(cayley_walk(gens, identity, bound=6)[0]) == 6
    with pytest.raises(GroupError, match="exceeded bound 5"):
        subgroup_closure(gens, bound=5)


def test_subgroup_closure_counts():
    gens = [Permutation.from_cycles(3, (0, 1, 2))]
    assert subgroup_closure(gens).order == 3
    assert subgroup_closure(
        [Permutation.from_cycles(3, (0, 1)), Permutation.from_cycles(3, (0, 1, 2))]
    ).order == 6


def test_tuple_element_componentwise():
    G = AbelianGroup((2,))
    t = TupleElement((G.element((1,)), Permutation.from_cycles(3, (0, 1, 2))))
    assert t.order() == 6
    assert (t * t.inverse()).is_identity()


def test_permutation_group_basics():
    g = PermutationGroup(2, [Permutation((1, 0))])
    assert g.order == 2
    assert g.is_abelian()
    assert not g.is_trivial()
    assert g.exponent() == 2
