"""Integer-set layer: periodic sets, digit-encoded sets, approximations."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbbkit.errors import SetError, WindowError
from gbbkit.intsets import (FiniteSet, GodelSet, PeriodicSet, gcd_of_set,
                            godel_window, nested_approx)


def brute_window(modulus, residues, lo, hi):
    return frozenset(m for m in range(lo, hi + 1) if m % modulus in residues)


# --- periodic sets ---------------------------------------------------------


def test_least_period_normalization():
    s = PeriodicSet(6, {0, 2, 4})
    assert s.modulus == 2
    assert s.residues == frozenset({0})
    assert PeriodicSet(4, {0, 1, 2, 3}).is_all
    assert PeriodicSet(5, set()).modulus == 1


def test_least_period_large_modulus():
    # 720720 has 240 divisors; each is tested in O(|R|)
    s = PeriodicSet(720720, {0, 1})
    assert (s.modulus, s.residues) == (720720, frozenset({0, 1}))


def test_least_period_modulus_1e18():
    # the period is read off the residues' gaps, so the size of the
    # modulus does not matter (trial division would need 10^9 steps)
    n = 10 ** 18
    s = PeriodicSet(n, {0, 3})
    assert (s.modulus, s.residues) == (n, frozenset({0, 3}))
    t = PeriodicSet(n, {r + k * n // 10 for r in (0, 3) for k in range(10)})
    assert (t.modulus, t.residues) == (n // 10, frozenset({0, 3}))
    u = PeriodicSet(n, {7, 7 + n // 2, -1})
    assert (u.modulus, u.residues) == (n, frozenset({7, 7 + n // 2, n - 1}))
    assert PeriodicSet(n, {5, 5 + n // 2}).modulus == n // 2
    s = PeriodicSet(720720, set(range(3, 720720, 6)))
    assert (s.modulus, s.residues) == (6, frozenset({3}))
    cert = GodelSet(frozenset({0, 2}), 7).f_certificate(5)
    assert cert.modulus == 10 ** 6 and cert.residues == frozenset(
        {0, 1, 100, 101})


def test_membership_and_window():
    s = PeriodicSet.multiples(3)
    assert 0 in s and -3 in s and 4 not in s
    assert s.window(-4, 7) == frozenset({-3, 0, 3, 6})


def test_window_matches_membership():
    """window lists each residue's progression from lo; it must return
    exactly the integers of [lo, hi] that membership accepts: random
    moduli and residue sets, the empty set, all of Z, negative lo, and
    lo > hi."""
    rng = random.Random(5)
    sets = [PeriodicSet.empty(), PeriodicSet.all_integers(),
            PeriodicSet(10 ** 5, {0, 1, 100, 101})]
    for _ in range(300):
        modulus = rng.randrange(1, 40)
        sets.append(PeriodicSet(modulus, {
            rng.randrange(-50, 50) for _ in range(rng.randrange(modulus + 1))}))
    intervals = 0
    for s in sets:
        for _ in range(6):
            lo = rng.randrange(-120, 120)
            hi = lo + rng.randrange(-6, 150)
            intervals += lo > hi
            assert s.window(lo, hi) == frozenset(
                m for m in range(lo, hi + 1) if m in s), (s, lo, hi)
    assert intervals > 0
    assert PeriodicSet.all_integers().window(-3, 2) == frozenset(range(-3, 3))
    assert PeriodicSet.empty().window(-3, 2) == frozenset()


periodic_sets = st.builds(
    PeriodicSet,
    st.integers(min_value=1, max_value=12),
    st.frozensets(st.integers(min_value=-20, max_value=20), max_size=8),
)


@given(periodic_sets, periodic_sets)
@settings(max_examples=60)
def test_algebra_matches_pointwise(a, b):
    lo, hi = -30, 30
    assert (a & b).window(lo, hi) == a.window(lo, hi) & b.window(lo, hi)
    assert (a | b).window(lo, hi) == a.window(lo, hi) | b.window(lo, hi)
    comp = a.complement()
    assert comp.window(lo, hi) == frozenset(range(lo, hi + 1)) - a.window(lo, hi)


@given(periodic_sets, st.integers(min_value=-15, max_value=15))
@settings(max_examples=40)
def test_shift_translates(a, k):
    assert a.shift(k).window(-20, 20) == frozenset(
        m for m in range(-20, 21) if (m - k) in a
    )


def test_gcd_of_set():
    assert gcd_of_set(PeriodicSet.multiples(6)) == 6
    assert gcd_of_set(PeriodicSet(6, {0, 4})) == 2
    assert gcd_of_set(PeriodicSet.all_integers()) == 1


def test_bad_modulus():
    with pytest.raises(SetError):
        PeriodicSet(0, {0})


# --- digit-encoded sets ----------------------------------------------------


def test_godel_members():
    g = GodelSet(frozenset({0, 2}), 6)
    assert g.members_below(200) == [0, 1, 100, 101]
    assert 101 in g and 11 not in g and 2 not in g and -1 not in g
    assert 10100 not in g  # needs digit position 4
    assert 10100 in GodelSet(frozenset({0, 2, 4}), 6)


def test_godel_window_error():
    g = GodelSet(frozenset({0, 2}), 3)
    with pytest.raises(WindowError):
        10 ** 4 in g  # noqa: B015 -- membership query raises
    with pytest.raises(WindowError):
        g.members_below(10 ** 5)


def powers_contains(g, m):
    """The replaced membership test, which raised the window error against
    10 ** position_bound."""
    if m >= 0 and m >= 10 ** g.position_bound:
        return ("window", len(str(m)))
    return m in g


def powers_members_below(g, bound):
    """The replaced members_below, which compared 10 ** position_bound and
    each 10 ** p with the bound."""
    if bound > 10 ** g.position_bound:
        return ("window", len(str(bound - 1)))
    usable = [p for p in g.digit_positions if 10 ** p < bound]
    return sorted({sum(10 ** p for p in combo)
                   for size in range(len(usable) + 1)
                   for combo in itertools.combinations(usable, size)
                   if sum(10 ** p for p in combo) < bound})


def outcome(query, *args):
    try:
        return query(*args)
    except WindowError as err:
        return ("window", err.required)


def test_godel_digit_counts_match_the_powers_of_ten():
    """Membership and members_below count digits instead of raising 10 to
    the position bound: m = 0, a bound of 0 and the edges 10**b - 1 and
    10**b of the window keep their answers and window errors."""
    for b in range(6):
        for positions in (frozenset(), frozenset(range(0, b, 2)),
                          frozenset(range(b))):
            g = GodelSet(positions, b)
            # around each power of ten and each repunit 11...1
            near = {x + d for k in range(b + 3)
                    for x in (10 ** k, (10 ** k - 1) // 9)
                    for d in (-2, -1, 0, 1)}
            for m in sorted(near | {-1, 0}):
                assert outcome(g.__contains__, m) == powers_contains(g, m), (
                    positions, b, m)
                assert outcome(g.members_below, m) == powers_members_below(
                    g, m), (positions, b, m)
    empty = GodelSet(frozenset(), 0)
    assert 0 in empty and empty.members_below(1) == [0]
    assert outcome(empty.__contains__, 1) == ("window", 1)


def test_godel_membership_with_a_huge_position_bound():
    """A position bound of 10**8 costs nothing: no power of ten is raised
    to it."""
    g = GodelSet(frozenset({0, 2}), 10 ** 8)
    assert 101 in g and 11 not in g and 10 ** 50 not in g
    assert g.members_below(10 ** 6) == [0, 1, 100, 101]


def test_godel_position_validation():
    with pytest.raises(SetError):
        GodelSet(frozenset({-1}), 3)
    with pytest.raises(SetError):
        GodelSet(frozenset({5}), 3)


def test_f_certificates_agree_on_window():
    g = GodelSet(frozenset({0, 2, 3}), 6)
    for n in range(5):
        cert = g.f_certificate(n)
        hi = 2 * 10 ** n
        assert cert.window(0, hi) == frozenset(g.members_below(hi + 1))


def test_godel_window_helper():
    members, certs = godel_window({0, 2}, 200, f_levels=(1, 2))
    assert members == [0, 1, 100, 101]
    assert 1 in certs and 2 in certs
    with pytest.raises(WindowError):
        godel_window({0, 2}, 10 ** 9, certified_bound=3)


# --- approximation chains --------------------------------------------------


def test_nested_approx_shortest_prefix():
    target = FiniteSet(frozenset({0}))
    chain = [PeriodicSet.multiples(p) for p in (2, 3, 5, 7)]
    got = nested_approx(target, chain, 6)
    assert got == PeriodicSet.multiples(30)


def test_nested_approx_failure():
    target = FiniteSet(frozenset({1}))
    with pytest.raises(SetError):
        nested_approx(target, [PeriodicSet.multiples(2)], 4)
