"""Subsets of the integers used as exponent sets.

Three flavours are provided, all immutable:

* :class:`PeriodicSet` -- unions of arithmetic progressions, normalized to
  the least period.  These are the basic clopen sets of the profinite
  topology on the integers.
* :class:`FiniteSet` -- explicit finite sets (closed, periodic only when
  empty).
* :class:`GodelSet` -- sets of base-10 numbers with digits in {0,1} whose
  1-digit positions are drawn from a given set of naturals.  Always closed,
  never periodic when the digit set is nonempty; membership is certified
  only on a window, which the decoders respect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import SetError, WindowError


@dataclass(frozen=True)
class PeriodicSet:
    """A subset of Z invariant under translation by ``modulus``.

    Stored as residues mod the *least* period; the constructor normalizes.
    """

    modulus: int
    residues: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        n = self.modulus
        if n < 1:
            raise SetError("modulus must be >= 1")
        res = frozenset(r % n for r in self.residues)
        d = _least_period(n, sorted(res))
        object.__setattr__(self, "modulus", d)
        object.__setattr__(self, "residues", frozenset(r % d for r in res))

    # --- constructors -------------------------------------------------
    @classmethod
    def multiples(cls, n):
        return cls(n, frozenset({0}))

    @classmethod
    def all_integers(cls):
        return cls(1, frozenset({0}))

    @classmethod
    def empty(cls):
        return cls(1, frozenset())

    # --- queries ------------------------------------------------------
    def __contains__(self, m):
        return m % self.modulus in self.residues

    @property
    def is_empty(self):
        return not self.residues

    @property
    def is_all(self):
        return self.modulus == 1 and 0 in self.residues

    def window(self, lo, hi):
        """Members in the closed interval [lo, hi]: for each residue r the
        progression r + k*modulus, from its first member at or above lo."""
        n = self.modulus
        return frozenset(m for r in self.residues
                         for m in range(lo + (r - lo) % n, hi + 1, n))

    # --- algebra --------------------------------------------------------
    def _on_lcm(self, other):
        n = lcm(self.modulus, other.modulus)
        return n, {r for r in range(n) if r in self}, {r for r in range(n) if r in other}

    def intersect(self, other):
        n, a, b = self._on_lcm(other)
        return PeriodicSet(n, frozenset(a & b))

    def union(self, other):
        n, a, b = self._on_lcm(other)
        return PeriodicSet(n, frozenset(a | b))

    def complement(self):
        n = self.modulus
        return PeriodicSet(n, frozenset(r for r in range(n) if r not in self.residues))

    def shift(self, k):
        """The translate S + k."""
        return PeriodicSet(self.modulus, frozenset(r + k for r in self.residues))

    def __and__(self, other):
        return self.intersect(other)

    def __or__(self, other):
        return self.union(other)

    def describe(self):
        if self.is_empty:
            return "empty"
        if self.is_all:
            return "Z"
        rs = ",".join(str(r) for r in sorted(self.residues))
        return f"{{{rs}}} mod {self.modulus}"


def _least_period(n, residues):
    """The least d > 0 with residues + d = residues (mod n), for the sorted
    residues of a subset of Z/n.  A translation preserving the set maps its
    least residue to another residue r_t and so rotates the cyclic
    sequence of gaps between consecutive residues by t places; the least
    such t is the least period of that sequence, read off its prefix
    function, and d is the sum of its first t gaps."""
    k = len(residues)
    if k == 0:
        return 1
    gaps = [b - a for a, b in zip(residues, residues[1:])]
    gaps.append(residues[0] + n - residues[-1])
    prefix = [0] * k
    for i in range(1, k):
        m = prefix[i - 1]
        while m and gaps[i] != gaps[m]:
            m = prefix[m - 1]
        prefix[i] = m + (gaps[i] == gaps[m])
    t = k - prefix[-1]
    if k % t:
        t = k
    return residues[t] - residues[0] if t < k else n


@dataclass(frozen=True)
class FiniteSet:
    members: frozenset

    def __contains__(self, m):
        return m in self.members

    def window(self, lo, hi):
        return frozenset(m for m in self.members if lo <= m <= hi)

    @property
    def is_empty(self):
        return not self.members

    @property
    def is_periodic(self):
        # a nonempty periodic set is unbounded
        return not self.members


@dataclass(frozen=True)
class GodelSet:
    """The set of sums of distinct powers 10^n over finite subsets of a
    digit-position set.  0 (the empty sum) is always a member.

    ``digit_positions`` lists the positions known to be in the source set;
    ``position_bound`` certifies that no positions < position_bound are
    missing from the list, so membership of integers below
    10**position_bound is decidable.
    """

    digit_positions: frozenset
    position_bound: int

    def __post_init__(self):
        if any(p < 0 for p in self.digit_positions):
            raise SetError("digit positions must be natural numbers")
        if any(p >= self.position_bound for p in self.digit_positions):
            raise SetError("digit positions exceed the certified bound")

    def __contains__(self, m):
        if m < 0:
            return False
        # m >= 10**b without that power: below 3 b bits m < 2**(3 b) <= 10**b
        b = self.position_bound
        if m.bit_length() > 3 * b and len(str(m)) > b:
            raise WindowError(
                f"membership of {m} needs digit positions up to "
                f"{len(str(m)) - 1}, certified only below {b}",
                required=len(str(m)),
            )
        pos = 0
        while m:
            m, digit = divmod(m, 10)
            if digit not in (0, 1):
                return False
            if digit == 1 and pos not in self.digit_positions:
                return False
            pos += 1
        return True

    def window(self, lo, hi):
        return frozenset(m for m in self.members_below(hi + 1) if m >= lo)

    def members_below(self, bound):
        """Sorted members < bound."""
        # 10**p < bound exactly when p is below the digit count of bound - 1
        digits = len(str(bound - 1)) if bound > 1 else 0
        if digits > self.position_bound:
            raise WindowError(
                f"bound {bound} exceeds the certified digit window",
                required=digits,
            )
        usable = sorted(p for p in self.digit_positions if p < digits)
        out = []
        for size in range(len(usable) + 1):
            for combo in itertools.combinations(usable, size):
                val = sum(10 ** p for p in combo)
                if val < bound:
                    out.append(val)
        return sorted(set(out))

    def f_certificate(self, n):
        """Periodic outer approximation at level n: the members up to
        2*10^n, repeated with period 10^(n+1).  The full set is the nested
        intersection of these approximations."""
        members = [m for m in self.members_below(2 * 10 ** n + 1)]
        return PeriodicSet(10 ** (n + 1), frozenset(members))

    @property
    def is_periodic(self):
        # bounded below and nonempty, hence never periodic
        return False


def godel_window(digit_positions, bound, f_levels=(), certified_bound=None):
    """Members of the digit-encoded set below ``bound``, plus the periodic
    certificates at the requested levels.

    ``certified_bound``, when given, is the extent of the window on which
    the position set is known; it must cover every digit position a number
    below the bound (or in a certificate level) could use.
    """
    need = len(str(max(bound - 1, 1)))
    if f_levels:
        need = max(need, *(n + 2 for n in f_levels))
    if certified_bound is not None and certified_bound < need:
        raise WindowError(
            f"digit positions certified only below {certified_bound}, "
            f"need {need}",
            required=need,
        )
    gs = GodelSet(frozenset(p for p in digit_positions if p < need), need)
    members = gs.members_below(bound)
    certs = {n: gs.f_certificate(n) for n in f_levels}
    return members, certs


def nested_approx(target, periodic_list, k):
    """Shortest cumulative intersection of the list that agrees with the
    target on [-k, k].

    ``target`` is anything with a ``window(lo, hi)`` method (a PeriodicSet,
    FiniteSet, or GodelSet).  The cumulative prefixes form a descending
    chain by construction.  Raises when no prefix achieves agreement.
    """
    if not periodic_list:
        raise SetError("empty approximation list")
    want = target.window(-k, k)
    acc = None
    chain = []
    for term in periodic_list:
        acc = term if acc is None else acc.intersect(term)
        chain.append(acc)
        if acc.window(-k, k) == want:
            return acc
    raise SetError(
        f"no prefix of the list agrees with the target on [-{k},{k}]; "
        f"full intersection gives {sorted(acc.window(-k, k))}, "
        f"target gives {sorted(want)}"
    )


def gcd_of_set(s: PeriodicSet):
    """gcd of the modulus and all residues; the additive generator of the
    subgroup of Z generated by the set (when 0 is a member)."""
    g = s.modulus
    for r in s.residues:
        g = gcd(g, r)
    return g
