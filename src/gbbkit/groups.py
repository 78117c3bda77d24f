"""Permutations, wreath products over a cyclic top group, commutator
decomposition, power products and their exponent sets.

All element types are immutable values: hashable, comparable for equality,
usable as dict keys.  Products compose left-to-right in the functional
sense: ``(p * q)(x) = p(q(x))``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, lcm

from .errors import GroupError
from .intsets import PeriodicSet


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {0..N-1} stored by its image tuple."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise GroupError(f"not a permutation of 0..{n - 1}: {self.images}")

    @classmethod
    def _unchecked(cls, images):
        """A permutation from images known to be one: products, inverses
        and powers of permutations skip the check of the constructor."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @classmethod
    def identity(cls, n):
        return cls._unchecked(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n, *cycles):
        images = list(range(n))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                images[a] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    @property
    def size(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        images, others = self.images, other.images
        if len(images) != len(others):
            raise GroupError("permutation size mismatch")
        return Permutation._unchecked(tuple(map(images.__getitem__, others)))

    def inverse(self):
        inv = [0] * self.size
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._unchecked(tuple(inv))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Permutation.identity(self.size)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def identity_like(self):
        return Permutation.identity(self.size)

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its least element,
        sorted by (length, least element)."""
        seen = set()
        out = []
        for i in range(self.size):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            seen.add(i)
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = self.images[j]
            out.append(tuple(cyc))
        out.sort(key=lambda c: (len(c), c[0]))
        return out

    def cycle_type(self):
        return tuple(sorted(len(c) for c in self.cycles()))

    def parity(self):
        """0 for even, 1 for odd."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    def order(self):
        return lcm(1, *(len(c) for c in self.cycles()))

    def parent_key(self):
        return ("sym", self.size)

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return f"Perm.id({self.size})"
        return "Perm" + "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


@dataclass(frozen=True, order=True)
class AbelianElement:
    """Element of a product of cyclic groups Z/f1 x ... x Z/fk, written
    additively but exposing the generic multiplicative interface."""

    factors: tuple
    coords: tuple

    def __post_init__(self):
        if len(self.factors) != len(self.coords):
            raise GroupError("coordinate/factor length mismatch")
        object.__setattr__(
            self, "coords", tuple(c % f for c, f in zip(self.coords, self.factors))
        )

    @classmethod
    def _unchecked(cls, factors, coords):
        """An element from coordinates already reduced modulo their
        factors: products skip the reduction of the constructor."""
        a = object.__new__(cls)
        object.__setattr__(a, "factors", factors)
        object.__setattr__(a, "coords", coords)
        return a

    def __mul__(self, other):
        factors = self.factors
        if factors != other.factors:
            raise GroupError("mixed abelian parents")
        return AbelianElement._unchecked(factors, tuple(
            (a + b) % f for a, b, f in zip(self.coords, other.coords, factors)))

    def __add__(self, other):
        return self * other

    def __neg__(self):
        return self.inverse()

    def inverse(self):
        return AbelianElement(self.factors, tuple(-c for c in self.coords))

    def __pow__(self, k):
        return AbelianElement(self.factors, tuple(k * c for c in self.coords))

    def is_identity(self):
        return all(c == 0 for c in self.coords)

    def identity_like(self):
        return AbelianElement(self.factors, (0,) * len(self.factors))

    def order(self):
        return lcm(1, *(f // _gcd(c, f) for c, f in zip(self.coords, self.factors)))

    def parent_key(self):
        return ("abelian", self.factors)

    def __repr__(self):
        return f"Ab{self.coords}"


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a if a else 1


@dataclass(frozen=True)
class AbelianGroup:
    """Descriptor for a finite product of cyclic groups."""

    factors: tuple

    def element(self, coords):
        return AbelianElement(self.factors, tuple(coords))

    def identity(self):
        return AbelianElement(self.factors, (0,) * len(self.factors))

    def elements(self):
        for coords in itertools.product(*(range(f) for f in self.factors)):
            yield AbelianElement(self.factors, coords)

    @property
    def order(self):
        n = 1
        for f in self.factors:
            n *= f
        return n

    @property
    def exponent(self):
        return lcm(1, *self.factors)


@dataclass(frozen=True, order=True)
class WreathElement:
    """Element x * rho^rotor of the wreath product S_N wr C_n: ``base`` is
    the n-tuple over S_N and ``rotor`` the cyclic part.  Conjugation by the
    rotor generator shifts base positions upward:
    rho * (x at position i) * rho^-1 = (x at position i+1 mod n).
    """

    base: tuple  # n-tuple of Permutation
    rotor: int

    def __post_init__(self):
        n = len(self.base)
        if n == 0:
            raise GroupError("empty wreath base")
        object.__setattr__(self, "rotor", self.rotor % n)

    @classmethod
    def _unchecked(cls, base, rotor):
        """An element from a nonempty base and a rotor already reduced
        modulo its length: products skip the constructor."""
        w = object.__new__(cls)
        object.__setattr__(w, "base", base)
        object.__setattr__(w, "rotor", rotor)
        return w

    @classmethod
    def rho(cls, n, degree):
        return cls(tuple(Permutation.identity(degree) for _ in range(n)), 1)

    @classmethod
    def at_position(cls, perm, i, n):
        """The base element with ``perm`` in position i, identity elsewhere."""
        ident = Permutation.identity(perm.size)
        return cls(tuple(perm if j == i % n else ident for j in range(n)), 0)

    @property
    def n(self):
        return len(self.base)

    @property
    def degree(self):
        return self.base[0].size

    def __mul__(self, other):
        base, others = self.base, other.base
        n, r = len(base), self.rotor
        if n != len(others) or base[0].size != others[0].size:
            raise GroupError("mixed wreath parents")
        # position i of the product is base[i] * other.base[i - r]
        shifted = others[n - r:] + others[:n - r]
        return WreathElement._unchecked(
            tuple(map(Permutation.__mul__, base, shifted)),
            (r + other.rotor) % n)

    def inverse(self):
        r = self.rotor
        inv = tuple(self.base[(i + r) % self.n].inverse() for i in range(self.n))
        return WreathElement._unchecked(inv, -r % self.n)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.identity_like()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self):
        return self.rotor == 0 and all(p.is_identity() for p in self.base)

    def identity_like(self):
        return WreathElement._unchecked(
            (Permutation.identity(self.degree),) * self.n, 0)

    def order(self):
        """k = n / gcd(n, rotor) is the order of the rotor, so w^k lies in
        the base group and the order of w is k times the lcm of the orders
        of the entries of w^k."""
        k = self.n // gcd(self.n, self.rotor)
        return k * lcm(1, *(p.order() for p in (self ** k).base))

    def parent_key(self):
        return ("wreath", self.degree, self.n)

    def __repr__(self):
        return f"Wr(base={list(self.base)}, rotor={self.rotor})"


@dataclass(frozen=True, order=True)
class TupleElement:
    """Element of a direct product of component groups (componentwise ops).
    Components may be of any element type above."""

    parts: tuple

    def __mul__(self, other):
        if len(self.parts) != len(other.parts):
            raise GroupError("mixed tuple parents")
        return TupleElement(tuple(a * b for a, b in zip(self.parts, other.parts)))

    def inverse(self):
        return TupleElement(tuple(p.inverse() for p in self.parts))

    def __pow__(self, k):
        return TupleElement(tuple(p ** k for p in self.parts))

    def is_identity(self):
        return all(p.is_identity() for p in self.parts)

    def identity_like(self):
        return TupleElement(tuple(p.identity_like() for p in self.parts))

    def order(self):
        return lcm(1, *(p.order() for p in self.parts))

    def parent_key(self):
        return ("tuple",) + tuple(p.parent_key() for p in self.parts)

    def __repr__(self):
        return f"Tup{self.parts}"


# ---------------------------------------------------------------------------
# generic element utilities


def power_product(elements, j):
    """g1^j * g2^j * ... * gl^j.  Elements must share a parent; j may be
    negative.  The empty product is not defined without a parent hint, so
    the list must be nonempty."""
    if not elements:
        raise GroupError("empty element list")
    keys = {g.parent_key() for g in elements}
    if len(keys) > 1:
        raise GroupError(f"mixed parent groups: {keys}")
    out = elements[0].identity_like()
    for g in elements:
        out = out * (g ** j)
    return out


_TABLE_BOUND = 10 ** 6


def _power_table(g):
    """The cyclic table g^0, g^1, ..., g^(o-1) by repeated multiplication;
    it stops where the powers return to the identity, so its length is
    the order o of g.  Raises on an order above _TABLE_BOUND."""
    table = [g.identity_like()]
    acc = g
    while not acc.is_identity():
        table.append(acc)
        if len(table) > _TABLE_BOUND:
            raise GroupError("order computation exceeded bound")
        acc = acc * g
    return table


def r_set(elements):
    """The set of integers j with g1^j ... gl^j = 1, as a periodic set.

    The set is a union of residue classes modulo m, the lcm of the orders
    of the elements, so one period decides it.  Each distinct element of
    order above 1 gets its power table, and the product at residue j reads
    g^j off the table of g at j modulo its length: no power is computed
    twice.
    """
    if not elements:
        raise GroupError("empty element list")
    index = {}
    positions = [index.setdefault(g, len(index)) for g in elements]
    keys = {g.parent_key() for g in index}
    if len(keys) > 1:
        raise GroupError(f"mixed parent groups: {keys}")
    tables = [_power_table(g) for g in index]
    rows = [tables[i] for i in positions if len(tables[i]) > 1]
    m = lcm(1, *(len(t) for t in rows))
    residues = {0}
    for j in range(1, m):
        # g^j is the identity where j is a multiple of the order of g
        acc = None
        for t in rows:
            i = j % len(t)
            if i:
                acc = t[i] if acc is None else acc * t[i]
        if acc.is_identity():
            residues.add(j)
    return PeriodicSet(m, frozenset(residues))


@dataclass(frozen=True)
class Subgroup:
    """A finite subgroup given by an explicit element list."""

    parent_key: tuple
    generators: tuple
    elements: frozenset

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.elements

    def exponent(self):
        return lcm(1, *(g.order() for g in self.elements))


def subgroup_closure(generators, identity=None, bound=10 ** 6):
    """Close a generator list under products.  ``identity`` is required
    when the list is empty."""
    gens = tuple(generators)
    if not gens:
        if identity is None:
            raise GroupError("empty generators need an explicit identity")
        return Subgroup(identity.parent_key(), (), frozenset({identity}))
    keys = {g.parent_key() for g in gens}
    if len(keys) > 1:
        raise GroupError(f"mixed parent groups: {keys}")
    ident = gens[0].identity_like()
    elements = {ident}
    frontier = [ident]
    gens_inv = gens + tuple(g.inverse() for g in gens)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens_inv:
                e = h * g
                if e not in elements:
                    elements.add(e)
                    nxt.append(e)
                    if len(elements) > bound:
                        raise GroupError(f"closure exceeded bound {bound}")
        frontier = nxt
    return Subgroup(ident.parent_key(), gens, frozenset(elements))


# ---------------------------------------------------------------------------
# symmetric-group helpers


def symmetric_group(n):
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


def _align_by_cycles(u, w):
    """A permutation beta with beta * u * beta^-1 = w, for u, w of equal
    cycle type.  Cycles are matched in the canonical (length, least) order;
    fixed points likewise."""
    n = u.size
    ucyc, wcyc = u.cycles(), w.cycles()
    images = [None] * n
    for cu, cw in zip(ucyc, wcyc):
        for a, b in zip(cu, cw):
            images[a] = b
    ufix = [i for i in range(n) if u.images[i] == i]
    wfix = [i for i in range(n) if w.images[i] == i]
    for a, b in zip(ufix, wfix):
        images[a] = b
    return Permutation(tuple(images))


def ore_commutator(sigma, seed=0):
    """A pair (alpha, beta) with alpha*beta*alpha^-1*beta^-1 = sigma, for
    even sigma.  Every even permutation is a commutator; the search walks
    candidate alphas (exhaustively for degree <= 7, seeded-randomly above)
    and solves for beta by cycle alignment."""
    n = sigma.size
    if sigma.parity() != 0:
        raise GroupError("sigma must be an even permutation")
    ident = Permutation.identity(n)
    if sigma.is_identity():
        return ident, ident

    def try_alpha(alpha):
        # [alpha, beta] = sigma  <=>  beta (alpha^-1) beta^-1 = alpha^-1 sigma
        u = alpha.inverse()
        w = u * sigma
        if u.cycle_type() != w.cycle_type():
            return None
        beta = _align_by_cycles(u, w)
        if alpha * beta * alpha.inverse() * beta.inverse() == sigma:
            return beta
        return None

    if n <= 7:
        for alpha in symmetric_group(n):
            beta = try_alpha(alpha)
            if beta is not None:
                return alpha, beta
        raise GroupError("exhaustive commutator search failed (unexpected)")
    rng = random.Random(seed)
    for _ in range(200000):
        images = list(range(n))
        rng.shuffle(images)
        alpha = Permutation(tuple(images))
        beta = try_alpha(alpha)
        if beta is not None:
            return alpha, beta
    raise GroupError("randomized commutator search exhausted")


def build_pqrs(alpha, beta, k, n):
    """The four wreath elements whose power product detects the residue k:
    with rho the rotor generator, A the copy of alpha in the top position
    and B the copy of beta in position k-1,

        a = rho
        b = A rho^-1 A^-1
        c = A B rho B^-1 A^-1
        d = B rho^-1 B^-1

    Each has order n, and a^j b^j c^j d^j equals the commutator
    [alpha, beta] placed in base index k-1 when j = k mod n, and the
    identity otherwise."""
    if not 1 <= k < n:
        raise GroupError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if alpha.size != beta.size:
        raise GroupError("alpha, beta must share a degree")
    rho = WreathElement.rho(n, alpha.size)
    A = WreathElement.at_position(alpha, n - 1, n)
    B = WreathElement.at_position(beta, k - 1, n)
    a = rho
    b = A * rho.inverse() * A.inverse()
    c = A * B * rho * B.inverse() * A.inverse()
    d = B * rho.inverse() * B.inverse()
    return a, b, c, d


class PermutationGroup:
    """A permutation group with an explicit element table; used as the
    deck group of finite regular covers."""

    def __init__(self, degree, generators):
        self.degree = degree
        self.generators = tuple(generators)
        for g in self.generators:
            if g.size != degree:
                raise GroupError("generator degree mismatch")
        self.identity = Permutation.identity(degree)
        sub = subgroup_closure(self.generators, identity=self.identity)
        self.elements = tuple(sorted(sub.elements))
        self._element_set = sub.elements

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self._element_set

    def __iter__(self):
        return iter(self.elements)

    def exponent(self):
        return lcm(1, *(g.order() for g in self.elements))

    def is_abelian(self):
        return all(
            a * b == b * a
            for a in self.generators
            for b in self.generators
        )

    def is_trivial(self):
        return self.order == 1

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"
