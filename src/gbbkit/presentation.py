"""Presentations of the groups built from a base complex L, a finite
regular cover, and an exponent set S.

Generators are the directed edges of L.  For every closed directed loop
(a1, ..., al) there is a relator a1^n ... al^n whenever n lies in S, and
for every n whenever the loop lifts to the cover.  Torsion elements, when
present, are conjugates of the power products a1^j ... al^j over
non-lifting loops with j outside S; that catalog drives the torsion and
necessary-condition reports here and the kernel certificates in the
quotient machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .covers import RegularCover, lifts_to_loop
from .errors import QuotientError
from .intsets import FiniteSet, GodelSet, PeriodicSet


@dataclass(frozen=True)
class Relator:
    """The word a1^n ... al^n over a directed-edge loop."""

    loop: tuple  # tuple of directed edges
    exponent: int

    def word(self):
        out = []
        for (u, v) in self.loop:
            if self.exponent >= 0:
                out.extend([(u, v)] * self.exponent)
            else:
                out.extend([(v, u)] * (-self.exponent))
        return tuple(out)

    def __repr__(self):
        letters = "".join(f"({u}{v})^{self.exponent}" for (u, v) in self.loop)
        return f"Relator[{letters}]"


class GbbPresentation:
    """Presentation data: generators = directed edges of the base, relator
    families indexed by loops and exponents in S (shifted so 0 is in S;
    the shift is an isomorphism of the groups involved and is recorded)."""

    def __init__(self, L, cover: RegularCover, S: PeriodicSet):
        if cover.base is not L:
            raise QuotientError("cover base differs from L")
        if S.is_empty:
            raise QuotientError(
                "empty exponent set has no generating directed edges; "
                "use the torsion/necessary-condition reports instead"
            )
        self.L = L
        self.cover = cover
        shift = 0
        if 0 not in S:
            shift = -min(r for r in S.residues)
            S = S.shift(shift)
        self.S = S
        self.shift_applied = shift
        self.generators = tuple(L.directed_edges())

    def __repr__(self):
        return (
            f"GbbPresentation(|L0|={len(self.L.vertices)}, "
            f"deck order {self.cover.deck.order}, S={self.S.describe()})"
        )


def _canonical_rotation(loop, rank):
    """The rotation with the least rank tuple; no edge repr is a proper
    prefix of another, so it is the rotation with the least repr.  It
    starts with a least-rank edge of the loop."""
    keys = [rank[e] for e in loop]
    i = min(range(len(loop)), key=lambda i: keys[i:] + keys[:i])
    return loop[i:] + loop[:i]


def loops_upto(L, max_len, reduced=False):
    """Closed directed edge paths of length <= max_len, deduplicated under
    cyclic rotation, sorted by repr.  With ``reduced`` set, only cyclically
    reduced loops (no backtracking, including across the wrap) are
    produced; power products over a loop are invariant under inserting
    backtracks, so the reduced family decides any property of that kind.

    The canonical rotation of a loop starts with a least-rank edge e0, so
    each loop is searched for once per occurrence of e0 only: from e0,
    through edges of rank at least rank(e0)."""
    if max_len < 1:
        return []
    out = set()
    # vertex names may mix types (strings, tuples), so rank edges by repr
    edges = sorted(L.directed_edges(), key=repr)
    rank = {e: i for i, e in enumerate(edges)}
    # out-edges of each vertex as (rank, head), ascending
    nbrs = {v: [] for v in L.vertices}
    for i, (u, w) in enumerate(edges):
        nbrs[u].append((i, w))

    def extend(path, start, current, least):
        if current == start:
            loop = tuple(path)
            if not (reduced and len(loop) > 1
                    and loop[-1] == (loop[0][1], loop[0][0])):
                out.add(_canonical_rotation(loop, rank))
            # a closed prefix can still be extended into a longer loop
        if len(path) == max_len:
            return
        back = (path[-1][1], path[-1][0]) if reduced else None
        for i, w in nbrs[current]:
            if i < least or (current, w) == back:
                continue
            path.append((current, w))
            extend(path, start, w, least)
            path.pop()

    for i, (u, w) in enumerate(edges):
        extend([(u, w)], u, w, i)
    return sorted(out, key=repr)


def relators_upto(pres, max_exponent, max_loop_length, reduced=False):
    """All relators a1^n ... al^n with |n| <= max_exponent over loops up to
    the length bound: n in S always contributes; other n contribute for
    lifting loops.  Duplicate loops under cyclic rotation are removed."""
    out = []
    for loop in loops_upto(pres.L, max_loop_length, reduced=reduced):
        lifts = lifts_to_loop(pres.cover, loop)
        for n in range(-max_exponent, max_exponent + 1):
            if n == 0:
                continue
            if n in pres.S or lifts:
                out.append(Relator(loop, n))
    return out


def is_torsion_free(S, deck=None, deck_torsion_free=None):
    """Torsion-freeness criterion: S is everything, or the deck group is
    torsion-free (for a finite deck: trivial).  ``deck_torsion_free``
    overrides for documented infinite-deck cases."""
    if isinstance(S, PeriodicSet) and S.is_all:
        return True
    if deck_torsion_free is not None:
        return bool(deck_torsion_free)
    if deck is None:
        raise QuotientError("need a deck group or an explicit flag")
    return deck.order == 1


@dataclass(frozen=True)
class DeckProperties:
    """What is known about the deck group; None = unknown."""

    trivial: object = None
    torsion_free: object = None
    virtually_torsion_free: object = None
    residually_finite: object = None

    @classmethod
    def from_finite_group(cls, order):
        return cls(
            trivial=(order == 1),
            torsion_free=(order == 1),
            virtually_torsion_free=True,   # finite groups: trivial subgroup
            residually_finite=True,
        )


def _classify_set(s):
    """(is_all, periodic, closed) with None for unknown."""
    if isinstance(s, PeriodicSet):
        return s.is_all, True, True
    if isinstance(s, FiniteSet):
        return False, s.is_periodic, True
    if isinstance(s, GodelSet):
        # digit-encoded sets are always closed; nonempty ones contain 0 and
        # are bounded below, hence not periodic (they are never all of Z)
        return False, False, True
    if isinstance(s, (list, tuple)) and all(isinstance(t, PeriodicSet) for t in s):
        # explicit intersection of periodic sets: closed; periodicity holds
        # (finite intersection of periodic sets is periodic)
        inter = s[0]
        for t in s[1:]:
            inter = inter.intersect(t)
        return inter.is_all, True, True
    return None, None, None


@dataclass
class NecessaryConditionsReport:
    vtf: str  # "pass" | "fail" | "unknown"
    rf: str
    vtf_reasons: list = field(default_factory=list)
    rf_reasons: list = field(default_factory=list)


def _three_valued_any(clauses):
    """clauses: list of (status in {True, False, None}, reason)."""
    reasons = [r for s, r in clauses]
    if any(s is True for s, _ in clauses):
        return "pass", [r for s, r in clauses if s is True]
    if all(s is False for s, _ in clauses):
        return "fail", reasons
    return "unknown", reasons


def necessary_conditions_report(s_description, deck_props: DeckProperties):
    """Evaluate the necessary conditions for the group to be virtually
    torsion-free (S everything; or deck torsion-free; or deck virtually
    torsion-free and S periodic) and residually finite (S everything; or
    deck trivial; or deck residually finite and S closed in the profinite
    topology), using whatever certificates the set description provides."""
    is_all, periodic, closed = _classify_set(s_description)

    def conj(a, b):
        if a is False or b is False:
            return False
        if a is True and b is True:
            return True
        return None

    d = deck_props
    vtf_clauses = [
        (is_all, "S is all of Z"),
        (d.torsion_free, "deck group torsion-free"),
        (conj(d.virtually_torsion_free, periodic),
         "deck group virtually torsion-free and S periodic"),
    ]
    rf_clauses = [
        (is_all, "S is all of Z"),
        (d.trivial, "deck group trivial"),
        (conj(d.residually_finite, closed),
         "deck group residually finite and S profinitely closed"),
    ]
    vtf, vtf_r = _three_valued_any(vtf_clauses)
    rf, rf_r = _three_valued_any(rf_clauses)
    return NecessaryConditionsReport(vtf, rf, vtf_r, rf_r)
