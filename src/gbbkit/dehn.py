"""Word problem for the cyclically presented groups
< a_1..a_l | a_1^n a_2^n ... a_l^n, n in T >
via metric small-cancellation and Dehn's algorithm.

Words are tuples of nonzero ints: +i stands for a_i, -i for its inverse
(1-indexed).  The exponent set T may be a periodic set (decidable
everywhere) or a digit-encoded set certified on a window; relator
generation is lazy in n and the reducer raises a window error when it
cannot decide membership for an exponent it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, repeat

from .errors import DehnError, InternalError, WindowError
from .intsets import GodelSet, PeriodicSet


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(word):
    return tuple(-x for x in reversed(word))


@dataclass(frozen=True)
class Word:
    letters: tuple

    def __post_init__(self):
        if any(x == 0 for x in self.letters):
            raise DehnError("0 is not a generator index")
        object.__setattr__(self, "letters", free_reduce(self.letters))

    def __len__(self):
        return len(self.letters)

    @classmethod
    def parse(cls, text):
        """Parse 'a1 a2 -a3' or 'a1 a2 a3^-1' style strings."""
        letters = []
        for tok in text.split():
            neg = False
            if tok.startswith("-"):
                neg = True
                tok = tok[1:]
            if "^" in tok:
                tok, exp = tok.split("^", 1)
                if exp.strip() == "-1":
                    neg = not neg
                else:
                    raise DehnError(f"unsupported exponent in {tok!r}")
            if not (tok.startswith("a") and tok[1:].isdecimal()):
                raise DehnError(f"cannot parse generator {tok!r}")
            i = int(tok[1:])
            letters.append(-i if neg else i)
        return cls(tuple(letters))

    def __repr__(self):
        return " ".join(f"a{x}" if x > 0 else f"-a{-x}" for x in self.letters) or "<empty>"


class CyclicPresentation:
    """l generators; one relator a_1^n ... a_l^n for each n in T."""

    def __init__(self, l, T):
        if l < 3:
            raise DehnError("need at least 3 generators")
        if not isinstance(T, (PeriodicSet, GodelSet)):
            raise DehnError("T must be a periodic or digit-encoded set")
        self.l = l
        self.T = T

    def contains_exponent(self, n):
        try:
            return n in self.T
        except WindowError as err:
            raise WindowError(
                f"exponent {n} is outside the certified window of T "
                f"(needs digits up to {err.required})",
                required=err.required,
            ) from err

    def relator(self, n):
        if n == 0:
            return ()
        word = []
        for i in range(1, self.l + 1):
            word.extend([i if n > 0 else -i] * abs(n))
        return tuple(word)

    def relators_in_window(self, window):
        """(n, relator) pairs for nonzero |n| <= window with n in T."""
        out = []
        for n in range(-window, window + 1):
            if n != 0 and self.contains_exponent(n):
                out.append((n, self.relator(n)))
        return out


# ---------------------------------------------------------------------------
# small cancellation


def _common_prefix_len(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


@dataclass
class SmallCancellationReport:
    m: int
    window: int
    relator_count: int
    max_piece_length: int
    per_relator_ratio: dict          # n -> max piece in R_n / |R_n|
    max_ratio: float
    passes: bool
    window_certified: bool = True    # the verdict covers only the window
    note: str = (
        "certified for relators with exponents inside the window only; "
        "the infinite tail is an assumption"
    )


def small_cancellation_check(pres, m, exponent_window):
    """Check the metric condition: every piece (maximal common prefix of
    two distinct relator occurrences, over all cyclic rotations and
    inverses) must be shorter than 1/m of every relator containing it.

    The occurrences are sorted once.  In a sorted list the common prefix
    of two entries is the least common prefix of the adjacent pairs
    between them, so each occurrence shares its longest piece with one of
    its two sorted neighbours (Kasai et al., CPM 2001).  The adjacent
    pairs therefore give the same maximum piece per relator as all pairs,
    in O(K log K) comparisons for K occurrences instead of O(K^2).

    Reports the worst per-relator ratio; the raw maximum piece length is
    included for reference.  The verdict only covers relators inside the
    exponent window."""
    if exponent_window < 1:
        raise DehnError("empty relator window")
    rels = pres.relators_in_window(exponent_window)
    if not rels:
        raise DehnError("no relators in the window")
    # occurrences: (rotation of R_n or its inverse, n)
    occurrences = sorted(
        (base[i:] + base[:i], n)
        for n, rel in rels
        for base in (rel, invert_word(rel))
        for i in range(len(base))
    )
    best_piece = {n: 0 for n, _ in rels}
    for (wa, na), (wb, nb) in zip(occurrences, occurrences[1:]):
        p = _common_prefix_len(wa, wb)
        best_piece[na] = max(best_piece[na], p)
        best_piece[nb] = max(best_piece[nb], p)
    ratios = {
        n: best_piece[n] / (abs(n) * pres.l) for n, _ in rels
    }
    max_ratio = max(ratios.values())
    return SmallCancellationReport(
        m=m,
        window=exponent_window,
        relator_count=len(rels),
        max_piece_length=max(best_piece.values()),
        per_relator_ratio=ratios,
        max_ratio=max_ratio,
        passes=max_ratio < 1.0 / m,
    )


# ---------------------------------------------------------------------------
# Dehn's algorithm
#
# Every relator or inverse relator is a cyclic word of l constant-letter
# blocks of equal length n: ascending generators with letter sign +/-
# (the relators R_n and R_-n) or descending with sign -/+ (their
# inverses).  On the run-length encoding of a word, a match against a
# rotation is a partial block (the last min(c, n) letters of a run), a
# chain of runs of exactly n letters with stepping generators, and a final
# partial block.
#
# One family per run.  A more-than-half match covers t > l*n/2 letters,
# at most 2n of them in its two partial blocks, so for l >= 4 it needs a
# whole interior block, and the first one is the run p+1 after its
# starting run p.  Hence n = count(p+1), and the signs and generators of
# runs p and p+1 fix the family.  For l = 3 two partial blocks alone can
# cover more than half, so there n ranges over 1..count(p)+count(p+1).
# Each run keeps the key (t, -n, -family) of its best match.  The first
# maximal key picks the longest match, then the smallest n, then the
# family order R_n, R_n^-1, R_-n, R_-n^-1, then the leftmost run.
#
# Recompute radius.  The match from run p reads at most runs p..p+l: each
# run after p adds n letters until t reaches l*n.  A splice replaces a
# stretch of runs, freely reduced and merged at its seams, so only the
# keys of the l runs before the stretch and of the stretch itself change.
# T is asked about an exponent only when the maximal key needs it; the
# answer is cached per call, and a non-member drops out of every key.
# With this local bookkeeping a step costs O(l*n) Python work near the
# splice, plus C-level list moves and one max over the keys (Domanski and
# Anshel, J. Algorithms 6, 1985).

# (letter sign, generator step) in family order: R_n, R_n^-1, R_-n, R_-n^-1
_FAMILIES = ((1, 1), (-1, -1), (-1, 1), (1, -1))
_NO_MATCH = (0, 0, 0)


def _runs(word):
    """Run-length encoding of a word as parallel lists (letters, counts)."""
    letters, counts = [], []
    for x, group in groupby(word):
        letters.append(x)
        counts.append(sum(1 for _ in group))
    return letters, counts


def _letters(letters, counts):
    return tuple(chain.from_iterable(map(repeat, letters, counts)))


def _match_length(letters, counts, p, l, n, s, step):
    """Letters of the family (block length n, letter sign s, generator
    step +-1) matched from the last min(count, n) letters of run p on."""
    L = l * n
    t = min(counts[p], n)
    expected = (abs(letters[p]) - 1 + step) % l + 1
    q = p + 1
    while t < L and q < len(letters):
        if letters[q] != s * expected:
            break
        t += min(counts[q], n)
        if counts[q] != n:
            break
        expected = (expected - 1 + step) % l + 1
        q += 1
    return min(t, L)


def _run_key(letters, counts, p, l, excluded):
    """Key (t, -n, -family) of the best more-than-half match that starts
    in run p and whose exponent is not in ``excluded``, or _NO_MATCH."""
    if p + 1 >= len(letters):
        return _NO_MATCH
    x, y = letters[p], letters[p + 1]
    if (x > 0) != (y > 0):
        return _NO_MATCH
    gap = (abs(y) - abs(x)) % l
    if gap == 1:
        step = 1
    elif gap == l - 1:
        step = -1
    else:
        return _NO_MATCH
    s = 1 if x > 0 else -1
    family = _FAMILIES.index((s, step))
    if l > 3:
        ns = (counts[p + 1],)
    else:
        ns = range(1, counts[p] + counts[p + 1] + 1)
    best = _NO_MATCH
    for n in ns:
        if s * step * n in excluded:
            continue
        t = _match_length(letters, counts, p, l, n, s, step)
        if 2 * t > l * n and (t, -n) > best[:2]:
            best = (t, -n, -family)
    return best


def _family_rotation(l, n, s, step, c0, g):
    """The rotation of the family relator beginning with c0 letters of
    generator g (then n of each following generator, closing the cycle)."""
    rot = [s * g] * c0
    cur = g
    for _ in range(l - 1):
        cur = (cur - 1 + step) % l + 1
        rot.extend([s * cur] * n)
    rot.extend([s * g] * (n - c0))
    return tuple(rot)


def _splice(letters, counts, p, c0, rot, t):
    """Replace the t letters that start c0 letters before the end of run p,
    which must spell rot[:t], by the inverse of rot[t:]; then freely reduce
    and merge at the seams.  Old runs lo..hi-1 become new runs
    lo..lo+size-1; returns (lo, hi, size)."""
    matched = [letters[p]] * c0
    q = p
    while len(matched) < t and q + 1 < len(letters):
        q += 1
        k = min(counts[q], t - len(matched))     # taken from run q
        matched += [letters[q]] * k
    if tuple(matched) != rot[:t]:
        i = sum(counts[:p]) + counts[p] - c0
        raise InternalError(
            f"Dehn splice at letter {i} of length {t} does not match the "
            f"relator rotation it replaces")
    pieces = [(letters[p], counts[p] - c0)]
    pieces += zip(*_runs(invert_word(rot[t:])))
    pieces.append((letters[q], counts[q] - k))
    lo, hi = p, q + 1
    seg = []

    def push(x, c):
        nonlocal lo
        while c:
            if not seg and lo > 0 and abs(letters[lo - 1]) == abs(x):
                lo -= 1
                seg.append([letters[lo], counts[lo]])
            if not seg or abs(seg[-1][0]) != abs(x):
                seg.append([x, c])
                return
            if seg[-1][0] == x:
                seg[-1][1] += c
                return
            cancel = min(c, seg[-1][1])
            c -= cancel
            seg[-1][1] -= cancel
            if not seg[-1][1]:
                seg.pop()

    for x, c in pieces:
        push(x, c)
    # free reduction cascades into the runs after the match while each
    # meets its own generator on the left
    while hi < len(letters):
        left_end = seg[-1][0] if seg else letters[lo - 1] if lo else 0
        if abs(letters[hi]) != abs(left_end):
            break
        push(letters[hi], counts[hi])
        hi += 1
    letters[lo:hi] = [x for x, _ in seg]
    counts[lo:hi] = [c for _, c in seg]
    return lo, hi, len(seg)


def dehn_reduce(pres, word, trace=None):
    """Greedy Dehn reduction: repeatedly replace the longest subword that
    covers more than half of a cyclic rotation of a relator (or inverse
    relator) by the shorter complement, freely reducing in between.
    Length is strictly decreasing, so this terminates.  Only exponents
    of more-than-half matches are looked up in T; each one satisfies
    l*|n|/2 < |w|, which bounds the window where T-membership must be
    decidable.  ``trace``, when given, receives (word, i, t) per step:
    the word before the step and its replaced letters [i, i + t)."""
    letters_in = word.letters if isinstance(word, Word) else tuple(word)
    l = pres.l
    for x in letters_in:
        if not 0 < abs(x) <= l:
            raise DehnError(
                f"letter {x} is not a generator a1..a{l} or an inverse")
    current = free_reduce(letters_in)   # kept up to date only for trace
    letters, counts = _runs(current)
    excluded = set()            # exponents found not to be in T
    members = set()             # exponents found to be in T
    keys = [_run_key(letters, counts, p, l, excluded)
            for p in range(len(letters))]
    while True:
        best = max(keys, default=_NO_MATCH)
        if best == _NO_MATCH:
            return Word(_letters(letters, counts))
        t, n, family = best[0], -best[1], -best[2]
        s, step = _FAMILIES[family]
        exponent = s * step * n
        if exponent not in members:
            if not pres.contains_exponent(exponent):
                excluded.add(exponent)
                keys = [_run_key(letters, counts, p, l, excluded)
                        for p in range(len(letters))]
                continue
            members.add(exponent)
        p = keys.index(best)
        c0 = min(counts[p], n)
        rot = _family_rotation(l, n, s, step, c0, abs(letters[p]))
        if 2 * t <= len(rot):
            raise InternalError(
                f"Dehn step of {t} letters does not shorten a relator of "
                f"length {len(rot)}")
        i = sum(counts[:p]) + counts[p] - c0 if trace is not None else None
        lo, hi, size = _splice(letters, counts, p, c0, rot, t)
        if trace is not None:
            trace.append((current, i, t))
            # the runs before lo and from lo + size on are unchanged
            new = _letters(letters[lo:lo + size], counts[lo:lo + size])
            tail = len(current) - sum(counts[lo + size:])
            current = current[:sum(counts[:lo])] + new + current[tail:]
        keys[lo:hi] = [_NO_MATCH] * size
        for r in range(max(0, lo - l), lo + size):
            keys[r] = _run_key(letters, counts, r, l, excluded)


def is_identity(pres, word):
    """True iff Dehn reduction empties the word; decides the word problem
    when the presentation is small-cancellation of type C'(1/6) on the
    needed window."""
    return len(dehn_reduce(pres, word)) == 0
