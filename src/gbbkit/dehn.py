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

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from operator import add, ne, sub

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

    The pieces of the block relators have a closed form, so no relator
    word is built; only membership in T is asked, once per exponent.  The
    longest piece of R_n is the largest of
      * |n| - 1: two rotations of R_n itself, one letter apart;
      * 2 min(|n|, |m|) for a same-sign m != n in the window: a partial
        block and a whole block of R_n and R_m agree, so only the nearest
        same-sign members matter;
      * min(|n|, |m|) for an opposite-sign m: one block of R_n against the
        inverse of R_m, whose generators descend.

    Reports the worst per-relator ratio; the raw maximum piece length is
    included for reference.  The verdict only covers relators inside the
    exponent window."""
    if exponent_window < 1:
        raise DehnError("empty relator window")
    exponents = [n for n in range(-exponent_window, exponent_window + 1)
                 if n and pres.contains_exponent(n)]
    if not exponents:
        raise DehnError("no relators in the window")
    # magnitudes of the members of each sign, ascending
    positive = [n for n in exponents if n > 0]
    negative = [-n for n in reversed(exponents) if n < 0]
    best_piece = {}
    for sign, same, other in ((1, positive, negative),
                              (-1, negative, positive)):
        widest = other[-1] if other else 0
        for i, a in enumerate(same):
            if i + 1 < len(same):
                partner = a                 # a longer same-sign member
            else:
                partner = same[i - 1] if i else 0
            best_piece[sign * a] = max(a - 1, 2 * partner, min(a, widest))
    ratios = {n: best_piece[n] / (abs(n) * pres.l) for n in exponents}
    max_ratio = max(ratios.values())
    return SmallCancellationReport(
        m=m,
        window=exponent_window,
        relator_count=len(exponents),
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
# inverses).  The reducer keeps the word only as its run-length encoding,
# and a step reads its relator rotation as runs too.  A match against a
# rotation is a partial block (the last min(c, n) letters of a run), a
# chain of runs of exactly n letters with stepping generators, and a final
# partial block; the step splices in the inverse of the rest as runs.
#
# One family per run.  A more-than-half match covers t > l*n/2 letters,
# at most 2n of them in its two partial blocks, so for l >= 4 it needs a
# whole interior block, and the first one is the run p+1 after its
# starting run p.  Hence n = count(p+1), and the signs and generators of
# runs p and p+1 fix the family.  For l = 3 two partial blocks alone can
# cover more than half, so there n ranges over 1..count(p)+count(p+1).
# Each run keeps the key (-t, n, family) of its best match.  The least
# key picks the longest match, then the smallest n, then the family order
# R_n, R_n^-1, R_-n, R_-n^-1; among equal keys the leftmost run goes
# first.
#
# Initial keys.  For l >= 4 one right-to-left pass finds every key: with
# link[q] the generator step from run q-1 to run q (0 across a sign change
# or a non-adjacent generator) and chains[q] the number of runs q, q+1, ...
# of equal count joined by that same step, the match from run p is its
# partial block, chains[p+1] whole blocks of n = count(p+1), and a partial
# block of the run after the chain when it continues the step.
#
# Selection.  Each run also has an integer label; labels increase left to
# right, so bisecting them finds a run's position.  A heap holds entries
# (-t, n, family, label), whose minimum is the next step.  An entry is
# live while its label exists and its run's key still equals it; stale
# entries are dropped when popped.  New runs get labels spread evenly
# between their neighbours'; when the gap is too narrow all runs are
# relabelled and the heap is rebuilt from the keys.
#
# Chain heads.  For l >= 4 call run r dominated when its key has the same
# (n, family) as run r-1's.  Then counts r and r+1 are both n, so r is a
# whole block of r-1's match, which continues as r's does: t(r-1) >=
# t(r), and on a tie r-1 has the smaller label.  Both keys share an
# exponent, so r's entry could only be popped after r-1's step has
# spliced r away or after that exponent was excluded.  The heap therefore
# holds only the chain heads, the runs not dominated; the least entry
# over the heads is the least over all keyed runs, ties included, so the
# same step is chosen.  For l = 3 two partial blocks can outrun the chain,
# and every keyed run is pushed.
#
# Recompute radius.  The match from run p reads at most runs p..p+l: each
# run after p adds n letters until t reaches l*n.  A splice replaces a
# stretch of runs, freely reduced and merged at its seams, so only the
# keys of the l runs before the stretch and of the stretch itself change;
# they are recomputed.  A run of [lo - l, lo + size] is pushed when it
# heads its chain and its key or its left neighbour's key changed; the
# run at lo + size keeps its key but has a new left neighbour.
#
# Lazy exclusion.  T is asked about an exponent only when the heap's top
# key needs it; the answer is cached per call.  A non-member only removes
# candidates, so keys with other exponents stand.  A key whose exponent
# has been excluded is recomputed when it reaches the top of the heap,
# pushed back, and the heap is popped again.  With this local bookkeeping
# a step costs O(l*n) Python work near the splice, O(l log runs) heap
# work, and C-level list moves (Domanski and Anshel, J. Algorithms 6,
# 1985).

# (letter sign, generator step) in family order: R_n, R_n^-1, R_-n, R_-n^-1
_FAMILIES = ((1, 1), (-1, -1), (-1, 1), (1, -1))
_NO_MATCH = (0, 0, 0)
_LABEL_GAP = 1 << 32            # label spacing after a (re)labelling


def _runs(word):
    """Run-length encoding of a word as parallel lists (letters, counts):
    the runs start where a letter differs from the one before it."""
    if not word:
        return [], []
    starts = [0, *compress(range(1, len(word)), map(ne, word, word[1:]))]
    counts = list(map(sub, starts[1:], starts))
    counts.append(len(word) - starts[-1])
    return list(map(word.__getitem__, starts)), counts


def _letters(runs):
    return tuple(chain.from_iterable(repeat(x, c) for x, c in runs))


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
    """Key (-t, n, family) of the best more-than-half match that starts
    in run p and whose exponent is not in ``excluded``, or _NO_MATCH."""
    if p + 1 >= len(letters):
        return _NO_MATCH
    x, y = letters[p], letters[p + 1]
    if (x > 0) != (y > 0):
        return _NO_MATCH
    gap = (abs(y) - abs(x)) % l
    step = 1 if gap == 1 else -1 if gap == l - 1 else 0
    if not step:
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
        if 2 * t > l * n and (-t, n) < best[:2]:
            best = (-t, n, family)
    return best


def _initial_keys(letters, counts, l):
    """The keys _run_key gives every run with nothing excluded, for
    l >= 4, in one right-to-left pass over link and chains."""
    size = len(letters)
    keys = [_NO_MATCH] * size
    link = [0] * (size + 1)     # link[size] = 0 ends every chain
    chains = [0] * (size + 1)
    mags = list(map(abs, letters))
    for q in range(size - 1, 0, -1):
        x = letters[q - 1]
        if (x > 0) != (letters[q] > 0):
            continue
        gap = (mags[q] - mags[q - 1]) % l
        step = 1 if gap == 1 else -1 if gap == l - 1 else 0
        if not step:
            continue
        link[q] = step
        n = counts[q]
        k = chains[q] = (chains[q + 1] + 1 if link[q + 1] == step
                         and counts[q + 1] == n else 1)
        # run q-1: its partial block, k whole blocks, then a partial one
        c = counts[q - 1]
        t = (c if c < n else n) + k * n
        if link[q + k] == step:
            c = counts[q + k]
            t += c if c < n else n
        L = l * n
        if t > L:
            t = L
        if 2 * t > L:
            s = 1 if x > 0 else -1
            keys[q - 1] = (-t, n, _FAMILIES.index((s, step)))
    return keys


def _labels(size):
    return list(range(_LABEL_GAP, (size + 1) * _LABEL_GAP, _LABEL_GAP))


def _heap(keys, labels, l):
    """A heap of (-t, n, family, label) over the runs with a match; for
    l >= 4 only over the chain heads, the runs not dominated by the run
    before them."""
    befores = [_NO_MATCH, *keys] if l > 3 else repeat(_NO_MATCH)
    heap = [key + (label,) for key, before, label in
            zip(keys, befores, labels)
            if key != _NO_MATCH and key[1:] != before[1:]]
    heapify(heap)
    return heap


def _family_rotation(l, n, s, step, c0, g, t):
    """The rotation of the family relator beginning with c0 letters of
    generator g (then n of each following generator, closing the cycle),
    split after its first t letters: the runs [(letter, count), ...] of
    those t letters, and the runs of the inverse of the rest."""
    head, rest = [], []
    for k in range(l + 1):
        x = s * ((g - 1 + k * step) % l + 1)
        c = c0 if k == 0 else n - c0 if k == l else n
        taken = min(c, t)
        t -= taken
        if taken:
            head.append((x, taken))
        if c > taken:
            rest.append((-x, c - taken))
    return head, rest[::-1]


def _splice(letters, counts, p, c0, t, head, inserted):
    """Replace the t letters that start c0 letters before the end of run p,
    which must spell the runs ``head``, by the runs ``inserted``; then
    freely reduce and merge at the seams.  Old runs lo..hi-1 become new
    runs lo..lo+size-1; returns (lo, hi, size)."""
    # the match reads the last c0 letters of run p, all of the runs
    # between, and the first k letters of run q
    q, k = p + len(head) - 1, head[-1][1]
    if q >= len(letters) or counts[q] < k or head != [
            (letters[p], c0), *zip(letters[p + 1:q], counts[p + 1:q]),
            (letters[q], k)]:
        i = sum(counts[:p]) + counts[p] - c0
        raise InternalError(
            f"Dehn splice at letter {i} of length {t} does not match the "
            f"relator rotation it replaces")
    pieces = [(letters[p], counts[p] - c0), *inserted,
              (letters[q], counts[q] - k)]
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
    decidable.  ``trace``, when given, receives (i, t, inserted) per step:
    the step replaces letters [i, i + t) of the current word by the letter
    tuple ``inserted``, before free reduction.  The words are not kept; a
    reader replays them from the freely reduced input word w by
    ``w = free_reduce(w[:i] + inserted + w[i + t:])``."""
    letters_in = word.letters if isinstance(word, Word) else tuple(word)
    l = pres.l
    bad = {x for x in set(letters_in) if not 0 < abs(x) <= l}
    if bad:
        x = next(x for x in letters_in if x in bad)
        raise DehnError(
            f"letter {x} is not a generator a1..a{l} or an inverse")
    if 0 in map(add, letters_in, letters_in[1:]):
        letters_in = free_reduce(letters_in)    # a letter meets its inverse
    letters, counts = _runs(letters_in)
    excluded = set()            # exponents found not to be in T
    members = set()             # exponents found to be in T
    if l > 3:
        keys = _initial_keys(letters, counts, l)
    else:
        keys = [_run_key(letters, counts, p, l, excluded)
                for p in range(len(letters))]
    labels = _labels(len(keys))
    heap = _heap(keys, labels, l)
    while heap:
        neg_t, n, family, label = heappop(heap)
        p = bisect_left(labels, label)
        if p == len(labels) or labels[p] != label or \
                keys[p] != (neg_t, n, family):
            continue            # stale entry
        t = -neg_t
        s, step = _FAMILIES[family]
        exponent = s * step * n
        if exponent not in members:
            if exponent in excluded or not pres.contains_exponent(exponent):
                excluded.add(exponent)
                keys[p] = key = _run_key(letters, counts, p, l, excluded)
                if key != _NO_MATCH:
                    heappush(heap, key + (label,))
                continue
            members.add(exponent)
        if 2 * t <= l * n:
            raise InternalError(
                f"Dehn step of {t} letters does not shorten a relator of "
                f"length {l * n}")
        c0 = min(counts[p], n)
        head, inserted = _family_rotation(l, n, s, step, c0,
                                          abs(letters[p]), t)
        if trace is not None:
            trace.append((sum(counts[:p]) + counts[p] - c0, t,
                          _letters(inserted)))
        lo, hi, size = _splice(letters, counts, p, c0, t, head, inserted)
        # new runs get labels spread between their neighbours' labels
        left = labels[lo - 1] if lo else 0
        right = labels[hi] if hi < len(labels) else \
            left + (size + 1) * _LABEL_GAP
        labels[lo:hi] = [left + (right - left) * j // (size + 1)
                         for j in range(1, size + 1)]
        keys[lo:hi] = [_NO_MATCH] * size
        changed = False         # run r - 1 is new or has a new key
        for r in range(max(0, lo - l), min(lo + size + 1, len(keys))):
            old = keys[r]
            if r < lo + size:
                keys[r] = _run_key(letters, counts, r, l, excluded)
            else:
                changed = True  # the run after the splice: a new neighbour
            key = keys[r]
            if key != _NO_MATCH and (key != old or changed and l > 3) and (
                    l == 3 or not r or keys[r - 1][1:] != key[1:]):
                heappush(heap, key + (labels[r],))
            changed = key != old
        if right - left <= size:
            # no room between the neighbours: relabel every run
            labels = _labels(len(keys))
            heap = _heap(keys, labels, l)
    return Word(_letters(zip(letters, counts)))


def is_identity(pres, word):
    """True iff Dehn reduction empties the word; decides the word problem
    when the presentation is small-cancellation of type C'(1/6) on the
    needed window."""
    return len(dehn_reduce(pres, word)) == 0
