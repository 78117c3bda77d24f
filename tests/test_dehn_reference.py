"""Differential tests of the word layer against the code it replaced.

The reference oracles kept here are the earlier implementations:

* the reducer that rescanned the whole run encoding on every step, twice
  per candidate block length n, and asked T about every candidate n;
* the piece check that compared every pair of relator occurrences;
* the piece check that sorted every rotation of every relator and its
  inverse and compared sorted neighbours;
* the least-period normalization that rebuilt two residue sets per
  divisor.

The new reducer must pick the same match at every step, so both the
reduced word and the triples (word, i, t) are compared; the new reducer's
``trace`` records steps (i, t, inserted), and its words are replayed.  The
pairwise piece scan is quadratic in the number of occurrences K, so the
suite runs it on the cells of the (l, window, T) grid with K <= 300; the
sorted-neighbour scan, O(K log K), runs on every cell of a wider grid."""

import importlib
import itertools
import random
import sys
from collections import Counter
from heapq import heappop
from pathlib import Path

import pytest

from gbbkit import dehn
from gbbkit.dehn import (CyclicPresentation, SmallCancellationReport, Word,
                         dehn_reduce, free_reduce, invert_word,
                         small_cancellation_check)
from gbbkit.errors import DehnError
from gbbkit.fixtures import (dehn_presentation_godel,
                             dehn_presentation_periodic)
from gbbkit.intsets import GodelSet, PeriodicSet
from test_dehn import replay

# --- the reducer that rescanned the word on every step -----------------------


def reference_runs(word):
    """Run-length encoding [(letter, count), ...] of a word."""
    runs = []
    for x in word:
        if runs and runs[-1][0] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return [(x, c) for x, c in runs]


def reference_best_match_for_family(runs, l, n, s, step):
    """Longest rotation match of the block family (block length n, letter
    sign s, generator step +-1) against the run encoding.  Returns
    (t, run_index, c0, start_gen) or None."""
    L = l * n
    best = None
    for p, (letter, count) in enumerate(runs):
        if (letter > 0) != (s > 0):
            continue
        g = abs(letter)
        c0 = min(count, n)
        t = c0
        expected = (g - 1 + step) % l + 1
        q = p + 1
        while t < L and q < len(runs):
            lq, cq = runs[q]
            if (lq > 0) != (s > 0) or abs(lq) != expected:
                break
            t += min(cq, n)
            if cq != n:
                break
            expected = (expected - 1 + step) % l + 1
            q += 1
        t = min(t, L)
        if 2 * t > L and (best is None or t > best[0]):
            best = (t, p, c0, g)
    return best


def reference_family_rotation(l, n, s, step, c0, g):
    rot = [s * g] * c0
    cur = g
    for _ in range(l - 1):
        cur = (cur - 1 + step) % l + 1
        rot.extend([s * cur] * n)
    rot.extend([s * g] * (n - c0))
    return tuple(rot)


def reference_candidate_magnitudes(runs, l, nmax):
    """Block lengths n that could possibly support a more-than-half match:
    such a match needs (l-3)//2 or more interior runs of exact size n."""
    k_min = max(0, (l - 3) // 2)
    hist = Counter(c for _, c in runs)
    out = []
    for n in range(1, nmax + 1):
        if hist.get(n, 0) >= max(k_min, 1) or l <= 4:
            out.append(n)
    return out


def reference_dehn_reduce(pres, word, trace=None):
    if isinstance(word, Word):
        current = word.letters
    else:
        current = free_reduce(tuple(word))
    l = pres.l
    while True:
        current = free_reduce(current)
        if not current:
            return Word(())
        runs = reference_runs(current)
        nmax = (2 * len(current)) // l
        best = None
        for n in reference_candidate_magnitudes(runs, l, nmax):
            families = []
            if pres.contains_exponent(n):
                families.append((1, 1))    # R_n: ascending, positive
                families.append((-1, -1))  # inverse of R_n
            if pres.contains_exponent(-n):
                families.append((-1, 1))   # R_-n: ascending, negative
                families.append((1, -1))   # inverse of R_-n
            for s, step in families:
                hit = reference_best_match_for_family(runs, l, n, s, step)
                if hit and (best is None or hit[0] > best[0][0]):
                    best = (hit, n, s, step)
        if best is None:
            return Word(current)
        (t, p, c0, g), n, s, step = best
        rot = reference_family_rotation(l, n, s, step, c0, g)
        i = sum(c for _, c in runs[:p]) + (runs[p][1] - c0)
        assert current[i:i + t] == rot[:t]
        repl = invert_word(rot[t:])
        if trace is not None:
            trace.append((current, i, t))
        nxt = current[:i] + repl + current[i + t:]
        if len(nxt) >= len(current):
            raise DehnError("internal: reduction failed to shorten")
        current = nxt


# --- the pairwise piece scan -------------------------------------------------


def reference_common_prefix_len(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def reference_small_cancellation_check(pres, m, exponent_window):
    rels = pres.relators_in_window(exponent_window)
    occurrences = []
    for n, rel in rels:
        for o, base in ((1, rel), (-1, invert_word(rel))):
            for i in range(len(base)):
                occurrences.append((n, i, o, base[i:] + base[:i]))
    best_piece = {n: 0 for n, _ in rels}
    max_piece = 0
    for a in range(len(occurrences)):
        na, ia, oa, wa = occurrences[a]
        for b in range(a + 1, len(occurrences)):
            nb, ib, ob, wb = occurrences[b]
            if wa == wb:
                p = len(wa)
            else:
                p = reference_common_prefix_len(wa, wb)
            if p:
                max_piece = max(max_piece, p)
                best_piece[na] = max(best_piece[na], p)
                best_piece[nb] = max(best_piece[nb], p)
    ratios = {n: best_piece[n] / (abs(n) * pres.l) for n, _ in rels}
    max_ratio = max(ratios.values())
    return SmallCancellationReport(
        m=m, window=exponent_window, relator_count=len(rels),
        max_piece_length=max_piece, per_relator_ratio=ratios,
        max_ratio=max_ratio, passes=max_ratio < 1.0 / m)


# --- the sorted-neighbour piece scan -----------------------------------------


def sorted_neighbour_small_cancellation_check(pres, m, exponent_window):
    """The occurrences are sorted once.  In a sorted list the common
    prefix of two entries is the least common prefix of the adjacent pairs
    between them, so each occurrence shares its longest piece with one of
    its two sorted neighbours (Kasai et al., CPM 2001)."""
    rels = pres.relators_in_window(exponent_window)
    occurrences = sorted(
        (base[i:] + base[:i], n)
        for n, rel in rels
        for base in (rel, invert_word(rel))
        for i in range(len(base))
    )
    best_piece = {n: 0 for n, _ in rels}
    for (wa, na), (wb, nb) in zip(occurrences, occurrences[1:]):
        p = reference_common_prefix_len(wa, wb)
        best_piece[na] = max(best_piece[na], p)
        best_piece[nb] = max(best_piece[nb], p)
    ratios = {n: best_piece[n] / (abs(n) * pres.l) for n, _ in rels}
    max_ratio = max(ratios.values())
    return SmallCancellationReport(
        m=m, window=exponent_window, relator_count=len(rels),
        max_piece_length=max(best_piece.values()), per_relator_ratio=ratios,
        max_ratio=max_ratio, passes=max_ratio < 1.0 / m)


# --- the least-period loop ---------------------------------------------------


def reference_least_period(modulus, residues):
    n = modulus
    res = frozenset(r % n for r in residues)
    for d in range(1, n + 1):
        if n % d:
            continue
        folded = frozenset(r % d for r in res)
        if frozenset(r for r in range(n) if r % d in folded) == frozenset(
            r for r in range(n) if r in res
        ):
            return d, folded
    return n, res


# --- families ----------------------------------------------------------------

EXPONENT_SETS = {
    "2Z": PeriodicSet.multiples(2),
    "Z": PeriodicSet.all_integers(),
    "1+3Z": PeriodicSet(3, {1}),
    "empty": PeriodicSet.empty(),
}


def reduced_words(letters, max_length):
    """Every freely reduced word of length <= max_length.  A word that is
    not freely reduced is reduced before the first step by both reducers,
    so it behaves as a shorter word of this family."""
    for length in range(max_length + 1):
        for w in itertools.product(letters, repeat=length):
            if all(w[k] != -w[k + 1] for k in range(length - 1)):
                yield w


SHORT_WORDS = list(reduced_words((1, 2, 3, -1, -2, -3), 5))


def relator_products(rng, pres, count, factors=(1, 5), max_exponent=4):
    """Products of randint(*factors) rotated, conjugated relators and
    inverse relators of exponents in [-max_exponent, max_exponent],
    whether in T or not, with up to two letters inserted anywhere."""
    l = pres.l
    exponents = [n for n in range(-max_exponent, max_exponent + 1) if n]
    out = []
    for _ in range(count):
        word = ()
        for _ in range(rng.randint(*factors)):
            rel = pres.relator(rng.choice(exponents))
            if rng.random() < 0.5:
                rel = invert_word(rel)
            k = rng.randrange(len(rel))
            conj = tuple(rng.choice((i, -i))
                         for i in rng.sample(range(1, l + 1),
                                             rng.randrange(3)))
            at = rng.randrange(len(word) + 1)
            word = (word[:at] + conj + rel[k:] + rel[:k] + invert_word(conj)
                    + word[at:])
        for _ in range(rng.randrange(3)):
            at = rng.randrange(len(word) + 1)
            letter = rng.choice((1, -1)) * rng.randrange(1, l + 1)
            word = word[:at] + (letter,) + word[at:]
        out.append(word)
    return out


def assert_same_reduction(pres, word):
    expected_trace, steps = [], []
    expected = reference_dehn_reduce(pres, word, expected_trace)
    got = dehn_reduce(pres, word, steps)
    assert got == expected, word
    words, last = replay(word, steps)
    assert last == got.letters, word
    got_trace = [(w, i, t) for w, (i, t, _) in zip(words, steps)]
    assert got_trace == expected_trace, word


# --- tests -------------------------------------------------------------------


def test_short_word_family_is_complete():
    # 1 + 6 + 6*5 + 6*5^2 + 6*5^3 + 6*5^4 freely reduced words
    assert len(SHORT_WORDS) == 4687


@pytest.mark.parametrize("l", [3, 4, 5, 13])
@pytest.mark.parametrize("kind", sorted(EXPONENT_SETS))
def test_short_words_match_reference(l, kind):
    pres = CyclicPresentation(l, EXPONENT_SETS[kind])
    for word in SHORT_WORDS:
        assert_same_reduction(pres, word)


@pytest.mark.parametrize("l", [3, 4, 5, 7, 13])
@pytest.mark.parametrize("kind", sorted(EXPONENT_SETS))
def test_relator_products_match_reference(l, kind):
    pres = CyclicPresentation(l, EXPONENT_SETS[kind])
    rng = random.Random(f"{l}-{kind}")
    for word in relator_products(rng, pres, 40):
        assert_same_reduction(pres, word)


SPARSE_SETS = {
    "godel": GodelSet(frozenset({0, 2}), 6),
    "{0,1} mod 5": PeriodicSet(5, {0, 1}),
    "empty": PeriodicSet.empty(),
}


def late_non_members(pres, word):
    """Exponents that dehn_reduce finds not to be in T after its first
    step."""
    trace, late = [], []
    real = pres.contains_exponent

    def asked(n):
        member = real(n)
        if trace and not member:
            late.append(n)
        return member

    pres.contains_exponent = asked
    try:
        dehn_reduce(pres, word, trace)
    finally:
        del pres.contains_exponent
    return late


@pytest.mark.parametrize("kind", sorted(SPARSE_SETS))
def test_long_words_over_sparse_sets_match_reference(kind):
    # most exponents of the factors are not in T, so the reducer learns
    # non-members after it has already taken steps
    pres = CyclicPresentation(7, SPARSE_SETS[kind])
    rng = random.Random(f"sparse-{kind}")
    late = []               # stays empty for the empty set: no step is taken
    for word in relator_products(rng, pres, 6, factors=(30, 40),
                                 max_exponent=6):
        late += late_non_members(pres, word)
        assert_same_reduction(pres, word)
    assert bool(late) == (kind != "empty")


def test_long_l3_words_match_reference():
    pres = CyclicPresentation(3, EXPONENT_SETS["2Z"])
    rng = random.Random("long-l3")
    for word in relator_products(rng, pres, 6, factors=(12, 15)):
        assert len(word) > 60
        assert_same_reduction(pres, word)


def test_relabelling_matches_reference(monkeypatch):
    # with unit label spacing every splice that leaves more runs than it
    # removed finds no free label between its neighbours, so it relabels
    # every run and rebuilds the heap
    monkeypatch.setattr(dehn, "_LABEL_GAP", 1)
    heaps = 0
    real = dehn._heap

    def counted(*args):
        nonlocal heaps
        heaps += 1
        return real(*args)

    monkeypatch.setattr(dehn, "_heap", counted)
    words = 0
    for l, kind in ((3, "2Z"), (5, "2Z"), (13, "Z")):
        pres = CyclicPresentation(l, EXPONENT_SETS[kind])
        rng = random.Random(f"relabel-{l}")
        for word in relator_products(rng, pres, 10, factors=(8, 12)):
            assert_same_reduction(pres, word)
            words += 1
    assert heaps - words >= 10           # one heap per reduction, and relabels


def random_runs(rng, l, size):
    """A run encoding that mostly steps between generators with repeated
    counts, so that chains, partial blocks and sign changes all occur."""
    letters, counts = [], []
    g, s, step, c = 1, 1, 1, 1
    for _ in range(size):
        if rng.random() < 0.2:
            g = rng.randrange(1, l + 1)
            s, step = rng.choice((1, -1)), rng.choice((1, -1))
        else:
            g = (g - 1 + step) % l + 1
        if rng.random() < 0.3:
            c = rng.randrange(1, 5)
        letters.append(s * g)
        counts.append(c)
    return letters, counts


def test_one_pass_keys_match_per_run_keys():
    rng = random.Random(11)
    for _ in range(3000):
        l = rng.randrange(4, 14)
        letters, counts = random_runs(rng, l, rng.randrange(0, 40))
        assert dehn._initial_keys(letters, counts, l) == [
            dehn._run_key(letters, counts, p, l, set())
            for p in range(len(letters))], (l, letters, counts)


def test_a_run_keyed_like_its_left_neighbour_is_dominated():
    """Where run r's key has the (n, family) of run r-1's, r is a whole
    block of r-1's match, so r-1's match is at least as long: its key is
    smaller, or both cover a whole relator and r-1's smaller label breaks
    the tie.  So the heap needs only the chain heads."""
    rng = random.Random(13)
    dominated = ties = 0
    for _ in range(3000):
        l = rng.randrange(4, 14)
        letters, counts = random_runs(rng, l, rng.randrange(0, 40))
        keys = dehn._initial_keys(letters, counts, l)
        for r in range(1, len(keys)):
            if keys[r] != dehn._NO_MATCH and keys[r - 1][1:] == keys[r][1:]:
                neg_t, n, _ = keys[r]
                assert keys[r - 1] < keys[r] or (
                    keys[r - 1] == keys[r] and -neg_t == l * n), \
                    (l, letters, counts, r)
                dominated += 1
                ties += keys[r - 1] == keys[r]
    assert dominated > 1000 and 0 < ties < dominated


def first_heap(monkeypatch, pres, word):
    """The entries of the heap dehn_reduce builds first, over the runs of
    ``word``, sorted."""
    heaps = []
    real = dehn._heap

    def kept(*args):
        heap = real(*args)
        heaps.append(sorted(heap))
        return heap

    monkeypatch.setattr(dehn, "_heap", kept)
    dehn_reduce(pres, word)
    monkeypatch.setattr(dehn, "_heap", real)
    return heaps[0]


def test_first_heap_holds_the_chain_heads_or_every_keyed_run(monkeypatch):
    # for l = 3 two partial blocks can outrun a chain, so every keyed run
    # is pushed; for l >= 4 only the runs keyed unlike their left
    # neighbour
    skipped = Counter()     # keyed runs left out of the first heap
    for l in (3, 4, 7):
        pres = CyclicPresentation(l, EXPONENT_SETS["Z"])
        rng = random.Random(f"heads-{l}")
        for word in relator_products(rng, pres, 20, factors=(3, 8)):
            letters, counts = dehn._runs(free_reduce(word))
            keys = [dehn._run_key(letters, counts, p, l, set())
                    for p in range(len(letters))]
            labels = dehn._labels(len(keys))
            keyed = [key + (label,) for key, label in zip(keys, labels)
                     if key != dehn._NO_MATCH]
            heads = [key + (label,) for key, before, label in
                     zip(keys, [dehn._NO_MATCH] + keys, labels)
                     if key != dehn._NO_MATCH and key[1:] != before[1:]]
            heap = first_heap(monkeypatch, pres, word)
            assert heap == sorted(keyed if l == 3 else heads), (l, word)
            skipped[l] += len(keyed) - len(heap)
    assert skipped[3] == 0 and skipped[4] > 0 and skipped[7] > 0


def test_few_heap_pops_per_step(monkeypatch):
    # the CI step's 2Z generator at 5,012 letters: every run of a chain
    # was once pushed and popped, 1,007 pops for 123 steps
    pres, rng, word = dehn_presentation_periodic(l=13), random.Random(1), []
    while len(word) < 5000:
        u = [rng.choice((1, -1)) * rng.randrange(1, 14)
             for _ in range(rng.randrange(3))]
        word += u + list(pres.relator(rng.choice((-4, -2, 2, 4)))) + list(
            invert_word(u))
    pops = 0

    def counted(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    monkeypatch.setattr(dehn, "heappop", counted)
    trace = []
    assert len(dehn_reduce(pres, word, trace)) == 0
    assert (len(word), len(trace)) == (5012, 123)
    assert pops <= 2 * len(trace)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_reduce_jobs_match_reference(monkeypatch):
    """The seed-7 reduce jobs of the benchmark's words workload: 20 words
    of 100 to 5,000 letters over 2Z, the digit-encoded set and its
    periodic approximations."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        words = importlib.import_module("words")
    finally:
        # perfbench's top-level module names are generic; do not keep them
        for name in ("words", "common"):
            sys.modules.pop(name, None)
    jobs = [job.inputs for job in words.make_jobs(7)
            if job.run is words.run_reduce]
    assert len(jobs) == 20
    for job in jobs:
        pres = CyclicPresentation(words.L,
                                  words.build_T(job["kind"], job["level"]))
        assert_same_reduction(pres, job["word"])


PIECE_GRID = [
    (l, window, kind)
    for l in range(3, 14)
    for window in range(1, 16)
    for kind in ("2Z", "Z", "godel")
]


def piece_presentation(l, kind):
    if kind == "godel":
        return dehn_presentation_godel(l=l)
    return CyclicPresentation(l, EXPONENT_SETS[kind])


def occurrence_count(pres, window):
    return sum(2 * len(rel) for _, rel in pres.relators_in_window(window))


def test_piece_check_matches_pairwise_scan():
    compared = 0
    for l, window, kind in PIECE_GRID:
        pres = piece_presentation(l, kind)
        if not pres.relators_in_window(window):
            with pytest.raises(DehnError):
                small_cancellation_check(pres, 6, window)
            continue
        if occurrence_count(pres, window) > 300:
            continue            # the pairwise scan is quadratic
        assert small_cancellation_check(pres, 6, window) == \
            reference_small_cancellation_check(pres, 6, window), \
            (l, window, kind)
        compared += 1
    assert compared == 258


CLOSED_FORM_SETS = {
    "2Z": PeriodicSet.multiples(2),
    "Z": PeriodicSet.all_integers(),
    "1+3Z": PeriodicSet(3, {1}),
    "3Z": PeriodicSet.multiples(3),
    "{0,1} mod 5": PeriodicSet(5, {0, 1}),
    "{2,3,6} mod 7": PeriodicSet(7, {2, 3, 6}),
    "godel": GodelSet(frozenset({0, 2}), 6),
}


def test_closed_form_pieces_match_sorted_neighbour_scan():
    compared = 0
    for kind, T in CLOSED_FORM_SETS.items():
        for l in range(3, 14):
            pres = CyclicPresentation(l, T)
            for window in range(1, 13):
                if not pres.relators_in_window(window):
                    with pytest.raises(DehnError):
                        small_cancellation_check(pres, 6, window)
                    continue
                assert small_cancellation_check(pres, 6, window) == \
                    sorted_neighbour_small_cancellation_check(
                        pres, 6, window), (kind, l, window)
                compared += 1
    assert compared == 891


def test_least_period_matches_reference():
    rng = random.Random(3)
    for _ in range(3000):
        modulus = rng.randrange(1, 61)
        residues = {rng.randrange(-100, 100)
                    for _ in range(rng.randrange(modulus + 1))}
        if rng.random() < 0.5:
            # a union of cosets of a random subgroup: a proper period
            d = rng.choice([d for d in range(1, modulus + 1)
                            if modulus % d == 0])
            residues = {r + k * d for r in residues
                        for k in range(modulus // d)}
        s = PeriodicSet(modulus, residues)
        assert (s.modulus, s.residues) == \
            reference_least_period(modulus, residues), (modulus, residues)
