"""words: the word problem and exponent sets.

``CyclicPresentation(13, T)`` with T = 2Z, the digit-encoded set of
{0, 2}, or one of its periodic outer approximations
``GodelSet.f_certificate(n)``, n = 1..4.  Reduce jobs build T and the
presentation, then run ``dehn_reduce`` on a seeded word: conjugated
relator products (identities) or such a product with one letter inserted,
whose exponent-sum vector is then not constant, so it is not the
identity.  Word lengths are log-uniform from 100 to 5,000 letters.
Piece-check jobs run ``small_cancellation_check(m=6)``; certificate jobs
compare ``f_certificate(n)`` windows with ``members_below``.
"""

from __future__ import annotations

import math
import random

from gbbkit import dehn, intsets

from common import Job, check_fields

L = 13
DIGITS = frozenset({0, 2})
POSITION_BOUND = 6
T_KINDS = (("2Z", 0), ("godel", 0), ("fcert", 1), ("fcert", 2),
           ("fcert", 3), ("fcert", 4))
WORDS_PER_KIND = 3
MIN_LETTERS, MAX_LETTERS = 100, 5000
ANCHORS = (540, 2100)          # 2Z identity words for the baseline rows
MAX_EXPONENT = 6               # relator exponents drawn from T in [-6, 6]
PIECE_CHECKS = ((13, 6), (13, 9), (13, 12), (7, 9), (9, 9), (11, 9))
CERT_LEVELS = (1, 2, 3, 4)


# --- T, decided independently of gbbkit -------------------------------------


def godel_members_upto(hi):
    """Sums of distinct 10^p over p in DIGITS, up to hi."""
    sums = {0}
    for p in DIGITS:
        sums |= {s + 10 ** p for s in sums}
    return sorted(s for s in sums if s <= hi)


def in_T(kind, level, n):
    if kind == "2Z":
        return n % 2 == 0
    if kind == "godel":
        return n >= 0 and n in godel_members_upto(n)
    return n % 10 ** (level + 1) in godel_members_upto(2 * 10 ** level)


def build_T(kind, level):
    if kind == "2Z":
        return intsets.PeriodicSet.multiples(2)
    godel = intsets.GodelSet(DIGITS, POSITION_BOUND)
    return godel if kind == "godel" else godel.f_certificate(level)


# --- words ------------------------------------------------------------------


def relator(n):
    return tuple(i if n > 0 else -i for i in range(1, L + 1)
                 for _ in range(abs(n)))


def inverse(word):
    return tuple(-x for x in reversed(word))


def identity_word(rng, exponents, length):
    """Conjugated relators, concatenated until the word has ``length``
    letters; free cancellation at the joins can only shorten it."""
    word = ()
    while len(word) < length:
        conj = tuple(rng.choice((i, -i))
                     for i in rng.sample(range(1, L + 1), rng.randrange(4)))
        word += conj + relator(rng.choice(exponents)) + inverse(conj)
    return word


def log_uniform_lengths(count):
    """The midpoints of ``count`` equal-probability strata of the
    log-uniform distribution on [MIN_LETTERS, MAX_LETTERS]: every seed
    covers the whole range with the same lengths, so the seed changes the
    words but not the amount of work."""
    lo, hi = math.log(MIN_LETTERS), math.log(MAX_LETTERS)
    step = (hi - lo) / count
    return [round(math.exp(lo + step * (i + 0.5))) for i in range(count)]


# --- jobs -------------------------------------------------------------------


class StepCount:
    """A ``trace`` for ``dehn_reduce`` that counts the reduction steps
    without keeping every intermediate word alive, so that the job's time
    and memory are gbbkit's own."""

    def __init__(self):
        self.steps = 0

    def append(self, _step):
        self.steps += 1

    def __len__(self):
        return self.steps


def run_reduce(kind, level, word):
    pres = dehn.CyclicPresentation(L, build_T(kind, level))
    steps = StepCount()
    reduced = dehn.dehn_reduce(pres, word, trace=steps)
    return {"reduced_length": len(reduced), "steps": len(steps)}


def check_reduce(answer, expect):
    empty = answer["reduced_length"] == 0
    if empty != expect["identity"]:
        return [f"reduced to {answer['reduced_length']} letters; "
                f"identity expected: {expect['identity']}"]
    return []


def run_pieces(l, window):
    rep = dehn.small_cancellation_check(
        dehn.CyclicPresentation(l, intsets.PeriodicSet.multiples(2)), 6,
        window)
    return {"max_ratio": rep.max_ratio, "passes": rep.passes,
            "relators": rep.relator_count}


def expected_pieces(l, window):
    """For T = 2Z the longest piece of R_n is a partial block plus one
    whole block, 2|n| letters for every relator with a longer partner, so
    the worst ratio is 2/l: C'(1/6) holds exactly when l > 12."""
    return {"max_ratio": 2 / l, "passes": 2 / l < 1 / 6,
            "relators": 2 * (window // 2)}


def run_certificate(level):
    godel = intsets.GodelSet(DIGITS, POSITION_BOUND)
    cert = godel.f_certificate(level)
    hi = 2 * 10 ** level
    return {"modulus": cert.modulus, "window": cert.window(0, hi),
            "members_below": frozenset(godel.members_below(hi + 1))}


def make_jobs(seed):
    rng = random.Random(f"words-{seed}")
    jobs = []
    count = len(T_KINDS) * WORDS_PER_KIND
    for i, length in enumerate(log_uniform_lengths(count)):
        kind, level = T_KINDS[i % len(T_KINDS)]
        identity = (i // len(T_KINDS)) % 2 == 0
        exponents = [n for n in range(-MAX_EXPONENT, MAX_EXPONENT + 1)
                     if n and in_T(kind, level, n)]
        word = identity_word(rng, exponents, length)
        if not identity:
            at = rng.randrange(len(word) + 1)
            letter = rng.choice((1, -1)) * rng.randrange(1, L + 1)
            word = word[:at] + (letter,) + word[at:]
        jobs.append(Job(
            f"reduce T={kind}{level or ''} |w|={len(word)}", run_reduce,
            {"kind": kind, "level": level, "word": word}, check_reduce,
            {"identity": identity}))
    two_z = [n for n in range(-MAX_EXPONENT, MAX_EXPONENT + 1)
             if n and n % 2 == 0]
    for length in ANCHORS:
        word = identity_word(rng, two_z, length)
        jobs.append(Job(
            f"reduce T=2Z |w|={len(word)}", run_reduce,
            {"kind": "2Z", "level": 0, "word": word}, check_reduce,
            {"identity": True}, row=f"dehn_reduce_{length}"))
    for l, window in PIECE_CHECKS:
        jobs.append(Job(
            f"piece check l={l} window={window}", run_pieces,
            {"l": l, "window": window}, check_fields,
            expected_pieces(l, window)))
    for level in CERT_LEVELS:
        members = frozenset(godel_members_upto(2 * 10 ** level))
        jobs.append(Job(
            f"f_certificate({level})", run_certificate, {"level": level},
            check_fields,
            {"modulus": 10 ** (level + 1), "window": members,
             "members_below": members},
            row="f_certificate_4" if level == 4 else ""))
    rng.shuffle(jobs)
    return jobs
