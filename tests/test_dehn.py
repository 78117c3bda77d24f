"""Word problem for cyclically presented groups via Dehn's algorithm."""

import random

import pytest

from gbbkit import dehn
from gbbkit.dehn import (CyclicPresentation, Word, dehn_reduce, free_reduce,
                         invert_word, is_identity, small_cancellation_check)
from gbbkit.errors import DehnError, InternalError, WindowError
from gbbkit.fixtures import (dehn_presentation_godel,
                             dehn_presentation_periodic)
from gbbkit.intsets import PeriodicSet


def conjugate(word, by):
    return by + word + invert_word(by)


def replay(word, trace):
    """The words before each step that ``trace`` records while ``word`` is
    reduced, and the word after the last step."""
    w = free_reduce(word)
    words = []
    for i, t, inserted in trace:
        words.append(w)
        w = free_reduce(w[:i] + inserted + w[i + t:])
    return words, w


# --- words -------------------------------------------------------------------


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, 2, 3)) == (1, 2, 3)


def test_word_parse():
    assert Word.parse("a1 a2 -a3").letters == (1, 2, -3)
    assert Word.parse("a1 a1^-1 a2").letters == (2,)
    with pytest.raises(DehnError):
        Word.parse("b1")
    with pytest.raises(DehnError):
        Word.parse("a1^2")
    with pytest.raises(DehnError):
        Word((1, 0))


# --- presentation validation ---------------------------------------------------


def test_presentation_validation():
    with pytest.raises(DehnError):
        CyclicPresentation(2, PeriodicSet.multiples(2))
    with pytest.raises(DehnError):
        CyclicPresentation(13, "2Z")
    pres = dehn_presentation_periodic()
    with pytest.raises(DehnError):
        small_cancellation_check(pres, 6, 0)


def test_relator_shape():
    pres = dehn_presentation_periodic(l=3)
    assert pres.relator(2) == (1, 1, 2, 2, 3, 3)
    assert pres.relator(-1) == (-1, -2, -3)
    assert pres.relator(0) == ()


# --- small cancellation ---------------------------------------------------------


def test_small_cancellation_periodic_l13():
    pres = dehn_presentation_periodic(l=13)
    rep = small_cancellation_check(pres, 6, 15)
    assert rep.passes
    assert rep.max_ratio < 1 / 6
    # every relator's worst piece is reported
    assert set(rep.per_relator_ratio) == {
        n for n in range(-15, 16) if n and n % 2 == 0
    }


def test_small_cancellation_godel_l13():
    pres = dehn_presentation_godel(l=13)
    rep = small_cancellation_check(pres, 6, 15)
    assert rep.passes


def test_small_cancellation_fails_for_tiny_l():
    # with l=3 the pieces a_i^n between R_n and R_2n reach 1/3 of R_n
    pres = CyclicPresentation(3, PeriodicSet.all_integers())
    rep = small_cancellation_check(pres, 6, 4)
    assert not rep.passes


# --- Dehn reduction: relator powers ---------------------------------------------


def test_relator_identity_iff_exponent_in_set_periodic():
    pres = dehn_presentation_periodic(l=13)
    for n in range(-15, 16):
        if n == 0:
            continue
        word = pres.relator(n)
        assert is_identity(pres, word) == (n % 2 == 0), n


def test_relator_identity_iff_exponent_in_set_godel():
    pres = dehn_presentation_godel(l=13)
    for n in range(-15, 16):
        if n == 0:
            continue
        word = pres.relator(n)
        # members of the digit-encoded set below 16 are just {0, 1};
        # negative exponents are never members
        assert is_identity(pres, word) == (n == 1), n


def test_generators_are_nontrivial():
    pres = dehn_presentation_periodic(l=13)
    assert not is_identity(pres, (1,))
    assert not is_identity(pres, (1, 2, 3))


def test_random_relator_products_reduce_to_identity():
    pres = dehn_presentation_periodic(l=13)
    rng = random.Random(99)
    exponents = [n for n in range(-6, 7) if n and n % 2 == 0]
    for _ in range(500):
        word = ()
        for _ in range(rng.randrange(1, 5)):
            rel = pres.relator(rng.choice(exponents))
            conj = tuple(
                rng.choice([i, -i])
                for i in rng.sample(range(1, 14), rng.randrange(0, 3))
            )
            word = word + conjugate(rel, conj)
        assert is_identity(pres, word)


def test_reduction_trace_shrinks():
    pres = dehn_presentation_periodic(l=13)
    trace = []
    word = pres.relator(2) + pres.relator(4)
    out = dehn_reduce(pres, word, trace=trace)
    assert len(out) == 0
    words, last = replay(word, trace)
    lengths = [len(w) for w in words + [last]]
    assert lengths == sorted(lengths, reverse=True)


# --- window behavior -------------------------------------------------------------


def test_window_error_on_huge_exponent():
    pres = dehn_presentation_godel(l=13, position_bound=3)
    # deciding R_n for n past the certified digits must raise, not guess
    with pytest.raises(WindowError):
        is_identity(pres, pres.relator(10 ** 4))


def test_inside_window_large_member():
    pres = dehn_presentation_godel(l=5, position_bound=4)
    assert is_identity(pres, pres.relator(101))
    assert not is_identity(pres, pres.relator(11))


def test_exponents_are_asked_lazily():
    # no more-than-half match in (a1^1000 a3^1000)^4, so no exponent is
    # needed, even though 1000 is past the certified digits of T
    pres = dehn_presentation_godel(l=13, position_bound=3)
    word = ((1,) * 1000 + (3,) * 1000) * 4
    assert not is_identity(pres, word)


# --- input contract and internal checks ----------------------------------------


def test_generator_index_beyond_l_is_rejected():
    pres = dehn_presentation_periodic(l=13)
    word = (14, 14) + tuple(x for i in range(2, 14) for x in (i, i))
    with pytest.raises(DehnError, match="letter 14 "):
        dehn_reduce(pres, word)
    with pytest.raises(DehnError):
        dehn_reduce(pres, (1, -14))
    with pytest.raises(DehnError):
        dehn_reduce(pres, (1, 0, 2))
    assert is_identity(pres, tuple(x for i in range(1, 14) for x in (i, i)))


def test_the_first_bad_letter_in_word_order_is_named():
    # each distinct letter is checked once, as a set; 40 comes first in
    # the set {17, 40}, and 17 comes first in the word
    pres = dehn_presentation_periodic(l=13)
    assert list({17, 40}) == [40, 17]
    with pytest.raises(DehnError, match="^letter 17 is not a generator "
                                        "a1..a13 or an inverse$"):
        dehn_reduce(pres, (2, 17, 3, 40, 17))


def test_splice_mismatch_raises_internal_error(monkeypatch):
    real = dehn._family_rotation

    def wrong_rotation(*args):
        head, inserted = real(*args)
        return [(-head[0][0], head[0][1])] + head[1:], inserted

    monkeypatch.setattr(dehn, "_family_rotation", wrong_rotation)
    pres = dehn_presentation_periodic(l=13)
    with pytest.raises(InternalError, match=r"letter 1 of length 26"):
        dehn_reduce(pres, (5,) + pres.relator(2))


# --- work counts ------------------------------------------------------------------


class StepCount:
    """A ``trace`` that counts the steps without keeping the words."""

    def __init__(self):
        self.steps = 0

    def append(self, _step):
        self.steps += 1


def linked_pairs(rng, l, pairs):
    """Pairs a_g a_{g+1} (or their inverses), no two pairs linked: every
    other run steps from its neighbour, but no more-than-half match
    continues the step."""
    out = []
    while len(out) < 2 * pairs:
        g, s = rng.randrange(1, l + 1), rng.choice((1, -1))
        if out and abs(out[-1]) in (g, (g - 2) % l + 1):
            continue
        out += [s * g, s * (g % l + 1)]
    return tuple(out)


def test_reduction_work_is_local_to_the_steps(monkeypatch):
    # a 35,000-letter identity word of 2Z relators conjugated by 60 letters
    # of linked pairs: about 27,000 runs, half of them linked, and 202
    # steps; evaluating every run's key would call _match_length once per
    # linked run
    l = 13
    pres = dehn_presentation_periodic(l=l)
    rng = random.Random(5)
    word = ()
    while len(word) < 35000:
        u = linked_pairs(rng, l, 30)
        word += conjugate(pres.relator(rng.choice((-6, -4, -2, 2, 4, 6))), u)
    calls = 0
    real = dehn._match_length

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(dehn, "_match_length", counted)
    asked = []
    monkeypatch.setattr(pres, "contains_exponent",
                        lambda n, real=pres.contains_exponent:
                        asked.append(n) or real(n))
    steps = StepCount()
    assert len(dehn_reduce(pres, word, trace=steps)) == 0
    assert len(dehn._runs(free_reduce(word))[0]) > 25000
    assert calls <= steps.steps * (2 * l + 4)
    assert sorted(asked) == sorted(set(asked))


def is_rotation(word, of):
    return len(word) == len(of) and any(
        word == of[k:] + of[:k] for k in range(len(of)))


def test_trace_steps_replay_to_the_reduced_word():
    # a 35,000-letter word of conjugated 2Z relator rotations, each cut
    # short by less than a third: each step swaps a more-than-half
    # subword of a relator rotation for the inverse of the rest, so what
    # it inserts is shorter than the relator's l*|n| letters, and the
    # replayed steps end at the result
    l = 13
    pres = dehn_presentation_periodic(l=l)
    rng = random.Random(7)
    word = ()
    while len(word) < 35000:
        rel = pres.relator(rng.choice((-6, -4, -2, 2, 4, 6)))
        k, cut = rng.randrange(len(rel)), rng.randrange(len(rel) // 3)
        word += conjugate((rel[k:] + rel[:k])[cut:], linked_pairs(rng, l, 30))
    trace = []
    reduced = dehn_reduce(pres, word, trace=trace)
    words, last = replay(word, trace)
    assert last == reduced.letters
    assert len(trace) > 200
    assert sum(1 for _, _, inserted in trace if inserted) > 150
    for w, (i, t, inserted) in zip(words, trace):
        cycle = w[i:i + t] + invert_word(inserted)
        n = len(cycle) // l
        assert len(inserted) < l * n and 2 * len(inserted) < len(cycle)
        assert any(is_rotation(cycle, r)
                   for m in (n, -n) if m in pres.T
                   for r in (pres.relator(m), invert_word(pres.relator(m))))
