"""Alexander-Conway values, skein identity, Markov invariance."""

import random

import pytest

from braidrep.alexander import (
    alexander_conway,
    markov_f,
    markov_invariance_check,
    skein_check,
)
from braidrep.laurent import LaurentPoly
from braidrep.words import BraidWord, markov_stabilize

S = LaurentPoly.var("s")
SINV = S.unit_inverse()


def random_word(rng, n, max_len):
    return BraidWord(
        n,
        tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
        ),
    )


def test_unknot_normalization():
    assert markov_f(BraidWord.parse("s1", 2)) == 1
    assert alexander_conway(BraidWord(1)).poly == 1


def test_knot_values():
    assert markov_f(BraidWord.parse("s1 s1 s1", 2)) == SINV ** 2 - 1 + S ** 2
    assert markov_f(BraidWord.parse("s1 s1", 2)) == SINV - S
    assert markov_f(BraidWord.parse("s1 s2^-1 s1 s2^-1", 3)) == -(SINV ** 2) + 3 - S ** 2


def test_split_links_vanish():
    assert markov_f(BraidWord(2)) == 0  # 2-component unlink
    assert markov_f(BraidWord(3)) == 0
    # an unknot split off from a Hopf link: closure of s1^2 in B3
    assert markov_f(BraidWord.parse("s1 s1", 3)) == 0


def test_component_metadata():
    r = alexander_conway(BraidWord.parse("s1 s1", 2))
    assert (r.poly, r.components) == (SINV - S, 2)
    assert alexander_conway(BraidWord(1)).components == 1


def test_requires_two_strands():
    with pytest.raises(ValueError):
        markov_f(BraidWord(1))


def test_skein_hopf_triple():
    # L+ = Hopf, L- = 2-unlink, L0 = unknot
    assert skein_check(BraidWord.parse("s1", 2), 1, BraidWord(2))
    hopf = markov_f(BraidWord.parse("s1 s1", 2))
    unlink = markov_f(BraidWord(2))
    unknot = markov_f(BraidWord.parse("s1", 2))
    assert hopf - unlink == (SINV - S) * unknot


def test_skein_symmetric_triple():
    assert skein_check(BraidWord(2), 1, BraidWord(2))


def test_skein_random_triples():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(2, 4)
        assert skein_check(
            random_word(rng, n, 6), rng.randint(1, n - 1), random_word(rng, n, 6)
        )


def test_markov_invariance_examples():
    assert markov_invariance_check(BraidWord.parse("s1 s1 s1", 2), BraidWord.parse("s1", 2))
    assert markov_f(BraidWord.parse("s1", 2)) == markov_f(BraidWord.parse("s2 s1", 3)) == 1


def test_markov_invariance_random():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 5)
        assert markov_invariance_check(random_word(rng, n, 8), random_word(rng, n, 8))


def test_stabilization_chain():
    w = BraidWord.parse("s1 s1 s1", 2)
    value = markov_f(w)
    tower = markov_stabilize(markov_stabilize(w, 1), -1)
    assert markov_f(tower) == value


def test_torus_family_recursion():
    # closures of s1^k: resolving one crossing gives the three-term recursion
    # nabla_k = nabla_{k-2} + (s^-1 - s) nabla_{k-1}, seeded by the 2-unlink
    # and the unknot; an infinite family checked independently of Burau
    z = SINV - S
    expected = [LaurentPoly.constant(0), LaurentPoly.constant(1)]
    for k in range(2, 13):
        expected.append(expected[k - 2] + z * expected[k - 1])
    for k in range(13):
        w = BraidWord(2, ((1, 1),) * k)
        assert markov_f(w) == expected[k], f"torus closure of s1^{k}"
