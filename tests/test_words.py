"""Braid words, permutations, Markov moves."""

import random

import pytest
from hypothesis import given, strategies as st

from braidrep.words import (
    BraidWord,
    Permutation,
    closure_component_count,
    exponent_sum,
    markov_conjugate,
    markov_stabilize,
    underlying_permutation,
)


def word_strategy(max_n=6, max_len=12):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=max_len
        ).map(lambda letters: BraidWord(n, tuple(letters)))
    )


def random_word(rng, n, max_len=10):
    return BraidWord(
        n,
        tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
        ),
    )


def is_pure(w):
    """A pure braid permutes no strand; the CLI's "pure" field."""
    return underlying_permutation(w).is_identity()


def test_parse_examples():
    w = BraidWord.parse("s1 s2^-1", 3)
    assert w.letters == ((1, 1), (2, -1))
    assert BraidWord.parse("", 4).letters == ()
    with pytest.raises(ValueError):
        BraidWord.parse("s3", 3)
    with pytest.raises(ValueError):
        BraidWord.parse("sigma1", 3)


@given(word_strategy())
def test_parse_print_roundtrip(w):
    assert BraidWord.parse(str(w), w.n) == w


@given(word_strategy())
def test_free_reduction_of_w_winv(w):
    assert (w * w.inverse()).free_reduce().letters == ()
    assert (w.inverse() * w).free_reduce().letters == ()


def test_free_reduce_examples():
    assert BraidWord.parse("s1 s1^-1", 2).free_reduce().letters == ()
    assert BraidWord.parse("s1 s2 s2^-1 s1", 3).free_reduce() == BraidWord.parse("s1 s1", 3)
    assert BraidWord.parse("s1 s2", 3).inverse() == BraidWord.parse("s2^-1 s1^-1", 3)


def test_permutation_homomorphism():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(2, 6)
        a, b = random_word(rng, n), random_word(rng, n)
        assert underlying_permutation(a * b) == underlying_permutation(a).then(
            underlying_permutation(b)
        )


def test_permutation_matches_composed_transpositions():
    rng = random.Random(19)
    assert underlying_permutation(BraidWord(1)) == Permutation((1,))
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 9), 30)
        expected = Permutation(tuple(range(1, w.n + 1)))
        for i, _ in w.letters:
            images = list(range(1, w.n + 1))
            images[i - 1], images[i] = i + 1, i
            expected = expected.then(Permutation(tuple(images)))
        assert underlying_permutation(w) == expected


def test_permutation_constructions_do_not_grow_with_word_length(monkeypatch):
    built = []
    check = Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__", lambda self: built.append(1) or check(self))
    rng = random.Random(5)
    for length in (1, 10, 200):
        built.clear()
        underlying_permutation(BraidWord(40, tuple((rng.randint(1, 39), 1) for _ in range(length))))
        assert len(built) == 1


def test_permutation_examples():
    assert underlying_permutation(BraidWord.parse("s1", 2)).images == (2, 1)
    assert underlying_permutation(BraidWord(3)).is_identity()
    # s1 s2 s1 sends 1 <-> 3
    assert underlying_permutation(BraidWord.parse("s1 s2 s1", 3)).images == (3, 2, 1)


def test_purity():
    assert is_pure(BraidWord.parse("s1 s1", 2))
    assert not is_pure(BraidWord.parse("s1", 2))
    assert not is_pure(BraidWord.parse("s1 s2^-1 s1 s2^-1", 3))  # a 3-cycle


def test_exponent_sum():
    assert exponent_sum(BraidWord.parse("s1 s2^-1", 3)) == 0
    assert exponent_sum(BraidWord.parse("s1 s1 s1", 2)) == 3
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(2, 5)
        a, b = random_word(rng, n), random_word(rng, n)
        assert exponent_sum(a * b) == exponent_sum(a) + exponent_sum(b)


def test_markov_moves():
    assert markov_stabilize(BraidWord(1), 1) == BraidWord.parse("s1", 2)
    g = BraidWord.parse("s2", 3)
    assert markov_conjugate(BraidWord.parse("s1", 3), g) == BraidWord.parse("s2 s1 s2^-1", 3)
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 5)
        w, g = random_word(rng, n), random_word(rng, n)
        conj = markov_conjugate(w, g)
        assert exponent_sum(conj) == exponent_sum(w)
        pg = underlying_permutation(g)
        assert underlying_permutation(conj) == pg.then(underlying_permutation(w)).then(
            underlying_permutation(g.inverse())
        )
        for sign in (1, -1):
            stab = markov_stabilize(w, sign)
            assert stab.n == n + 1
            assert exponent_sum(stab) == exponent_sum(w) + sign


def test_closure_components():
    assert closure_component_count(BraidWord.parse("s1", 2)) == 1  # unknot
    assert closure_component_count(BraidWord(3)) == 3  # unlink
    assert closure_component_count(BraidWord.parse("s1 s1", 2)) == 2  # Hopf link


@given(word_strategy())
def test_pure_words_close_to_n_components(w):
    if is_pure(w):
        assert closure_component_count(w) == w.n
    ww = w * w.inverse()
    assert is_pure(ww) and closure_component_count(ww) == w.n


def test_single_strand_group_is_trivial():
    assert BraidWord(1).letters == ()
    with pytest.raises(ValueError):
        BraidWord(1, ((1, 1),))


def test_permutation_cycles():
    p = Permutation((3, 1, 2))
    assert p.cycles() == [[1, 3, 2]]
    assert p.then(Permutation((2, 3, 1))).is_identity()
    assert not p.then(p).is_identity()
