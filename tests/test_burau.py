"""Burau representations: generator matrices, relations, conjugation identity."""

import random
from functools import reduce

import pytest

from braidrep.burau import (
    burau,
    conjugation_check,
    ones_upper_triangular,
    reduced_burau,
    reduced_generator,
    unreduced_generator,
)
from braidrep.laurent import LaurentPoly, RingMatrix
from braidrep.words import BraidWord, exponent_sum, underlying_permutation

T = LaurentPoly.var("t")


def random_word(rng, n, max_len=8):
    return BraidWord(
        n,
        tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
        ),
    )


def permutation_matrix(perm) -> RingMatrix:
    # row-action convention: entry (k, perm(k)) = 1, matching word-order products
    one, zero = LaurentPoly.constant(1), LaurentPoly.constant(0)
    n = perm.n
    return RingMatrix(
        n,
        n,
        tuple(
            tuple(one if perm(r + 1) == c + 1 else zero for c in range(n)) for r in range(n)
        ),
    )


def test_unreduced_generator_blocks():
    u = unreduced_generator(2, 1, 1)
    assert u == RingMatrix.from_rows([[1 - T, T], [1, 0]])
    uinv = unreduced_generator(2, 1, -1)
    assert uinv == RingMatrix.from_rows([[0, 1], [T.unit_inverse(), 1 - T.unit_inverse()]])
    u2 = unreduced_generator(4, 2, 1)
    assert (u2 @ unreduced_generator(4, 2, -1)).is_identity()
    with pytest.raises(ValueError):
        unreduced_generator(3, 3, 1)


def test_reduced_generator_displays():
    assert reduced_generator(2, 1, 1) == RingMatrix.from_rows([[-T]])
    assert reduced_generator(3, 1, 1) == RingMatrix.from_rows([[-T, 0], [1, 1]])
    assert reduced_generator(3, 2, 1) == RingMatrix.from_rows([[1, T], [0, -T]])
    interior = reduced_generator(5, 2, 1)
    assert interior == RingMatrix.from_rows(
        [[1, T, 0, 0], [0, -T, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    )
    v = reduced_generator(5, 3, 1)
    assert (v @ reduced_generator(5, 3, -1)).is_identity()


def test_word_images():
    assert burau(BraidWord.parse("s1", 2)).matrix == RingMatrix.from_rows([[1 - T, T], [1, 0]])
    cube = reduced_burau(BraidWord.parse("s1 s1 s1", 2)).matrix
    assert cube == RingMatrix.from_rows([[-(T ** 3)]])
    assert reduced_burau(BraidWord(4)).matrix.is_identity()
    with pytest.raises(ValueError):
        burau(BraidWord(1))


@pytest.mark.parametrize("n", range(2, 7))
def test_braid_relations_exact(n):
    for rep in (burau, reduced_burau):
        for i in range(1, n - 1):
            a = BraidWord(n, ((i, 1), (i + 1, 1), (i, 1)))
            b = BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1)))
            assert rep(a).matrix == rep(b).matrix
        for i in range(1, n):
            for j in range(i + 2, n):
                ab = BraidWord(n, ((i, 1), (j, 1)))
                ba = BraidWord(n, ((j, 1), (i, 1)))
                assert rep(ab).matrix == rep(ba).matrix


def test_homomorphism_on_random_words():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 6)
        w = random_word(rng, n)
        assert (burau(w).matrix @ burau(w.inverse()).matrix).is_identity()
        assert (reduced_burau(w).matrix @ reduced_burau(w.inverse()).matrix).is_identity()


def test_t_equals_one_gives_permutation_matrix():
    rng = random.Random(29)
    one = LaurentPoly.constant(1)
    for _ in range(40):
        n = rng.randint(2, 6)
        w = random_word(rng, n)
        m = burau(w).matrix
        specialized = RingMatrix(
            n,
            n,
            tuple(tuple(e.substitute_hom("t", one) for e in row) for row in m.entries),
        )
        assert specialized == permutation_matrix(underlying_permutation(w))


def test_reduced_determinant_is_unit():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(2, 5)
        w = random_word(rng, n)
        d = reduced_burau(w).matrix.det()
        e = exponent_sum(w)
        assert d == LaurentPoly("t", {e: (-1) ** (e % 2)})


@pytest.mark.parametrize("n", range(2, 8))
def test_conjugation_identity(n):
    for i in range(1, n):
        assert conjugation_check(n, i)


def test_conjugation_matrix_shape():
    c = ones_upper_triangular(3)
    assert c == RingMatrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 1]])


@pytest.mark.parametrize("n", range(2, 10))
def test_closed_form_inverses(n):
    for gen in (reduced_generator, unreduced_generator):
        for i in range(1, n):
            pos, neg = gen(n, i, 1), gen(n, i, -1)
            assert (pos @ neg).is_identity() and (neg @ pos).is_identity()
    for i in range(1, n):
        # adjugate/det shares no code with the closed-form column table
        assert reduced_generator(n, i, -1) == reduced_generator(n, i, 1).inverse_unit_det()


def test_column_actions_match_dense_products():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 9)
        w = random_word(rng, n, max_len=24)
        cases = ((reduced_burau, reduced_generator, n - 1), (burau, unreduced_generator, n))
        for rep, gen, k in cases:
            dense = reduce(
                lambda acc, letter: acc @ gen(n, *letter), w.letters, RingMatrix.identity(k)
            )
            assert rep(w).matrix == dense


def test_out_of_range_letters_rejected_before_burau():
    for letters in (((3, 1),), ((0, -1),), ((1, 2),)):
        with pytest.raises(ValueError):
            reduced_burau(BraidWord(3, letters))
    with pytest.raises(ValueError):
        reduced_generator(4, 4, -1)


# independent oracle: Burau as the abelianized Fox Jacobian of the Artin
# action on the free group F_n, on words of signed ints (+j is x_j, -j its
# inverse) and polynomials as {exponent: coefficient} dicts


def _artin_images(w):
    """Freely reduced images of x_1..x_n under w, letters substituted in
    word order."""
    images = [[j] for j in range(1, w.n + 1)]
    for i, sign in w.letters:
        if sign > 0:  # x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i
            sub = {i: [i, i + 1, -i], i + 1: [i]}
        else:  # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
            sub = {i: [i + 1], i + 1: [-i - 1, i, i + 1]}
        new_images = []
        for word in images:
            reduced = []
            for g in word:
                image = sub.get(abs(g), [abs(g)])
                for h in image if g > 0 else [-x for x in reversed(image)]:
                    if reduced and reduced[-1] == -h:
                        reduced.pop()
                    else:
                        reduced.append(h)
            new_images.append(reduced)
        images = new_images
    return images


def _fox_jacobian_at_t(images, n):
    """J[i][j] = d(image of x_i) / d x_j with every x_k sent to t: a letter
    x_j contributes t^e, a letter x_j^-1 contributes -t^(e-1), where e is
    the exponent sum of the letters before it."""
    jac = [[{} for _ in range(n)] for _ in range(n)]
    for i, word in enumerate(images):
        degree = 0
        for g in word:
            entry = jac[i][abs(g) - 1]
            exponent, coeff = (degree, 1) if g > 0 else (degree - 1, -1)
            degree += 1 if g > 0 else -1
            entry[exponent] = entry.get(exponent, 0) + coeff
            if not entry[exponent]:
                del entry[exponent]
    return jac


def test_burau_is_the_abelianized_fox_jacobian():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 6)
        w = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(1, 10))))
        terms = [[e.terms for e in row] for row in burau(w).matrix.entries]
        assert terms == _fox_jacobian_at_t(_artin_images(w), n), w
