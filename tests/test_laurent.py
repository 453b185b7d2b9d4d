"""Exact ring layer: Laurent polynomials, matrices, determinants, division."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from braidrep.laurent import ExactDivisionError, LaurentPoly, RingMatrix, exact_div

T = LaurentPoly.var("t")
S = LaurentPoly.var("s")


def random_poly(rng, variable, max_terms=5, span=4, fractions=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e, c = rng.randint(-span, span), rng.randint(-9, 9)
        terms[e] = Fraction(c, rng.randint(1, 6)) if fractions else c
    return LaurentPoly(variable, terms)


def test_unit_pair_and_simple_sums():
    assert T * T.unit_inverse() == 1
    assert (1 - T) + T == 1
    assert (S - S.unit_inverse()) * (S + S.unit_inverse()) == S ** 2 - S.unit_inverse() ** 2


def test_truth_value_is_nonzero():
    assert not LaurentPoly.constant(0)
    assert not LaurentPoly()
    assert not T - T
    assert not LaurentPoly.parse("0", "t")
    for p in (LaurentPoly.constant(1), LaurentPoly.constant(Fraction(-2, 3)), T, S.unit_inverse(),
              LaurentPoly.monomial(5, "q", -2), LaurentPoly("q", {0: 7}), 1 - T, T - T + 1):
        assert p


@pytest.mark.parametrize("seed", [1])
def test_ring_axioms_on_random_triples(seed):
    rng = random.Random(20240 + seed)
    for _ in range(500):
        a = random_poly(rng, "t")
        b = random_poly(rng, "t")
        c = random_poly(rng, "t")
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * LaurentPoly("t", {}) == LaurentPoly("t", {})
        assert a + (-a) == 0


def test_canonical_string_contract():
    trefoil = S.unit_inverse() ** 2 - 1 + S ** 2
    assert str(trefoil) == "s^-2 - 1 + s^2"
    assert str(S.unit_inverse() - S) == "s^-1 - s"
    assert str(-(S.unit_inverse() ** 2) + 3 - S ** 2) == "-s^-2 + 3 - s^2"
    assert str(LaurentPoly.constant(0)) == "0"
    assert str(LaurentPoly.constant(Fraction(3, 2)) * T) == "3/2*t"
    assert str(3 * S ** 2 - 2 * S) == "-2*s + 3*s^2"


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=8))
def test_single_var_parse_roundtrip(pairs):
    p = LaurentPoly("s", {e: c for e, c in pairs if c})
    assert LaurentPoly.parse(str(p)) == p


def test_parse_rational_coefficients():
    p = LaurentPoly.parse("1/2*t^-1 - 3 + 5/4*t^2")
    assert p.terms[-1] == Fraction(1, 2)
    assert p.terms[0] == -3
    assert p.terms[2] == Fraction(5, 4)


def test_parse_rejects_a_second_variable():
    for text, variable in (("q*t", None), ("q + t", None), ("t", "q"), ("1 - t^2", "q")):
        with pytest.raises(ValueError):
            LaurentPoly.parse(text, variable)
    q = LaurentPoly.var("q")
    assert LaurentPoly.parse("q - q^-1", "q") == q - q.unit_inverse()


def test_substitution_homomorphism():
    g = lambda p: p.substitute_hom("t", S * S)
    assert g(1 - T) == 1 - S ** 2
    assert g(LaurentPoly.constant(5)) == 5
    assert g(T.unit_inverse() + T) == S.unit_inverse() ** 2 + S ** 2
    # t^e -> c^e s^(ke): negative powers pick up 1/c
    assert (T.unit_inverse() + 3 * T).substitute_hom("t", 2 * S ** 2) == Fraction(1, 2) * S ** -2 + 6 * S ** 2
    assert (T ** 2 + T.unit_inverse()).substitute_hom("t", LaurentPoly.constant(-1)) == 0
    rng = random.Random(99)
    for _ in range(100):
        p = random_poly(rng, "t")
        q = random_poly(rng, "t")
        assert g(p + q) == g(p) + g(q)
        assert g(p * q) == g(p) * g(q)


def test_substitution_rejects_non_units():
    with pytest.raises(ValueError):
        (1 - T).substitute_hom("t", S + 1)


def test_exact_division():
    assert exact_div(S ** 2 - S.unit_inverse() ** 2, S - S.unit_inverse()) == S + S.unit_inverse()
    p = 3 * T ** 2 - T + 7
    assert exact_div(p, LaurentPoly.constant(1)) == p
    with pytest.raises(ExactDivisionError):
        exact_div(S + 1, S - 1)


def test_exact_division_roundtrip_random():
    rng = random.Random(5)
    for _ in range(200):
        a = random_poly(rng, "s", fractions=rng.random() < 0.5)
        b = random_poly(rng, "s", fractions=rng.random() < 0.5)
        if not b:
            continue
        assert exact_div(a * b, b) == a
        if not b.is_monomial():
            with pytest.raises(ExactDivisionError):
                exact_div(a * b + 1, b)


def test_mixing_two_variables_raises():
    with pytest.raises(ValueError):
        T + S
    with pytest.raises(ValueError):
        T * S
    with pytest.raises(ValueError):
        exact_div(T * T - 1, S - 1)
    # constants combine with either variable
    assert (T + 1) * LaurentPoly.constant(2) - 2 == 2 * T


def test_constants_are_canonical():
    five = LaurentPoly.constant(5)
    for other in (T - T + 5, LaurentPoly.parse("5", "q"), LaurentPoly("t", {0: 5}), S * S.unit_inverse() * 5):
        assert other == five
        assert hash(other) == hash(five)
        assert other.variable is None
    assert LaurentPoly("t", {}) == LaurentPoly.constant(0) == 0


def test_constructor_takes_int_exponents_only():
    with pytest.raises(TypeError):
        LaurentPoly("t", {(1,): 1})
    with pytest.raises(TypeError):
        LaurentPoly(("t",), {1: 1})
    with pytest.raises(ValueError):
        LaurentPoly(None, {1: 1})


def test_matrix_inverse_pair_from_burau_block():
    u = RingMatrix.from_rows([[1 - T, T], [LaurentPoly.constant(1), LaurentPoly.constant(0)]])
    uinv = RingMatrix.from_rows(
        [[LaurentPoly.constant(0), LaurentPoly.constant(1)], [T.unit_inverse(), 1 - T.unit_inverse()]]
    )
    assert (u @ uinv).is_identity()
    assert (uinv @ u).is_identity()
    assert u.det() == -T


def test_matrix_identity_and_associativity():
    rng = random.Random(11)
    for _ in range(25):
        mats = [
            RingMatrix.from_rows(
                [[random_poly(rng, "t", 3, 2) for _ in range(3)] for _ in range(3)]
            )
            for _ in range(3)
        ]
        a, b, c = mats
        assert (RingMatrix.identity(3) @ a) == a
        assert ((a @ b) @ c) == (a @ (b @ c))


def test_det_multiplicative_and_transpose():
    rng = random.Random(23)
    assert RingMatrix.identity(3).det() == 1
    for size in (2, 3, 4):
        for _ in range(10):
            a = RingMatrix.from_rows(
                [[random_poly(rng, "t", 2, 2) for _ in range(size)] for _ in range(size)]
            )
            b = RingMatrix.from_rows(
                [[random_poly(rng, "t", 2, 2) for _ in range(size)] for _ in range(size)]
            )
            assert (a @ b).det() == a.det() * b.det()
            assert a.transpose().det() == a.det()


def test_bareiss_matches_cofactor():
    # a 6x6 determinant must agree with its Laplace expansion along row 0
    rng = random.Random(31)
    for _ in range(5):
        rows = [[random_poly(rng, "t", 2, 1) for _ in range(6)] for _ in range(6)]
        m = RingMatrix.from_rows(rows)
        expand = LaurentPoly.constant(0)
        for j in range(6):
            sub = RingMatrix.from_rows(
                [[rows[r][c] for c in range(6) if c != j] for r in range(1, 6)]
            )
            term = rows[0][j] * sub.det()
            expand = expand + (term if j % 2 == 0 else -term)
        assert m.det() == expand


def _fraction_det(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


@pytest.mark.parametrize("size", range(1, 8))
def test_bareiss_against_evaluation_oracle(size):
    # evaluating at t = p/q is a ring homomorphism, so the polynomial
    # determinant evaluated there must match the rational determinant of the
    # evaluated matrix: an independent check of the elimination path
    rng = random.Random(100 + size)
    rows = [[random_poly(rng, "t", 3, 2) for _ in range(size)] for _ in range(size)]
    det_poly = RingMatrix.from_rows(rows).det()
    for point in (Fraction(2), Fraction(-3, 2), Fraction(5, 7)):
        def ev(p):
            return sum(c * point ** e for e, c in p.terms.items())
        assert ev(det_poly) == _fraction_det([[ev(p) for p in row] for row in rows])


def _laplace_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = LaurentPoly.constant(0)
    for j, a in enumerate(rows[0]):
        term = a * _laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def _laplace_adjugate(rows):
    # adj[i][j] = (-1)^(i+j) times the minor without row j and column i
    n = len(rows)
    if n == 1:
        return [[LaurentPoly.constant(1)]]
    return [
        [
            (1 if (i + j) % 2 == 0 else -1)
            * _laplace_det([row[:i] + row[i + 1 :] for r, row in enumerate(rows) if r != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_adjugate_and_inverse_against_laplace_oracle(fractions):
    # a zero (0, 0) entry forces a row swap at the first pivot
    rng = random.Random(61 + fractions)
    checked = 0
    for size in (1, 2, 3, 4, 5):
        rows = [[random_poly(rng, "t", 2, 2, fractions) for _ in range(size)] for _ in range(size)]
        rows[0][0] = LaurentPoly.constant(0)
        if size == 1:
            rows[0][0] = 3 * T
        m = RingMatrix.from_rows(rows)
        if not m.det():
            continue
        checked += 1
        adj = m.adjugate()
        assert [list(row) for row in adj.entries] == _laplace_adjugate([list(r) for r in m.entries])
        assert (m @ adj) == RingMatrix.identity(size).scale(m.det())
    assert checked >= 4
    # unimodular: a unit triangular factor times a swap, conjugated by a dense matrix
    for size in (2, 4, 6):
        lower = RingMatrix.from_rows(
            [
                [random_poly(rng, "t", 2, 2, fractions) if c < r else T ** r if c == r else 0 for c in range(size)]
                for r in range(size)
            ]
        )
        swap = RingMatrix.from_rows([[int(c == (r + 1) % size) for c in range(size)] for r in range(size)])
        m = lower @ swap @ lower.transpose()
        assert not m[0, 0]
        inv = m.inverse_unit_det()
        assert (m @ inv).is_identity() and (inv @ m).is_identity()
        assert inv == m.adjugate().scale(m.det().unit_inverse())


def test_singular_matrix_has_zero_det_and_no_inverse():
    rows = [[T, 1 - T, T ** 2], [2 * T, 2 - 2 * T, 2 * T ** 2], [1, T, 5]]
    m = RingMatrix.from_rows(rows)
    assert m.det() == 0
    with pytest.raises(ExactDivisionError):
        m.inverse_unit_det()
    zero = RingMatrix.from_rows([[0] * 3] * 3)
    with pytest.raises(ExactDivisionError):
        zero.inverse_unit_det()
    assert zero.det() == 0
