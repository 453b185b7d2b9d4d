"""Sparse storage of RingMatrix: the exact paths never build the dense grid,
and the sparse operations agree with dense oracles."""

import random

import pytest

from braidrep.alexander import alexander_conway, markov_f
from braidrep.burau import burau, reduced_burau
from braidrep.laurent import LaurentPoly, RingMatrix
from braidrep.words import BraidWord
from braidrep.yang_baxter import flip_r, rep_from_r, rq_r

T = LaurentPoly.var("t")
ZERO = LaurentPoly.constant(0)


def random_word(rng, n, max_len=12):
    return BraidWord(
        n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len)))
    )


def random_matrix(rng, rows, cols, density=0.4):
    """Entries in Z[t^+-1], each zero with probability 1 - density."""

    def entry():
        if rng.random() > density:
            return ZERO
        return LaurentPoly("t", {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})

    return RingMatrix(rows, cols, tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))


def stores_no_zero(m: RingMatrix) -> bool:
    return len(m._sparse_rows) == m.rows and all(
        e and 0 <= j < m.cols for row in m._sparse_rows for j, e in row.items()
    )


def test_exact_paths_never_densify(monkeypatch):
    def refuse(self):
        raise AssertionError("RingMatrix.entries built")

    monkeypatch.setattr(RingMatrix, "entries", property(refuse))
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(2, 8)
        w = random_word(rng, n)
        alexander_conway(w)
        burau(w).matrix.to_json()
        rb = reduced_burau(w).matrix
        assert rb.det().is_monomial()
        rb.inverse_unit_det()
        rb.adjugate()
    markov_f(BraidWord(300, ((1, 1), (2, -1), (299, 1))))
    spec = rq_r()
    for legs in (3, 4):
        rep_from_r(spec, legs, random_word(rng, legs, 6)).to_json()
    flip_r(3)


def test_sparse_operations_store_no_zero():
    rng = random.Random(67)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a, b = random_matrix(rng, r, c), random_matrix(rng, r, c)
        results = [a + b, a - b, a - a, a + b.scale(-1), a.scale(0), a.scale(T), a.scale(ZERO), a.transpose()]
        assert all(stores_no_zero(m) for m in results)
        assert a - a == RingMatrix(r, c, [[ZERO] * c] * r)
        assert (a + b).entries == tuple(tuple(x + y for x, y in zip(p, q)) for p, q in zip(a.entries, b.entries))
    for _ in range(40):
        n = rng.randint(2, 7)
        m = reduced_burau(random_word(rng, n)).matrix
        assert stores_no_zero(m)
        assert stores_no_zero(m.inverse_unit_det()) and stores_no_zero(m.adjugate())
        sign, p, right = m._eliminate(True)
        assert stores_no_zero(right)


def test_from_columns_matches_the_dense_constructor():
    rng = random.Random(71)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        dense = random_matrix(rng, r, c)
        columns = [{i: row[j] for i, row in enumerate(dense.entries) if row[j]} for j in range(c)]
        rng.shuffle(columns)  # any column order works; the order of the rows in each does too
        grid = tuple(tuple(col.get(i, ZERO) for col in columns) for i in range(r))
        built = RingMatrix._from_columns(r, columns)
        assert built == RingMatrix(r, c, grid)
        assert built.entries == grid
        assert hash(built) == hash(RingMatrix(r, c, grid))
        assert built.transpose().transpose() == built


def test_to_json_matches_the_dense_grid():
    rng = random.Random(73)
    samples = [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), rng.random()) for _ in range(40)]
    for n in (2, 3, 5, 8):
        w = random_word(rng, n)
        zero = RingMatrix(n, 2, [[ZERO] * 2] * n)
        samples += [burau(w).matrix, reduced_burau(w).matrix, RingMatrix.identity(n), zero]
    for m in samples:
        assert m.to_json()["entries"] == [[str(e) for e in row] for row in m.entries]
        grid = [[LaurentPoly.parse(e, "t") for e in row] for row in m.to_json()["entries"]]
        assert RingMatrix(m.rows, m.cols, grid) == m


def test_indexing_and_immutability():
    m = RingMatrix.from_rows([[1, 0], [T, 2]])
    assert m[1, 0] == T and m[0, 1] == 0 and m[1, -1] == 2
    with pytest.raises(IndexError):
        m[0, 2]
    with pytest.raises(AttributeError):
        m.rows = 3
