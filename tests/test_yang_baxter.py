"""Yang-Baxter residuals, induced representations, JSON loading."""

import json
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from braidrep.alexander import alexander_conway
from braidrep.burau import burau
from braidrep.laurent import LaurentPoly, RingMatrix
from braidrep.words import BraidWord, exponent_sum, underlying_permutation
from braidrep.yang_baxter import (
    RMatrixSpec,
    YangBaxterError,
    _columns,
    _leg_product,
    check_braid_ybe,
    check_qybe,
    flip_matrix,
    flip_r,
    identity_r,
    r_matrix_from_json,
    rep_from_r,
    rq_r,
)
from ybe_reference import compose_flip, r_matrix_json

CORPUS = [identity_r(2), flip_r(2), rq_r()]


@pytest.mark.parametrize("spec", CORPUS, ids=["identity", "flip", "rq"])
def test_corpus_satisfies_braid_ybe_exactly(spec):
    res = check_braid_ybe(spec)
    assert res.norm == 0.0 and res.passes


def test_qybe_examples():
    assert check_qybe(identity_r(2)).norm == 0.0
    two_id = RMatrixSpec(2, "rational", RingMatrix.identity(4).scale(2))
    assert check_qybe(two_id).norm == 0.0  # scaling preserves the QYBE


@pytest.mark.parametrize("spec", CORPUS + [compose_flip(rq_r())], ids=["id", "flip", "rq", "tau_rq"])
def test_qybe_iff_braid_ybe_of_flipped(spec):
    assert (check_qybe(spec).norm == 0.0) == (check_braid_ybe(compose_flip(spec)).norm == 0.0)


def test_generic_rational_matrix_fails():
    rng = random.Random(3)
    grid = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(4)]
    grid[0][0] += 7  # keep it invertible
    spec = RMatrixSpec(2, "rational", RingMatrix.from_rows(grid))
    res = check_braid_ybe(spec)
    assert res.norm != 0.0 and not res.passes


def test_flip_representation_is_permutation_action():
    w = BraidWord.parse("s1 s2 s1", 3)
    m = rep_from_r(flip_r(2), 3, w)
    assert m == rep_from_r(flip_r(2), 3, BraidWord.parse("s2 s1 s2", 3))
    # full reversal of three tensor legs
    one, zero = LaurentPoly.constant(1), LaurentPoly.constant(0)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                row, col = (c << 2) | (b << 1) | a, (a << 2) | (b << 1) | c
                for r in range(8):
                    want = one if r == row else zero
                    assert m.entries[r][col] == want


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_flip_matrix_swaps_the_tensor_factors(d):
    # column x*d + y (e_x (x) e_y) holds a single 1, in row y*d + x
    one, zero = LaurentPoly.constant(1), LaurentPoly.constant(0)
    want = [[zero] * (d * d) for _ in range(d * d)]
    for x, y in product(range(d), repeat=2):
        want[y * d + x][x * d + y] = one
    assert flip_matrix(d) == RingMatrix(d * d, d * d, want)


def test_inverse_letter_of_a_64x64_flip_is_the_flip():
    # the flip is an involution, so the exact inverse of flip_r(8) is itself
    spec = flip_r(8)
    assert rep_from_r(spec, 2, BraidWord.parse("s1^-1", 2)) == spec.matrix


def test_identity_word_and_inverse_words():
    assert rep_from_r(rq_r(), 3, BraidWord(3)).is_identity()
    rng = random.Random(12)
    for _ in range(10):
        letters = tuple((rng.randint(1, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, 5)))
        w = BraidWord(3, letters)
        assert rep_from_r(rq_r(), 3, w * w.inverse()).is_identity()


@pytest.mark.parametrize("n", [3, 4])
def test_rq_representation_braid_relations(n):
    for i in range(1, n - 1):
        a = BraidWord(n, ((i, 1), (i + 1, 1), (i, 1)))
        b = BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1)))
        assert rep_from_r(rq_r(), n, a) == rep_from_r(rq_r(), n, b)
    for i in range(1, n):
        for j in range(i + 2, n):
            ab = BraidWord(n, ((i, 1), (j, 1)))
            ba = BraidWord(n, ((j, 1), (i, 1)))
            assert rep_from_r(rq_r(), n, ab) == rep_from_r(rq_r(), n, ba)


def test_non_ybe_matrix_is_rejected_for_representations():
    rng = random.Random(3)
    grid = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(4)]
    grid[0][0] += 7
    spec = RMatrixSpec(2, "rational", RingMatrix.from_rows(grid))
    with pytest.raises(YangBaxterError, match="fails the braid Yang-Baxter equation"):
        rep_from_r(spec, 3, BraidWord.parse("s1", 3))


def test_size_cap():
    with pytest.raises(ValueError):
        rep_from_r(flip_r(4), 7, BraidWord(7))


def _complex_rq(q):
    grid = np.zeros((4, 4), dtype=complex)
    grid[0, 0] = grid[3, 3] = q
    grid[1, 2] = grid[2, 1] = 1.0
    grid[2, 2] = q - 1 / q
    return RMatrixSpec(2, "complex", grid)


def test_numeric_r_matrix_path():
    # rq at a concrete complex q exercises the numeric branch
    spec = _complex_rq(0.8 + 0.3j)
    assert check_braid_ybe(spec).norm <= 1e-10
    assert check_braid_ybe(spec).passes
    m = rep_from_r(spec, 3, BraidWord.parse("s1 s2 s1", 3))
    m2 = rep_from_r(spec, 3, BraidWord.parse("s2 s1 s2", 3))
    assert np.max(np.abs(m - m2)) <= 1e-10


def test_json_roundtrip_all_rings(tmp_path):
    for spec in CORPUS:
        path = tmp_path / "r.json"
        path.write_text(json.dumps(r_matrix_json(spec)))
        loaded = r_matrix_from_json(json.loads(path.read_text()))
        assert loaded.ring == spec.ring and loaded.matrix == spec.matrix
    numeric = RMatrixSpec(2, "complex", np.eye(4, dtype=complex))
    again = r_matrix_from_json(r_matrix_json(numeric))
    assert np.array_equal(again.matrix, numeric.matrix)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        RMatrixSpec(2, "rational", RingMatrix.from_rows([[0] * 4] * 4))


def test_flip_word_order_matches_permutation_oracle():
    # with word-order products, the accumulated permutation operator matches
    # composing the letters' transpositions right to left
    rng = random.Random(77)
    for _ in range(10):
        letters = tuple((rng.randint(1, 2), 1) for _ in range(rng.randint(1, 6)))
        w = BraidWord(3, letters)
        m = rep_from_r(flip_r(2), 3, w)
        perm = underlying_permutation(BraidWord(3, tuple(reversed(letters))))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    src = [a, b, c]
                    dst = [0, 0, 0]
                    for leg in range(3):
                        dst[perm.images[leg] - 1] = src[leg]
                    col = (src[0] << 2) | (src[1] << 1) | src[2]
                    row = (dst[0] << 2) | (dst[1] << 1) | dst[2]
                    assert m.entries[row][col] == 1


# -- oracle: dense placements from the index formula, independent of the
# sparse leg actions under test

def _dense_generator(r, d, n, i, zero):
    """id^(i-1) (x) R (x) id^(n-i-1) as a dense grid: entry ((p, x, s), (p, y, s))
    is R[x][y] for every prefix p in d^(i-1) and suffix s in d^(n-i-1)."""
    pre, post, size = d ** (i - 1), d ** (n - i - 1), d ** n
    grid = [[zero] * size for _ in range(size)]
    for p in range(pre):
        for x in range(d * d):
            for y in range(d * d):
                for s in range(post):
                    grid[(p * d * d + x) * post + s][(p * d * d + y) * post + s] = r[x][y]
    return grid


def _dense_rep(spec, n, w):
    d, inverse = spec.dim, any(s < 0 for _, s in w.letters)
    if spec.exact:
        entries = {1: spec.matrix.entries}
        if inverse:
            entries[-1] = spec.matrix.inverse_unit_det().entries
        acc = RingMatrix.identity(d ** n)
        for i, s in w.letters:
            acc = acc @ RingMatrix.from_rows(_dense_generator(entries[s], d, n, i, LaurentPoly.constant(0)))
        return acc
    mats = {1: spec.matrix.tolist(), -1: np.linalg.inv(spec.matrix).tolist()}
    acc = np.eye(d ** n, dtype=complex)
    for i, s in w.letters:
        acc = acc @ np.asarray(_dense_generator(mats[s], d, n, i, 0j))
    return acc


def test_rep_from_r_matches_dense_kronecker_products():
    # flip_r(3) stays at n <= 4 (81 dimensions) to keep the dense side cheap
    rng = random.Random(41)
    specs = [(rq_r(), 6, (1, -1)), (flip_r(3), 4, (1, -1)), (_complex_rq(0.6 - 0.9j), 6, (1, -1))]
    for _ in range(40):
        spec, top, signs = rng.choice(specs)
        n = rng.randint(2, top)
        w = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice(signs)) for _ in range(rng.randint(0, 5))))
        got, want = rep_from_r(spec, n, w), _dense_rep(spec, n, w)
        if spec.exact:
            assert got == want
        else:
            assert np.max(np.abs(got - want)) <= 1e-12


def test_leg_placement_matches_index_formula():
    # one placed table through _leg_product, on every leg pair of V^(x)4
    rng = random.Random(8)
    grid = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(4)]
    grid[0][0] += 7
    rational = RMatrixSpec(2, "rational", RingMatrix.from_rows(grid))
    legs = list(product(range(2), repeat=4))  # leg 1 most significant
    for spec in (rq_r(), rational):
        r = spec.matrix.entries
        for i in range(1, 5):
            for j in range(i + 1, 5):
                cols = _leg_product(spec, 4, [(_columns(spec.matrix, True), i, j)])
                for row, a in enumerate(legs):
                    for col, b in enumerate(legs):
                        apart = all(a[k] == b[k] for k in range(4) if k not in (i - 1, j - 1))
                        want = r[2 * a[i - 1] + a[j - 1]][2 * b[i - 1] + b[j - 1]] if apart else 0
                        assert cols[col].get(row, 0) == want


def _dense_three_leg(r, d, i, j, zero):
    """R on legs (i, j) of V^(x)3 as a dense grid from the index formula."""
    legs = list(product(range(d), repeat=3))
    (k,) = {0, 1, 2} - {i - 1, j - 1}
    return [
        [r[a[i - 1] * d + a[j - 1]][b[i - 1] * d + b[j - 1]] if a[k] == b[k] else zero for b in legs]
        for a in legs
    ]


@pytest.mark.parametrize(
    "spec",
    [identity_r(2), flip_r(3), rq_r(), "rational", _complex_rq(0.8 + 0.3j), "complex"],
    ids=["identity", "flip3", "rq", "rational", "complex-rq", "complex-random"],
)
def test_ybe_norms_match_dense_products(spec):
    # the residuals are taken column by column from sparse products; compare
    # them with the largest entry of dense products built here
    rng = random.Random(12)
    if spec == "rational":  # fails the YBE
        grid = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(4)]
        grid[0][0] += 7
        spec = RMatrixSpec(2, "rational", RingMatrix.from_rows(grid))
    elif spec == "complex":  # fails the YBE
        grid = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)] for _ in range(4)]
        spec = RMatrixSpec(2, "complex", np.array(grid))
    d = spec.dim
    if spec.exact:
        r, zero = spec.matrix.entries, LaurentPoly.constant(0)
        place = lambda i, j: RingMatrix.from_rows(_dense_three_leg(r, d, i, j, zero))
        norm = lambda x: max(
            float(sum(abs(Fraction(c)) for c in p.terms.values())) for row in x.entries for p in row
        )
    else:
        r = spec.matrix.tolist()
        place = lambda i, j: np.asarray(_dense_three_leg(r, d, i, j, 0j))
        norm = lambda x: float(np.max(np.abs(x)))
    r12, r13, r23 = place(1, 2), place(1, 3), place(2, 3)
    braid = norm(r12 @ r23 @ r12 - r23 @ r12 @ r23)
    qybe = norm(r12 @ r13 @ r23 - r23 @ r13 @ r12)
    got = check_braid_ybe(spec).norm, check_qybe(spec).norm
    if spec.exact:
        assert got == (braid, qybe)
    else:
        assert got == pytest.approx((braid, qybe), abs=1e-12)


# -- oracle: the gl(1|1) R-matrix and the Alexander-Conway polynomial
# (Kauffman-Saleur, Comm. Math. Phys. 141 (1991)); the two sides share only
# the Laurent ring


def test_gl11_partial_supertrace_is_the_conway_polynomial():
    # R is rq_r with its last diagonal entry q replaced by -q^-1.  With the
    # enhancement mu = diag(q^-1, -q^-1) on legs 2..n, the trace over those
    # legs of the braid action is (-1)^(c-1) times the Conway polynomial of
    # the closure at s = q, times the identity on leg 1
    q = LaurentPoly.var("q")
    qinv = q.unit_inverse()
    rows = [list(row) for row in rq_r().matrix.entries]
    rows[3][3] = -qinv
    spec = RMatrixSpec(2, "laurent:q", RingMatrix.from_rows(rows))
    mu = (qinv, -qinv)
    rng = random.Random(27)
    for _ in range(120):
        n = rng.randint(2, 6)
        letters = tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 10)))
        w = BraidWord(n, letters)
        rep = rep_from_r(spec, n, w)
        half = 2 ** (n - 1)  # leg 1 is the most significant index
        weights = [LaurentPoly.constant(1)] * half
        for rest in range(half):
            for leg in range(n - 1):
                weights[rest] = weights[rest] * mu[rest >> leg & 1]
        trace = [
            [sum((rep[a * half + r, b * half + r] * weights[r] for r in range(half)), LaurentPoly.constant(0))
             for b in range(2)]
            for a in range(2)
        ]
        conway = alexander_conway(w)
        value = (-1) ** (conway.components - 1) * conway.poly.substitute_hom("s", q)
        assert trace == [[value, 0], [0, value]], str(w)


# -- oracle: the one-particle sector of rq is the Burau representation; the
# two sides share only the Laurent ring


def test_rq_one_particle_sector_is_burau():
    # x_a = 2^(n-1-a) is the basis vector with e_2 on leg a + 1 and e_1 on the
    # other legs.  rq maps their span to itself, and on it a word acts as its
    # Burau matrix at t = q^-2, entry (a, b) scaled by q^(exponent sum + b - a)
    q = LaurentPoly.var("q")
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 6)
        letters = tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 8)))
        w = BraidWord(n, letters)
        rep = rep_from_r(rq_r(), n, w)
        matrix = burau(w).matrix
        x = [2 ** (n - 1 - a) for a in range(n)]
        for b in range(n):
            assert all(not rep[r, x[b]] for r in range(2**n) if r not in x), str(w)
            for a in range(n):
                expected = matrix[a, b].substitute_hom("t", q**-2) * q ** (exponent_sum(w) + b - a)
                assert rep[x[a], x[b]] == expected, str(w)
