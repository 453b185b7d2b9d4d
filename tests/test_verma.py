"""Verma module formulas, Killing-form normalization, weight and nullspace
combinatorics, and the Lie-algebra lemmas behind KZ flatness."""

import random
import warnings
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from braidrep.laurent import _coordinates
from braidrep.verma import (
    _OMEGA_PAIRS,
    DegenerateWeightWarning,
    _echelon_kernel,
    equivariance_check,
    generic_null_dim,
    kd_relation_check,
    nullspace_basis,
    tensor_act,
    verma_act,
    weight_dim,
    weight_space_basis,
)
from verma_dense import casimir_eigenvalue, leg_permutation_matrix, omega_matrix, tensor_generator_matrix

LAM = Fraction(7, 3)


# independent oracle: ad matrices written out by hand from the bracket table
AD_H = [[0, 0, 0], [0, 2, 0], [0, 0, -2]]
AD_E = [[0, 0, 1], [-2, 0, 0], [0, 0, 0]]
AD_F = [[0, -1, 0], [0, 0, 0], [2, 0, 0]]


def _trace_product(a, b):
    return sum(a[i][k] * b[k][i] for i in range(3) for k in range(3))


def _product(a, b):
    return [[sum(row[k] * b[k][c] for k in range(len(b))) for c in range(len(b[0]))] for row in a]


def test_killing_form_against_hand_written_ad_matrices():
    # kappa(x, y) = tr(ad x ad y) from the hand-written ad matrices; Omega's
    # coefficient matrix C must satisfy kappa . C = I
    names = ("H", "E", "F")
    ads = {"H": AD_H, "E": AD_E, "F": AD_F}
    kappa = [[_trace_product(ads[x], ads[y]) for y in names] for x in names]
    assert kappa[0][0] == 8  # kappa(H, H)
    assert kappa[1][2] == 4  # kappa(E, F)
    assert kappa[1][1] == 0  # kappa(E, E)
    coeffs = dict(_OMEGA_PAIRS)
    c = [[coeffs.get((x, y), 0) for y in names] for x in names]
    assert _product(kappa, c) == [[int(i == j) for j in range(3)] for i in range(3)]


def test_omega_normalization():
    assert dict(_OMEGA_PAIRS) == {
        ("H", "H"): Fraction(1, 8),
        ("E", "F"): Fraction(1, 4),
        ("F", "E"): Fraction(1, 4),
    }
    assert [pair for pair, _ in _OMEGA_PAIRS] == [("H", "H"), ("E", "F"), ("F", "E")]


def test_verma_action_formulas():
    assert verma_act("H", 0, LAM) == [(0, LAM)]
    assert verma_act("E", 0, LAM) == []
    assert verma_act("E", 2, LAM) == [(1, 2 * (LAM - 1))]
    assert verma_act("F", 3, LAM) == [(4, 1)]
    assert verma_act("H", 5, LAM) == [(5, LAM - 10)]


def test_casimir_eigenvalue_values():
    assert casimir_eigenvalue(0) == 0
    assert casimir_eigenvalue(2) == 1
    assert casimir_eigenvalue(Fraction(7, 3)) == Fraction(91, 72)


@pytest.mark.parametrize("j", range(6))
def test_casimir_is_central_on_verma_basis(j):
    # apply (1/8) H^2 + (1/4)(EF + FE) to F^j v by composing verma_act
    lam = LAM

    def apply_gen(gen, vec):
        out = {}
        for deg, c in vec.items():
            for nd, nc in verma_act(gen, deg, lam):
                out[nd] = out.get(nd, Fraction(0)) + c * nc
        return out

    start = {j: Fraction(1)}
    h2 = apply_gen("H", apply_gen("H", start))
    ef = apply_gen("E", apply_gen("F", start))
    fe = apply_gen("F", apply_gen("E", start))
    total = {}
    for vec, w in ((h2, Fraction(1, 8)), (ef, Fraction(1, 4)), (fe, Fraction(1, 4))):
        for deg, c in vec.items():
            total[deg] = total.get(deg, Fraction(0)) + w * c
    total = {d: c for d, c in total.items() if c}
    assert total == {j: casimir_eigenvalue(lam)}


def test_weight_space_enumeration():
    basis = weight_space_basis(3, LAM, 2)
    assert set(basis.indices) == {
        (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    }
    assert len(weight_space_basis(1, LAM, 0)) == 1
    assert len(weight_space_basis(4, LAM, 3)) == comb(6, 3)
    for n in range(1, 6):
        for m in range(5):
            assert len(weight_space_basis(n, LAM, m)) == comb(m + n - 1, n - 1) == weight_dim(n, m)


def test_h_acts_as_scalar():
    for n, m in ((2, 1), (3, 2), (4, 2)):
        h = tensor_generator_matrix("H", n, LAM, m)
        scalar = n * LAM - 2 * m
        dim = weight_dim(n, m)
        assert all(h[i][j] == (scalar if i == j else 0) for i in range(dim) for j in range(dim))


def test_tensor_leibniz_examples():
    # F on v (x) v = Fv (x) v + v (x) Fv
    f = tensor_generator_matrix("F", 2, LAM, 0)
    assert f == [[1], [1]]
    assert tensor_generator_matrix("E", 2, LAM, 0) == []


def test_tensor_act_vector_form():
    top = {(0, 0): Fraction(1)}
    assert tensor_act("F", top, 2, LAM, 0) == {(1, 0): 1, (0, 1): 1}
    assert tensor_act("E", top, 2, LAM, 0) == {}
    assert tensor_act("H", top, 2, LAM, 0) == {(0, 0): 2 * LAM}
    # H eigenvalue n*lam - 2m on every degree-m vector
    vec = {(1, 1, 0): Fraction(2), (0, 1, 1): Fraction(-1)}
    out = tensor_act("H", vec, 3, LAM, 2)
    assert out == {idx: (3 * LAM - 4) * c for idx, c in vec.items()}
    # matrix and vector forms agree on E
    basis = weight_space_basis(3, LAM, 2)
    e_mat = tensor_generator_matrix("E", 3, LAM, 2)
    target = weight_space_basis(3, LAM, 1)
    for col, idx in enumerate(basis.indices):
        by_vec = tensor_act("E", {idx: Fraction(1)}, 3, LAM, 2)
        by_mat = {
            target.indices[row]: e_mat[row][col]
            for row in range(len(target))
            if e_mat[row][col]
        }
        assert by_vec == by_mat
    with pytest.raises(ValueError):
        tensor_act("F", {(1, 0): Fraction(1)}, 2, LAM, 0)


def test_tensor_act_on_many_legs_matches_an_all_legs_loop():
    # E kills F^0 v, so tensor_act visits only the legs with j > 0; the
    # reference visits every leg of every index through verma_act
    n, m = 40, 2
    rng = random.Random(40)
    basis = weight_space_basis(n, LAM, m)
    vector = {idx: rng.randint(-5, 5) for idx in basis.indices}
    expected = {}
    for idx, coeff in vector.items():
        for leg in range(n):
            for jnew, c in verma_act("E", idx[leg], LAM):
                key = idx[:leg] + (jnew,) + idx[leg + 1 :]
                expected[key] = expected.get(key, 0) + coeff * c
    assert tensor_act("E", vector, n, LAM, m) == {k: x for k, x in expected.items() if x}


def test_omega_highest_weight_block():
    om = omega_matrix(2, 1, 2, LAM, 0)
    assert om == [[LAM * LAM / 8]]


def test_omega_cross_term_coefficient():
    # on W for n=3, m=1: the F(x)E part of Omega^{12} maps (1,0,0) to (0,1,0)
    # with coefficient lam/4 (E emits j(lam-j+1) = lam at j=1, F emits 1)
    basis = weight_space_basis(3, LAM, 1)
    om = omega_matrix(3, 1, 2, LAM, 1)
    src = basis.indices.index((1, 0, 0))
    dst = basis.indices.index((0, 1, 0))
    assert om[dst][src] == LAM / 4


def test_omega_leg_conjugation():
    o12 = omega_matrix(3, 1, 2, LAM, 1)
    o13 = omega_matrix(3, 1, 3, LAM, 1)
    p23 = leg_permutation_matrix(3, LAM, 1, (1, 3, 2))
    assert _product(_product(p23, o12), p23) == o13


def test_nullspace_small_cases():
    kernel = nullspace_basis(2, LAM, 1)
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] == -v[1] != 0  # spanned by Fv (x) v - v (x) Fv
    assert len(nullspace_basis(2, LAM, 0)) == 1  # the highest weight line
    assert len(nullspace_basis(3, LAM, 2)) == 3


@pytest.mark.parametrize("lam", [Fraction(7, 3), Fraction(1, 2), Fraction(5)])
@pytest.mark.parametrize("n", range(2, 6))
def test_nullspace_dimension_formula(lam, n):
    for m in range(4):
        assert len(nullspace_basis(n, lam, m)) == generic_null_dim(n, m)
    assert len(nullspace_basis(n, lam, 2)) == n * (n - 1) // 2


def test_degenerate_weight_warns():
    with pytest.warns(DegenerateWeightWarning):
        kernel = nullspace_basis(2, Fraction(0), 1)
    assert len(kernel) == 2  # rank drops: E kills everything at lam = 0


def test_kd_relations():
    assert kd_relation_check(3, LAM, 2)
    assert kd_relation_check(4, Fraction(1, 2), 1)
    assert kd_relation_check(3, LAM, 0)  # one-dimensional space, trivially
    assert kd_relation_check(4, LAM, 2)


@pytest.mark.parametrize("check", [kd_relation_check, equivariance_check])
def test_relation_checks_reject_complex_weights(check):
    # exact sparse comparisons are meaningless under float rounding
    with pytest.raises(TypeError):
        check(3, 0.3 + 0.7j, 2)


def test_total_omega_is_central_among_omegas():
    n, m = 4, 2
    blocks = [
        omega_matrix(n, i, j, LAM, m)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    dim = len(blocks[0])
    total = [[sum(b[r][c] for b in blocks) for c in range(dim)] for r in range(dim)]
    for b in blocks:
        assert _product(total, b) == _product(b, total)


def test_equivariance():
    assert equivariance_check(2, LAM, 2)
    assert equivariance_check(3, LAM, 2)
    assert equivariance_check(3, Fraction(1, 2), 1)


def test_coproduct_casimir_lemma():
    # Delta(C) - 1 (x) C - C (x) 1 = 2 Omega as operators on each graded piece
    lam = LAM
    for m in range(3):
        dim = weight_dim(2, m)
        h = tensor_generator_matrix("H", 2, lam, m)
        e_down = tensor_generator_matrix("E", 2, lam, m)      # W[m] -> W[m-1]
        f_up = tensor_generator_matrix("F", 2, lam, m)        # W[m] -> W[m+1]
        e_from_up = tensor_generator_matrix("E", 2, lam, m + 1)
        f_from_down = tensor_generator_matrix("F", 2, lam, m - 1) if m else []
        hh = _product(h, h)
        ef = _product(e_from_up, f_up)
        fe = _product(f_from_down, e_down) if m else [[Fraction(0)] * dim for _ in range(dim)]
        delta_c = [
            [
                hh[i][j] / 8 + (ef[i][j] + fe[i][j]) / 4
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        # 1 (x) C + C (x) 1 acts as twice the Casimir scalar on every factor
        scalar = 2 * casimir_eigenvalue(lam)
        omega = omega_matrix(2, 1, 2, lam, m)
        for i in range(dim):
            for j in range(dim):
                lhs = delta_c[i][j] - (scalar if i == j else 0)
                assert lhs == 2 * omega[i][j]


def kernel_basis_exact(mat, cols: int) -> list:
    """Exact kernel of a dense Fraction matrix (list of rows), as one
    coordinate tuple per free column of its reduced row echelon form: the
    dense reference for the sparse null vectors of the library."""
    rows = ({c: Fraction(x) for c, x in enumerate(dense) if x} for dense in reversed(mat))
    return _coordinates(_echelon_kernel(rows, range(cols)), range(cols), Fraction(0))


def _assert_reduced_echelon_kernel(mat, cols):
    """The kernel basis read off the reduced row echelon form: vector v of
    free column f is in ker M, 1 at f, 0 at the other free columns, and
    supported on f and the pivot columns left of f; one per free column."""
    kernel = kernel_basis_exact(mat, cols)
    assert len(kernel) == cols - _rank(mat, cols)
    free = [max(k for k, x in enumerate(v) if x) for v in kernel]
    assert free == sorted(set(free))
    for v, f in zip(kernel, free):
        support = {k for k, x in enumerate(v) if x}
        assert len(v) == cols and all(type(x) is Fraction for x in v)
        assert all(sum(row[k] * v[k] for k in support) == 0 for row in mat)
        assert v[f] == 1
        assert all(v[g] == 0 for g in free if g != f)
        assert support <= {f} | {k for k in range(f) if k not in free}


def test_kernel_basis_exact_is_exact():
    rng = random.Random(16)

    def entry(density):
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0)

    for k in range(120):
        rows, cols = rng.randint(0, 7), rng.randint(1, 8)
        if k % 3 < 2:  # sparse, then dense
            mat = [[entry(0.25 if k % 3 else 1.0) for _ in range(cols)] for _ in range(rows)]
        else:  # rank at most r, as a product of thin factors
            r = rng.randint(0, 3)
            a = [[entry(1.0) for _ in range(r)] for _ in range(rows)]
            b = [[entry(0.6) for _ in range(cols)] for _ in range(r)]
            mat = [[sum((x * b[t][c] for t, x in enumerate(row)), Fraction(0)) for c in range(cols)] for row in a]
        _assert_reduced_echelon_kernel(mat, cols)
    for n in range(2, 5):
        for m in range(1, 5):
            for lam in range(m):
                mat = tensor_generator_matrix("E", n, Fraction(lam), m)
                _assert_reduced_echelon_kernel(mat, weight_dim(n, m))


def test_degenerate_nullspace_equals_the_dense_echelon_kernel():
    # at lam in 0..m-1 the rows of E are read off the images of unit vectors;
    # the dense E of tensor_generator_matrix gives the reference kernel
    drops = 0
    for n in range(2, 6):
        for m in range(1, 5):
            for lam in map(Fraction, range(m)):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    kernel = nullspace_basis(n, lam, m)
                assert kernel == kernel_basis_exact(tensor_generator_matrix("E", n, lam, m), weight_dim(n, m))
                dropped = len(kernel) != generic_null_dim(n, m)
                assert [w.category for w in caught] == [DegenerateWeightWarning] * dropped
                drops += dropped
    assert drops > 0


def test_weight_basis_order_matches_product_filter():
    for n in range(1, 6):
        for m in range(5):
            basis = weight_space_basis(n, Fraction(7, 3), m)
            expected = tuple(j for j in product(range(m + 1), repeat=n) if sum(j) == m)
            assert basis.indices == expected
            assert [basis.indices.index(j) for j in expected] == list(range(len(expected)))


def test_weight_basis_large_n_without_scan():
    # the (m+1)^n product filter would scan 5^14 tuples here
    assert len(weight_space_basis(14, Fraction(7, 3), 4)) == 2380


def _as_dict(basis, coords):
    return {idx: c for idx, c in zip(basis.indices, coords) if c}


def _rank(mat, cols):
    """Rank by dense forward elimination over Fractions, written out here
    as an oracle independent of the library."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(2, 6))
def test_triangular_nullspace_against_gauss_jordan(n, m):
    basis = weight_space_basis(n, LAM, m)
    dim = len(basis)
    for lam in (Fraction(7, 3), Fraction(1, 2), Fraction(-3, 2), Fraction(m), Fraction(2 * m)):
        kernel = nullspace_basis(n, lam, m)
        reference = kernel_basis_exact(tensor_generator_matrix("E", n, lam, m), dim)
        assert len(kernel) == len(reference) == generic_null_dim(n, m)
        for v in kernel:
            assert tensor_act("E", _as_dict(basis, v), n, lam, m) == {}
        # both sets lie in ker E, so equal rank of their union means equal span
        assert _rank(kernel + reference, dim) == len(kernel)


def _combine(terms):
    """Sum of the scaled sparse vectors c * v over the (c, v) pairs."""
    out = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


@pytest.mark.parametrize("lam", [Fraction(7, 3), Fraction(1, 2)])
@pytest.mark.parametrize("n", range(2, 6))
def test_omegas_and_leg_swaps_preserve_nullspace_exactly(lam, n):
    # the basis vector b_J is 1 at its own j_1 = 0 index J and 0 at the other
    # ones, and those indices come first, so X b = sum_J (X b)_J b_J exactly
    for m in range(4):
        kernel = [{k: x for k, x in enumerate(v) if x} for v in nullspace_basis(n, lam, m)]
        ops = [omega_matrix(n, i, j, lam, m) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for i in range(1, n):
            images = list(range(1, n + 1))
            images[i - 1], images[i] = i + 1, i
            ops.append(leg_permutation_matrix(n, lam, m, images))
        for op in ops:
            columns = [{r: row[c] for r, row in enumerate(op) if row[c]} for c in range(len(op))]
            for b in kernel:
                image = _combine((x, columns[k]) for k, x in b.items())
                assert image == _combine((image[k], kernel[k]) for k in range(len(kernel)) if k in image)


def test_verma_dims_at_twelve_strands(capsys):
    from braidrep.cli import main

    assert main(["verma", "dims", "--n", "12", "--m", "4", "--lambda", "1/3"]) == 0
    assert capsys.readouterr().out == '{"weight_dim": 1365, "null_dim": 1001}\n'
