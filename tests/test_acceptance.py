"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance and count is pinned here; exact checks
mean literal equality of Laurent-polynomial matrices.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from braidrep.alexander import markov_f, markov_invariance_check, skein_check
from braidrep.burau import burau, conjugation_check, reduced_burau
from braidrep.kz import KzSpec, flatness_residual, homotopy_invariance_check, monodromy
from braidrep.laurent import LaurentPoly, RingMatrix
from braidrep.verma import (
    equivariance_check,
    kd_relation_check,
    nullspace_basis,
    verma_act,
    weight_dim,
    weight_space_basis,
)
from braidrep.words import BraidWord
from braidrep.yang_baxter import (
    RMatrixSpec,
    check_braid_ybe,
    check_qybe,
    flip_r,
    identity_r,
    rep_from_r,
    rq_r,
)
from verma_dense import casimir_eigenvalue, omega_matrix, tensor_generator_matrix
from ybe_reference import compose_flip

S = LaurentPoly.var("s")
SINV = S.unit_inverse()


class _Timer:
    def __init__(self, number, name, budget):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget ({elapsed:.2f}s)"
            )
        return False


def _random_word(rng, n, max_len):
    return BraidWord(
        n,
        tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
        ),
    )


def test_criterion_01_burau_relations():
    with _Timer(1, "burau-artin-relations", 5.0):
        for n in range(2, 7):
            for rep in (lambda w: burau(w).matrix, lambda w: reduced_burau(w).matrix):
                for i in range(1, n - 1):
                    a = BraidWord(n, ((i, 1), (i + 1, 1), (i, 1)))
                    b = BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1)))
                    assert rep(a) == rep(b)
                for i in range(1, n):
                    for j in range(i + 2, n):
                        assert rep(BraidWord(n, ((i, 1), (j, 1)))) == rep(
                            BraidWord(n, ((j, 1), (i, 1)))
                        )


def test_criterion_02_conjugation_identity():
    with _Timer(2, "conjugation-UiC-CWi", 5.0):
        for n in range(3, 8):
            for i in range(1, n):
                assert conjugation_check(n, i)


def test_criterion_03_knot_values_with_skein_oracle():
    with _Timer(3, "knot-values", 5.0):
        # skein-recursion oracle, independent of the Burau pipeline:
        # resolving the only crossing of the unknot closure of s1 in B2 gives
        # 1 - 1 = (s^-1 - s) nabla(2-unlink), so the split unlink vanishes;
        # the Hopf/trefoil/figure-eight values then follow one crossing at a
        # time (figure-eight via s1 s2^-1 s1 s2^-1 resolved at its second
        # letter, whose L+ closes to an unknot and L0 to a Hopf link).
        skein = SINV - S
        unknot = LaurentPoly.constant(1)
        unlink2 = LaurentPoly.constant(0)
        hopf = unlink2 + skein * unknot
        trefoil = unknot + skein * hopf
        fig8 = unknot - skein * hopf

        assert markov_f(BraidWord.parse("s1", 2)) == 1
        assert markov_f(BraidWord.parse("s1 s1", 2)) == hopf == SINV - S
        assert markov_f(BraidWord.parse("s1 s1 s1", 2)) == trefoil == SINV ** 2 - 1 + S ** 2
        assert (
            markov_f(BraidWord.parse("s1 s2^-1 s1 s2^-1", 3))
            == fig8
            == -(SINV ** 2) + 3 - S ** 2
        )


def test_criterion_04_markov_invariance():
    with _Timer(4, "markov-invariance-800-pairs", 60.0):
        rng = random.Random(2024)
        for n in range(2, 6):
            for _ in range(200):
                w = _random_word(rng, n, 10)
                g = _random_word(rng, n, 10)
                assert markov_invariance_check(w, g)


def test_criterion_05_skein_relation():
    with _Timer(5, "skein-100-triples", 60.0):
        rng = random.Random(515)
        for _ in range(100):
            n = rng.randint(2, 4)
            prefix = _random_word(rng, n, 8)
            suffix = _random_word(rng, n, 8)
            assert skein_check(prefix, rng.randint(1, n - 1), suffix)


def test_criterion_06_yang_baxter():
    with _Timer(6, "yang-baxter", 30.0):
        corpus = [identity_r(2), flip_r(2), rq_r()]
        for spec in corpus:
            assert check_braid_ybe(spec).norm == 0.0
            # leg-placement equivalence
            assert (check_qybe(spec).norm == 0.0) == (
                check_braid_ybe(compose_flip(spec)).norm == 0.0
            )
        for n in (3, 4):
            for spec in corpus:
                for i in range(1, n - 1):
                    a = BraidWord(n, ((i, 1), (i + 1, 1), (i, 1)))
                    b = BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1)))
                    assert rep_from_r(spec, n, a) == rep_from_r(spec, n, b)
                for i in range(1, n):
                    for j in range(i + 2, n):
                        assert rep_from_r(spec, n, BraidWord(n, ((i, 1), (j, 1)))) == rep_from_r(
                            spec, n, BraidWord(n, ((j, 1), (i, 1)))
                        )
        rng = random.Random(3)
        grid = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(4)
        ]
        grid[0][0] += 7
        generic = RMatrixSpec(2, "rational", RingMatrix.from_rows(grid))
        assert check_braid_ybe(generic).norm != 0.0


def test_criterion_07_verma_dimensions():
    with _Timer(7, "verma-dimensions", 30.0):
        from math import comb

        for n in range(1, 6):
            for m in range(5):
                assert len(weight_space_basis(n, Fraction(7, 3), m)) == comb(m + n - 1, n - 1)
        for lam in (Fraction(7, 3), Fraction(1, 2), Fraction(5)):
            for n in range(2, 6):
                assert len(nullspace_basis(n, lam, 2)) == n * (n - 1) // 2


def test_criterion_08_algebraic_lemmas():
    with _Timer(8, "kohno-drinfeld-lemmas", 30.0):
        lam = Fraction(7, 3)
        for n in (3, 4):
            for m in (0, 1, 2):
                assert kd_relation_check(n, lam, m)
        # Delta(C) - 1(x)C - C(x)1 = 2 Omega on W[2 lam - 2m], m <= 2
        for m in range(3):
            dim = weight_dim(2, m)
            h = tensor_generator_matrix("H", 2, lam, m)
            f_up = tensor_generator_matrix("F", 2, lam, m)
            e_from_up = tensor_generator_matrix("E", 2, lam, m + 1)
            e_down = tensor_generator_matrix("E", 2, lam, m)
            f_from_down = tensor_generator_matrix("F", 2, lam, m - 1) if m else []
            omega = omega_matrix(2, 1, 2, lam, m)
            scalar = 2 * casimir_eigenvalue(lam)
            for i in range(dim):
                for j in range(dim):
                    hh = sum(h[i][k] * h[k][j] for k in range(dim))
                    ef = sum(e_from_up[i][k] * f_up[k][j] for k in range(len(f_up)))
                    fe = (
                        sum(f_from_down[i][k] * e_down[k][j] for k in range(len(e_down)))
                        if m
                        else 0
                    )
                    delta_c = hh / 8 + (ef + fe) / 4
                    assert delta_c - (scalar if i == j else 0) == 2 * omega[i][j]
        # Casimir eigenvalue on F^j v for j <= 5
        for j in range(6):
            acc = {}
            for pieces, wgt in (
                (("H", "H"), Fraction(1, 8)),
                (("F", "E"), Fraction(1, 4)),  # E then F
                (("E", "F"), Fraction(1, 4)),  # F then E
            ):
                vec = {j: Fraction(1)}
                for gen in reversed(pieces):
                    nxt = {}
                    for deg, c in vec.items():
                        for nd, nc in verma_act(gen, deg, lam):
                            nxt[nd] = nxt.get(nd, Fraction(0)) + c * nc
                    vec = nxt
                for deg, c in vec.items():
                    acc[deg] = acc.get(deg, Fraction(0)) + wgt * c
            acc = {d: c for d, c in acc.items() if c}
            assert acc == {j: casimir_eigenvalue(lam)}
        # equivariance of the Omega placements
        assert equivariance_check(2, lam, 2)
        assert equivariance_check(3, lam, 1)
        assert equivariance_check(3, lam, 2)


def test_criterion_09_kz_numerics():
    with _Timer(9, "kz-numerics", 120.0):
        h = 0.1 + 0.05j
        assert abs(h) <= 0.2
        # (a) flatness at 50 random points, n <= 4
        rng = np.random.default_rng(909)
        count = 0
        for n in (2, 3, 4):
            spec = KzSpec(n, Fraction(1, 2), 2, h=0.2)
            quota = 17 if n < 4 else 16
            for _ in range(quota):
                z = rng.normal(size=n) * 2 + 1j * rng.normal(size=n) * 2
                while min(
                    abs(z[i] - z[j]) for i in range(n) for j in range(i + 1, n)
                ) < 0.3:
                    z = rng.normal(size=n) * 2 + 1j * rng.normal(size=n) * 2
                u = rng.normal(size=n) + 1j * rng.normal(size=n)
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                assert flatness_residual(spec, z, u, v) <= 1e-10
                count += 1
        assert count == 50
        # (b) braid-relation residual, full and nullspace-restricted
        for restrict in (False, True):
            spec = KzSpec(3, Fraction(1, 2), 2, h=h, restrict_to_nullspace=restrict)
            a = monodromy(spec, BraidWord.parse("s1 s2 s1", 3), 1e-9)
            b = monodromy(spec, BraidWord.parse("s2 s1 s2", 3), 1e-9)
            assert float(np.max(np.abs(a.matrix - b.matrix))) <= 1e-6
        # (c) abelian closed form for n = 2, m <= 3
        for m in range(4):
            spec = KzSpec(2, Fraction(7, 3), m, h=h)
            got = monodromy(spec, BraidWord.parse("s1 s1", 2), 1e-9)
            om = np.asarray(
                omega_matrix(2, 1, 2, complex(float(Fraction(7, 3))), m), dtype=complex
            )
            assert float(np.max(np.abs(got.matrix - expm(h * om)))) <= 1e-8
        # (d) homotopy invariance
        assert homotopy_invariance_check(KzSpec(2, Fraction(7, 3), 2, h=h), 1e-10) <= 1e-8
        assert homotopy_invariance_check(KzSpec(3, Fraction(1, 2), 1, h=h), 1e-10) <= 1e-8
        # (e) residuals decrease monotonically as tol tightens
        spec = KzSpec(3, Fraction(1, 2), 2, h=h)
        words = BraidWord.parse("s1 s2 s1", 3), BraidWord.parse("s2 s1 s2", 3)
        residuals = []
        for tol in (1e-6, 1e-8, 1e-10):
            m1 = monodromy(spec, words[0], tol)
            m2 = monodromy(spec, words[1], tol)
            residuals.append(float(np.max(np.abs(m1.matrix - m2.matrix))))
        assert residuals[0] >= residuals[1] >= residuals[2]
        assert residuals[2] < residuals[0]


def test_criterion_10_cli_contract():
    with _Timer(10, "cli-contract", 10.0):
        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "braidrep.cli", *argv], capture_output=True, text=True
            )

        alexander = run("alexander", "--n", "2", "s1 s1 s1")
        assert alexander.returncode == 0
        assert alexander.stdout == '{"conway": "s^-2 - 1 + s^2", "components": 1}\n'

        braid = run("braid", "--n", "3", "s1 s2^-1")
        assert braid.returncode == 0
        assert braid.stdout == (
            '{"permutation": [3, 1, 2], "cycles": [[1, 3, 2]], "pure": false, '
            '"exponent_sum": 0, "components": 1}\n'
        )

        dims = run("verma", "dims", "--n", "3", "--m", "2", "--lambda", "7/3")
        assert dims.returncode == 0
        assert dims.stdout == '{"weight_dim": 6, "null_dim": 3}\n'

        first = run("selftest", "--seed", "7")
        second = run("selftest", "--seed", "7")
        assert first.returncode == 0
        assert first.stdout == second.stdout and first.stdout
        assert json.loads(first.stdout)["all_passed"] is True


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
