"""KZ transport: paths, connection values, monodromy, flatness, homotopy."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from braidrep import kz
from braidrep.burau import reduced_burau
from braidrep.kz import (
    KzSpec,
    KzSystem,
    ConfigPath,
    PathSegment,
    connection_value,
    flatness_residual,
    generator_path,
    homotopy_invariance_check,
    monodromy,
    nullspace_matrix,
    parallel_transport,
    pure_loop_path,
)
from braidrep.words import BraidWord, exponent_sum, underlying_permutation
from verma_dense import leg_permutation_matrix, omega_matrix

H_SMALL = 0.1 + 0.05j


def _random_config(rng, n, min_sep=0.3):
    while True:
        z = rng.normal(size=n) * 2 + 1j * rng.normal(size=n) * 2
        if min(abs(z[i] - z[j]) for i in range(n) for j in range(i + 1, n)) >= min_sep:
            return z


def _min_pairwise_distance(path, samples=257):
    """Closest approach of any two points, over ``samples`` evenly spaced
    parameters of each segment."""
    worst = math.inf
    for seg in path.segments:
        for k in range(samples):
            z = seg.position(k / (samples - 1))
            worst = min(worst, min(abs(z[i] - z[j]) for i in range(path.n) for j in range(i + 1, path.n)))
    return worst


def test_generator_path_endpoints_and_distance():
    path = generator_path(3, 1)
    seg = path.segments[0]
    start, end = seg.position(0.0), seg.position(1.0)
    assert np.allclose(start, [1, 2, 3])
    assert np.allclose(end, [2, 1, 3])
    assert _min_pairwise_distance(path) > 0.49
    rev = generator_path(3, 1, -1)
    assert np.allclose(rev.segments[0].position(1.0), [2, 1, 3])


def test_ellipse_loop_stays_separated():
    for n in (2, 3):
        assert _min_pairwise_distance(pure_loop_path(n, 1, (0.5, 0.3))) > 0.49


def test_connection_value_examples():
    spec = KzSpec(2, Fraction(1, 2), 0, h=0.3)
    z = [1.0 + 0j, 2.0 + 0j]
    assert np.allclose(connection_value(spec, z, [0, 0]), 0)
    v = [0.7 + 0.1j, -0.2j]
    lam = 0.5
    expected = (0.3 / (2j * math.pi)) * (lam * lam / 8) * (v[0] - v[1]) / (z[0] - z[1])
    got = connection_value(spec, z, v)
    assert got.shape == (1, 1) and abs(got[0, 0] - expected) < 1e-15
    # linearity in the velocity
    u = [0.1 + 0.9j, 0.4]
    both = connection_value(spec, z, [a + b for a, b in zip(u, v)])
    assert np.allclose(both, connection_value(spec, z, u) + connection_value(spec, z, v))


def test_colliding_points_rejected():
    spec = KzSpec(2, Fraction(1, 2), 0, h=0.3)
    with pytest.raises(ValueError):
        connection_value(spec, [1.0, 1.0 + 1e-12], [0.0, 1.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        KzSpec(3, 0.5, 1)  # neither h nor tau
    with pytest.raises(ValueError):
        KzSpec(3, 0.5, 1, h=0.1, tau=2.0)  # both


def test_transport_zero_parameter_is_identity():
    spec = KzSpec(2, Fraction(7, 3), 2, h=0.0)
    result = parallel_transport(spec, generator_path(2, 1), 1e-9)
    assert np.array_equal(result.matrix, np.eye(3, dtype=complex))
    assert result.est_error == 0.0


def test_transport_of_path_and_reverse_is_identity():
    spec = KzSpec(3, Fraction(1, 2), 1, h=0.2)
    (seg,) = generator_path(3, 1).segments
    back = PathSegment(lambda s: seg.position(1.0 - s), lambda s: -seg.velocity(1.0 - s))
    loop = ConfigPath(3, (seg, back))
    result = parallel_transport(spec, loop, 1e-10)
    assert np.max(np.abs(result.matrix - np.eye(3))) < 1e-9


@pytest.mark.parametrize("m", range(4))
def test_abelian_closed_form(m):
    lam = Fraction(7, 3)
    spec = KzSpec(2, lam, m, h=H_SMALL)
    result = monodromy(spec, BraidWord.parse("s1 s1", 2), 1e-9)
    om = np.asarray(omega_matrix(2, 1, 2, complex(float(lam)), m), dtype=complex)
    assert np.max(np.abs(result.matrix - expm(H_SMALL * om))) < 1e-8


@pytest.mark.parametrize("m", range(4))
def test_single_letter_closed_form(m):
    # one half-turn integrates dlog(z1 - z2) to i*pi, so the letter holonomy
    # on two strands is exactly leg-swap times exp(h Omega / 2)
    lam = Fraction(7, 3)
    spec = KzSpec(2, lam, m, h=H_SMALL)
    result = monodromy(spec, BraidWord.parse("s1", 2), 1e-10)
    lam_c = complex(float(lam))
    om = np.asarray(omega_matrix(2, 1, 2, lam_c, m), dtype=complex)
    swap = np.asarray(leg_permutation_matrix(2, lam_c, m, (2, 1)), dtype=complex)
    assert np.max(np.abs(result.matrix - swap @ expm(H_SMALL / 2 * om))) < 1e-8


def test_h_and_tau_conventions_agree():
    tau = 3.0 - 1.5j
    h = 2j * math.pi / tau
    w = BraidWord.parse("s1 s1", 2)
    a = monodromy(KzSpec(2, Fraction(1, 2), 1, h=h), w, 1e-10)
    b = monodromy(KzSpec(2, Fraction(1, 2), 1, tau=tau), w, 1e-10)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9


def test_monodromy_identity_word():
    spec = KzSpec(3, Fraction(1, 2), 1, h=H_SMALL)
    result = monodromy(spec, BraidWord(3), 1e-9)
    assert np.array_equal(result.matrix, np.eye(3, dtype=complex))


def test_braid_relation_residual_full_and_restricted():
    for restrict in (False, True):
        spec = KzSpec(3, Fraction(1, 2), 2, h=H_SMALL, restrict_to_nullspace=restrict)
        a = monodromy(spec, BraidWord.parse("s1 s2 s1", 3), 1e-9)
        b = monodromy(spec, BraidWord.parse("s2 s1 s2", 3), 1e-9)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-6
        expected_dim = 3 if restrict else 6
        assert a.matrix.shape == (expected_dim, expected_dim)


def test_far_commutation_residual():
    spec = KzSpec(4, Fraction(1, 2), 1, h=H_SMALL)
    a = monodromy(spec, BraidWord.parse("s1 s3", 4), 1e-9)
    b = monodromy(spec, BraidWord.parse("s3 s1", 4), 1e-9)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-6


@pytest.mark.parametrize("i", [1, 2, 3])
def test_braid_relation_on_four_strands(i):
    spec = KzSpec(4, Fraction(1, 2), 2, h=H_SMALL)
    if i < 3:
        a = BraidWord(4, ((i, 1), (i + 1, 1), (i, 1)))
        b = BraidWord(4, ((i + 1, 1), (i, 1), (i + 1, 1)))
    else:
        a, b = BraidWord.parse("s1 s3", 4), BraidWord.parse("s3 s1", 4)
    m1 = monodromy(spec, a, 1e-9)
    m2 = monodromy(spec, b, 1e-9)
    assert np.max(np.abs(m1.matrix - m2.matrix)) < 1e-6


def test_inverse_words_numerically():
    rng = np.random.default_rng(5)
    spec = KzSpec(3, Fraction(1, 2), 1, h=0.15)
    for _ in range(5):
        letters = tuple(
            (int(rng.integers(1, 3)), int(rng.choice((1, -1)))) for _ in range(int(rng.integers(0, 7)))
        )
        w = BraidWord(3, letters)
        result = monodromy(spec, w * w.inverse(), 1e-9)
        assert np.max(np.abs(result.matrix - np.eye(3))) < 1e-7


def test_permutation_operator_at_h_zero():
    rng = np.random.default_rng(11)
    for _ in range(5):
        letters = tuple(
            (int(rng.integers(1, 3)), int(rng.choice((1, -1)))) for _ in range(int(rng.integers(1, 6)))
        )
        w = BraidWord(3, letters)
        spec = KzSpec(3, Fraction(1, 2), 1, h=0.0)
        result = monodromy(spec, w, 1e-9)
        perm = underlying_permutation(w)
        basis = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        pos = {idx: k for k, idx in enumerate(basis)}
        expected = np.zeros((3, 3))
        for col, idx in enumerate(basis):
            tgt = [0, 0, 0]
            for leg in range(3):
                tgt[perm.images[leg] - 1] = idx[leg]
            expected[pos[tuple(tgt)], col] = 1
        assert np.array_equal(result.matrix.real, expected)
        assert np.array_equal(result.matrix.imag, np.zeros((3, 3)))


def test_flatness_residual_small():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        spec = KzSpec(n, Fraction(1, 2), 2, h=0.2)
        for _ in range(8):
            z = _random_config(rng, n)
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert flatness_residual(spec, z, u, v) < 1e-10


def test_flatness_residual_evaluates_each_connection_value_once(monkeypatch):
    calls = []
    connection = KzSystem.connection
    monkeypatch.setattr(KzSystem, "connection", lambda self, z, v: calls.append(1) or connection(self, z, v))
    spec = KzSpec(3, Fraction(1, 2), 2, h=0.2)
    z = _random_config(np.random.default_rng(4), 3)
    residual = flatness_residual(spec, z, [1, 0, -1j], [0.5, 2j, 0])
    assert len(calls) == 2
    a_u, a_v = (connection(kz._system(spec), z, t) for t in ([1, 0, -1j], [0.5, 2j, 0]))
    commutator = np.max(np.abs(a_u @ a_v - a_v @ a_u))
    assert residual == commutator / (np.max(np.abs(a_u)) * np.max(np.abs(a_v)))


def test_curvature_form_bilinearity():
    rng = np.random.default_rng(3)
    spec = KzSpec(3, Fraction(1, 2), 1, h=0.2)
    z = _random_config(rng, 3)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)

    def curvature_form(spec, point, tangent_u, tangent_v):
        a, b = (connection_value(spec, point, t) for t in (tangent_u, tangent_v))
        return a @ b - b @ a

    lhs = curvature_form(spec, z, 2 * u, v)
    rhs = 2 * curvature_form(spec, z, u, v)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    add = curvature_form(spec, z, u + v, v)
    assert np.max(np.abs(add - curvature_form(spec, z, u, v))) < 1e-12


def test_homotopy_invariance():
    assert homotopy_invariance_check(KzSpec(2, Fraction(7, 3), 2, h=0.15), 1e-10) < 1e-8
    assert homotopy_invariance_check(KzSpec(3, Fraction(1, 2), 1, h=0.15), 1e-10) < 1e-8
    assert homotopy_invariance_check(KzSpec(2, Fraction(7, 3), 1, h=0.0), 1e-10) == 0.0


def test_nullspace_rep_dimensions():
    spec = KzSpec(3, Fraction(7, 3), 2, h=H_SMALL, restrict_to_nullspace=True)
    result = monodromy(spec, BraidWord.parse("s1 s2", 3), 1e-9)
    assert result.matrix.shape == (3, 3)
    ident = monodromy(spec, BraidWord(3), 1e-9)
    assert np.array_equal(ident.matrix, np.eye(3, dtype=complex))


def test_nullspace_rep_is_genuine_restriction():
    # the compressed transport must intertwine with the full one through the
    # nullspace inclusion; both sides are integrated independently
    lam = Fraction(1, 2)
    w = BraidWord.parse("s1 s2^-1 s1", 3)
    full = monodromy(KzSpec(3, lam, 2, h=H_SMALL), w, 1e-10).matrix
    rest = monodromy(KzSpec(3, lam, 2, h=H_SMALL, restrict_to_nullspace=True), w, 1e-10).matrix
    basis = nullspace_matrix(3, lam, 2)
    assert np.max(np.abs(full @ basis - basis @ rest)) < 1e-8


def test_nullspace_matrix_numeric_agrees_with_exact():
    exact = nullspace_matrix(3, Fraction(1, 2), 2)
    numeric = nullspace_matrix(3, 0.5 + 0j, 2)
    assert exact.shape == numeric.shape == (6, 3)
    # same column span: projectors agree
    p_exact = exact @ np.linalg.pinv(exact)
    p_num = numeric @ np.linalg.pinv(numeric)
    assert np.max(np.abs(p_exact - p_num)) < 1e-10


def test_degenerate_weight_rejected_for_nullspace_rep():
    with pytest.raises(ValueError):
        nullspace_matrix(2, Fraction(1), 1)


def test_residuals_shrink_with_tolerance():
    spec = KzSpec(3, Fraction(1, 2), 1, h=0.15)
    a, b = BraidWord.parse("s1 s2 s1", 3), BraidWord.parse("s2 s1 s2", 3)
    residuals = []
    for tol in (1e-6, 1e-8, 1e-10):
        m1 = monodromy(spec, a, tol)
        m2 = monodromy(spec, b, tol)
        residuals.append(float(np.max(np.abs(m1.matrix - m2.matrix))))
    assert residuals[0] >= residuals[1] >= residuals[2]
    assert residuals[2] < residuals[0]


def test_transport_reports_steps_and_error():
    spec = KzSpec(2, Fraction(1, 2), 1, h=0.2)
    result = parallel_transport(spec, generator_path(2, 1), 1e-9)
    assert result.steps > 0
    assert 0 <= result.est_error < 1e-6


def test_transport_stops_at_its_work_budget(monkeypatch):
    # d = 4 counts as 48: three attempts fit the budget, one letter needs more
    spec = KzSpec(2, Fraction(1, 2), 3, h=1)
    assert parallel_transport(spec, generator_path(2, 1), 1e-9).steps > 3
    monkeypatch.setattr(kz, "MAX_TRANSPORT_WORK", 3 * 48**3)
    with pytest.raises(ArithmeticError, match="work budget"):
        parallel_transport(spec, generator_path(2, 1), 1e-9)


def _evaluate_at(matrix, t0: complex) -> np.ndarray:
    """A Laurent matrix in t evaluated at the complex number t0."""

    def value(p):
        return sum(complex(c) * t0 ** e for e, c in p.terms.items())

    return np.array([[value(p) for p in row] for row in matrix.entries])


@pytest.mark.parametrize(
    "n, lam, tau",
    [
        (4, Fraction(1, 3), 3.7 + 0.4j),
        (3, Fraction(2, 5), 2.1 - 0.3j),
        (5, Fraction(-3, 7), 1.3 + 0.8j),
    ],
)
def test_nullspace_rep_at_m1_is_reduced_burau(n, lam, tau):
    """At m = 1 the KZ nullspace representation is c^{e(w)} times reduced
    Burau at t = exp(-pi i lam / (2 tau)), with c = exp(pi i lam^2 / (8 tau)),
    up to conjugation: compare traces and characteristic polynomials."""
    rng = random.Random(n)
    spec = KzSpec(n, lam, 1, tau=tau, restrict_to_nullspace=True)
    t0 = cmath.exp(-1j * math.pi * float(lam) / (2 * tau))
    c = cmath.exp(1j * math.pi * float(lam) ** 2 / (8 * tau))
    for _ in range(3):
        w = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(8)))
        kz_matrix = monodromy(spec, w, tol=1e-11).matrix
        burau_value = reduced_burau(w).matrix
        psi = c ** exponent_sum(w) * _evaluate_at(burau_value, t0)
        assert abs(np.trace(kz_matrix) - np.trace(psi)) < 1e-9
        assert np.allclose(np.poly(kz_matrix), np.poly(psi), rtol=0, atol=1e-9)
        # the trace-form normalization, t0^4, does not match
        wrong = c ** exponent_sum(w) * _evaluate_at(burau_value, t0 ** 4)
        assert not np.allclose(np.poly(kz_matrix), np.poly(wrong), rtol=0, atol=1e-6)


def _lkb_generators(n, q, t):
    """Lawrence-Krammer-Bigelow matrices of sigma_1..sigma_{n-1} on the basis
    x_jk (j < k), columns as images (Krammer, Ann. Math. 155 (2002))."""
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    gens = []
    for i in range(1, n):
        g = np.zeros((len(pairs), len(pairs)), dtype=complex)
        for col, (j, k) in enumerate(pairs):
            if i == j - 1:
                image = {(i, k): q, (i, j): q * q - q, (j, k): 1 - q}
            elif i == j and i == k - 1:
                image = {(j, k): -t * q * q}
            elif i == j:
                image = {(j + 1, k): 1}
            elif i == k - 1:
                image = {(j, i): q, (j, k): 1 - q, (i, k): -(q * q - q) * t}
            elif i == k:
                image = {(j, k + 1): 1}
            else:
                image = {(j, k): 1}
            for pair, c in image.items():
                g[pairs.index(pair), col] += c
        gens.append(g)
    return gens


@pytest.mark.parametrize(
    "n, lam, tau",
    [(3, Fraction(1, 3), 1.7), (4, Fraction(7, 3), 2.3), (4, 0.4 - 0.3j, 1.9)],
)
def test_nullspace_rep_at_m2_is_lkb(n, lam, tau):
    """At m = 2 the KZ nullspace representation is c^{e(w)} times LKB at
    q = exp(-pi i lam / (2 tau)), t = -exp(pi i / (2 tau)), with the c of
    m = 1, up to conjugation: compare tr (c^{-e(w)} M(w))^p with tr L(w)^p
    for p = 1..d."""
    q = cmath.exp(-1j * math.pi * complex(lam) / (2 * tau))
    t = -cmath.exp(1j * math.pi / (2 * tau))
    c = cmath.exp(1j * math.pi * complex(lam) ** 2 / (8 * tau))
    right, wrong = _lkb_generators(n, q, t), _lkb_generators(n, q, -t)
    rng = random.Random(n)
    spec = KzSpec(n, lam, 2, tau=tau, restrict_to_nullspace=True)
    errors = {"right": [], "wrong": []}
    for _ in range(3):
        w = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(6)))
        kz_matrix = monodromy(spec, w, tol=1e-11).matrix / c ** exponent_sum(w)
        for name, gens in (("right", right), ("wrong", wrong)):
            lkb = np.eye(len(kz_matrix), dtype=complex)
            for i, sign in w.letters:  # first letter acts first
                lkb = (gens[i - 1] if sign > 0 else np.linalg.inv(gens[i - 1])) @ lkb
            for p in range(1, len(lkb) + 1):
                expected = np.trace(np.linalg.matrix_power(lkb, p))
                got = np.trace(np.linalg.matrix_power(kz_matrix, p))
                errors[name].append(abs(got - expected) / max(1.0, abs(expected)))
    assert max(errors["right"]) < 1e-9
    assert max(errors["wrong"]) > 1e-3  # the sign of t matters


def _quantum_braid_generators(n, m, lam, tau, sign=1):
    """The U_q(sl2) Verma braiding c = flip q^{H(x)H/2} sum_k q^{k(k-1)/2}
    (q - q^-1)^k / [k]! E^k (x) F^k on legs (i, i+1), i = 1..n-1, of the
    degree-m part of M_lam^(x)n, where E F^j v = [j][lam-j+1] F^{j-1} v and
    q = exp(sign pi i / (4 tau)).  Terms with k > m vanish there, so the
    truncated sum is exact; columns are the images of the basis vectors."""

    def qpow(x):
        return cmath.exp(sign * 1j * math.pi * x / (4 * tau))

    def qnum(x):
        return (qpow(x) - qpow(-x)) / (qpow(1) - qpow(-1))

    lam = complex(lam)
    basis = [j for j in itertools.product(range(m + 1), repeat=n) if sum(j) == m]
    gens = []
    for i in range(n - 1):
        g = np.zeros((len(basis), len(basis)), dtype=complex)
        for col, idx in enumerate(basis):
            a, b = idx[i], idx[i + 1]
            c = 1
            for k in range(a + 1):  # E^k (x) F^k: (a, b) -> (a - k, b + k), then the flip
                if k:
                    c *= qpow(k - 1) * (qpow(1) - qpow(-1)) / qnum(k) * qnum(a - k + 1) * qnum(lam - a + k)
                row = basis.index(idx[:i] + (b + k, a - k) + idx[i + 2 :])
                g[row, col] += c * qpow((lam - 2 * (a - k)) * (lam - 2 * (b + k)) / 2)
        gens.append(g)
    return gens


@pytest.mark.parametrize(
    "n, m, lam, tau",
    [(2, 2, Fraction(1, 3), 1.7), (3, 2, Fraction(7, 3), 2.3), (4, 2, 0.4 - 0.3j, 1.9), (3, 4, Fraction(1, 3), 2.1)],
)
def test_monodromy_is_the_quantum_group_braiding(n, m, lam, tau):
    """Drinfeld-Kohno: the KZ monodromy on W[m] is the U_q(sl2) Verma
    braiding at q = exp(pi i / (4 tau)), with no scalar factor, up to
    conjugation: compare tr M(w)^p for p = 1..d."""
    right, wrong = (_quantum_braid_generators(n, m, lam, tau, sign) for sign in (1, -1))
    rng = random.Random(10 * n + m)
    spec = KzSpec(n, lam, m, tau=tau)
    errors = {"right": [], "wrong": []}
    for _ in range(3):
        w = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(5)))
        kz_matrix = monodromy(spec, w, tol=1e-11).matrix
        for name, gens in (("right", right), ("wrong", wrong)):
            braiding = np.eye(len(kz_matrix), dtype=complex)
            for i, sign in w.letters:  # first letter acts first
                braiding = (gens[i - 1] if sign > 0 else np.linalg.inv(gens[i - 1])) @ braiding
            for p in range(1, len(braiding) + 1):
                expected = np.trace(np.linalg.matrix_power(braiding, p))
                got = np.trace(np.linalg.matrix_power(kz_matrix, p))
                errors[name].append(abs(got - expected) / max(1.0, abs(expected)))
    assert max(errors["right"]) < 1e-8
    assert max(errors["wrong"]) > 1e-3  # q and q^-1 give different braidings


@pytest.mark.parametrize("lam", [1 + 0j, 3 + 0j])
def test_nullspace_matrix_rejects_degenerate_complex_weight(lam):
    with pytest.raises(ValueError):
        nullspace_matrix(3, lam, 2)


def _swap_images(n, i):
    images = list(range(1, n + 1))
    images[i - 1], images[i] = i + 1, i
    return images


@pytest.mark.parametrize("lam", [Fraction(7, 3), Fraction(1, 2), 0.4 - 0.3j])
def test_system_build_matches_the_dense_references(lam):
    # the one-pass build against omega_matrix and leg_permutation_matrix,
    # which enumerate the basis and densify each operator on their own
    lam_c = complex(lam)
    for n, m in [(n, m) for n in range(2, 6) for m in range(4)] + [(6, 4), (30, 0), (12, 1)]:
        system = KzSystem(KzSpec(n, lam, m, h=H_SMALL))
        assert len(system.omegas) == len(system.pairs) == n * (n - 1) // 2 and len(system.swaps) == n - 1
        for (i, j), omega in zip(system.pairs, system.omegas):
            assert np.array_equal(omega, np.asarray(omega_matrix(n, i, j, lam_c, m), dtype=complex))
        for i, swap in enumerate(system.swaps, 1):
            reference = leg_permutation_matrix(n, lam_c, m, _swap_images(n, i))
            assert np.array_equal(swap, np.asarray(reference, dtype=complex))


def test_system_build_enumerates_the_basis_once(monkeypatch):
    from braidrep import verma

    calls = []
    enumerate_basis = verma.weight_space_basis
    counting = lambda *args: calls.append(args) or enumerate_basis(*args)
    monkeypatch.setattr(verma, "weight_space_basis", counting)
    monkeypatch.setattr(kz, "weight_space_basis", counting)
    KzSystem(KzSpec(4, Fraction(1, 3), 3, h=H_SMALL))
    assert len(calls) == 1


@pytest.mark.parametrize("lam", [Fraction(7, 3), 0.4 - 0.3j])
def test_compressed_operators_are_exact_restrictions(lam):
    # X B = B C for every Omega and leg swap X, where C is the compressed
    # operator: the top rows of B are the identity
    n, m = 4, 2
    system = KzSystem(KzSpec(n, lam, m, h=H_SMALL, restrict_to_nullspace=True))
    basis = nullspace_matrix(n, lam, m)
    assert np.array_equal(basis[: system.dim], np.eye(system.dim))
    # the top rows of X times B are bit-equal to the top rows of X B
    full = KzSystem(KzSpec(n, lam, m, h=H_SMALL))
    assert np.array_equal(system.omegas, (full.omegas @ basis)[:, : system.dim])
    assert np.array_equal(system.swaps, (full.swaps @ basis)[:, : system.dim])
    lam_c = complex(lam)
    for (i, j), compressed in zip(system.pairs, system.omegas):
        om = np.asarray(omega_matrix(n, i, j, lam_c, m), dtype=complex)
        assert np.max(np.abs(om @ basis - basis @ compressed)) < 1e-12
    for i, compressed in enumerate(system.swaps, 1):
        swap = np.asarray(leg_permutation_matrix(n, lam_c, m, _swap_images(n, i)), dtype=complex)
        assert np.max(np.abs(swap @ basis - basis @ compressed)) < 1e-12
