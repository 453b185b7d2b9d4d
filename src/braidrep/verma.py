"""sl2 Verma modules, weight-graded tensor spaces, and the Omega operators.

The Verma module M_lam has basis F^j v (j >= 0) with

    F . F^j v = F^(j+1) v
    E . F^j v = j (lam - j + 1) F^(j-1) v
    H . F^j v = (lam - 2j) F^j v.

Tensor powers carry the coproduct (Leibniz) action.  All computations are
restricted to the finite weight-graded pieces W[n lam - 2m], spanned by the
multi-indices (j_1, ..., j_n) with sum m; nothing infinite-dimensional is
ever materialized.

Omega is normalized by the Killing form: with kappa(x, y) = tr(ad x ad y)
one gets Omega = H(x)H / 8 + (E(x)F + F(x)E) / 4.  (Trace-form conventions
found elsewhere are 4x larger; the deformation parameter of the KZ
connection absorbs the difference.)  Scalars are exact Fractions for
rational highest weights and complex doubles otherwise, with identical
formulas.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

GENERATORS = ("H", "E", "F")

# bracket table [H,E] = 2E, [H,F] = -2F, [E,F] = H, as structure constants:
# _BRACKET[x][y] = coefficients of [x, y] in the basis (H, E, F)
_BRACKET = {
    ("H", "H"): (0, 0, 0),
    ("H", "E"): (0, 2, 0),
    ("H", "F"): (0, 0, -2),
    ("E", "H"): (0, -2, 0),
    ("E", "E"): (0, 0, 0),
    ("E", "F"): (1, 0, 0),
    ("F", "H"): (0, 0, 2),
    ("F", "E"): (-1, 0, 0),
    ("F", "F"): (0, 0, 0),
}


class DegenerateWeightWarning(UserWarning):
    """Emitted when a nullspace rank differs from its generic value."""


def ad_matrix(x: str):
    """Matrix of ad(x) on the basis (H, E, F)."""
    return [[_BRACKET[(x, y)][row] for y in GENERATORS] for row in range(3)]


def killing_matrix():
    """Gram matrix kappa(x, y) = tr(ad x ad y) on the basis (H, E, F)."""
    ads = {x: ad_matrix(x) for x in GENERATORS}
    out = []
    for x in GENERATORS:
        row = []
        for y in GENERATORS:
            prod_trace = sum(
                ads[x][i][k] * ads[y][k][i] for i in range(3) for k in range(3)
            )
            row.append(Fraction(prod_trace))
        out.append(row)
    return out


def omega_coefficients() -> dict:
    """Coefficients of Omega = sum kappa^{-1}_{ab} x_a (x) x_b on pairs of
    basis elements, derived from the inverse Killing matrix."""
    kappa = killing_matrix()
    inv = _invert_fraction_matrix(kappa)
    out = {}
    for a, xa in enumerate(GENERATORS):
        for b, xb in enumerate(GENERATORS):
            if inv[a][b]:
                out[(xa, xb)] = inv[a][b]
    return out


def _invert_fraction_matrix(m):
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def as_scalar(lam):
    """Normalize a highest weight to Fraction (exact) or complex (numeric)."""
    if isinstance(lam, (int, Fraction)):
        return Fraction(lam)
    return complex(lam)


def verma_act(generator: str, j: int, lam):
    """Action of H, E, or F on the basis vector F^j v, as a list of
    (new degree, coefficient) pairs."""
    lam = as_scalar(lam)
    if j < 0:
        raise ValueError("basis degree must be >= 0")
    if generator == "F":
        return [(j + 1, 1)]
    if generator == "E":
        return [] if j == 0 else [(j - 1, j * (lam - j + 1))]
    if generator == "H":
        return [(j, lam - 2 * j)]
    raise ValueError(f"unknown generator {generator!r}")


def casimir_eigenvalue(lam):
    """(lam^2 + 2 lam) / 8, the Casimir scalar on M_lam."""
    lam = as_scalar(lam)
    return (lam * lam + 2 * lam) / 8


@dataclass(frozen=True)
class WeightBasis:
    """Basis of the weight space of M_lam^(x)n at total lowering degree m:
    multi-indices (j_1, ..., j_n) with sum m, in lexicographic order."""

    n: int
    m: int
    lam: object
    indices: tuple
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_positions", {idx: k for k, idx in enumerate(self.indices)})

    def __len__(self):
        return len(self.indices)

    def position(self, index) -> int:
        return self._positions[tuple(index)]


def _compositions(n: int, m: int):
    """Compositions (j_1, ..., j_n) of m into non-negative parts, in
    lexicographic order."""
    if n == 1:
        return [(m,)]
    return [(first,) + rest for first in range(m + 1) for rest in _compositions(n - 1, m - first)]


def weight_space_basis(n: int, lam, m: int) -> WeightBasis:
    if n < 1:
        raise ValueError("need at least one tensor factor")
    if m < 0:
        return WeightBasis(n, m, as_scalar(lam), ())
    return WeightBasis(n, m, as_scalar(lam), tuple(_compositions(n, m)))


def weight_dim(n: int, m: int) -> int:
    return comb(m + n - 1, n - 1) if m >= 0 else 0


def generic_null_dim(n: int, m: int) -> int:
    return weight_dim(n, m) - weight_dim(n, m - 1)


def _zero_matrix(rows, cols, lam):
    z = lam - lam  # zero in lam's arithmetic
    return [[z for _ in range(cols)] for _ in range(rows)]


def tensor_generator_matrix(generator: str, n: int, lam, m: int):
    """Matrix of the coproduct (Leibniz) action of a generator, as a map
    W[m] -> W[m'] where m' = m+1 for F, m-1 for E, m for H."""
    lam = as_scalar(lam)
    delta = {"F": 1, "E": -1, "H": 0}[generator]
    dom = weight_space_basis(n, lam, m)
    cod = weight_space_basis(n, lam, m + delta)
    pos = cod._positions
    mat = _zero_matrix(len(cod), len(dom), lam)
    for col, idx in enumerate(dom.indices):
        for leg in range(n):
            for jnew, coeff in verma_act(generator, idx[leg], lam):
                tgt = idx[:leg] + (jnew,) + idx[leg + 1 :]
                mat[pos[tgt]][col] += coeff
    return mat


def tensor_act(generator: str, vector: dict, n: int, lam, m: int) -> dict:
    """Coproduct action on a weight vector given as {multi-index: coeff} at
    lowering degree m; the result lives at degree m+1 (F), m-1 (E), m (H)."""
    lam = as_scalar(lam)
    out: dict = {}
    for idx, coeff in vector.items():
        idx = tuple(idx)
        if len(idx) != n or sum(idx) != m:
            raise ValueError(f"index {idx} is not a degree-{m} multi-index of length {n}")
        for leg in range(n):
            for jnew, c in verma_act(generator, idx[leg], lam):
                tgt = idx[:leg] + (jnew,) + idx[leg + 1 :]
                val = out.get(tgt, 0) + coeff * c
                if val:
                    out[tgt] = val
                else:
                    out.pop(tgt, None)
    return out


@dataclass(frozen=True)
class OmegaMatrix:
    """Omega placed on tensor legs (i, j), restricted to a weight basis."""

    i: int
    j: int
    block: tuple


def omega_matrix(n: int, i: int, j: int, lam, m: int) -> OmegaMatrix:
    """Exact matrix of Omega acting on legs (i, j) of W[n lam - 2m].

    Built directly from the Killing-form coefficients: H(x)H acts
    diagonally, E(x)F and F(x)E move one lowering degree between the two
    legs, so the weight space is preserved.
    """
    if not (1 <= i < j <= n):
        raise ValueError(f"bad leg pair ({i}, {j}) for n={n}")
    lam = as_scalar(lam)
    basis = weight_space_basis(n, lam, m)
    pos = basis._positions
    mat = _zero_matrix(len(basis), len(basis), lam)
    pairs = omega_coefficients()
    for col, idx in enumerate(basis.indices):
        for (xa, xb), c in pairs.items():
            for ja, ca in verma_act(xa, idx[i - 1], lam):
                for jb, cb in verma_act(xb, idx[j - 1], lam):
                    tgt = list(idx)
                    tgt[i - 1] = ja
                    tgt[j - 1] = jb
                    row = pos.get(tuple(tgt))
                    if row is None:
                        continue  # moved out of the graded piece (cannot happen for Omega)
                    mat[row][col] += c * ca * cb
    return OmegaMatrix(i, j, tuple(tuple(r) for r in mat))


def leg_permutation_matrix(n: int, lam, m: int, images) -> list:
    """Permutation operator on W[m] induced by permuting tensor legs.

    ``images`` are 1-based images of legs 1..n; the basis vector with
    multi-index J maps to the one with entries J'_k = J_{perm^{-1}(k)}.
    """
    lam = as_scalar(lam)
    basis = weight_space_basis(n, lam, m)
    pos = basis._positions
    zero, one = lam - lam, lam - lam + 1
    mat = [[zero for _ in range(len(basis))] for _ in range(len(basis))]
    for col, idx in enumerate(basis.indices):
        tgt = [0] * n
        for leg in range(n):
            tgt[images[leg] - 1] = idx[leg]
        mat[pos[tuple(tgt)]][col] = one
    return mat


# -- exact linear algebra over Fractions -------------------------------------

def kernel_basis_exact(mat, cols: int) -> list:
    """Exact kernel of a Fraction matrix via Gauss-Jordan elimination;
    returns a list of coordinate vectors (tuples of Fractions)."""
    rows = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, rows) if a[k][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for k in range(rows):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = -a[rr][fc]
        out.append(tuple(v))
    return out


def is_generic(lam, m: int) -> bool:
    """Generic highest weights avoid the small non-negative integers
    0..2m where nullspace ranks can drop."""
    lam = as_scalar(lam)
    if isinstance(lam, Fraction):
        return not (lam.denominator == 1 and 0 <= lam <= 2 * m)
    return all(abs(lam - k) > 1e-9 for k in range(2 * m + 1))


def nullspace_basis(n: int, lam, m: int) -> list:
    """Basis of N[n lam - 2m] = ker E inside W[n lam - 2m], exact over
    rationals.  Warns if the rank differs from the generic count."""
    lam = as_scalar(lam)
    if not isinstance(lam, Fraction):
        raise TypeError("exact nullspace needs a rational highest weight")
    e_mat = tensor_generator_matrix("E", n, lam, m)
    kernel = kernel_basis_exact(e_mat, weight_dim(n, m))
    expected = generic_null_dim(n, m)
    if len(kernel) != expected:
        warnings.warn(
            f"nullspace at lam={lam}, n={n}, m={m} has dimension {len(kernel)} "
            f"(generic value {expected})",
            DegenerateWeightWarning,
        )
    return kernel


# -- matrix helpers and relation checks ---------------------------------------

def mat_mul(a, b):
    if not a or not b:
        return []
    cols_b = len(b[0])
    inner = len(b)
    return [
        [sum(row[k] * b[k][c] for k in range(inner)) for c in range(cols_b)]
        for row in a
    ]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def kd_relation_check(n: int, lam, m: int) -> bool:
    """Kohno-Drinfeld relations for the Omega placements on W[m]:
    disjoint pairs commute, and [O_ij, O_ik + O_jk] = 0 for all triples."""
    lam = as_scalar(lam)
    omegas = {
        (i, j): [list(r) for r in omega_matrix(n, i, j, lam, m).block]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    pairs = list(omegas)
    for a in pairs:
        for b in pairs:
            if len({*a, *b}) == 4 and not mat_is_zero(commutator(omegas[a], omegas[b])):
                return False
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                o_ij, o_ik, o_jk = omegas[(i, j)], omegas[(i, k)], omegas[(j, k)]
                for left, rest in (
                    (o_ij, mat_add(o_ik, o_jk)),
                    (o_ik, mat_add(o_ij, o_jk)),
                    (o_jk, mat_add(o_ij, o_ik)),
                ):
                    if not mat_is_zero(commutator(left, rest)):
                        return False
    return True


def equivariance_check(n: int, lam, m: int) -> bool:
    """[Omega^{ij}, coproduct action of x] = 0 for x in {E, F, H}, checked
    on the rectangular blocks W[m] -> W[m -+ 2 delta]; consequently the
    Omega operators map nullvectors to nullvectors (asserted directly for
    rational weights)."""
    lam = as_scalar(lam)
    deltas = {"F": 1, "E": -1, "H": 0}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            om_dom = [list(r) for r in omega_matrix(n, i, j, lam, m).block]
            for x, d in deltas.items():
                if m + d < 0:
                    continue
                act = tensor_generator_matrix(x, n, lam, m)
                om_cod = [list(r) for r in omega_matrix(n, i, j, lam, m + d).block]
                lhs = mat_mul(om_cod, act)
                rhs = mat_mul(act, om_dom)
                if not mat_is_zero(mat_sub(lhs, rhs)):
                    return False
    if isinstance(lam, Fraction):
        null = nullspace_basis(n, lam, m)
        e_mat = tensor_generator_matrix("E", n, lam, m)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                om = omega_matrix(n, i, j, lam, m).block
                for v in null:
                    image = [sum(row[k] * v[k] for k in range(len(v))) for row in om]
                    pushed = [sum(row[k] * image[k] for k in range(len(image))) for row in e_mat]
                    if any(pushed):
                        return False
    return True
