"""Yang-Baxter checks for concrete r-matrices and the braid representations
they induce on tensor powers.

An r-matrix is an invertible operator on V (x) V, stored as a d^2 x d^2
matrix in the lexicographic product basis with the left tensor factor most
significant.  Exact matrices (rational or Laurent in q) are checked to
literal zero; complex matrices to a max-entry threshold of 1e-10.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .laurent import LaurentPoly, RingMatrix
from .words import BraidWord

NUMERIC_TOLERANCE = 1e-10
SIZE_CAP = 4096

Q = LaurentPoly.var("q")

# the variable each exact ring tag allows besides constants
_RING_VARIABLES = {"rational": None, "laurent:q": "q"}


class YangBaxterError(ValueError):
    """Raised when an operation requires an r-matrix that fails the YBE."""


def _check_dim(d: int) -> None:
    if d < 1:
        raise ValueError(f"r-matrix dimension must be at least 1, got {d}")


@dataclass(frozen=True)
class RMatrixSpec:
    """An automorphism of V (x) V given by its matrix in the product basis."""

    dim: int
    ring: str  # "rational" | "laurent:q" | "complex"
    matrix: object  # RingMatrix for exact rings, complex ndarray otherwise

    def __post_init__(self):
        _check_dim(self.dim)
        d2 = self.dim * self.dim
        if self.ring == "complex":
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (d2, d2):
                raise ValueError(f"expected {d2}x{d2} matrix, got {m.shape}")
            if np.linalg.cond(m) > 1e12:
                raise ValueError("r-matrix is numerically singular")
            object.__setattr__(self, "matrix", m)
        elif self.ring in _RING_VARIABLES:
            m = self.matrix
            if not isinstance(m, RingMatrix) or (m.rows, m.cols) != (d2, d2):
                raise ValueError(f"expected an exact {d2}x{d2} RingMatrix")
            allowed = (None, _RING_VARIABLES[self.ring])
            for row in m.entries:
                for p in row:
                    if p.variable not in allowed:
                        raise ValueError(f"entry {p} is not in the {self.ring!r} ring")
            det = m.det()
            if not det.is_monomial():
                raise ValueError(f"determinant {det} is not a unit of the coefficient ring")
        else:
            raise ValueError(f"unknown ring tag {self.ring!r}")

    @property
    def exact(self) -> bool:
        return self.ring != "complex"

    def inverse_matrix(self):
        if self.exact:
            return self.matrix.inverse_unit_det()
        return np.linalg.inv(self.matrix)


@dataclass(frozen=True)
class Residual:
    """Difference of the two sides of a matrix identity."""

    exact: bool
    norm: float
    diff: object

    @property
    def passes(self) -> bool:
        return self.norm == 0.0 if self.exact else self.norm <= NUMERIC_TOLERANCE


def _entry_norm(diff) -> float:
    if isinstance(diff, RingMatrix):
        worst = 0.0
        for row in diff.entries:
            for p in row:
                size = float(sum(abs(Fraction(c)) for c in p.terms.values()))
                worst = max(worst, size)
        return worst
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def _residual(lhs, rhs, exact: bool) -> Residual:
    diff = lhs - rhs
    return Residual(exact, _entry_norm(diff), diff)


def kron_exact(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    grid = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                for l in range(b.cols):
                    row.append(a.entries[i][j] * b.entries[k][l])
            grid.append(tuple(row))
    return RingMatrix(a.rows * b.rows, a.cols * b.cols, tuple(grid))


def _kron(a, b, exact: bool):
    return kron_exact(a, b) if exact else np.kron(a, b)


def _eye(k: int, exact: bool):
    return RingMatrix.identity(k) if exact else np.eye(k, dtype=complex)


def _mul(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = out @ m
    return out


# -- bundled r-matrices ----------------------------------------------------

def identity_r(d: int = 2) -> RMatrixSpec:
    _check_dim(d)
    return RMatrixSpec(d, "rational", RingMatrix.identity(d * d))


def flip_matrix(d: int) -> RingMatrix:
    one, zero = LaurentPoly.constant(1), LaurentPoly.constant(0)
    size = d * d
    grid = [[zero] * size for _ in range(size)]
    for i in range(d):
        for j in range(d):
            grid[j * d + i][i * d + j] = one
    return RingMatrix(size, size, tuple(tuple(r) for r in grid))


def flip_r(d: int = 2) -> RMatrixSpec:
    _check_dim(d)
    return RMatrixSpec(d, "rational", flip_matrix(d))


def rq_r() -> RMatrixSpec:
    """The q-deformed flip on C^2 (x) C^2 over Z[q, q^-1]:

    e_i (x) e_i -> q e_i (x) e_i,  e_1 (x) e_2 -> e_2 (x) e_1,
    e_2 (x) e_1 -> e_1 (x) e_2 + (q - q^-1) e_2 (x) e_1.
    """
    qinv = Q.unit_inverse()
    zero = LaurentPoly.constant(0)
    one = LaurentPoly.constant(1)
    m = RingMatrix.from_rows(
        [
            [Q, zero, zero, zero],
            [zero, zero, one, zero],
            [zero, one, Q - qinv, zero],
            [zero, zero, zero, Q],
        ]
    )
    return RMatrixSpec(2, "laurent:q", m)


def compose_flip(spec: RMatrixSpec) -> RMatrixSpec:
    """tau composed after R (apply R, then swap the factors)."""
    if spec.exact:
        return RMatrixSpec(spec.dim, spec.ring, flip_matrix(spec.dim) @ spec.matrix)
    flip = np.asarray(
        [[float(c.constant_value()) for c in row] for row in flip_matrix(spec.dim).entries],
        dtype=complex,
    )
    return RMatrixSpec(spec.dim, "complex", flip @ spec.matrix)


# -- the two Yang-Baxter identities ------------------------------------------

def check_braid_ybe(spec: RMatrixSpec) -> Residual:
    """(R x id)(id x R)(R x id) - (id x R)(R x id)(id x R) on V^(x)3."""
    d, exact = spec.dim, spec.exact
    i_d = _eye(d, exact)
    r01 = _kron(spec.matrix, i_d, exact)
    r12 = _kron(i_d, spec.matrix, exact)
    return _residual(_mul(r01, r12, r01), _mul(r12, r01, r12), exact)


def place_on_legs(spec: RMatrixSpec, n: int, i: int, j: int):
    """The operator acting as ``spec.matrix`` on tensor legs (i, j) of V^(x)n
    and as the identity elsewhere.  Legs are 1-based with i < j."""
    if not (1 <= i < j <= n):
        raise ValueError(f"bad leg pair ({i}, {j}) for {n} legs")
    d = spec.dim
    size = d ** n
    if size > SIZE_CAP:
        raise ValueError(f"tensor power dimension {size} exceeds cap {SIZE_CAP}")
    exact = spec.exact
    zero = LaurentPoly.constant(0) if exact else 0j

    def unrank(x):
        digits = []
        for _ in range(n):
            digits.append(x % d)
            x //= d
        return digits[::-1]

    entry = (
        (lambda r, c: spec.matrix.entries[r][c]) if exact else (lambda r, c: spec.matrix[r, c])
    )
    grid = [[zero] * size for _ in range(size)]
    for col in range(size):
        b = unrank(col)
        fixed = [b[k] for k in range(n) if k not in (i - 1, j - 1)]
        rsub = b[i - 1] * d + b[j - 1]
        for ai in range(d):
            for aj in range(d):
                val = entry(ai * d + aj, rsub)
                if (exact and val.is_zero()) or (not exact and val == 0):
                    continue
                a = fixed.copy()
                a.insert(i - 1, ai)
                a.insert(j - 1, aj)
                row = 0
                for digit in a:
                    row = row * d + digit
                grid[row][col] = val
    if exact:
        return RingMatrix(size, size, tuple(tuple(r) for r in grid))
    return np.asarray(grid, dtype=complex)


def check_qybe(spec: RMatrixSpec) -> Residual:
    """R12 R13 R23 - R23 R13 R12 with leg placements on V^(x)3."""
    r12 = place_on_legs(spec, 3, 1, 2)
    r13 = place_on_legs(spec, 3, 1, 3)
    r23 = place_on_legs(spec, 3, 2, 3)
    return _residual(_mul(r12, r13, r23), _mul(r23, r13, r12), spec.exact)


# -- induced braid representation ------------------------------------------

def rep_generator(spec: RMatrixSpec, n: int, i: int, sign: int = 1):
    mat = spec.matrix if sign == 1 else spec.inverse_matrix()
    two_leg = RMatrixSpec(spec.dim, spec.ring, mat) if spec.exact else RMatrixSpec(
        spec.dim, "complex", mat
    )
    return place_on_legs(two_leg, n, i, i + 1)


def rep_from_r(spec: RMatrixSpec, n: int, w: BraidWord, allow_non_ybe: bool = False):
    """The braid-group action sigma_i -> id^(i-1) (x) R (x) id^(n-i-1),
    evaluated on a word (product of generator images in word order)."""
    if w.n != n:
        raise ValueError(f"word lives on {w.n} strands, expected {n}")
    if spec.dim ** n > SIZE_CAP:
        raise ValueError(f"tensor power dimension {spec.dim ** n} exceeds cap {SIZE_CAP}")
    ybe = check_braid_ybe(spec)
    if not ybe.passes:
        if not allow_non_ybe:
            raise YangBaxterError(
                f"r-matrix fails the braid Yang-Baxter equation (residual {ybe.norm})"
            )
        warnings.warn("r-matrix fails the Yang-Baxter equation; result is not a braid representation")
    gens = {}
    acc = _eye(spec.dim ** n, spec.exact)
    for i, s in w.letters:
        key = (i, s)
        if key not in gens:
            gens[key] = rep_generator(spec, n, i, s)
        acc = acc @ gens[key]
    return acc


def check_quasitriangular_matrix_axioms(spec: RMatrixSpec) -> dict:
    """Matrix-level shadow of the quasi-triangular axioms: both Yang-Baxter
    leg-placement identities plus invertibility."""
    braid = check_braid_ybe(spec)
    qybe = check_qybe(spec)
    try:
        spec.inverse_matrix()
        invertible = True
    except Exception:
        invertible = False
    return {
        "braid_ybe": braid.norm,
        "qybe": qybe.norm,
        "invertible": invertible,
        "exact": spec.exact,
        "passes": braid.passes and qybe.passes and invertible,
    }


# -- JSON interface ----------------------------------------------------------

def r_matrix_from_json(data: dict) -> RMatrixSpec:
    d = int(data["dim"])
    ring = data["ring"]
    raw = data["matrix"]
    if ring == "complex":
        m = np.asarray([[complex(re, im) for re, im in row] for row in raw])
        return RMatrixSpec(d, ring, m)
    variable = _RING_VARIABLES.get(ring)
    grid = tuple(tuple(LaurentPoly.parse(s, variable) for s in row) for row in raw)
    return RMatrixSpec(d, ring, RingMatrix(d * d, d * d, grid))


def r_matrix_to_json(spec: RMatrixSpec) -> dict:
    if spec.exact:
        raw = [[str(e) for e in row] for row in spec.matrix.entries]
    else:
        raw = [[[z.real, z.imag] for z in row] for row in spec.matrix]
    return {"dim": spec.dim, "ring": spec.ring, "matrix": raw}
