"""Yang-Baxter checks for concrete r-matrices and the braid representations
they induce on tensor powers.

An r-matrix is an invertible operator on V (x) V, stored as a d^2 x d^2
matrix in the lexicographic product basis with the left tensor factor most
significant.  Exact matrices (rational or Laurent in q) are checked to
literal zero; complex matrices to a max-entry threshold of 1e-10.

Every operator here is a product of R-placements on leg pairs of V^(x)n,
each handed to laurent's sparse column product (shared with Burau words)
as the columns it changes, on exact and complex entries alike; a word
computes R^-1 once, and only if it has an inverse letter.

The two Yang-Baxter checks report residuals for any R.  ``rep_from_r``
needs the braid form to hold and raises :class:`YangBaxterError` otherwise.
R-matrices are read from JSON by ``r_matrix_from_json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPoly, RingMatrix, _column_product, _coordinates
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
            import numpy as np  # only the complex ring needs numpy

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
            for row in m._sparse_rows:
                for p in row.values():
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
        import numpy as np

        return np.linalg.inv(self.matrix)


@dataclass(frozen=True)
class Residual:
    """Largest entry (`_entry_norm`) of the difference of the two sides of
    a matrix identity."""

    exact: bool
    norm: float

    @property
    def passes(self) -> bool:
        return self.norm == 0.0 if self.exact else self.norm <= NUMERIC_TOLERANCE


def _entry_norm(x) -> float:
    """Sum of absolute coefficients of an exact entry, modulus of a complex one."""
    if isinstance(x, LaurentPoly):
        return float(sum(abs(Fraction(c)) for c in x.terms.values()))
    return abs(x)


# -- bundled r-matrices ----------------------------------------------------

def identity_r(d: int = 2) -> RMatrixSpec:
    _check_dim(d)
    return RMatrixSpec(d, "rational", RingMatrix.identity(d * d))


def flip_matrix(d: int) -> RingMatrix:
    """The swap tau of V (x) V: e_i (x) e_j -> e_j (x) e_i."""
    one = LaurentPoly.constant(1)
    return RingMatrix._sparse(d * d, d * d, [{r % d * d + r // d: one} for r in range(d * d)])


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


# -- products of leg placements ----------------------------------------------

def _columns(matrix, exact: bool) -> tuple:
    """The nonzero ``(row, entry)`` pairs of each column of a d^2 x d^2
    matrix, as the table `_leg_product` places."""
    if exact:
        return tuple(tuple(col.items()) for col in matrix.transpose()._sparse_rows)
    return tuple(tuple((r, e) for r, e in enumerate(col) if e) for col in zip(*matrix.tolist()))


def _leg_product(spec: RMatrixSpec, n: int, factors):
    """The product, in the given order, of the operators acting as a table
    from `_columns` on legs (i, j) of V^(x)n (1-based) and as the identity
    elsewhere, for ``(table, i, j)`` in ``factors``.

    The product is returned as sparse columns ``{row: entry}``.  A placed
    table replaces column c, whose legs (i, j) read (a, b), with the sum
    over ``(k, x)`` in ``table[a*d + b]`` of x times the column with legs
    (i, j) set to (k // d, k % d)."""
    d = spec.dim
    size = d ** n
    if size > SIZE_CAP:
        raise ValueError(f"tensor power dimension {size} exceeds cap {SIZE_CAP}")

    def placed(table, i, j):
        si, sj = d ** (n - i), d ** (n - j)
        moves = [tuple((k // d * si + k % d * sj, x) for k, x in col) for col in table]
        for c in range(size):
            a, b = c // si % d, c // sj % d
            base = c - a * si - b * sj
            yield c, [(base + shift, x) for shift, x in moves[a * d + b]]

    one = LaurentPoly.constant(1) if spec.exact else 1 + 0j
    return _column_product(size, one, (placed(*f) for f in factors))


# -- the two Yang-Baxter identities ------------------------------------------

def _three_leg_residual(spec: RMatrixSpec, lhs, rhs) -> Residual:
    """Two products of R-placements on V^(x)3, given as leg pairs, compared
    column by column."""
    table = _columns(spec.matrix, spec.exact)
    left, right = (_leg_product(spec, 3, [(table, i, j) for i, j in legs]) for legs in (lhs, rhs))
    diffs = (a.get(row, 0) - b.get(row, 0) for a, b in zip(left, right) for row in a.keys() | b.keys())
    return Residual(spec.exact, max(map(_entry_norm, diffs)))


def check_braid_ybe(spec: RMatrixSpec) -> Residual:
    """(R x id)(id x R)(R x id) - (id x R)(R x id)(id x R) on V^(x)3."""
    return _three_leg_residual(spec, ((1, 2), (2, 3), (1, 2)), ((2, 3), (1, 2), (2, 3)))


def check_qybe(spec: RMatrixSpec) -> Residual:
    """R12 R13 R23 - R23 R13 R12 with leg placements on V^(x)3."""
    return _three_leg_residual(spec, ((1, 2), (1, 3), (2, 3)), ((2, 3), (1, 3), (1, 2)))


# -- induced braid representation ------------------------------------------

def rep_from_r(spec: RMatrixSpec, n: int, w: BraidWord):
    """The braid-group action sigma_i -> id^(i-1) (x) R (x) id^(n-i-1),
    evaluated on a word (product of generator images in word order).  An R
    that fails the braid Yang-Baxter equation gives no braid representation
    and raises :class:`YangBaxterError`."""
    if w.n != n:
        raise ValueError(f"word lives on {w.n} strands, expected {n}")
    ybe = check_braid_ybe(spec)
    if not ybe.passes:
        raise YangBaxterError(f"r-matrix fails the braid Yang-Baxter equation (residual {ybe.norm})")
    tables = {1: _columns(spec.matrix, spec.exact)}
    if any(s < 0 for _, s in w.letters):
        tables[-1] = _columns(spec.inverse_matrix(), spec.exact)
    cols = _leg_product(spec, n, [(tables[s], i, i + 1) for i, s in w.letters])
    if spec.exact:
        return RingMatrix._from_columns(len(cols), cols)
    import numpy as np

    return np.array(_coordinates(cols, range(len(cols)), 0j), dtype=complex).T.copy()


# -- JSON interface ----------------------------------------------------------

def r_matrix_from_json(data: dict) -> RMatrixSpec:
    d = int(data["dim"])
    ring = data["ring"]
    raw = data["matrix"]
    if ring == "complex":
        import numpy as np

        m = np.asarray([[complex(re, im) for re, im in row] for row in raw])
        return RMatrixSpec(d, ring, m)
    variable = _RING_VARIABLES.get(ring)
    grid = tuple(tuple(LaurentPoly.parse(s, variable) for s in row) for row in raw)
    return RMatrixSpec(d, ring, RingMatrix(d * d, d * d, grid))
