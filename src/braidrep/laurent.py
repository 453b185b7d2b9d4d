"""Exact one-variable Laurent polynomials and sparse matrices over them.

Every ring in this package is Z[v, v^-1] (or Q[v, v^-1]) in one named
variable: t for Burau, s for Alexander-Conway, q for r-matrices.  A
polynomial stores a map from integer exponents to nonzero int/Fraction
coefficients together with its variable name, which is ``None`` exactly
when the polynomial is constant.  Combining two different variables raises
``ValueError``.  Everything is immutable and all operations return new
values.

The canonical printed form lists terms in increasing exponent, e.g.
``s^-2 - 1 + s^2``; this string format is part of the CLI contract and
round-trips through :func:`LaurentPoly.parse`.

``RingMatrix`` stores sparse rows and computes determinants, adjugates and
inverses with one fraction-free elimination on them, whose divisions are
all exact.  Burau letters and r-matrix leg placements are multiplied out on
sparse columns by ``_column_product``, which ``RingMatrix`` turns into rows.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Mapping


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _norm_coeff(c):
    """Collapse integral Fractions to plain ints."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _clean(terms: dict) -> dict:
    """Drop zero coefficients and collapse integral Fractions."""
    return {e: c if type(c) is int else _norm_coeff(c) for e, c in terms.items() if c}


def _div_coeff(c, d):
    """c / d over Q, kept an int when d divides c."""
    if type(c) is int and type(d) is int and not c % d:
        return c // d
    return _norm_coeff(Fraction(c, d))


class LaurentPoly:
    """A Laurent polynomial in one named variable.

    ``terms`` maps integer exponents (possibly negative) to nonzero
    int/Fraction coefficients; ``variable`` is the variable name, or
    ``None`` for a constant.  This form is canonical, so equality and
    hashing compare the two fields.
    """

    __slots__ = ("variable", "terms")

    def __init__(self, variable: str | None = None, terms: Mapping | None = None):
        if variable is not None and not isinstance(variable, str):
            raise TypeError(f"variable name {variable!r} is not a string")
        clean = _clean({operator.index(e): c for e, c in (terms or {}).items()})
        if variable is None and any(clean):
            raise ValueError("a non-constant polynomial needs a variable name")
        self._set(variable, clean)

    @classmethod
    def _make(cls, variable: str | None, terms: dict) -> "LaurentPoly":
        """Wrap a clean term dict (int exponents, nonzero normalized
        coefficients) without re-checking it."""
        p = object.__new__(cls)
        p._set(variable, terms)
        return p

    def _set(self, variable, terms):
        object.__setattr__(self, "variable", variable if any(terms) else None)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c) -> "LaurentPoly":
        c = _norm_coeff(c)
        return LaurentPoly._make(None, {0: c} if c else {})

    @staticmethod
    def var(name: str) -> "LaurentPoly":
        return LaurentPoly(name, {1: 1})

    @staticmethod
    def monomial(c, variable: str, exponent: int) -> "LaurentPoly":
        return LaurentPoly(variable, {exponent: c})

    # -- canonical shape ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.variable == other.variable and self.terms == other.terms

    def __hash__(self):
        return hash((self.variable, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "LaurentPoly") -> str | None:
        """The variable of a result combining self and other."""
        a, b = self.variable, other.variable
        if a == b or b is None:
            return a
        if a is None:
            return b
        raise ValueError(f"cannot combine polynomials in {a!r} and {b!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        variable = self._common(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly._make(variable, _clean(out))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(self.variable, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly._make(self.variable, _clean({e: c * other for e, c in self.terms.items()}))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        variable = self._common(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                k = ea + eb
                out[k] = get(k, 0) + ca * cb
        return LaurentPoly._make(variable, _clean(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.unit_inverse() ** (-k)
        result = LaurentPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def unit_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial (the units of the Laurent ring)."""
        if len(self.terms) != 1:
            raise ExactDivisionError(f"{self} is not a unit monomial")
        ((e, c),) = self.terms.items()
        return LaurentPoly._make(self.variable, {-e: _div_coeff(1, c)})

    # -- display and parsing -----------------------------------------------

    def __str__(self):
        out = ""
        for e, c in sorted(self.terms.items()):
            mono = "" if e == 0 else self.variable if e == 1 else f"{self.variable}^{e}"
            ac = abs(c)
            if out:
                out += " - " if c < 0 else " + "
            elif c < 0:
                out = "-"
            out += str(ac) if not mono else mono if ac == 1 else f"{ac}*{mono}"
        return out or "0"

    def __repr__(self):
        return f"LaurentPoly({str(self)!r})"

    _TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^])")

    @staticmethod
    def parse(text: str, variable: str | None = None) -> "LaurentPoly":
        """Parse the canonical string form back into a polynomial.

        The first name in the text fixes the variable unless ``variable``
        is given; any other name raises ``ValueError``.
        """
        tokens = []
        pos = 0
        while pos < len(text):
            m = LaurentPoly._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad polynomial syntax near {text[pos:]!r}")
                break
            tokens.append(m.group(1))
            pos = m.end()
        tokens.reverse()  # consumed from the end

        def sign():
            s = 1
            while tokens and tokens[-1] in "+-":
                s = -s if tokens.pop() == "-" else s
            return s

        def integer():
            s = sign()
            if not (tokens and tokens[-1].isdigit()):
                raise ValueError("expected integer")
            return s * int(tokens.pop())

        terms: dict[int, Fraction] = {}
        while tokens:
            coeff, exp = Fraction(sign()), 0
            if not tokens:
                raise ValueError("dangling sign")
            while tokens:  # factors joined by '*'
                tok = tokens.pop()
                if tok in "+-*/^":
                    raise ValueError(f"unexpected token {tok!r}")
                if tok.isdigit():
                    coeff *= int(tok)
                    if tokens[-1:] == ["/"]:
                        tokens.pop()
                        coeff /= integer()
                else:
                    variable = variable or tok
                    if tok != variable:
                        raise ValueError(f"variable {tok!r} in a polynomial in {variable!r}")
                    exp += 1
                    if tokens[-1:] == ["^"]:
                        tokens.pop()
                        exp += integer() - 1
                if tokens[-1:] != ["*"]:
                    break
                tokens.pop()
            terms[exp] = terms.get(exp, 0) + coeff
        return LaurentPoly._make(variable, _clean(terms))

    # -- substitution ------------------------------------------------------

    def substitute_hom(self, name: str, image: "LaurentPoly") -> "LaurentPoly":
        """Ring homomorphism sending ``name`` to a unit monomial ``image``.

        The image c*s^k must be a single term so the map extends to negative
        exponents: t^e goes to c^e s^(ke) (e.g. t -> s^2 maps t^-1 to s^-2).
        """
        if len(image.terms) != 1:
            raise ValueError(f"substitution image {image} is not a unit monomial")
        if self.variable != name:
            return self
        ((k, c),) = image.terms.items()
        out = {}
        for e, a in self.terms.items():
            out[k * e] = out.get(k * e, 0) + a * (c ** e if e >= 0 else Fraction(1, c) ** -e)
        return LaurentPoly._make(image.variable, _clean(out))


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Return q with q*b = a exactly, or raise :class:`ExactDivisionError`.

    Long division over Q from the top exponent down.  A quotient exponent
    is at least min(a) - min(b), so a remainder term that would need a
    smaller one certifies non-divisibility.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    variable = a._common(b)
    bterms = b.terms
    top = max(bterms)
    lead = bterms[top]
    rem = dict(a.terms)
    low = min(rem, default=0) - min(bterms)
    out = {}
    while rem:
        shift = max(rem) - top
        if shift < low:
            raise ExactDivisionError(f"{a} is not divisible by {b}")
        c = out[shift] = _div_coeff(rem.pop(shift + top), lead)
        for e, bc in bterms.items():
            if e != top:
                k = e + shift
                v = rem.get(k, 0) - c * bc
                if v:
                    rem[k] = v
                else:
                    del rem[k]
    return LaurentPoly._make(variable, out)


def _column_product(size: int, one, factors) -> list:
    """The size x size identity right-multiplied by each factor in turn, as
    sparse columns ``{row: entry}``.  A factor lists ``(c, ((k, x), ...))``
    for the columns it changes: column c becomes the sum of x times the old
    column k.  Zeros drop by truth value, for LaurentPoly and complex alike."""
    zero = one - one
    cols = [{c: one} for c in range(size)]
    for factor in factors:
        new = []
        for c, terms in factor:
            acc = {}
            for k, x in terms:
                for row, v in cols[k].items():
                    acc[row] = acc.get(row, zero) + x * v
            new.append((c, {row: v for row, v in acc.items() if v}))
        for c, col in new:
            cols[c] = col
    return cols


def _coordinates(vectors, keys, zero) -> list:
    """Sparse vectors {key: c} as coordinate tuples in the order of ``keys``."""
    position = {k: i for i, k in enumerate(keys)}
    coords = [[zero] * len(position) for _ in vectors]
    for row, vector in zip(coords, vectors):
        for k, c in vector.items():
            row[position[k]] = c
    return [tuple(row) for row in coords]


class RingMatrix:
    """Immutable matrix over LaurentPoly with exact arithmetic, stored as
    sparse rows ``{col: entry}`` that hold no zero entry; ``entries`` is
    the dense grid, built on request."""

    __slots__ = ("rows", "cols", "_sparse_rows")

    def __init__(self, rows: int, cols: int, entries):
        if rows > 0 and cols > 0 and (len(entries) != rows or any(len(r) != cols for r in entries)):
            raise ValueError("entry grid does not match dimensions")
        self._set(rows, cols, [{j: e for j, e in enumerate(row) if e} for row in entries])

    @classmethod
    def _sparse(cls, rows: int, cols: int, sparse_rows) -> "RingMatrix":
        """Wrap sparse rows that hold no zero entry; stored rows are shared, never mutated."""
        return object.__new__(cls)._set(rows, cols, sparse_rows)

    @classmethod
    def _from_columns(cls, rows: int, columns) -> "RingMatrix":
        """Sparse columns ``{row: entry}`` with no zero entry, as a matrix."""
        sparse_rows = [{} for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, e in col.items():
                sparse_rows[i][j] = e
        return cls._sparse(rows, len(columns), sparse_rows)

    def _set(self, rows, cols, sparse_rows):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        for name, value in zip(self.__slots__, (rows, cols, tuple(sparse_rows))):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *a):
        raise AttributeError("RingMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._sparse_rows) == (other.rows, other.cols, other._sparse_rows)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._sparse_rows)))

    @property
    def entries(self) -> tuple:
        """The dense grid of entries, zeros included."""
        zero = LaurentPoly.constant(0)
        return tuple(tuple(row.get(j, zero) for j in range(self.cols)) for row in self._sparse_rows)

    @staticmethod
    def from_rows(rows) -> "RingMatrix":
        grid = [[x if isinstance(x, LaurentPoly) else LaurentPoly.constant(x) for x in row] for row in rows]
        return RingMatrix(len(grid), len(grid[0]), grid)

    @staticmethod
    def identity(k: int) -> "RingMatrix":
        one = LaurentPoly.constant(1)
        return RingMatrix._sparse(k, k, [{i: one} for i in range(k)])

    def __getitem__(self, idx):
        i, j = idx
        return self._sparse_rows[i].get(range(self.cols)[j], LaurentPoly.constant(0))

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bt = list(zip(*other.entries))
        grid = []
        for row in self.entries:
            nz = [(k, p) for k, p in enumerate(row) if p.terms]
            out_row = []
            for col in bt:
                acc = LaurentPoly.constant(0)
                for k, p in nz:
                    q = col[k]
                    if q.terms:
                        acc = acc + p * q
                out_row.append(acc)
            grid.append(tuple(out_row))
        return RingMatrix(self.rows, other.cols, tuple(grid))

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in addition")
        zero = LaurentPoly.constant(0)
        out = [
            {j: v for j in a.keys() | b.keys() if (v := a.get(j, zero) + b.get(j, zero))}
            for a, b in zip(self._sparse_rows, other._sparse_rows)
        ]
        return RingMatrix._sparse(self.rows, self.cols, out)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "RingMatrix":
        out = [{j: v for j, e in row.items() if (v := e * c)} for row in self._sparse_rows]
        return RingMatrix._sparse(self.rows, self.cols, out)

    def transpose(self) -> "RingMatrix":
        return RingMatrix._from_columns(self.cols, self._sparse_rows)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == RingMatrix.identity(self.rows)

    # -- elimination -------------------------------------------------------

    def _eliminate(self, augment: bool):
        """Fraction-free (Bareiss) elimination on sparse rows ``{col: entry}``.

        At step k every row i below k (every row i != k when ``augment``)
        and every column j > k gets ``(p*a_ij - a_ik*a_kj) / prev``, with p
        the pivot a_kk and prev the previous pivot.  Each such entry is a
        minor, so the division is exact: by ``unit_inverse`` when prev is a
        monomial, by the runtime-checked :func:`exact_div` otherwise.  A
        zero pivot swaps in the first lower row with a nonzero entry.

        Returns ``(sign, p, right)`` with det = sign*p for the last pivot p
        (zero for a singular matrix, which ``augment`` refuses).  With
        ``augment`` the pass is Gauss-Jordan on [M | I]: the left block ends
        as p*I and ``right``, the right block, is p*M^-1; otherwise it is None.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant, adjugate or inverse of a non-square matrix")
        rows = [dict(row) for row in self._sparse_rows]
        if augment:
            one = LaurentPoly.constant(1)
            for i, row in enumerate(rows):
                row[n + i] = one
        sign, prev = 1, LaurentPoly.constant(1)
        for k in range(n):
            r = next((r for r in range(k, n) if k in rows[r]), None)
            if r is None:
                if augment:
                    raise ExactDivisionError("singular matrix")
                return sign, LaurentPoly.constant(0), None
            if r != k:
                rows[k], rows[r] = rows[r], rows[k]
                sign = -sign
            pivot_row = rows[k]
            p = pivot_row.pop(k)  # the left block stays implicit: p on the diagonal
            inv = prev.unit_inverse() if prev.is_monomial() else None
            for i in range(0 if augment else k + 1, n):
                if i == k or (k not in rows[i] and p == prev):
                    continue  # the pivot row, or a row that p / prev leaves unchanged
                row = rows[i]
                a = row.pop(k, None)
                new = {j: p * x for j, x in row.items()}
                if a is not None:
                    for j, y in pivot_row.items():
                        new[j] = new[j] - a * y if j in new else -(a * y)
                rows[i] = {
                    j: v * inv if inv is not None else exact_div(v, prev)
                    for j, v in new.items()
                    if v.terms
                }
            prev = p
        if not augment:
            return sign, prev, None
        right = [{j - n: v for j, v in row.items()} for row in rows]
        return sign, prev, RingMatrix._sparse(n, n, right)

    def det(self) -> LaurentPoly:
        """Exact determinant by forward fraction-free elimination."""
        sign, p, _ = self._eliminate(False)
        return -p if sign < 0 else p

    def adjugate(self) -> "RingMatrix":
        """Adjugate det(M) M^-1, from one Gauss-Jordan pass on [M | I].

        Defined for nonsingular matrices only: a singular one raises
        :class:`ExactDivisionError`.
        """
        sign, _, right = self._eliminate(True)
        return right if sign > 0 else right.scale(-1)

    def inverse_unit_det(self) -> "RingMatrix":
        """Exact inverse; raises :class:`ExactDivisionError` unless the
        determinant is a unit (a monomial)."""
        _, p, right = self._eliminate(True)
        return right.scale(p.unit_inverse())

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        entries = [["0"] * self.cols for _ in self._sparse_rows]
        for line, row in zip(entries, self._sparse_rows):
            for j, e in row.items():
                line[j] = str(e)
        return {"rows": self.rows, "cols": self.cols, "entries": entries}
