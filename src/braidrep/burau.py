"""Burau and reduced Burau representations as exact Laurent-matrix values.

Generator images follow the classical block matrices over Z[t, t^-1]:
the unreduced U_i carries the 2x2 block [[1-t, t], [1, 0]] at position i,
and the reduced V_i are the (n-1)x(n-1) companions related to U_i by
conjugation with the upper-triangular all-ones matrix C.  Each generator
and its inverse differ from the identity only in one column (V_i) or two
columns (U_i), and the inverses are written in closed form.  Words map to
products of generator matrices in word order, multiplied out on sparse
columns by laurent's column product, which rewrites only those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentPoly, RingMatrix, _column_product
from .words import BraidWord

T = LaurentPoly.var("t")
_ONE = LaurentPoly.constant(1)
_TINV = T.unit_inverse()


@dataclass(frozen=True)
class BurauImage:
    """A Burau matrix tagged with its strand count and variant."""

    n: int
    reduced: bool
    matrix: RingMatrix


@lru_cache(maxsize=None)
def _columns(n: int, i: int, sign: int, reduced: bool) -> tuple:
    """The columns in which a generator image differs from the identity.

    Returns ``((col, ((row, entry), ...)), ...)`` with 0-indexed positions;
    rows not listed are zero.  V_i^{+-1} differs in column j = i-1 only,
    with (t, -t, 1), resp. (1, -t^-1, t^-1), on rows j-1, j, j+1 clipped to
    the matrix.  U_i^{+-1} differs in columns j and j+1 (its 2x2 block).
    """
    j = i - 1
    if reduced:
        entries = (T, -T, _ONE) if sign == 1 else (_ONE, -_TINV, _TINV)
        rows = tuple((j - 1 + d, e) for d, e in enumerate(entries) if 0 <= j - 1 + d < n - 1)
        return ((j, rows),)
    if sign == 1:
        return ((j, ((j, _ONE - T), (j + 1, _ONE))), (j + 1, ((j, T),)))
    return ((j, ((j + 1, _TINV),)), (j + 1, ((j, _ONE), (j + 1, _ONE - _TINV))))


def _word_image(w: BraidWord, reduced: bool) -> BurauImage:
    """The product of the letters' generators, each given by the columns
    `_columns` lists, turned from sparse columns into sparse rows."""
    if w.n < 2:
        raise ValueError(f"{'reduced ' * reduced}Burau representation needs n >= 2")
    k = w.n - 1 if reduced else w.n
    cols = _column_product(k, _ONE, (_columns(w.n, i, s, reduced) for i, s in w.letters))
    return BurauImage(w.n, reduced, RingMatrix._from_columns(k, cols))


def burau(w: BraidWord) -> BurauImage:
    """The unreduced Burau matrix of a braid word (n >= 2)."""
    return _word_image(w, False)


def reduced_burau(w: BraidWord) -> BurauImage:
    """The reduced Burau matrix of a braid word, size (n-1) x (n-1)."""
    return _word_image(w, True)


def unreduced_generator(n: int, i: int, sign: int = 1) -> RingMatrix:
    """U_i^{sign}: the image of the one-letter word, i.e. the table's
    columns embedded into the identity."""
    return burau(BraidWord(n, ((i, sign),))).matrix


def reduced_generator(n: int, i: int, sign: int = 1) -> RingMatrix:
    """V_i^{sign}, embedded from the same table as the word images."""
    return reduced_burau(BraidWord(n, ((i, sign),))).matrix


def ones_upper_triangular(n: int) -> RingMatrix:
    return RingMatrix._sparse(n, n, [{c: _ONE for c in range(r, n)} for r in range(n)])


def conjugation_check(n: int, i: int) -> bool:
    """Verify U_i C = C W_i exactly, where W_i = [[V_i, 0], [X_i, 1]].

    X_i is the zero row except for a trailing 1 when i = n-1.
    """
    if n < 2:
        raise ValueError("conjugation check needs n >= 2")
    u = unreduced_generator(n, i, 1)
    c = ones_upper_triangular(n)
    v = reduced_generator(n, i, 1)
    last = {n - 2: _ONE, n - 1: _ONE} if i == n - 1 else {n - 1: _ONE}
    w = RingMatrix._sparse(n, n, v._sparse_rows + (last,))
    return (u @ c) == (c @ w)
