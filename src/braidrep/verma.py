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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .laurent import _coordinates

GENERATORS = ("H", "E", "F")

# Omega = sum of kappa^-1_ab x_a (x) x_b over the basis (H, E, F), with
# kappa(H, H) = 8 and kappa(E, F) = kappa(F, E) = 4 the only nonzero values.
# The order of the pairs fixes the order of the floating-point sums.
_OMEGA_PAIRS = (
    (("H", "H"), Fraction(1, 8)),
    (("E", "F"), Fraction(1, 4)),
    (("F", "E"), Fraction(1, 4)),
)


class DegenerateWeightWarning(UserWarning):
    """Emitted when a nullspace rank differs from its generic value."""


def as_scalar(lam):
    """Normalize a highest weight to Fraction (exact) or complex (numeric)."""
    if type(lam) in (Fraction, complex):
        return lam
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


@dataclass(frozen=True)
class WeightBasis:
    """Basis of the weight space of M_lam^(x)n at total lowering degree m:
    multi-indices (j_1, ..., j_n) with sum m, in lexicographic order."""

    n: int
    m: int
    lam: object
    indices: tuple

    def __len__(self):
        return len(self.indices)


def _compositions(n: int, m: int):
    """Compositions (j_1, ..., j_n) of m into non-negative parts, in
    lexicographic order: the gaps around n - 1 bars among m + n - 1 slots.
    combinations copies its pool, so one leg, with no bars, gets none."""
    for bars in combinations(range(m + n - 1) if n > 1 else (), n - 1):
        edges = (-1, *bars, m + n - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


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


def _accumulate(out: dict, idx, value) -> None:
    """Add value at idx of a sparse vector, dropping entries that cancel."""
    total = out.get(idx, 0) + value
    if total:
        out[idx] = total
    else:
        out.pop(idx, None)


def tensor_act(generator: str, vector: dict, n: int, lam, m: int) -> dict:
    """Coproduct action on a weight vector given as {multi-index: coeff} at
    lowering degree m; the result lives at degree m+1 (F), m-1 (E), m (H).
    E kills F^0 v, so it visits only the legs with j > 0."""
    lam = as_scalar(lam)
    out: dict = {}
    for idx, coeff in vector.items():
        idx = tuple(idx)
        if len(idx) != n or sum(idx) != m:
            raise ValueError(f"index {idx} is not a degree-{m} multi-index of length {n}")
        for leg in [leg for leg, j in enumerate(idx) if j] if generator == "E" else range(n):
            for jnew, c in verma_act(generator, idx[leg], lam):
                _accumulate(out, idx[:leg] + (jnew,) + idx[leg + 1 :], coeff * c)
    return out


def _omega_act(vector: dict, legs, lam) -> dict:
    """Sum of the Omega placements on the leg pairs ``legs`` (1-based, i < j),
    applied to a weight vector {multi-index: coeff}.  H(x)H acts diagonally;
    E(x)F and F(x)E move one lowering degree between the two legs."""
    out: dict = {}
    for i, j in legs:
        for idx, coeff in vector.items():
            for (xa, xb), c in _OMEGA_PAIRS:
                for ja, ca in verma_act(xa, idx[i - 1], lam):
                    for jb, cb in verma_act(xb, idx[j - 1], lam):
                        tgt = idx[: i - 1] + (ja,) + idx[i : j - 1] + (jb,) + idx[j:]
                        _accumulate(out, tgt, coeff * c * ca * cb)
    return out


# -- exact linear algebra over Fractions -------------------------------------

def _echelon_kernel(rows, columns) -> list:
    """Kernel of sparse rows {column: Fraction} (consumed) from their reduced
    row echelon form, keyed by pivot column with the pivot's 1 implicit.  Fed
    E bottom row first, each new pivot lies left of the earlier rows, which
    need no back-elimination.  One vector per free column f of ``columns``:
    1 at f and minus the pivot rows' f-entries at their pivot columns."""
    reduced = {}
    for row in rows:
        for p in [c for c in row if c in reduced]:
            a = -row.pop(p)
            for c, x in reduced[p].items():
                _accumulate(row, c, a * x)
        if row:
            p = min(row)
            pivot = row.pop(p)
            row = {c: x / pivot for c, x in row.items()}
            for other in reduced.values():
                if p in other:
                    a = -other.pop(p)
                    for c, x in row.items():
                        _accumulate(other, c, a * x)
            reduced[p] = row
    kernel = {f: {f: Fraction(1)} for f in columns if f not in reduced}
    for p, row in reduced.items():
        for f, x in row.items():
            kernel[f][p] = -x
    return list(kernel.values())


def is_generic(lam, m: int) -> bool:
    """The KZ layer's generic weights avoid the integers 0..2m; nullspace
    ranks can drop only on 0..m-1, as the triangular solve covers the rest."""
    lam = as_scalar(lam)
    if isinstance(lam, Fraction):
        return not (lam.denominator == 1 and 0 <= lam <= 2 * m)
    return all(abs(lam - k) > 1e-9 for k in range(2 * m + 1))


def _eliminates(lam, m: int) -> bool:
    """The weights where the nullspace rank can drop, and `_null_vectors` eliminates."""
    return isinstance(lam, Fraction) and lam.denominator == 1 and 0 <= lam < m


def _null_vectors(n: int, lam, m: int) -> list:
    """Basis of N[n lam - 2m] = ker E inside W[n lam - 2m], as sparse
    vectors {multi-index: c}, for Fraction and complex lam alike.

    At the integers lam in {0, ..., m-1}, where the rank can drop, it is the
    kernel of E's rows, read off the images of the unit vectors; a rank off
    the generic value warns.  Elsewhere there is one vector per J with
    j_1 = 0: 1 at J and 0 at the other such indices.  E lowers j_1 only on
    leg 1, sending (k+1, J') to (k, J') times (k+1)(lam-k), so the part of
    E v at j_1 = k fixes the layer j_1 = k+1 of v from layer k."""
    basis = weight_space_basis(n, lam, m)
    one = lam - lam + 1
    if _eliminates(lam, m):
        rows: dict = {}
        for idx in basis.indices:
            for tgt, c in tensor_act("E", {idx: one}, n, lam, m).items():
                rows.setdefault(tgt, {})[idx] = c
        # multi-indices compare in weight-basis order: feed E bottom row first
        kernel = _echelon_kernel((rows[t] for t in sorted(rows, reverse=True)), basis.indices)
        if len(kernel) != generic_null_dim(n, m):
            message = f"nullspace at lam={lam}, n={n}, m={m} has dimension {len(kernel)}"
            warnings.warn(f"{message} (generic value {generic_null_dim(n, m)})", DegenerateWeightWarning)
        return kernel
    out = []
    for start in basis.indices:
        if start[0]:
            break  # lexicographic order puts the j_1 = 0 indices first
        vector = {start: one}
        layer = {start[1:]: one}  # legs 2..n of the layer j_1 = k
        for k in range(m):
            pivot = (k + 1) * (lam - k)
            lowered = tensor_act("E", layer, n - 1, lam, m - k)
            layer = {rest: -c / pivot for rest, c in lowered.items()}
            vector.update({(k + 1,) + rest: c for rest, c in layer.items()})
        out.append(vector)
    return out


def _rational_weight(lam) -> Fraction:
    """``lam`` as a Fraction; exact results need a rational highest weight."""
    lam = as_scalar(lam)
    if not isinstance(lam, Fraction):
        raise TypeError(f"exact Verma computations need a rational highest weight, got {lam}")
    return lam


def nullspace_basis(n: int, lam, m: int) -> list:
    """Basis of N[n lam - 2m] = ker E inside W[n lam - 2m], exact over
    rationals: the vectors of ``_null_vectors``, which warns where the rank
    drops, as coordinate tuples in weight-basis order."""
    lam = _rational_weight(lam)
    return _coordinates(_null_vectors(n, lam, m), weight_space_basis(n, lam, m).indices, Fraction(0))


# -- relation checks, by exact sparse composition on every basis vector ------

def kd_relation_check(n: int, lam, m: int) -> bool:
    """Kohno-Drinfeld relations for the Omega placements on W[m]:
    disjoint pairs commute, and [O_ij, O_ik + O_jk] = 0 for all triples."""
    lam = _rational_weight(lam)
    one = Fraction(1)
    pairs = list(combinations(range(1, n + 1), 2))
    relations = [([a], [b]) for a, b in combinations(pairs, 2) if len({*a, *b}) == 4]
    for i, j, k in combinations(range(1, n + 1), 3):
        ij, ik, jk = (i, j), (i, k), (j, k)
        relations += [([ij], [ik, jk]), ([ik], [ij, jk]), ([jk], [ij, ik])]
    for idx in weight_space_basis(n, lam, m).indices:
        unit = {idx: one}
        for a, b in relations:
            ab = _omega_act(_omega_act(unit, b, lam), a, lam)
            if ab != _omega_act(_omega_act(unit, a, lam), b, lam):
                return False
    return True


def equivariance_check(n: int, lam, m: int) -> bool:
    """[Omega^{ij}, coproduct action of x] = 0 for x in {E, F, H}, checked
    from W[m]; consequently the Omega operators map nullvectors to
    nullvectors."""
    lam = _rational_weight(lam)
    one = Fraction(1)
    basis = weight_space_basis(n, lam, m)
    placements = [[p] for p in combinations(range(1, n + 1), 2)]
    for legs in placements:
        for idx in basis.indices:
            unit = {idx: one}
            for x in GENERATORS:
                lhs = _omega_act(tensor_act(x, unit, n, lam, m), legs, lam)
                if lhs != tensor_act(x, _omega_act(unit, legs, lam), n, lam, m):
                    return False
    for vector in _null_vectors(n, lam, m):
        if any(tensor_act("E", _omega_act(vector, legs, lam), n, lam, m) for legs in placements):
            return False
    return True
