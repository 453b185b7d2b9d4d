"""Alexander-Conway polynomials of braid closures via reduced Burau.

The invariant comes from the Markov function

    f_n(beta) = (-1)^(n+1) * s^(-e(beta)) * (s - s^-1)
                * g(det(reduced_burau(beta) - id)) / (s^n - s^-n),

where e is the exponent sum and g : Z[t,t^-1] -> Z[s,s^-1] sends t to s^2.
The division is exact by Markov-function invariance; divisibility is
verified at runtime and doubles as a correctness oracle for the whole
Burau pipeline.  Positive crossings of the closure correspond to the
generators sigma_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .burau import reduced_burau
from .laurent import LaurentPoly, RingMatrix, exact_div
from .words import BraidWord, closure_component_count, exponent_sum, markov_stabilize

S = LaurentPoly.var("s")
_SINV = S.unit_inverse()


@dataclass(frozen=True)
class ConwayResult:
    """Conway polynomial of a braid closure plus its component count."""

    poly: LaurentPoly
    components: int


def markov_f(w: BraidWord) -> LaurentPoly:
    """Value of the Burau-based Markov function on a word with n >= 2."""
    if w.n < 2:
        raise ValueError("the Markov function is defined for n >= 2")
    n = w.n
    rb = reduced_burau(w).matrix
    char = (rb - RingMatrix.identity(n - 1)).det()
    char_s = char.substitute_hom("t", S * S)
    sign = 1 if (n + 1) % 2 == 0 else -1
    numerator = (
        char_s
        * LaurentPoly.monomial(sign, "s", -exponent_sum(w))
        * (S - _SINV)
    )
    return exact_div(numerator, S ** n - _SINV ** n)


def alexander_conway(w: BraidWord) -> ConwayResult:
    """Conway polynomial of the closure of w; n = 1 is stabilized first."""
    components = closure_component_count(w)
    if w.n == 1:
        w = markov_stabilize(w, 1)
    return ConwayResult(markov_f(w), components)


def skein_check(prefix: BraidWord, i: int, suffix: BraidWord) -> bool:
    """Verify the skein identity on the braid-realized Conway triple.

    L+ = closure(prefix sigma_i suffix), L- with sigma_i^-1, L0 with the
    crossing removed; checks nabla(L+) - nabla(L-) = (s^-1 - s) nabla(L0)
    exactly.
    """
    if prefix.n != suffix.n:
        raise ValueError("strand count mismatch in skein triple")
    n = prefix.n
    pos = prefix * BraidWord(n, ((i, 1),)) * suffix
    neg = prefix * BraidWord(n, ((i, -1),)) * suffix
    smooth = prefix * suffix
    lhs = markov_f(pos) - markov_f(neg)
    rhs = (_SINV - S) * markov_f(smooth)
    return lhs == rhs


def markov_invariance_check(w: BraidWord, g: BraidWord) -> bool:
    """Both Markov moves leave f invariant: conjugation by g and the two
    stabilizations of w."""
    if w.n != g.n:
        raise ValueError("strand count mismatch")
    base = markov_f(w)
    if markov_f(g * w * g.inverse()) != base:
        return False
    for sign in (1, -1):
        if markov_f(markov_stabilize(w, sign)) != base:
            return False
    return True
