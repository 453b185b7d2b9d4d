"""Braid group representations and invariants.

Three constructions of braid representations live here, together with the
knot invariant the first one produces:

* exact Burau and reduced Burau matrices over Z[t, t^-1], with the
  Alexander-Conway polynomial of braid closures (``burau``, ``alexander``);
* Yang-Baxter solutions and the induced actions on tensor powers
  (``yang_baxter``);
* numerical monodromy of the KZ connection on weight spaces of sl2 Verma
  tensor products, including the nullspace representations (``verma``,
  ``kz``).
"""

from .alexander import ConwayResult, alexander_conway, markov_f, markov_invariance_check, skein_check
from .burau import BurauImage, burau, conjugation_check, reduced_burau, reduced_generator, unreduced_generator
from .laurent import ExactDivisionError, LaurentPoly, RingMatrix, exact_div
from .verma import WeightBasis, nullspace_basis, tensor_act, verma_act, weight_space_basis
from .words import (
    BraidWord,
    Permutation,
    closure_component_count,
    exponent_sum,
    markov_conjugate,
    markov_stabilize,
    underlying_permutation,
)

__version__ = "0.1.0"

# The KZ layer needs numpy; the exact layers do not, so it loads on first use.
_KZ_NAMES = {"ConfigPath", "KzSpec", "MonodromyResult", "generator_path", "monodromy", "parallel_transport"}


def __getattr__(name: str):
    if name in _KZ_NAMES:
        from . import kz

        return getattr(kz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BraidWord",
    "BurauImage",
    "ConfigPath",
    "ConwayResult",
    "ExactDivisionError",
    "KzSpec",
    "LaurentPoly",
    "MonodromyResult",
    "Permutation",
    "RingMatrix",
    "WeightBasis",
    "alexander_conway",
    "burau",
    "closure_component_count",
    "conjugation_check",
    "exact_div",
    "exponent_sum",
    "generator_path",
    "markov_conjugate",
    "markov_f",
    "markov_invariance_check",
    "markov_stabilize",
    "monodromy",
    "nullspace_basis",
    "parallel_transport",
    "reduced_burau",
    "reduced_generator",
    "skein_check",
    "tensor_act",
    "underlying_permutation",
    "unreduced_generator",
    "verma_act",
    "weight_space_basis",
]
