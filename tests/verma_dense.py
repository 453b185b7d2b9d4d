"""Dense reference matrices of the Verma actions, for the tests only.

Each builder enumerates its weight basis on its own and densifies a sparse
action of the library into a plain list of rows: column J is the image of
the unit vector at J, and absent entries are lam's zero (a Fraction for
rational weights, a complex zero otherwise).
"""

from braidrep.laurent import _coordinates
from braidrep.verma import _omega_act, as_scalar, tensor_act, weight_space_basis


def _dense_block(action, dom, cod) -> list:
    """Matrix (list of rows) of a sparse action from basis dom to basis cod."""
    zero = dom.lam - dom.lam
    columns = _coordinates([action({idx: zero + 1}) for idx in dom.indices], cod.indices, zero)
    return [list(row) for row in zip(*columns)] if columns else [[] for _ in cod.indices]


def tensor_generator_matrix(generator: str, n: int, lam, m: int) -> list:
    """The coproduct (Leibniz) action of a generator as a map W[m] -> W[m'],
    where m' = m+1 for F, m-1 for E, m for H."""
    lam = as_scalar(lam)
    delta = {"F": 1, "E": -1, "H": 0}[generator]
    dom = weight_space_basis(n, lam, m)
    cod = weight_space_basis(n, lam, m + delta)
    return _dense_block(lambda v: tensor_act(generator, v, n, lam, m), dom, cod)


def casimir_eigenvalue(lam):
    """(lam^2 + 2 lam) / 8, the Casimir scalar on M_lam."""
    lam = as_scalar(lam)
    return (lam * lam + 2 * lam) / 8


def omega_matrix(n: int, i: int, j: int, lam, m: int) -> list:
    """Omega acting on legs (i, j) of W[n lam - 2m]."""
    lam = as_scalar(lam)
    basis = weight_space_basis(n, lam, m)
    return _dense_block(lambda v: _omega_act(v, [(i, j)], lam), basis, basis)


def leg_permutation_matrix(n: int, lam, m: int, images) -> list:
    """Permutation operator on W[m] induced by permuting tensor legs.

    ``images`` are 1-based images of legs 1..n; the basis vector with
    multi-index J maps to the one with entries J'_k = J_{perm^{-1}(k)}.
    """
    basis = weight_space_basis(n, as_scalar(lam), m)
    source = {image - 1: leg for leg, image in enumerate(images)}
    return _dense_block(
        lambda v: {tuple(idx[source[k]] for k in range(n)): c for idx, c in v.items()}, basis, basis
    )
