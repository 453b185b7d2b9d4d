"""Numerical holonomy of the KZ connection on Verma weight spaces.

The connection is A = pref * sum_{i<j} Omega^{ij} (dz_i - dz_j)/(z_i - z_j)
on the trivial bundle over the ordered configuration space, restricted to a
weight-graded piece W[n lam - 2m] (optionally to its nullvector subspace).
Two parameter conventions are exposed, pref = h / (2 pi i) and pref = 1/tau;
internally everything is one complex prefactor.  The Omegas of one spec
are held as a stacked (P, d, d) array, read off the sparse Omega action in
one pass over the weight basis together with the leg swaps, built once and
shared by every entry point, so the connection is one product of the P dlog
coefficients with it.

Braid generators are represented by counterclockwise half-turns of the two
moving points about their midpoint (clockwise for the inverse letter);
holonomy of a letter is leg-swap composed with parallel transport along the
open path, the concrete model of the connection descended to the unordered
configuration space.  A word's monodromy multiplies letter holonomies with
the first letter acting first (column convention), so with h = 0 the result
is exactly the permutation operator of the word.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .laurent import _coordinates
from .verma import _null_vectors, _omega_act, as_scalar, is_generic, weight_dim, weight_space_basis
from .words import BraidWord

MIN_POINT_DISTANCE = 1e-9

# Work budget of one parallel_transport or monodromy call, over all its
# segments and letters, in DP5 step attempts (accepted or rejected) times d^3,
# with d taken as at least 48: a step costs about 1.2-3.4e-9 s per d^3 unit at
# d >= 81, and about 0.3 ms of fixed overhead at d <= 20 (2 CPUs).  The
# largest call of the tests does 7.0e7 units (d = 15, 635 attempts); one
# letter at the size limit, d = 462, does 2.1-2.4e9 (21-24 attempts at |h|
# 0.1-0.2), so the budget admits words of four letters there.
MAX_TRANSPORT_WORK = 10**10


@dataclass(frozen=True)
class PathSegment:
    """One closed-form curve s in [0,1] -> n point positions with derivative."""

    position: Callable
    velocity: Callable


@dataclass(frozen=True)
class ConfigPath:
    """A piecewise-smooth path of n labelled points in the plane."""

    n: int
    segments: tuple


def _pair_path(n: int, i: int, offset, doffset) -> ConfigPath:
    """z_i and z_{i+1} at c - offset(s) and c + offset(s), c = i + 1/2, with
    velocities -doffset(s) and doffset(s); all other points sit at their
    integer base positions."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    c = i + 0.5

    def pos(s: float) -> np.ndarray:
        z = np.arange(1, n + 1, dtype=complex)
        r = offset(s)
        z[i - 1] = c - r
        z[i] = c + r
        return z

    def vel(s: float) -> np.ndarray:
        v = np.zeros(n, dtype=complex)
        r = doffset(s)
        v[i - 1] = -r
        v[i] = r
        return v

    return ConfigPath(n, (PathSegment(pos, vel),))


def generator_path(n: int, i: int, sign: int = 1) -> ConfigPath:
    """Half-turn of z_i and z_{i+1} about their midpoint with radius 1/2,
    counterclockwise for sign=+1, clockwise for sign=-1."""
    w = sign * math.pi
    return _pair_path(
        n, i, lambda s: 0.5 * cmath.exp(1j * w * s), lambda s: 0.5j * w * cmath.exp(1j * w * s)
    )


def pure_loop_path(n: int, i: int, semi_axes=(0.5, 0.5)) -> ConfigPath:
    """Full counterclockwise loop of z_i and z_{i+1} about their midpoint,
    tracing an ellipse with the given semi-axes; realizes sigma_i^2."""
    rx, ry = semi_axes

    def offset(s):
        ang = 2 * math.pi * s
        return rx * math.cos(ang) + 1j * ry * math.sin(ang)

    def doffset(s):
        ang = 2 * math.pi * s
        return 2 * math.pi * (-rx * math.sin(ang) + 1j * ry * math.cos(ang))

    return _pair_path(n, i, offset, doffset)


@dataclass(frozen=True)
class KzSpec:
    """Parameters of a KZ transport problem on W[n lam - 2m].

    Exactly one of ``h`` (pref = h / 2 pi i) and ``tau`` (pref = 1 / tau)
    must be given.
    """

    n: int
    lam: object
    m: int
    h: object = None
    tau: object = None
    restrict_to_nullspace: bool = False

    def __post_init__(self):
        if (self.h is None) == (self.tau is None):
            raise ValueError("give exactly one of h and tau")
        if self.n < 2:
            raise ValueError("need at least two strands")
        if self.m < 0:
            raise ValueError(f"weight level m must be non-negative, got {self.m}")
        for name in ("lam", "h", "tau"):
            value = getattr(self, name)
            if value is not None and not cmath.isfinite(complex(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.tau is not None and complex(self.tau) == 0:
            raise ValueError("tau must be nonzero")

    @property
    def prefactor(self) -> complex:
        if self.h is not None:
            return complex(self.h) / (2j * math.pi)
        return 1.0 / complex(self.tau)


@dataclass(frozen=True)
class MonodromyResult:
    """Transport matrix with an accumulated local-error estimate."""

    matrix: np.ndarray
    est_error: float
    steps: int


class KzSystem:
    """Stacked Omega placements and leg-swap operators for one KzSpec.

    ``omegas`` stacks Omega^{ij} for (i, j) in ``pairs`` (i < j,
    lexicographic) as a (P, d, d) array, and ``swaps[i - 1]`` is the leg
    swap of sigma_i; the entry points share one system per spec.  Column k
    of each is the image of the k-th weight basis vector, under the sparse
    Omega action on one leg pair or with legs i and i + 1 exchanged.

    With ``restrict_to_nullspace`` each operator X is compressed to the
    nullspace basis B of ``nullspace_matrix``: X maps N[n lam - 2m] into
    itself, so X B = B C, and since the first rows of B are the identity,
    C is the first rows of X B, computed as the first rows of X times B.
    """

    def __init__(self, spec: KzSpec):
        self.spec = spec
        n, m = spec.n, spec.m
        lam_c = complex(spec.lam)
        unit = lam_c - lam_c + 1
        self.pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        self._legs = np.array(self.pairs).T - 1
        indices = weight_space_basis(n, lam_c, m).indices
        position = {idx: k for k, idx in enumerate(indices)}
        self.dim = len(indices)
        omegas = np.zeros((len(self.pairs), self.dim, self.dim), dtype=complex)
        swaps = np.zeros((n - 1, self.dim, self.dim), dtype=complex)
        for k, idx in enumerate(indices):
            for p, pair in enumerate(self.pairs):
                for tgt, c in _omega_act({idx: unit}, (pair,), lam_c).items():
                    omegas[p, position[tgt], k] = c
            for i in range(1, n):
                swaps[i - 1, position[idx[: i - 1] + (idx[i], idx[i - 1]) + idx[i + 1 :]], k] = unit
        if spec.restrict_to_nullspace:
            basis = nullspace_matrix(n, spec.lam, m)
            self.dim = basis.shape[1]
            omegas = np.ascontiguousarray(omegas[:, : self.dim] @ basis)
            swaps = swaps[:, : self.dim] @ basis
        self.omegas, self.swaps = omegas, swaps

    def connection(self, positions, velocities) -> np.ndarray:
        z = np.asarray(positions, dtype=complex)
        v = np.asarray(velocities, dtype=complex)
        i, j = self._legs
        dz = z[i] - z[j]
        dist = np.abs(dz)
        if dist.min() < MIN_POINT_DISTANCE:
            closest = int(np.argmin(dist))
            a, b = self.pairs[closest]
            raise ValueError(f"points {a} and {b} collide (|dz| = {dist[closest]:.2e})")
        coeffs = self.spec.prefactor * (v[i] - v[j]) / dz
        return (coeffs @ self.omegas.reshape(len(coeffs), -1)).reshape(self.dim, self.dim)


# One system per spec: KzSpec is frozen and hashable, and every entry point
# below goes through this cache, which keeps only the latest system alive.
_system = lru_cache(maxsize=1)(KzSystem)


def nullspace_matrix(n: int, lam, m: int) -> np.ndarray:
    """Columns spanning N[n lam - 2m] as a complex matrix, for generic
    rational or complex weights.  Column J is the null vector that is 1 at
    the multi-index J with j_1 = 0 and 0 at every other such index; these
    indices come first in the weight basis, so the top rows are the
    identity.  Rational weights are solved exactly and then rounded."""
    lam = as_scalar(lam)
    if not is_generic(lam, m):
        raise ValueError(f"highest weight {lam} is degenerate for m={m}")
    coords = _coordinates(_null_vectors(n, lam, m), weight_space_basis(n, lam, m).indices, 0)
    return np.array(coords, dtype=complex).reshape(len(coords), weight_dim(n, m)).T.copy()


def connection_value(spec: KzSpec, point, velocity) -> np.ndarray:
    """The connection 1-form evaluated on one tangent vector."""
    return _system(spec).connection(point, velocity)


# Dormand-Prince 5(4) pair
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _check_tolerance(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _transport_segment(afun, psi: np.ndarray, tol: float, attempts: int):
    """Integrate Psi' = A(s) Psi over s in [0,1] with adaptive embedded
    Dormand-Prince steps; deterministic acceptance, mixed abs/rel control.
    ``attempts`` counts the whole call's step attempts against one budget."""
    s = 0.0
    hstep = 0.1
    est = 0.0
    steps = 0
    max_attempts = MAX_TRANSPORT_WORK // max(len(psi), 48) ** 3
    while s < 1.0:
        hstep = min(hstep, 1.0 - s)
        if hstep < 1e-14:
            raise ArithmeticError("step size underflow in parallel transport")
        attempts += 1
        if attempts > max_attempts:
            raise ArithmeticError(
                f"parallel transport at dimension {len(psi)} needs over {max_attempts} steps "
                f"(work budget {MAX_TRANSPORT_WORK:.0e} steps x d^3)"
            )
        k = []
        for c_i, a_row in zip(_DP_C, _DP_A):
            y = psi
            for a, kj in zip(a_row, k):
                if a:
                    y = y + (hstep * a) * kj
            k.append(afun(s + c_i * hstep) @ y)
        psi5 = psi
        psi4 = psi
        for b5, b4, kj in zip(_DP_B5, _DP_B4, k):
            if b5:
                psi5 = psi5 + (hstep * b5) * kj
            if b4:
                psi4 = psi4 + (hstep * b4) * kj
        local = float(np.max(np.abs(psi5 - psi4)))
        scale = tol * max(1.0, float(np.max(np.abs(psi5))))
        if local <= scale:
            psi = psi5
            s += hstep
            est += local
            steps += 1
            grow = 5.0 if local == 0.0 else min(5.0, 0.9 * (scale / local) ** 0.2)
            hstep *= max(0.2, grow)
        else:
            hstep *= max(0.2, 0.9 * (scale / local) ** 0.2)
        if not np.isfinite(psi).all():
            raise ArithmeticError("non-finite transport value")
    return psi, est, steps, attempts


def _transport(system: KzSystem, path: ConfigPath, tol: float, attempts: int = 0):
    """Parallel transport along a path, starting from the identity frame,
    and the step attempts counted so far."""
    psi = np.eye(system.dim, dtype=complex)
    est, steps = 0.0, 0
    for seg in path.segments:
        afun = lambda s: system.connection(seg.position(s), seg.velocity(s))
        psi, seg_est, seg_steps, attempts = _transport_segment(afun, psi, tol, attempts)
        est += seg_est
        steps += seg_steps
    return MonodromyResult(psi, est, steps), attempts


def parallel_transport(spec: KzSpec, path: ConfigPath, tol: float = 1e-9) -> MonodromyResult:
    """Parallel transport along a path, starting from the identity frame."""
    _check_tolerance(tol)
    return _transport(_system(spec), path, tol)[0]


def monodromy(spec: KzSpec, w: BraidWord, tol: float = 1e-9) -> MonodromyResult:
    """Holonomy of a braid word: per letter, transport along the half-turn
    path composed with the leg swap; letters act first-to-last."""
    _check_tolerance(tol)
    if w.n != spec.n:
        raise ValueError(f"word on {w.n} strands does not match spec n={spec.n}")
    system = _system(spec)
    total = np.eye(system.dim, dtype=complex)
    est, steps, attempts = 0.0, 0, 0
    for i, sign in w.letters:
        letter, attempts = _transport(system, generator_path(spec.n, i, sign), tol, attempts)
        total = system.swaps[i - 1] @ letter.matrix @ total  # first letter acts first
        est += letter.est_error
        steps += letter.steps
    return MonodromyResult(total, est, steps)


def flatness_residual(spec: KzSpec, point, tangent_u, tangent_v) -> float:
    """Relative size of the curvature 2-form on a tangent pair.

    The 1-forms are closed, so the curvature reduces to the commutator
    [A(u), A(v)] of the connection values; with the Kohno-Drinfeld
    relations in force this vanishes to rounding error.
    """
    a_u, a_v = (connection_value(spec, point, t) for t in (tangent_u, tangent_v))
    num = float(np.max(np.abs(a_u @ a_v - a_v @ a_u)))
    den = float(np.max(np.abs(a_u)) * np.max(np.abs(a_v)))
    return num / den if den > 0 else num


def homotopy_invariance_check(spec: KzSpec, tol: float = 1e-10) -> float:
    """Transport along two homotopic realizations of the sigma_1^2 loop
    (round circle vs 0.5 x 0.3 ellipse) and return the difference norm."""
    circle = pure_loop_path(spec.n, 1, (0.5, 0.5))
    ellipse = pure_loop_path(spec.n, 1, (0.5, 0.3))
    t_circle = parallel_transport(spec, circle, tol)
    t_ellipse = parallel_transport(spec, ellipse, tol)
    return float(np.max(np.abs(t_circle.matrix - t_ellipse.matrix)))
