"""Seeded inputs and the single user-visible call ("op") of each workload.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned.  Inputs come only from the seed.

Size parameters (strand count, word length, inverse-letter count, KZ spec
shape) are drawn with stratified sampling: each workload cycles through its
strand counts in shuffled blocks, and continuous or binomial parameters are
read off a three-dimensional Kronecker (R3) sequence.  The marginal
distributions are the stated ones, but every prefix of the op stream already
matches them closely, so a time-limited run measures the same mix whatever
the seed.  The seed draws the order of each block, the generator indices,
the positions of inverse letters and the free letters of KZ words.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import braidrep
import braidrep.cli
import braidrep.yang_baxter
from braidrep import BraidWord, KzSpec

WORKLOADS = ("conway-mixed", "ybe-rq", "kz-monodromy", "cli-small")

# ops generated per workload; a run that gets through them all starts over
DECK_OPS = 2000

# ops per block: every block of a deck holds the same mix of sizes, and the
# timed phase runs whole blocks, so every run measures exactly that mix
BLOCK_OPS = {"conway-mixed": 7, "ybe-rq": 3, "kz-monodromy": 48, "cli-small": 23}

# ops in the traced run; fixed so that per-layer counts repeat exactly
TRACE_OPS = {"conway-mixed": 28, "ybe-rq": 24, "kz-monodromy": 48, "cli-small": 23}

KZ_TOL = 1e-9

# Steps of the R3 low-discrepancy sequence: 1/g^j for g the real root of
# x^4 = x + 1.  Unlike one step shared by all parameters, these keep the
# parameters of one op uncorrelated, so their joint spread is even too.
_R3_STEPS = (0.8191725133961645, 0.6710436067037893, 0.5497004779019703)


@dataclass(frozen=True)
class Op:
    """One op: its kind, its argument, and the key of its oracle pair."""

    kind: str
    arg: object
    pair: int = -1  # kz: ops with the same pair id must agree


class _Stratum:
    """u(b) = (1/2 + b * step) mod 1: an equidistributed sequence whose
    every prefix covers [0, 1) evenly."""

    def __init__(self, step: float):
        self.step = step

    def __call__(self, b: int) -> float:
        return (0.5 + b * self.step) % 1.0


def _binomial_quantile(n: int, u: float) -> int:
    """Smallest k with P(Binomial(n, 1/2) <= k) > u."""
    acc = 0
    for k in range(n + 1):
        acc += comb(n, k)
        if acc > u * 2**n:
            return k
    return n


def _word(rng: random.Random, n: int, length: int, inverse_count: int) -> BraidWord:
    inverse_at = set(rng.sample(range(length), inverse_count))
    return BraidWord(
        n, tuple((rng.randint(1, n - 1), -1 if k in inverse_at else 1) for k in range(length))
    )


def _blocks(rng: random.Random, keys, make_block, total: int) -> list:
    """Concatenate shuffled blocks until ``total`` ops exist.  ``make_block``
    maps (key, block index, strata) to a list of ops."""
    strata = tuple(_Stratum(step) for step in _R3_STEPS)
    ops: list = []
    b = 0
    while len(ops) < total:
        units = [make_block(key, b, strata) for key in keys]
        rng.shuffle(units)
        for unit in units:
            ops.extend(unit)
        b += 1
    return ops


def conway_deck(seed: int, total: int = DECK_OPS) -> list:
    """n uniform in 3..9, length uniform in 8..32, each letter inverse with
    probability 1/2 (inverse count binomial, positions uniform)."""
    rng = random.Random(f"conway-mixed/{seed}")

    def block(n, b, strata):
        u_len, u_inv, _ = strata
        length = 8 + int(u_len(b) * 25)
        return [Op("conway", _word(rng, n, length, _binomial_quantile(length, u_inv(b))))]

    return _blocks(rng, range(3, 10), block, total)


def ybe_deck(seed: int, total: int = DECK_OPS) -> list:
    """n uniform in 5..7 (dimension 32..128), length uniform in 4..8, half
    of the letters inverse (odd lengths round either way equally often)."""
    rng = random.Random(f"ybe-rq/{seed}")

    def block(n, b, strata):
        u_len, u_round, _ = strata
        length = 4 + int(u_len(b) * 5)
        inverse_count = (length + (u_round(b) < 0.5)) // 2
        return [Op("ybe", (n, _word(rng, n, length, inverse_count)))]

    return _blocks(rng, range(5, 8), block, total)


def kz_deck(seed: int, total: int = DECK_OPS) -> list:
    """Every (n, m, nullspace) with n in 3..6 and m in 1..3 once per block;
    lambda is 7/3 or 1/2 equally often, h uniform on the disc |h| <= 0.2.
    Each spec yields a pair of ops whose words differ by one braid relation:
    u s_i s_{i+1} s_i v and u s_{i+1} s_i s_{i+1} v."""
    rng = random.Random(f"kz-monodromy/{seed}")
    keys = [(n, m, null) for n in range(3, 7) for m in range(1, 4) for null in (False, True)]
    counter = itertools.count()

    def block(key, b, strata):
        n, m, null = key
        u_lam, u_radius, u_angle = strata
        lam = Fraction(7, 3) if u_lam(b) < 0.5 else Fraction(1, 2)
        h = 0.2 * u_radius(b) ** 0.5 * cmath.exp(2j * cmath.pi * u_angle(b))
        spec = KzSpec(n, lam, m, h=h, restrict_to_nullspace=null)
        i = rng.randint(1, n - 2)
        free = lambda: tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 2))
        )
        u, v = free(), free()
        left = BraidWord(n, u + ((i, 1), (i + 1, 1), (i, 1)) + v)
        right = BraidWord(n, u + ((i + 1, 1), (i, 1), (i + 1, 1)) + v)
        pair = next(counter)
        return [Op("kz", (spec, left), pair), Op("kz", (spec, right), pair)]

    return _blocks(rng, keys, block, total)


# The README's commands, with the stdout the README prints for the first
# three (byte for byte, trailing newline included).
README_COMMANDS = (
    (("alexander", "--n", "2", "s1 s1 s1"), '{"conway": "s^-2 - 1 + s^2", "components": 1}\n'),
    (
        ("braid", "--n", "3", "s1 s2^-1"),
        '{"permutation": [3, 1, 2], "cycles": [[1, 3, 2]], "pure": false, '
        '"exponent_sum": 0, "components": 1}\n',
    ),
    (("verma", "dims", "--n", "3", "--m", "2", "--lambda", "7/3"), '{"weight_dim": 6, "null_dim": 3}\n'),
    (("burau", "--n", "4", "--reduced", "s1 s2^-1 s3"), None),
    (("burau", "--n", "4", "s1 s2^-1 s3"), None),
    (("ybe", "--builtin", "rq"), None),
    (("verma", "omega", "--n", "3", "--m", "2", "--i", "1", "--j", "2", "--lambda", "7/3"), None),
    (
        ("kz", "monodromy", "--n", "3", "--m", "2", "--lambda", "1/2", "--h", "0.1+0.05i",
         "--word", "s1 s2", "--tol", "1e-9"),
        None,
    ),
    (("kz", "check", "--n", "3", "--m", "2", "--lambda", "1/2", "--h", "0.1+0.05i"), None),
    (("selftest", "--seed", "7"), None),
)

CLI_WORDS_PER_BLOCK = 10

# ``selftest`` takes about twice as long as any other command.  Four of the
# 23 ops of a block run it, so op_p90_ms falls near the middle of its times.
# With one in 20, the 90th percentile sat where the slowest other commands
# meet it, and ten runs of the same code spread it by 0.31 of its median;
# with three in 22, near the edge of its times, by 0.12.
CLI_SELFTESTS_PER_BLOCK = 4


def cli_deck(seed: int, total: int = DECK_OPS) -> list:
    """Each block: the ten README commands, three more ``selftest`` runs on
    seeded seeds, and ten seeded ``alexander`` calls on words with n in 2..4
    and 1..8 letters, shuffled."""
    rng = random.Random(f"cli-small/{seed}")
    ops: list = []
    while len(ops) < total:
        block = [Op("cli", (argv, expected)) for argv, expected in README_COMMANDS]
        for _ in range(CLI_SELFTESTS_PER_BLOCK - 1):
            block.append(Op("cli", (("selftest", "--seed", str(rng.randrange(10**6))), None)))
        for _ in range(CLI_WORDS_PER_BLOCK):
            n = rng.randint(2, 4)
            length = rng.randint(1, 8)
            w = _word(rng, n, length, sum(rng.random() < 0.5 for _ in range(length)))
            block.append(Op("cli", (("alexander", "--n", str(n), str(w)), None)))
        rng.shuffle(block)
        ops.extend(block)
    return ops


DECKS = {
    "conway-mixed": conway_deck,
    "ybe-rq": ybe_deck,
    "kz-monodromy": kz_deck,
    "cli-small": cli_deck,
}


def make_deck(workload: str, seed: int) -> list:
    return DECKS[workload](seed)


def deck_digest(deck: list) -> str:
    """sha256 over a canonical text form of the ops, to show two runs share
    their inputs."""
    h = hashlib.sha256()
    for op in deck:
        h.update(canonical(op).encode())
        h.update(b"\n")
    return h.hexdigest()


def canonical(op: Op) -> str:
    if op.kind == "conway":
        return f"conway {op.arg.n} {op.arg.letters}"
    if op.kind == "ybe":
        n, w = op.arg
        return f"ybe {n} {w.letters}"
    if op.kind == "kz":
        spec, w = op.arg
        return (
            f"kz {spec.n} {spec.lam} {spec.m} {spec.h!r} {spec.restrict_to_nullspace} "
            f"{w.letters} {op.pair}"
        )
    argv, expected = op.arg
    return f"cli {argv!r} {expected!r}"


# -- the ops ------------------------------------------------------------------
# Each call goes through the module attribute at call time, so wrappers the
# tracer installs are seen.


def run_conway(w: BraidWord):
    return braidrep.alexander_conway(w)


def run_ybe(arg):
    yb = braidrep.yang_baxter
    n, w = arg
    return yb.rep_from_r(yb.rq_r(), n, w)


def run_kz(arg):
    spec, w = arg
    return braidrep.monodromy(spec, w, KZ_TOL)
