"""Command-line interface: JSON in, JSON out.

Subcommands: braid, burau, alexander, ybe, verma, kz, selftest.  Exit code
0 on success, 1 on computation errors (reported as {"error": ...}), 2 on
usage errors.  Complex numbers are "a+bi" strings on input and [re, im]
pairs on output; rational weights are "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import alexander, verma, words
from .burau import burau as burau_matrix
from .burau import conjugation_check
from .burau import reduced_burau as reduced_burau_matrix


def parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j").replace(" ", ""))


def parse_weight(text: str):
    """Rational "p/q" (kept exact) or complex "a+bi"."""
    text = text.strip()
    if "i" in text or "j" in text:
        return parse_complex(text)
    return Fraction(text)


def complex_pairs(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _word(args) -> words.BraidWord:
    return words.BraidWord.parse(args.word, args.n)


# Strand limits, each set at a case measured as a child process on 2 CPUs
# (wall time, peak RSS; README, "Input limits").
MAX_BRAID_N = 300_000  # braid: n = 300000 took 0.5-0.8 s, 75 MB (s1, and a 20-letter word)
MAX_BURAU_N = 2000  # burau (n^2 JSON entries, nearly all "0"): n = 2000 took 0.4-0.8 s, 89-90 MB
# alexander: the determinant does about (n-1)^3 updates of minors with up to
# L+1 terms for L letters; at (n-1)^3 (L+1)^2 = 4e7 positive seeded words took
# at most 2.2 s, 18 MB (n = 3, 4, 8), and n = 342 with no letters 0.1-0.15 s
MAX_ALEXANDER_WORK = 4 * 10**7


def _check_strands(n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(f"strand count {n} is over the limit {limit}")


def cmd_braid(args) -> dict:
    _check_strands(args.n, MAX_BRAID_N)
    w = _word(args)
    perm = words.underlying_permutation(w)
    cycles = perm.cycles()
    return {
        "permutation": list(perm.images),
        "cycles": cycles,
        "pure": perm.is_identity(),
        "exponent_sum": words.exponent_sum(w),
        "components": len(cycles),
    }


def cmd_burau(args) -> dict:
    _check_strands(args.n, MAX_BURAU_N)
    w = _word(args)
    image = reduced_burau_matrix(w) if args.reduced else burau_matrix(w)
    return {"n": image.n, "reduced": image.reduced, "matrix": image.matrix.to_json()}


def cmd_alexander(args) -> dict:
    letters = len(args.word.split())
    if (args.n - 1) ** 3 * (letters + 1) ** 2 > MAX_ALEXANDER_WORK:
        raise ValueError(
            f"{letters} letters on {args.n} strands are over the limit (n-1)^3 (letters+1)^2 <= {MAX_ALEXANDER_WORK}"
        )
    result = alexander.alexander_conway(_word(args))
    return {"conway": str(result.poly), "components": result.components}


_BUILTIN_R = {
    "identity": lambda yb, d: yb.identity_r(d),
    "flip": lambda yb, d: yb.flip_r(d),
    "rq": lambda yb, d: yb.rq_r(),
}


def cmd_ybe(args) -> dict:
    from . import yang_baxter

    if args.file:
        with open(args.file) as fh:
            data = json.load(fh)
    dim = int(data["dim"]) if args.file else args.dim
    if args.builtin == "rq" and dim != 2:
        raise ValueError(f"the rq r-matrix has dimension 2, got --dim {dim}")
    # both Yang-Baxter checks act on V^(x)3
    if dim**3 > yang_baxter.SIZE_CAP:
        raise ValueError(f"r-matrix dimension {dim} is over the limit: {dim}^3 > {yang_baxter.SIZE_CAP}")
    if args.file:
        spec = yang_baxter.r_matrix_from_json(data)
    else:
        spec = _BUILTIN_R[args.builtin](yang_baxter, dim)
    return {
        "braid_ybe": yang_baxter.check_braid_ybe(spec).norm,
        "qybe": yang_baxter.check_qybe(spec).norm,
        # RMatrixSpec admits only unit determinants (exact) or cond <= 1e12
        "invertible": True,
    }


def _check_level(m: int) -> None:
    if m < 0:
        raise ValueError(f"weight level --m must be non-negative, got {m}")


# Size limits of the Verma and KZ subcommands, each set just above a case
# measured on 2 CPUs (child wall time and peak RSS; README, "Input limits").
MAX_WEIGHT_DIM = 4000  # verma dims: d = 3876 took 1.5-2.1 s, 27 MB
# verma omega (d^2 JSON strings from the sparse Omega images): d = 1365 took
# 0.27-0.3 s, 51 MB.  The limit is set by verma dims at lam in 0..m-1 (sparse
# echelon form): d = 1365 took 1.4-2.1 s, 27 MB, and d = 3654-3876 took 8-19 s
# (n=4, m=26; n=5, m=15)
MAX_DENSE_DIM = 1400
# verma and kz, a basis of d tuples of length n: verma dims at n = 2000000,
# m = 0 took 0.4-0.5 s, 170 MB, and n = 1414, m = 1 took 0.45 s, 47 MB;
# verma omega at n = 1400, m = 1 took 0.45-0.5 s, 58 MB
MAX_BASIS_ENTRIES = 2_000_000
MAX_KZ_DIM = 500  # kz, O(d^3) per DP5 step: one letter at d = 462 took 5.3 s
MAX_KZ_ENTRIES = 4_000_000  # kz Omega stack, P d^2 entries: 3.2e6 took 154 MB
# kz reads the Omega stack off one pass over the basis, slicing an n-tuple for
# each of the P = C(n, 2) pairs of each of the d basis tuples, P d n in all:
# 1.5e7 (n = 311, m = 0) took 1.0-1.35 s with s1 and s1 s2 s1^-1, 40 MB
MAX_KZ_BUILD = 15 * 10**6


def _check_size(n: int, m: int, max_dim: int, pairs: int = 0) -> None:
    """Reject W[m] on n legs, before anything is enumerated, if its
    dimension d is over ``max_dim``, if its basis of d tuples of length n is
    over MAX_BASIS_ENTRIES, or if ``pairs`` dense operators built from that
    basis hold over MAX_KZ_ENTRIES entries or read over MAX_KZ_BUILD."""
    if n < 1:
        return  # the Verma layer reports it
    # weight_dim(n, m) >= max(n, m + 1) once n >= 2 and m >= 1, which keeps
    # the binomial small when it is computed
    over = n >= 2 and m >= 1 and max(n, m) > max_dim
    dim = max_dim + 1 if over else verma.weight_dim(n, m)
    if dim > max_dim:
        raise ValueError(f"weight space at n={n}, m={m} has dimension over the limit {max_dim}")
    if dim * n > MAX_BASIS_ENTRIES:
        raise ValueError(f"weight basis at n={n}, m={m} has {dim} x {n} entries, over the limit {MAX_BASIS_ENTRIES}")
    if pairs * dim * dim > MAX_KZ_ENTRIES:
        raise ValueError(
            f"{pairs} Omega operators of dimension {dim} are over the limit of {MAX_KZ_ENTRIES} entries"
        )
    if pairs * dim * n > MAX_KZ_BUILD:
        raise ValueError(
            f"{pairs} Omega operators built from {dim} basis tuples of length {n} are over the limit {MAX_KZ_BUILD}"
        )


def cmd_verma_dims(args) -> dict:
    _check_level(args.m)
    lam = parse_weight(args.lam)
    _check_size(args.n, args.m, MAX_DENSE_DIM if verma._eliminates(lam, args.m) else MAX_WEIGHT_DIM)
    null = verma._null_vectors(args.n, verma._rational_weight(lam), args.m)
    return {"weight_dim": verma.weight_dim(args.n, args.m), "null_dim": len(null)}


def cmd_verma_omega(args) -> dict:
    _check_level(args.m)
    _check_size(args.n, args.m, MAX_DENSE_DIM)
    lam = parse_weight(args.lam)
    if not isinstance(lam, Fraction):
        raise ValueError("omega export needs a rational highest weight")
    n, i, j = args.n, args.i, args.j
    if not (1 <= i < j <= n):
        raise ValueError(f"bad leg pair ({i}, {j}) for n={n}")
    indices = verma.weight_space_basis(n, lam, args.m).indices
    position = {idx: k for k, idx in enumerate(indices)}
    d = len(indices)
    entries = [["0"] * d for _ in indices]
    for k, idx in enumerate(indices):
        for tgt, c in verma._omega_act({idx: Fraction(1)}, ((i, j),), lam).items():
            entries[position[tgt]][k] = str(c)
    return {"i": i, "j": j, "matrix": {"rows": d, "cols": d, "entries": entries}}


def _kz_spec(args, restrict: bool):
    from . import kz

    # KzSpec validates n, m, lam, h and tau (exactly one of the two) and
    # enumerates nothing, so it is built before the size check
    h, tau = (None if text is None else parse_complex(text) for text in (args.h, args.tau))
    spec = kz.KzSpec(args.n, parse_weight(args.lam), args.m, h=h, tau=tau, restrict_to_nullspace=restrict)
    _check_size(args.n, args.m, MAX_KZ_DIM, args.n * (args.n - 1) // 2)
    return spec


def cmd_kz_monodromy(args) -> dict:
    from . import kz

    spec = _kz_spec(args, args.nullspace)
    result = kz.monodromy(spec, words.BraidWord.parse(args.word, args.n), args.tol)
    return {"matrix": complex_pairs(result.matrix), "est_error": result.est_error}


def cmd_kz_check(args) -> dict:
    import numpy as np

    from . import kz

    spec = _kz_spec(args, False)
    if args.n >= 3:
        left = kz.monodromy(spec, words.BraidWord.parse("s1 s2 s1", args.n), args.tol)
        right = kz.monodromy(spec, words.BraidWord.parse("s2 s1 s2", args.n), args.tol)
        braid_residual = float(np.max(np.abs(left.matrix - right.matrix)))
    else:
        # two strands have no relation; report the inverse-consistency residual
        loop = kz.monodromy(spec, words.BraidWord.parse("s1 s1^-1", 2), args.tol)
        braid_residual = float(np.max(np.abs(loop.matrix - np.eye(loop.matrix.shape[0]))))
    rng = random.Random(args.seed)
    # n points in the box [-w, w]^2 are all 0.3 apart with probability about
    # exp(-0.0079 C(n, 2) (3 / w)^2); the box grows with n past n = 10, so a
    # sample takes about 1.5 draws at any n, and [-3, 3]^2 up to n = 10
    w = 3 * max(1, args.n / 10)
    flat = 0.0
    for _ in range(10):
        z = None
        while z is None or min(abs(a - b) for i, a in enumerate(z) for b in z[i + 1 :]) < 0.3:
            z = [complex(rng.uniform(-w, w), rng.uniform(-w, w)) for _ in range(args.n)]
        u = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(args.n)]
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(args.n)]
        flat = max(flat, kz.flatness_residual(spec, z, u, v))
    homotopy = kz.homotopy_invariance_check(spec, args.tol)
    return {
        "braid_residual": braid_residual,
        "flatness_residual": flat,
        "homotopy_residual": homotopy,
    }


# -- selftest ----------------------------------------------------------------

def _random_word(rng: random.Random, n: int, max_len: int) -> words.BraidWord:
    length = rng.randint(0, max_len)
    return words.BraidWord(
        n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length))
    )


def _selftest_checks(seed: int):
    import numpy as np

    from . import kz, yang_baxter

    rng = random.Random(seed)

    def words_check():
        for _ in range(50):
            n = rng.randint(2, 6)
            w, g = _random_word(rng, n, 8), _random_word(rng, n, 8)
            if (w * w.inverse()).free_reduce().letters:
                return False
            lhs = words.underlying_permutation(w * g)
            rhs = words.underlying_permutation(w).then(words.underlying_permutation(g))
            if lhs != rhs:
                return False
            if words.exponent_sum(words.markov_conjugate(w, g)) != words.exponent_sum(w):
                return False
        return True

    def burau_check():
        for n in range(2, 6):
            for i in range(1, n - 1):
                a = words.BraidWord(n, ((i, 1), (i + 1, 1), (i, 1)))
                b = words.BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1)))
                if burau_matrix(a).matrix != burau_matrix(b).matrix:
                    return False
                if reduced_burau_matrix(a).matrix != reduced_burau_matrix(b).matrix:
                    return False
        return all(conjugation_check(n, i) for n in range(3, 7) for i in range(1, n))

    def alexander_check():
        trefoil = alexander.markov_f(words.BraidWord.parse("s1 s1 s1", 2))
        if str(trefoil) != "s^-2 - 1 + s^2":
            return False
        for _ in range(15):
            n = rng.randint(2, 4)
            w, g = _random_word(rng, n, 7), _random_word(rng, n, 7)
            if not alexander.markov_invariance_check(w, g):
                return False
        for _ in range(10):
            n = rng.randint(2, 4)
            if not alexander.skein_check(
                _random_word(rng, n, 5), rng.randint(1, n - 1), _random_word(rng, n, 5)
            ):
                return False
        return True

    def ybe_check():
        for spec in (yang_baxter.identity_r(2), yang_baxter.flip_r(3), yang_baxter.rq_r()):
            if not yang_baxter.check_braid_ybe(spec).passes:
                return False
        draw = None
        while draw is None or not draw.det():  # a singular draw is no r-matrix: redraw
            draw = yang_baxter.RingMatrix.from_rows(
                [[Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
            )
        return yang_baxter.check_braid_ybe(yang_baxter.RMatrixSpec(2, "rational", draw)).norm != 0

    def verma_check():
        lam = Fraction(7, 3)
        for n in range(2, 5):
            if len(verma.nullspace_basis(n, lam, 2)) != n * (n - 1) // 2:
                return False
        return verma.kd_relation_check(3, lam, 2) and verma.equivariance_check(2, lam, 2)

    # scipy-free: the abelian transport is compared against a truncated
    # exponential series, which is an independent closed form
    def kz_numeric_check():
        lam = Fraction(1, 2)
        spec = kz.KzSpec(2, lam, 1, h=0.1)
        result = kz.monodromy(spec, words.BraidWord.parse("s1 s1", 2), 1e-9)
        basis = verma.weight_space_basis(2, lam, 1).indices
        columns = [verma._omega_act({idx: 1}, ((1, 2),), lam) for idx in basis]
        om = np.array([[col.get(idx, 0) for col in columns] for idx in basis], dtype=complex)
        expected = np.eye(2, dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 30):
            term = term @ (0.1 * om) / k
            expected = expected + term
        if np.max(np.abs(result.matrix - expected)) > 1e-7:
            return False
        spec3 = kz.KzSpec(3, lam, 1, h=0.1 + 0.05j)
        left = kz.monodromy(spec3, words.BraidWord.parse("s1 s2 s1", 3), 1e-8)
        right = kz.monodromy(spec3, words.BraidWord.parse("s2 s1 s2", 3), 1e-8)
        return float(np.max(np.abs(left.matrix - right.matrix))) < 1e-6

    return [
        ("braid_words", words_check),
        ("burau_relations", burau_check),
        ("alexander_markov_skein", alexander_check),
        ("yang_baxter_corpus", ybe_check),
        ("verma_dimensions_relations", verma_check),
        ("kz_monodromy", kz_numeric_check),
    ]


def cmd_selftest(args) -> dict:
    results = []
    ok = True
    for name, check in _selftest_checks(args.seed):
        passed = bool(check())
        ok = ok and passed
        results.append({"name": name, "passed": passed})
    return {"seed": args.seed, "checks": results, "all_passed": ok}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidrep",
        description="Braid representations: Burau, Alexander-Conway, Yang-Baxter, KZ monodromy.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several subcommands, each declared once
    strands = argparse.ArgumentParser(add_help=False)
    strands.add_argument("--n", type=int, required=True)
    word = argparse.ArgumentParser(add_help=False, parents=[strands])
    word.add_argument("word")
    weight = argparse.ArgumentParser(add_help=False, parents=[strands])
    weight.add_argument("--m", type=int, required=True)
    weight.add_argument("--lambda", dest="lam", required=True)
    kz_params = argparse.ArgumentParser(add_help=False, parents=[weight])
    kz_params.add_argument("--h", default=None)
    kz_params.add_argument("--tau", default=None)
    kz_params.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("braid", parents=[word], help="permutation, purity, exponent sum of a word")
    p.set_defaults(func=cmd_braid)
    p = sub.add_parser("burau", parents=[word], help="Burau matrix of a word")
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=cmd_burau)
    p = sub.add_parser("alexander", parents=[word], help="Alexander-Conway polynomial of the closure")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("ybe", help="Yang-Baxter residuals of an r-matrix")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="JSON r-matrix file")
    src.add_argument("--builtin", choices=sorted(_BUILTIN_R))
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(func=cmd_ybe)

    p = sub.add_parser("verma", help="weight spaces and Omega matrices")
    vsub = p.add_subparsers(dest="verma_command", required=True)
    vsub.add_parser("dims", parents=[weight]).set_defaults(func=cmd_verma_dims)
    q = vsub.add_parser("omega", parents=[weight])
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--j", type=int, required=True)
    q.set_defaults(func=cmd_verma_omega)

    p = sub.add_parser("kz", help="KZ parallel transport and residual checks")
    ksub = p.add_subparsers(dest="kz_command", required=True)
    q = ksub.add_parser("monodromy", parents=[kz_params])
    q.add_argument("--word", required=True)
    q.add_argument("--nullspace", action="store_true")
    q.set_defaults(func=cmd_kz_monodromy)
    q = ksub.add_parser("check", parents=[kz_params])
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_kz_check)

    p = sub.add_parser("selftest", help="run the deterministic property suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except Exception as exc:  # computation errors -> JSON + exit 1, named if the message is empty
        print(json.dumps({"error": str(exc) or type(exc).__name__}))
        return 1
    print(json.dumps(payload, indent=2 if args.pretty else None))
    if args.command == "selftest" and not payload["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
