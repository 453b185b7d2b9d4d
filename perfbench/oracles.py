"""Output oracles.  None of them calls into braidrep: each rebuilds what it
needs (permutations, polynomial values, permutation operators) from the op's
input alone and reads the result only as data.

Every function returns an error string, or None when the output passes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

KZ_RESIDUAL_BOUND = 1e-6  # acceptance bound for braid relations at tol 1e-9

# Conway polynomials pinned by acceptance criterion 03 (skein recursion),
# as {exponent of s: coefficient}.
PINNED_CONWAY = {
    "unknot": ((2, ((1, 1),)), {0: 1}),
    "hopf": ((2, ((1, 1), (1, 1))), {-1: 1, 1: -1}),
    "trefoil": ((2, ((1, 1), (1, 1), (1, 1))), {-2: 1, 0: -1, 2: 1}),
    "figure-eight": ((3, ((1, 1), (2, -1), (1, 1), (2, -1))), {-2: -1, 0: 3, 2: -1}),
}


def permutation(n: int, letters) -> list:
    """0-based images of the strand permutation of a word, letters acting
    left to right with sigma_i -> (i, i+1)."""
    images = list(range(n))
    for i, _ in letters:
        a, b = i - 1, i
        images = [b if x == a else a if x == b else x for x in images]
    return images


def cycle_count(images: list) -> int:
    seen = [False] * len(images)
    cycles = 0
    for start in range(len(images)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
    return cycles


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(s(?:\^(-?\d+))?)?$")


def parse_conway(text: str) -> dict:
    """Parse the canonical single-variable string ``s^-2 - 1 + s^2`` into
    {exponent: coefficient}.  Raises ValueError on anything else."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    sign = 1
    for k, tok in enumerate(text.split(" ")):
        if tok in "+-" and tok:
            if k == 0:
                raise ValueError(f"leading operator in {text!r}")
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-") and k == 0:
            sign, tok = -1, tok[1:]
        m = _TERM.match(tok)
        if not tok or not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"bad term {tok!r} in {text!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        exp = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        if exp in out:
            raise ValueError(f"repeated exponent {exp} in {text!r}")
        out[exp] = sign * coeff
    return out


def check_conway(n: int, letters, poly: dict, components: int) -> str | None:
    """Closure invariants of a Conway polynomial in s (z = s - 1/s):
    value 1 at s=1 for a knot and 0 for a link of c >= 2 components,
    f(1/s) = (-1)^(c-1) f(s), and exponents all of parity c-1."""
    c = cycle_count(permutation(n, letters))
    if components != c:
        return f"components {components}, expected {c}"
    value = sum(poly.values())
    if value != (1 if c == 1 else 0):
        return f"value {value} at s=1 for {c} component(s)"
    sign = 1 if c % 2 == 1 else -1
    for e, coeff in poly.items():
        if poly.get(-e, 0) != sign * coeff:
            return f"f(1/s) != {sign:+d} f(s) at exponent {e}"
        if (e - (c - 1)) % 2:
            return f"exponent {e} has the wrong parity for {c} component(s)"
    return None


def check_pinned(name: str, poly: dict) -> str | None:
    expected = PINNED_CONWAY[name][1]
    if poly != expected:
        return f"{name}: got {poly}, pinned {expected}"
    return None


def permutation_operator(n: int, letters, d: int = 2) -> np.ndarray:
    """The operator on (C^d)^(x)n that the word permutes tensor legs by,
    lexicographic basis with the left leg most significant: the basis
    vector J goes to J' with J'_k = J_{perm(k)} (output leg k carries the
    content of input leg perm(k), the inverse image convention)."""
    images = permutation(n, letters)
    size = d**n
    digits = np.array(np.unravel_index(np.arange(size), (d,) * n))  # (n, size)
    target = np.ravel_multi_index(tuple(digits[images[k]] for k in range(n)), (d,) * n)
    out = np.zeros((size, size), dtype=np.int64)
    out[target, np.arange(size)] = 1
    return out


def check_ybe_at_q1(n: int, letters, specialized: np.ndarray) -> str | None:
    """The q=1 specialization of the rq representation is the permutation
    operator of the word."""
    expected = permutation_operator(n, letters)
    if specialized.shape != expected.shape:
        return f"shape {specialized.shape}, expected {expected.shape}"
    bad = np.argwhere(specialized != expected)
    if len(bad):
        r, c = bad[0]
        return f"{len(bad)} entries differ from the permutation operator, first at ({r}, {c})"
    return None


def specialize_q1(entries) -> np.ndarray:
    """Evaluate a grid of Laurent polynomials at q = 1 (sum of coefficients),
    reading each entry's term map as plain data."""
    return np.array(
        [[sum(p.terms.values()) for p in row] for row in entries], dtype=object
    ).astype(np.int64)


def kz_residual(left: np.ndarray, right: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(left) - np.asarray(right))))


def check_kz_pair(left: np.ndarray, right: np.ndarray) -> str | None:
    """Both sides of a braid relation agree to the acceptance bound."""
    if left.shape != right.shape:
        return f"shapes {left.shape} and {right.shape} differ"
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        return "non-finite monodromy"
    res = kz_residual(left, right)
    if not res <= KZ_RESIDUAL_BOUND:
        return f"braid residual {res:.3e} above {KZ_RESIDUAL_BOUND:g}"
    return None


def check_cli(argv, expected: str | None, code: int, stdout: str) -> str | None:
    """Exit code 0 and one valid JSON object; README examples byte for
    byte; ``alexander`` output passes the Conway oracle; ``selftest``
    reports every check passed."""
    if code != 0:
        return f"exit code {code}: {stdout.strip()[:200]}"
    if expected is not None and stdout != expected:
        return f"stdout {stdout!r} differs from the README's {expected!r}"
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"invalid JSON ({exc}): {stdout[:200]!r}"
    if not isinstance(payload, dict) or "error" in payload:
        return f"unexpected payload {stdout[:200]!r}"
    if argv[0] == "alexander":
        n = int(argv[2])
        letters = [(int(t[1:].split("^")[0]), -1 if t.endswith("^-1") else 1) for t in argv[3].split()]
        try:
            poly = parse_conway(payload["conway"])
        except (KeyError, ValueError) as exc:
            return f"unparseable conway output: {exc}"
        return check_conway(n, letters, poly, payload.get("components"))
    if argv[0] == "selftest" and payload.get("all_passed") is not True:
        return "selftest reports a failed check"
    return None
