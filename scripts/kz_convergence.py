#!/usr/bin/env python3
"""Convergence experiment: braid-relation residual of KZ monodromy vs the
integrator tolerance, for the full weight space and its nullspace.

Usage: python scripts/kz_convergence.py [--n 3] [--m 2] [--lambda 1/2] [--h 0.1+0.05i]
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from braidrep.kz import KzSpec, monodromy
from braidrep.words import BraidWord

TOLERANCES = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)


def residual(spec, tol):
    a = monodromy(spec, BraidWord.parse("s1 s2 s1", spec.n), tol)
    b = monodromy(spec, BraidWord.parse("s2 s1 s2", spec.n), tol)
    return float(np.max(np.abs(a.matrix - b.matrix))), a.steps


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--lambda", dest="lam", default="1/2")
    parser.add_argument("--h", default="0.1+0.05i")
    args = parser.parse_args()

    lam = Fraction(args.lam)
    h = complex(args.h.replace("i", "j"))
    print(f"n={args.n} m={args.m} lambda={lam} h={h}")
    print(f"{'tol':>8}  {'full residual':>14}  {'steps':>5}  {'nullspace residual':>18}  {'steps':>5}")
    for tol in TOLERANCES:
        full = KzSpec(args.n, lam, args.m, h=h)
        rest = KzSpec(args.n, lam, args.m, h=h, restrict_to_nullspace=True)
        r_full, s_full = residual(full, tol)
        r_rest, s_rest = residual(rest, tol)
        print(f"{tol:>8.0e}  {r_full:>14.3e}  {s_full:>5}  {r_rest:>18.3e}  {s_rest:>5}")


if __name__ == "__main__":
    main()
