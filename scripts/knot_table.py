#!/usr/bin/env python3
"""Print Alexander-Conway polynomials for a table of standard braid closures.

Usage: python scripts/knot_table.py [extra braids as "n:word" items]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from braidrep.alexander import alexander_conway
from braidrep.words import BraidWord

STANDARD = [
    ("unknot", 1, ""),
    ("unknot (stabilized)", 2, "s1"),
    ("Hopf link", 2, "s1 s1"),
    ("trefoil", 2, "s1 s1 s1"),
    ("figure-eight", 3, "s1 s2^-1 s1 s2^-1"),
    ("Solomon's link", 2, "s1 s1 s1 s1"),
    ("cinquefoil (5_1)", 2, "s1 s1 s1 s1 s1"),
    ("granny knot", 3, "s1 s1 s1 s2 s2 s2"),
    ("square knot", 3, "s1 s1 s1 s2^-1 s2^-1 s2^-1"),
    ("6_2 knot", 3, "s1 s1 s1 s2^-1 s1 s2^-1"),
    ("2-component unlink", 2, ""),
    ("Borromean rings", 3, "s1 s2^-1 s1 s2^-1 s1 s2^-1"),
]


def main(argv):
    rows = list(STANDARD)
    for item in argv:
        n, word = item.split(":", 1)
        rows.append((f"closure of {word!r} in B_{n}", int(n), word))
    width = max(len(name) for name, _, _ in rows)
    for name, n, word in rows:
        result = alexander_conway(BraidWord.parse(word, n))
        print(f"{name:<{width}}  components={result.components}  nabla = {result.poly}")


if __name__ == "__main__":
    main(sys.argv[1:])
