"""Braid words on n strands and their permutation bookkeeping.

A word is a sequence of Artin generator letters (i, sign) with
1 <= i <= n-1.  Words are stored unreduced: equality of the underlying
braids is never decided syntactically, only through representation values.

Composition order is fixed once and used everywhere: letters act left to
right, so the permutation of ``a * b`` is "permutation of a, then
permutation of b".
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} stored as the tuple of images of 1..n."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images} is not a bijection of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other (left-to-right composition)."""
        return Permutation(tuple(other.images[img - 1] for img in self.images))

    def is_identity(self) -> bool:
        return all(img == x for x, img in enumerate(self.images, start=1))

    def cycles(self) -> list:
        """Cycle decomposition, each cycle starting at its smallest element."""
        seen, out = set(), []
        for start in range(1, self.n + 1):
            if start not in seen:
                cyc = [start]
                x = self.images[start - 1]
                while x != start:
                    cyc.append(x)
                    x = self.images[x - 1]
                seen.update(cyc)
                out.append(cyc)
        return out


_TOKEN = re.compile(r"^s(\d+)(\^-1)?$")


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on n strands."""

    n: int
    letters: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("strand count must be >= 1")
        letters = tuple((int(i), int(s)) for i, s in self.letters)
        for i, s in letters:
            if not 1 <= i <= self.n - 1:
                raise ValueError(f"generator index {i} out of range for n={self.n}")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {s}")
        object.__setattr__(self, "letters", letters)

    @staticmethod
    def parse(text: str, n: int) -> "BraidWord":
        """Parse whitespace-separated tokens "s<k>" / "s<k>^-1"."""
        letters = []
        for tok in text.split():
            m = _TOKEN.match(tok)
            if not m:
                raise ValueError(f"malformed braid token {tok!r}")
            letters.append((int(m.group(1)), -1 if m.group(2) else 1))
        return BraidWord(n, tuple(letters))

    def __str__(self):
        return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in self.letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError(f"strand count mismatch: {self.n} vs {other.n}")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple((i, -s) for i, s in reversed(self.letters)))

    def free_reduce(self) -> "BraidWord":
        """Cancel adjacent inverse pairs until none remain."""
        stack: list = []
        for letter in self.letters:
            if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
                stack.pop()
            else:
                stack.append(letter)
        return BraidWord(self.n, tuple(stack))


def underlying_permutation(w: BraidWord) -> Permutation:
    """Image of the word under sigma_i -> (i, i+1), letters applied left to
    right; built from the last letter back, as (i, i+1) then p swaps two images."""
    images = list(range(1, w.n + 1))
    for i, _ in reversed(w.letters):
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def exponent_sum(w: BraidWord) -> int:
    return sum(s for _, s in w.letters)


def markov_conjugate(w: BraidWord, g: BraidWord) -> BraidWord:
    """First Markov move: g * w * g^-1 in the same braid group."""
    if w.n != g.n:
        raise ValueError("strand count mismatch in conjugation")
    return g * w * g.inverse()


def markov_stabilize(w: BraidWord, sign: int = 1) -> BraidWord:
    """Second Markov move: sigma_n^{sign} * iota(w) in the group on n+1 strands."""
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +-1")
    return BraidWord(w.n + 1, ((w.n, sign),) + w.letters)


def closure_component_count(w: BraidWord) -> int:
    """Number of link components of the closure = cycles of the permutation."""
    return len(underlying_permutation(w).cycles())
