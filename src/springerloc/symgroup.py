"""Partitions, permutations, coset words and S_n character theory.

Conventions used throughout the package:

* Partitions are weakly decreasing tuples of positive parts.
* Permutations are 1-based one-line words; ``(u * v)(i) = u(v(i))``.
* For a partition λ of n with k parts, the *block word* b assigns to each
  position 1..n the index of the λ-block containing it, e.g. λ = (2, 1) gives
  b = (1, 1, 2).  The words of content λ (letter j used λ_j times) are in
  bijection with the cosets W_λ\\W via ω_u = b ∘ u, and W acts on the right by
  ω · w = ω ∘ w.
* Characters are evaluated on conjugacy classes labelled by cycle type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _it_permutations
from typing import Iterable, Mapping, Sequence

from .errors import GuardrailError, MalformedInputError

HARD_MAX_N = 8


@dataclass(frozen=True)
class Partition:
    """A partition of a non-negative integer, stored weakly decreasing."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        tup = tuple(parts)
        if any(type(p) is not int or p <= 0 for p in tup):
            raise MalformedInputError(
                f"partition parts must be positive ints: {tup}")
        object.__setattr__(self, "parts", tuple(sorted(tup, reverse=True)))

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        tokens = [tok.strip() for tok in text.split(",")]
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise MalformedInputError(f"cannot parse partition {text!r}")
        return cls(int(tok) for tok in tokens)

    def to_string(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        cols = [sum(1 for p in self.parts if p > j) for j in range(self.parts[0])]
        return Partition(cols)

    def top_degree(self) -> int:
        """n(λ) = Σ (i − 1) λ_i — the top degree carrying cohomology."""
        return sum(i * p for i, p in enumerate(self.parts))

    def multinomial(self) -> int:
        """n! / ∏ λ_i! — the number of words of content λ."""
        out = math.factorial(self.n)
        for p in self.parts:
            out //= math.factorial(p)
        return out

    def block_word(self) -> tuple[int, ...]:
        """Position i ↦ index (1-based) of the λ-block containing i."""
        word = []
        for j, p in enumerate(self.parts, start=1):
            word.extend([j] * p)
        return tuple(word)

    def __repr__(self) -> str:
        return f"Partition({self.to_string()})"


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic order ((n) first)."""
    if n < 0:
        raise MalformedInputError("n must be non-negative")
    if n > HARD_MAX_N:
        raise GuardrailError("partitions_of n", n, HARD_MAX_N)

    def rec(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(min(cap, remaining), 0, -1):
            out.extend((first,) + rest for rest in rec(remaining - first, first))
        return out

    return [Partition(t) for t in rec(n, n) if t] if n else []


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation (images of 1..n)."""

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        tup = tuple(images)
        if (any(type(x) is not int for x in tup)
                or sorted(tup) != list(range(1, len(tup) + 1))):
            raise MalformedInputError(f"not a permutation of 1..{len(tup)}: {tup}")
        object.__setattr__(self, "images", tup)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise MalformedInputError(f"bad transposition ({a} {b}) in S_{n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(images)

    @classmethod
    def adjacent_transposition(cls, n: int, i: int) -> "Permutation":
        """s_i = (i, i+1)."""
        return cls.transposition(n, i, i + 1)

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                images[a - 1] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (u * v)(i) = u(v(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise MalformedInputError("cannot compose permutations of different n")
        return Permutation(self.images[other.images[i] - 1] for i in range(self.n))

    def cycle_type(self) -> Partition:
        seen = [False] * self.n
        lengths = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            length, i = 0, start
            while not seen[i - 1]:
                seen[i - 1] = True
                i = self(i)
                length += 1
            lengths.append(length)
        return Partition(lengths)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(p) for p in _it_permutations(range(1, n + 1))]


# ---------------------------------------------------------------------------
# Fixed-point words and the right coset action.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointSet:
    """The words of content λ, sorted lexicographically.

    Word ω_u = b ∘ u identifies the coset W_λ·u; the set is in bijection with
    the S-fixed points of the associated fiber, one per component.
    """

    shape: Partition
    words: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.words)


@lru_cache(maxsize=None)
def _word_index(words: tuple[tuple[int, ...], ...]) -> dict[tuple[int, ...], int]:
    return {w: i for i, w in enumerate(words)}


def fixed_point_set(shape: Partition) -> FixedPointSet:
    """Enumerate the words of content λ (λ_j copies of letter j), sorted."""
    if not shape.parts:
        raise MalformedInputError("lambda must be nonempty")
    if shape.n > HARD_MAX_N:
        raise GuardrailError("rank n", shape.n, HARD_MAX_N)
    words = sorted(set(_it_permutations(shape.block_word())))
    return FixedPointSet(shape, tuple(words))


def coset_action(P: FixedPointSet, w: Permutation) -> tuple[int, ...]:
    """Index permutation of the right action: index of ω ↦ index of ω ∘ w.

    Group law: action(w1) ∘ action(w2) = action(w2 * w1) as index maps.
    """
    if w.n != P.shape.n:
        raise MalformedInputError("permutation size does not match the word length")
    idx = _word_index(P.words)
    return tuple(idx[tuple(word[w(i) - 1] for i in range(1, w.n + 1))]
                 for word in P.words)


def count_fixed_words(P: FixedPointSet, w: Permutation) -> int:
    """Number of words fixed by ω ↦ ω ∘ w (permutation character value)."""
    action = coset_action(P, w)
    return sum(1 for i, j in enumerate(action) if i == j)


# ---------------------------------------------------------------------------
# Conjugacy classes and characters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class of S_n: cycle type, size, canonical representative."""

    cycle_type: Partition
    size: int
    rep: Permutation


def class_size(cycle_type: Partition) -> int:
    n = cycle_type.n
    mult: dict[int, int] = {}
    for p in cycle_type.parts:
        mult[p] = mult.get(p, 0) + 1
    denom = 1
    for length, count in mult.items():
        denom *= length ** count * math.factorial(count)
    return math.factorial(n) // denom


def class_representative(cycle_type: Partition) -> Permutation:
    """Canonical representative: cycles fill 1..n consecutively."""
    cycles, start = [], 1
    for p in cycle_type.parts:
        cycles.append(list(range(start, start + p)))
        start += p
    return Permutation.from_cycles(cycle_type.n, cycles)


def conjugacy_classes(n: int) -> list[ConjClass]:
    if n < 1:
        raise MalformedInputError("conjugacy_classes requires n >= 1")
    return [ConjClass(ct, class_size(ct), class_representative(ct))
            for ct in partitions_of(n)]


@lru_cache(maxsize=None)
def _beta_set(parts: tuple[int, ...]) -> tuple[int, ...]:
    m = len(parts)
    return tuple(parts[i] + (m - 1 - i) for i in range(m))


@lru_cache(maxsize=None)
def _mn(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan–Nakayama recursion on beta-numbers.

    Removing a border strip of length r from λ is subtracting r from one beta
    number while keeping them distinct; the sign is (−1)^(number of beta
    numbers jumped over).
    """
    if not cycles:
        return 1 if not parts else 0
    if not parts:
        return 0
    r, rest = cycles[0], cycles[1:]
    beta = _beta_set(parts)
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((nb if j == i else c for j, c in enumerate(beta)),
                          reverse=True)
        m = len(new_beta)
        new_parts = tuple(p for j, c in enumerate(new_beta)
                          if (p := c - (m - 1 - j)) > 0)
        total += (-1) ** height * _mn(new_parts, rest)
    return total


def mn_character(shape: Partition, cycle_type: Partition) -> int:
    """Irreducible character χ^shape evaluated on the given cycle type."""
    if shape.n != cycle_type.n:
        raise MalformedInputError(
            f"|shape|={shape.n} but |cycle type|={cycle_type.n}")
    if shape.n == 0:
        return 1
    return _mn(shape.parts, cycle_type.parts)


def decompose_class_function(values: Mapping[Partition, Fraction | int],
                             n: int) -> dict[Partition, Fraction]:
    """Multiplicities ⟨f, χ^μ⟩ of a class function given by cycle type.

    Requires a value for every class of S_n; raises on missing classes.
    Each sum is accumulated in the values' own type and divided by n! once.
    """
    classes = conjugacy_classes(n)
    for cls in classes:
        if cls.cycle_type not in values:
            raise MalformedInputError(f"missing class {cls.cycle_type.to_string()}")
    order = math.factorial(n)
    return {mu: Fraction(sum(cls.size * values[cls.cycle_type]
                             * mn_character(mu, cls.cycle_type)
                             for cls in classes), order)
            for mu in partitions_of(n)}
