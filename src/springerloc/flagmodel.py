"""Borel-model classes on the flag variety and their fixed-point restrictions.

The cohomology of the full flag variety is presented on the monomial basis
y_1^{a_1} ... y_n^{a_n} with 0 <= a_i <= n - i (the Artin staircase basis,
n! monomials).  Three substitution maps drive everything, each one call of
``SparsePoly.relabel``:

* restriction to the torus-fixed point indexed by w:      y_i -> t_{w(i)}
* restriction to the fixed point of the word ω:           y_i -> z_{ω(i)}
* the Weyl action on classes:                             y_i -> y_{w(i)}

Restrictions to word fixed points factor through cosets, so they are
well-defined on the word model without ever choosing coset representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import CertificateError, GuardrailError, MalformedInputError
from .exactalg import Exponent, SparsePoly, field_width
from .symgroup import (HARD_MAX_N, FixedPointSet, Permutation,
                       all_permutations, coset_action)


@dataclass(frozen=True)
class BorelClass:
    """A homogeneous polynomial in y_1..y_n representing a cohomology class."""

    poly: SparsePoly
    degree: int

    def __post_init__(self):
        if not self.poly.is_homogeneous(self.degree):
            raise MalformedInputError(
                f"polynomial is not homogeneous of degree {self.degree}")

    @property
    def n(self) -> int:
        return self.poly.nvars


@dataclass(frozen=True)
class FixedPointVector:
    """One polynomial in z_1..z_k per fixed-point word, all of one degree."""

    entries: tuple[SparsePoly, ...]
    degree: int

    def __post_init__(self):
        for p in self.entries:
            if not p.is_homogeneous(self.degree):
                raise MalformedInputError(
                    f"entry is not homogeneous of degree {self.degree}")

    @property
    def k(self) -> int:
        return self.entries[0].nvars


def artin_basis(n: int) -> list[BorelClass]:
    """The staircase monomials y^a, a_i <= n - i, sorted by degree then exponents.

    There are n! of them and the number in each degree matches the coefficients
    of the q-factorial [n]_q!.
    """
    if n < 1:
        raise MalformedInputError("artin_basis requires n >= 1")
    if n > HARD_MAX_N:
        raise GuardrailError("rank n", n, HARD_MAX_N)
    exps = sorted(product(*(range(n - i + 1) for i in range(1, n + 1))),
                  key=lambda e: (sum(e), e))
    return [BorelClass(SparsePoly.monomial(n, e), sum(e)) for e in exps]


def restrict_to_t_fixed(c: BorelClass, w: Permutation) -> SparsePoly:
    """Restriction to the torus-fixed point of w: y_i -> t_{w(i)}."""
    if w.n != c.n:
        raise MalformedInputError("permutation size does not match class arity")
    return c.poly.relabel(tuple(w(i) - 1 for i in range(1, c.n + 1)), c.n)


@lru_cache(maxsize=None)
def _word_targets(words: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(letter - 1 for letter in word) for word in words)


def springer_restriction(c: BorelClass, P: FixedPointSet) -> FixedPointVector:
    """Restriction to the fixed points of P: entry at ω is c with y_i -> z_{ω(i)}."""
    n, k = c.n, len(P.shape)
    if P.shape.n != n:
        raise MalformedInputError("fixed-point set does not match class arity")
    entries = [c.poly.relabel(target, k) for target in _word_targets(P.words)]
    return FixedPointVector(tuple(entries), c.degree)


def weyl_act_on_class(c: BorelClass, w: Permutation) -> BorelClass:
    """The Weyl action on the Borel model: y_i -> y_{w(i)}."""
    if w.n != c.n:
        raise MalformedInputError("permutation size does not match class arity")
    return BorelClass(
        c.poly.relabel(tuple(w(i) - 1 for i in range(1, c.n + 1)), c.n), c.degree)


@dataclass(frozen=True)
class GkmReport:
    """Outcome of the divisibility screen for one class."""

    failures: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]  # ((a,b), w)

    @property
    def passed(self) -> bool:
        return not self.failures


def gkm_divisibility_check(c: BorelClass) -> GkmReport:
    """Check e(w) − e(τw) ≡ 0 (mod t_a − t_b) for every transposition τ = (a b).

    A family of fixed-point values comes from a genuine equivariant class only
    if values at reflection-related fixed points agree along the reflection
    hyperplane; divisibility by the linear form is tested exactly by the
    substitution t_a = t_b.
    """
    n = c.n
    failures = []
    restrictions = {w.images: restrict_to_t_fixed(c, w) for w in all_permutations(n)}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            tau = Permutation.transposition(n, a, b)
            for w_images, e_w in restrictions.items():
                tw = tau * Permutation(w_images)
                diff = e_w - restrictions[tw.images]
                # t_a = t_b: relabel b-1 onto a-1
                target = tuple(a - 1 if i == b - 1 else i for i in range(n))
                if not diff.relabel(target, n).is_zero():
                    failures.append(((a, b), w_images))
    return GkmReport(tuple(failures))


def equivariance_failures(P: FixedPointSet) -> list[tuple[Exponent, int]]:
    """The (a, i) with ι*(s_i·y^a) != pull_i(ι*(y^a)), pull_i the pullback by
    ``coset_action(P, s_i)``, in ``artin_basis`` order of y^a, then by i.

    ι*, the Weyl action and pull_i are ring maps, so only y_1 … y_n are
    restricted, each entry one z_b with coefficient 1.  W(y) packs ι*(y) into
    an int, word ω's slot holding its z-exponents in fields of
    ``field_width(n(n-1)/2)`` bits.  ι*(y^a) packs to Σ_j a_j·W(y_j),
    whose fields are at most deg y^a <= n(n-1)/2, so none carries, and y^a
    fails for s_i exactly when Σ_j a_j·(W(s_i·y_j) − pull_i(W(y_j))) != 0.
    """
    n, k = P.shape.n, len(P.shape)
    width = field_width(n * (n - 1) // 2)
    var = {SparsePoly.variable(k, b): b for b in range(k)}
    units = {}

    def letters(c: BorelClass) -> list[int]:  # b of each entry z_b of ι*(c)
        if c.poly not in units:
            units[c.poly] = [var.get(x) for x in springer_restriction(c, P).entries]
            if None in units[c.poly]:
                raise CertificateError("equivariance", f"an entry of ι*({c.poly})"
                                       " is not one z_b with coefficient 1")
        return units[c.poly]

    def pack(letters) -> int:
        return sum(1 << (w * k + b) * width for w, b in enumerate(letters))

    ys = [BorelClass(SparsePoly.variable(n, j), 1) for j in range(n)]
    moves = [Permutation.adjacent_transposition(n, i) for i in range(1, n)]
    pulls = [coset_action(P, s) for s in moves]
    diffs = [[pack(letters(weyl_act_on_class(y, s)))
              - pack(letters(y)[w] for w in pull) for y in ys]
             for s, pull in zip(moves, pulls)]
    if not any(map(any, diffs)):
        return []
    exps = (next(iter(c.poly.terms)) for c in artin_basis(n))
    return [(a, i) for a in exps for i, row in enumerate(diffs, 1)
            if sum(e * d for e, d in zip(a, row))]
