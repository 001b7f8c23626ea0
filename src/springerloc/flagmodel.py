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
from itertools import groupby, product

from .errors import GuardrailError, MalformedInputError
from .exactalg import Exponent, SparsePoly
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

    passed: bool
    failures: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]  # ((a,b), w)


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
    return GkmReport(not failures, tuple(failures))


def equivariance_failures(P: FixedPointSet) -> list[tuple[Exponent, int]]:
    """Violations of restriction-equivariance over all Artin classes.

    For every staircase class c and adjacent transposition s, the restriction
    of the permuted class must equal the coset-action pullback of the
    restriction of c: entry at ω of the former equals entry at ω·s of the
    latter.  Returns (class exponent, i) pairs that fail, in ``artin_basis``
    order and then by i; empty means the localization data is W-equivariant.

    s permutes an exponent vector, so s·c has c's multiset of exponents.  The
    classes are walked one multiset at a time: each class of the multiset is
    restricted once and its restriction serves every move onto it, and a
    moved monomial outside the staircase (met once per call) is restricted
    on its own, so each distinct monomial is restricted once.
    """
    n = P.shape.n
    moves = [(i, Permutation.adjacent_transposition(n, i)) for i in range(1, n)]
    pulls = [coset_action(P, s) for _, s in moves]
    bad = []
    classes = sorted(artin_basis(n), key=_multiset)
    for _, group in groupby(classes, key=_multiset):
        group = list(group)
        restricted = {c.poly: springer_restriction(c, P).entries for c in group}
        for c in group:
            base = restricted[c.poly]
            for (i, s), pull in zip(moves, pulls):
                moved = weyl_act_on_class(c, s)
                acted = restricted.get(moved.poly)
                if acted is None:
                    acted = springer_restriction(moved, P).entries
                if acted != tuple(base[j] for j in pull):
                    bad.append((next(iter(c.poly.terms)), i))
    bad.sort(key=lambda f: (sum(f[0]), f))
    return bad


def _multiset(c: BorelClass) -> list[int]:
    return sorted(next(iter(c.poly.terms)))
