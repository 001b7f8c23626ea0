"""Exact sparse polynomials over Q and sparse echelon linear algebra.

Polynomials are dictionaries mapping exponent tuples to nonzero coefficients,
each an ``int`` or a ``Fraction`` as given; all arithmetic is exact.  Integral
data stay Python integers, so restriction vectors, staircase normal forms and
their expansions never build a ``Fraction``.  ``SparsePoly.relabel``
substitutes variables for restriction to torus-fixed points and to words
(ι*), for the Weyl action on classes and for the GKM screen.  The two hottest
exact loops, the stability expansion and the relations certificate, work on
packed exponent vectors instead (``field_width``, ``pack``): one int per
monomial, a fixed bit field per variable, so that multiplying monomials is
one int addition (Monagan–Pearce, CASC 2007).

Every reduction of a vector against a span goes through one elimination
kernel, ``_eliminate``, which processes coordinates in increasing order and
yields the unique normal form supported on non-pivot columns.  It is
fraction-free (Bareiss, *Math. Comp.* 22, 1968): pivot rows are primitive
integer rows, rational input is cleared to integers once on entry, and the
kernel carries one integer denominator.  A ``Fraction`` is made only for a
returned normal form or dependence coefficient that is not an integer.
Every caller's columns are non-negative; a negative column is a marker
column, never a pivot.  The kernel has two users:

* :class:`SparseEchelon` — rows only; ranks, membership and normal forms for
  the Tanisaki spans J_d of the engine's build and the ideal oracle.
* :class:`TrackedEchelon` — an augmented matrix: marker columns carry each
  row's expression over the inserted sources, so a reduction also returns the
  exact dependence of a vector on the kept sources (the quotient coordinates).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

from .errors import MalformedInputError

Exponent = tuple[int, ...]
Rational = Fraction | int


class SparsePoly:
    """An exact multivariate polynomial with ``int`` or ``Fraction`` coefficients.

    Immutable by convention: ``terms`` is copied at construction and never
    mutated afterwards, so instances can be shared and hashed freely.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Rational] | None = None):
        if nvars < 0:
            raise MalformedInputError("nvars must be non-negative")
        clean: dict[Exponent, Rational] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars or any(type(e) is not int or e < 0
                                             for e in exps):
                    raise MalformedInputError(f"bad exponent tuple {exps!r} for nvars={nvars}")
                if type(coeff) not in (int, Fraction):  # refuses bool
                    raise MalformedInputError(
                        f"coefficient {coeff!r} is not an int or a Fraction")
                if coeff:
                    clean[tuple(exps)] = coeff
        self.nvars = nvars
        self.terms = clean
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: Rational) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "SparsePoly":
        """The variable with 0-based index ``i``."""
        if not 0 <= i < nvars:
            raise MalformedInputError(f"variable index {i} out of range for nvars={nvars}")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponent, coeff: Rational = 1) -> "SparsePoly":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponent, Rational]) -> "SparsePoly":
        # Fast path: caller guarantees canonical terms (no zeros, right arity).
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._hash = None
        return p

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum total degree of a term; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self, degree: int) -> bool:
        """True when every term has the given total degree (vacuously for 0)."""
        return all(sum(e) == degree for e in self.terms)

    def constant_term(self) -> Rational:
        return self.terms.get((0,) * self.nvars, 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_arity(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return SparsePoly._raw(self.nvars, terms)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "SparsePoly | Rational") -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return SparsePoly._raw(self.nvars, {})
            return SparsePoly._raw(self.nvars, {e: other * v for e, v in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_arity(other)
        terms: dict[Exponent, Rational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return SparsePoly._raw(self.nvars, terms)

    __rmul__ = __mul__

    def relabel(self, target: Sequence[int], nvars: int) -> "SparsePoly":
        """Substitute variable i by variable ``target[i]`` (0-based) of a ring
        in ``nvars`` variables, merging terms that meet."""
        if len(target) != self.nvars:
            raise MalformedInputError("relabel target arity mismatch")
        terms: dict[Exponent, Rational] = {}
        for exps, coeff in self.terms.items():
            out = [0] * nvars
            for i, e in zip(target, exps):
                out[i] += e
            key = tuple(out)
            s = terms.get(key, 0) + coeff
            if s:
                terms[key] = s
            else:
                del terms[key]
        return SparsePoly._raw(nvars, terms)

    def evaluate(self, point: Sequence[Rational]) -> Rational:
        if len(point) != self.nvars:
            raise MalformedInputError("point arity mismatch")
        total = 0
        for exps, coeff in self.terms.items():
            prod = coeff
            for v, e in zip(point, exps):
                if e:
                    prod *= v ** e
            total += prod
        return total

    # -- dunder plumbing ---------------------------------------------------

    def _check_arity(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise MalformedInputError(
                f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SparsePoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(exps) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def field_width(degree: int) -> int:
    """Bits per variable of a packed exponent vector, for monomials of total
    degree at most ``degree``: every exponent fits its field, so ``pack`` is
    injective on them and adding packed monomials whose product stays within
    ``degree`` never carries from one field into the next."""
    return max(degree, 1).bit_length()


def pack(exps: Sequence[int], width: int) -> int:
    """The exponent vector as one int: variable b in bits [b·w, (b+1)·w)."""
    return sum(e << b * width for b, e in enumerate(exps))


def monomials_of_degree(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, in lexicographic order."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out: list[Exponent] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    out.sort()
    return out


def monomial_count(nvars: int, degree: int) -> int:
    """dim of the degree-d piece of a polynomial ring in ``nvars`` variables."""
    if nvars == 0:
        return 1 if degree == 0 else 0
    return math.comb(degree + nvars - 1, nvars - 1)


# ---------------------------------------------------------------------------
# The sparse elimination kernel and its two echelons.
# ---------------------------------------------------------------------------

SparseVec = dict[int, Rational]
IntVec = dict[int, int]


def _cleared(vec: SparseVec) -> tuple[IntVec, int]:
    """``(D·vec, D)`` for the least positive integer D that makes it integral."""
    denoms = [c.denominator for c in vec.values() if type(c) is not int]
    if not denoms:
        return {j: c for j, c in vec.items() if c}, 1
    denom = math.lcm(*denoms)
    return {j: c.numerator * (denom // c.denominator)
            for j, c in vec.items() if c}, denom


def _scaled(vec: IntVec, denom: int) -> SparseVec:
    """``vec / denom`` exactly: an ``int`` where integral, else a ``Fraction``."""
    if denom == 1:
        return vec
    return {j: c // denom if not c % denom else Fraction(c, denom)
            for j, c in vec.items()}


def _eliminate(rows: Mapping[int, IntVec],
               vec: SparseVec) -> tuple[IntVec, int]:
    """Reduce ``vec`` against pivot rows: the one elimination loop.

    ``rows`` maps each pivot column to an integer row with a positive entry p
    there.  ``vec`` is cleared to integers once, as ``D·vec``.
    Coordinates are processed in increasing order; at a pivot column holding
    c, the fraction-free step w ← (p/g)·w − (c/g)·row with g = gcd(c, p)
    clears it, touches only marker columns and columns past the pivot, and
    multiplies the running denominator by p/g.  So each column is settled
    exactly once and the result is ``denom`` times the unique normal form
    supported on non-pivot columns.  Marker columns (negative) are scaled
    and subtracted with the rest of the row.

    Returns ``(w, denom)`` in integers.  The input is not mutated.
    """
    w, denom = _cleared(vec)
    heap = list(w)
    heapq.heapify(heap)
    queued = set(heap)
    while heap:
        j = heapq.heappop(heap)
        queued.discard(j)
        c = w.get(j)
        if c is None:
            continue  # cancelled since it was queued
        row = rows.get(j)
        if row is None:
            continue  # non-pivot column: part of the normal form
        del w[j]
        p = row[j]
        g = math.gcd(c, p)
        if g != p:
            a = p // g
            denom *= a
            for col in w:
                w[col] *= a
        b = c // g
        for col, rc in row.items():
            if col == j:
                continue
            s = w.get(col, 0) - b * rc
            if s:
                w[col] = s
                if col not in queued:
                    heapq.heappush(heap, col)
                    queued.add(col)
            else:
                w.pop(col, None)
    return w, denom


def _adopt(rows: dict[int, IntVec], w: IntVec) -> None:
    """Store an integer residual as a primitive row, signed positive at its
    pivot: the least non-negative column, which must exist."""
    pivot = min(j for j in w if j >= 0)
    g = math.gcd(*w.values())
    if w[pivot] < 0:
        g = -g
    rows[pivot] = {j: c // g for j, c in w.items()}


class SparseEchelon:
    """Forward-reduced echelon with sparse primitive integer rows keyed by
    pivot column."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, IntVec] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Normal form of ``vec`` modulo the span (input not mutated)."""
        return _scaled(*_eliminate(self.rows, vec))

    def insert(self, vec: SparseVec) -> bool:
        """Reduce and, when a residual survives, adopt it as a new row."""
        w = _eliminate(self.rows, vec)[0]
        if not w:
            return False
        _adopt(self.rows, w)
        return True


def _split(w: IntVec, denom: int) -> tuple[SparseVec, SparseVec]:
    """``(combo, residual)`` of a reduced tracked vector: its marker part,
    negated, and its other part, each divided by ``denom``."""
    return (_scaled({~j: -c for j, c in w.items() if j < 0}, denom),
            _scaled({j: c for j, c in w.items() if j >= 0}, denom))


class TrackedEchelon:
    """Sparse echelon that remembers each row's expression over inserted sources.

    Used to extract quotient lifts.  Source i enters as its vector plus a 1
    in the marker column ``~i`` (that is, −1 − i), so each row carries in its
    negative columns the integer combination of sources its non-negative
    part equals.  Inserting source i either adds a pivot row or proves source
    i dependent, returning its exact coefficients over the kept sources.
    """

    __slots__ = ("rows", "kept")

    def __init__(self) -> None:
        self.rows: dict[int, IntVec] = {}
        self.kept: list[int] = []

    def solve(self, vec: SparseVec) -> tuple[SparseVec, SparseVec]:
        """Express ``vec`` over the kept sources without inserting.

        Returns ``(combo, residual)`` with ``vec == residual + sum(combo * source
        vector)`` exactly; an empty residual certifies membership in the span.
        """
        return _split(*_eliminate(self.rows, vec))

    def insert(self, source: int, vec: SparseVec) -> SparseVec | None:
        """Insert source ``source``; return None if kept, else its dependence.

        The returned mapping expresses the inserted vector exactly as
        sum(coeff * kept-source vector).
        """
        w, denom = _eliminate(self.rows, {**vec, ~source: 1})
        if any(j >= 0 for j in w):
            _adopt(self.rows, w)
            self.kept.append(source)
            return None
        combo = _split(w, denom)[0]
        del combo[source]  # −1 · source + the rest of combo == 0
        return combo
