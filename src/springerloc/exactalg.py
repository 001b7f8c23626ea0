"""Exact sparse polynomials over Q and sparse echelon linear algebra.

Polynomials are dictionaries mapping exponent tuples to nonzero coefficients,
each an ``int`` or a ``Fraction`` as given; all arithmetic is exact.  Integral
data stay Python integers, so restriction vectors, staircase normal forms and
their expansions never build a ``Fraction``: one appears only where the
elimination kernel divides, when it scales a new pivot row to 1.

Every reduction of a vector against a span goes through one elimination
kernel, ``_eliminate``, which processes coordinates in increasing order and
returns the unique normal form supported on non-pivot columns.  It has two
users:

* :class:`SparseEchelon` — rows only; ranks, membership and normal forms for
  the product spans of the localization engine and the ideal oracle.
* :class:`TrackedEchelon` — rows plus each row's expression over the inserted
  sources, so a reduction also returns the exact dependence of a vector on the
  kept sources (the quotient coordinates of the engine).
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
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise MalformedInputError(f"bad exponent tuple {exps!r} for nvars={nvars}")
                if not isinstance(coeff, (int, Fraction)):
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

    def __pow__(self, k: int) -> "SparsePoly":
        if k < 0:
            raise MalformedInputError("negative power")
        result = SparsePoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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


def _eliminate(rows: Mapping[int, SparseVec], vec: SparseVec,
               combos: Mapping[int, SparseVec] | None = None,
               ) -> tuple[SparseVec, SparseVec]:
    """Reduce ``vec`` against pivot rows: the one elimination loop.

    ``rows`` maps each pivot column to a sparse row with coefficient 1 there.
    Coordinates are processed in increasing order; subtracting a row only
    touches columns past its pivot, so each column is settled exactly once and
    the residual is the unique normal form supported on non-pivot columns.

    Returns ``(combo, residual)``.  When ``combos`` gives each pivot row's
    expression over sources, ``vec == residual + sum(combo * source vector)``
    exactly; without it ``combo`` is empty.  The input is not mutated.
    """
    w = dict(vec)
    combo: SparseVec = {}
    heap = list(w)
    heapq.heapify(heap)
    queued = set(heap)
    while heap:
        j = heapq.heappop(heap)
        queued.discard(j)
        c = w.get(j)
        if not c:
            w.pop(j, None)
            continue
        row = rows.get(j)
        if row is None:
            continue  # non-pivot column: part of the normal form
        del w[j]
        for col, rc in row.items():
            if col == j:
                continue
            s = w.get(col, 0) - c * rc
            if s:
                w[col] = s
                if col not in queued:
                    heapq.heappush(heap, col)
                    queued.add(col)
            else:
                w.pop(col, None)
        if combos is not None:
            for src, k in combos[j].items():
                s = combo.get(src, 0) + c * k
                if s:
                    combo[src] = s
                else:
                    combo.pop(src, None)
    return combo, {j: c for j, c in w.items() if c}


def _adopt(rows: dict[int, SparseVec], residual: SparseVec) -> tuple[int, Fraction]:
    """Store a nonzero residual as a new row scaled to 1 at its pivot."""
    pivot = min(residual)
    inv = 1 / Fraction(residual[pivot])
    rows[pivot] = {j: c * inv for j, c in residual.items()}
    return pivot, inv


class SparseEchelon:
    """Forward-reduced echelon with sparse rows keyed by pivot column."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, SparseVec] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Normal form of ``vec`` modulo the span (input not mutated)."""
        return _eliminate(self.rows, vec)[1]

    def insert(self, vec: SparseVec) -> bool:
        """Reduce and, when a residual survives, adopt it as a new row."""
        residual = _eliminate(self.rows, vec)[1]
        if not residual:
            return False
        _adopt(self.rows, residual)
        return True


class TrackedEchelon:
    """Sparse echelon that remembers each row's expression over inserted sources.

    Used to extract quotient lifts: inserting source i either adds a pivot row
    (recording that the row *is* source i minus a combination of earlier kept
    sources) or proves source i dependent, returning its exact coefficients
    over the kept sources.
    """

    __slots__ = ("rows", "combos", "kept")

    def __init__(self) -> None:
        self.rows: dict[int, SparseVec] = {}
        self.combos: dict[int, dict[int, Fraction]] = {}  # pivot -> {source: coeff}
        self.kept: list[int] = []

    def solve(self, vec: SparseVec) -> tuple[dict[int, Fraction], SparseVec]:
        """Express ``vec`` over the kept sources without inserting.

        Returns ``(combo, residual)`` with ``vec == residual + sum(combo * source
        vector)`` exactly; an empty residual certifies membership in the span.
        """
        return _eliminate(self.rows, vec, self.combos)

    def insert(self, source: int, vec: SparseVec) -> dict[int, Fraction] | None:
        """Insert source ``source``; return None if kept, else its dependence.

        The returned mapping expresses the inserted vector exactly as
        sum(coeff * kept-source vector).
        """
        combo, residual = _eliminate(self.rows, vec, self.combos)
        if not residual:
            return combo
        pivot, inv = _adopt(self.rows, residual)
        own = {src: -k * inv for src, k in combo.items()}
        own[source] = inv
        self.combos[pivot] = own
        self.kept.append(source)
        return None
