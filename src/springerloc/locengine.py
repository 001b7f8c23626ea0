"""Localization engine for the fixed-point image module and its Weyl action.

The engine receives the restriction vectors ι*(y^a) of the staircase classes
to a fixed-point word set P (functions P -> Q[z_1..z_k], one homogeneous
polynomial per word) and studies the Q[z]-module M they generate inside
Fun(P) ⊗ Q[z]:

* ``build_image_module`` computes, degree by degree up to the top generator
  degree, the graded dimensions q_d of the quotient M / Q[z]^+ M, with a
  chosen *lift* (an input generator) for each quotient basis vector and the
  exact expression of every other generator over the lifts modulo Q[z]^+ M.
* ``augmentation_quotient`` certifies completeness of the quotient (its
  dimensions must sum to |P|).
* ``freeness_certificate`` certifies that M is free over Q[z] on the lifts.
  Both certificates raise :class:`CertificateError` at the failing degree.
* ``verify_w_stability`` certifies the Weyl group action (permutation of the
  P-coordinates) through s_1 … s_{n−1} and keeps their quotient matrices;
  ``quotient_action_matrix`` multiplies them along a reduced word of any w,
  and ``graded_character`` traces the products.

Every stage after the build reads the ``ImageModule`` itself; each certificate
is computed once, by the stage that needs it.

The build is one code path for every shape, on the ring side.  ι* maps
H^*(B) ⊗ Q[z] onto M and kills every S-equivariant Tanisaki relation of the
:class:`~springerloc.straighten.StaircaseReducer`, so the z = 0 part of such a
relation maps into Q[z]^+ M.  Per degree d a sparse echelon in staircase
coordinates (the Artin monomials y^a, a_i <= n − i) holds J_d, spanned by
y_i times the rows of J_{d−1} and the z = 0 parts of the degree-d relations,
each reduced by the rewrite tower at z = 0.  The degree-d generators, in
family order, are reduced modulo J_d and inserted into a tracked echelon: the
survivors are the lifts, the dependences are ``gen_class``.  J_d lies in the
kernel of H^*(B)_d -> (M / Q[z]^+ M)_d, so the lifts generate M (graded
Nakayama).  The certificates close the argument: the relations the build
adopted (``ImageModule.relations``) vanish at every word
(``relations_vanish_on``), the q_d sum to |P|, and the lifts are independent
over Q(z) (the fiber certificate), so M is free on them and J_d is the whole
kernel.  A wrong relation fails the vanishing check; a missing one leaves too
many lifts, so completeness or freeness fails.  ``ImageModule.mode`` is a
label that nothing in the package reads: "syzygy-free" for λ = (1ⁿ), whose
staircase family has no relations, else "echelon".  It is kept only because
``perfbench/tracing.py`` reads it.

``verify_w_stability`` reads an ``expression_provider(gen_index, w)``: the
exact expression of the moved generator w·gens[gen_index] as
``{other_gen_index: coefficient in Q[z]}``.  The staircase normal forms of
:mod:`springerloc.straighten` supply this for restriction families: the paper's
s_i·ι*(y^a) = ι*(y^{s_i·a}), with y^{s_i·a} rewritten over staircase classes.
Every distinct expression is expanded exactly at every word, once, and
compared with its moved lift; each later moved lift with the same expression
is compared entrywise with that verified vector.  The expansion runs on packed
exponent vectors (``exactalg.pack``): the generator entries are packed once
per call, at the width of the degree bound, so a product of monomials is one
int addition.

Restriction vectors and expressions of integral data carry ``int``
coefficients, so the expansions run in integer arithmetic.  The build
eliminates in integers too; a ``Fraction`` appears only where a dependent
generator's ``gen_class`` coefficient is not an integer, and from there in
the s_i matrices and their traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CertificateError, MalformedInputError
from .exactalg import (Exponent, Rational, SparseEchelon, SparsePoly,
                       TrackedEchelon, field_width, pack)
from .flagmodel import FixedPointVector
from .straighten import StaircaseReducer
from .symgroup import (FixedPointSet, Partition, Permutation, coset_action,
                       conjugacy_classes)

ExpressionProvider = Callable[[int, Permutation], Mapping[int, SparsePoly]]
Matrix = tuple[tuple[Rational, ...], ...]

_POINT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
_FIBER_PRIME = (1 << 61) - 1


def _first_dependent(rows: Iterable[Sequence[int]], p: int) -> int | None:
    """Index of the first integer row that is dependent on the rows before it
    modulo p, by forward elimination; None if all are independent."""
    pivots: list[tuple[int, int, list[int]]] = []  # (column, inverse, row)
    for index, row in enumerate(rows):
        row = [x % p for x in row]
        for col, inv, prow in pivots:  # each pivot row is 0 before its column
            c = row[col] * inv % p
            if c:
                row[col:] = [(a - c * b) % p
                             for a, b in zip(row[col:], prow[col:])]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            return index
        pivots.append((col, pow(row[col], p - 2, p), row))
    return None


# ---------------------------------------------------------------------------
# The image module.
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ImageModule:
    """Graded presentation data of the module generated by restriction vectors.

    It stores ``lifts`` (per degree, the indices of the generators kept as
    quotient basis), ``gen_class`` (per generator, its exact quotient
    coordinates over same-degree lifts) and ``relations`` (the relations the
    build adopted, which the relations certificate checks); ``q_dims``
    (graded dimensions of M / Q[z]^+ M) and ``degree_bound`` are read from
    ``lifts``.
    """

    P: FixedPointSet
    gens: tuple[FixedPointVector, ...]
    lifts: tuple[tuple[int, ...], ...]
    gen_class: tuple[dict[int, Rational], ...]
    relations: tuple[SparsePoly, ...]

    @property
    def q_dims(self) -> tuple[int, ...]:
        return tuple(map(len, self.lifts))

    @property
    def degree_bound(self) -> int:
        return len(self.lifts) - 1

    @property
    def k(self) -> int:
        return len(self.P.shape)

    @property
    def mode(self) -> str:
        """The label "syzygy-free" for λ = (1ⁿ), else "echelon"."""
        return ("syzygy-free" if all(part == 1 for part in self.P.shape.parts)
                else "echelon")

    def __repr__(self) -> str:
        return f"ImageModule(shape={self.P.shape}, q_dims={self.q_dims})"


def build_image_module(P: FixedPointSet, gens: Iterable[FixedPointVector],
                       exps: Sequence[Exponent],
                       reducer: StaircaseReducer) -> ImageModule:
    """Graded presentation of the module generated by ``gens``, the
    restrictions of the staircase classes y^exps[i], up to their top degree.
    Each relation whose image becomes a row of J is kept in
    ``ImageModule.relations``, for the relations certificate."""
    gens = tuple(gens)
    if not gens:
        raise MalformedInputError("no generators supplied")
    n, k = P.shape.n, len(P.shape)
    # columns: the staircase exponents in reverse family order, so that the
    # lifts (taken first in family order) reduce to unit vectors
    stairs = sorted(product(*(range(n - p) for p in range(n))), reverse=True)
    col = {a: j for j, a in enumerate(stairs)}
    if reducer.shape != P.shape or len(exps) != len(gens):
        raise MalformedInputError("staircase exponents do not match the "
                                  "generators")
    for g, a in zip(gens, exps):
        if len(g.entries) != P.size:
            raise MalformedInputError("generator length does not match word set")
        if g.k != k:
            raise MalformedInputError("generator arity does not match word set")
        if a not in col or sum(a) != g.degree:
            raise MalformedInputError(f"{a!r} is not the staircase exponent "
                                      "of its generator")

    def coords(poly: SparsePoly) -> dict[int, Rational]:
        return {col[a]: c for a, c in reducer.z_free(poly).items()}

    lifts: list[tuple[int, ...]] = []
    gen_class: list[dict[int, Rational]] = [{} for _ in gens]
    adopted: list[SparsePoly] = []
    ideal = SparseEchelon()
    for d in range(max(g.degree for g in gens) + 1):
        products = [SparsePoly(n, {stairs[j][:i] + (stairs[j][i] + 1,)
                                   + stairs[j][i + 1:]: c
                                   for j, c in row.items()})
                    for row in ideal.rows.values() for i in range(n)]
        ideal = SparseEchelon()  # J_d: y_i·J_{d−1}, then the relations
        for poly in products:
            ideal.insert(coords(poly))
        for rel in reducer.relations:
            if rel.total_degree() == d and ideal.insert(coords(rel)):
                adopted.append(rel)
        solver, kept = TrackedEchelon(), []
        for gi, g in enumerate(gens):
            if g.degree != d:
                continue
            dep = solver.insert(gi, ideal.reduce({col[exps[gi]]: 1}))
            if dep is None:
                kept.append(gi)
            gen_class[gi] = {gi: 1} if dep is None else dep
        lifts.append(tuple(kept))

    return ImageModule(P, gens, tuple(lifts), tuple(gen_class),
                       tuple(adopted))


# ---------------------------------------------------------------------------
# Augmentation quotient and certificates.
# ---------------------------------------------------------------------------

def augmentation_quotient(M: ImageModule) -> None:
    """Certify completeness of M / Q[z]^+ M: its graded dimensions
    ``M.q_dims`` must sum to |P| by the degree bound."""
    total = sum(M.q_dims)
    if total != M.P.size:
        raise CertificateError(
            "completeness",
            f"quotient dimensions sum to {total}, expected {M.P.size} "
            f"by degree {M.degree_bound}",
            degree=M.degree_bound, partial=M.q_dims)


def freeness_certificate(M: ImageModule) -> None:
    """Certify that M is free over Q[z] on the lifts, which generate it:
    the matrix of lift values at ζ = (2, 3, 5, …), lifts in degree order, has
    full row rank modulo the prime 2^61 − 1, which forces full rank over Q.
    The first lift that is dependent modulo p raises at its degree; nothing
    singular modulo p is decided further."""
    point = _POINT_PRIMES[:M.k]
    order = [(d, gi) for d, kept in enumerate(M.lifts) for gi in kept]
    bad = _first_dependent(([poly.evaluate(point) for poly in M.gens[gi].entries]
                            for _, gi in order), _FIBER_PRIME)
    if bad is not None:
        d, gi = order[bad]
        raise CertificateError(
            "freeness", f"lift {gi} is dependent on the lifts before it at "
            f"{point} modulo 2^61 - 1", degree=d, partial=M.q_dims)


# ---------------------------------------------------------------------------
# W-action on the module and the quotient.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    checked_lifts: int
    fully_expanded: int
    failures: tuple[str, ...]
    generator_matrices: tuple[tuple[Matrix, ...], ...]  # [d][i - 1]: s_i in degree d

    @property
    def passed(self) -> bool:
        return not self.failures


def _identity(q: int) -> Matrix:
    return tuple(tuple(int(r == c) for c in range(q)) for r in range(q))

def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product of two square matrices, skipping zero entries."""
    out = []
    for row in a:
        acc = [0] * len(row)
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y if y else s for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)

def _reduced_word(w: Permutation) -> list[int]:
    """Indices i_1 … i_l with w = s_{i_1} ⋯ s_{i_l} and l = #inversions of w:
    bubble sort, where each swap multiplies w on the right by one s_i."""
    images, word = list(w.images), []
    for end in range(len(images) - 1, 0, -1):
        for i in range(end):
            if images[i] > images[i + 1]:
                images[i], images[i + 1] = images[i + 1], images[i]
                word.append(i + 1)
    return word[::-1]


PackedEntry = dict[int, Rational]  # packed z-exponents -> coefficient


def _packed_entries(M: ImageModule,
                    width: int) -> list[tuple[PackedEntry, ...]]:
    """Every generator's entries with packed exponents (``exactalg.pack``),
    equal entries interned: each row is references to a few shared dicts."""
    interned: dict[tuple, PackedEntry] = {}
    table = []
    for g in M.gens:
        row = []
        for entry in g.entries:
            key = tuple(entry.terms.items())
            packed = interned.get(key)
            if packed is None:
                packed = interned[key] = {pack(e, width): c for e, c in key}
            row.append(packed)
        table.append(tuple(row))
    return table


def _expansion_matches(table: Sequence[Sequence[PackedEntry]],
                       expr: Mapping[int, SparsePoly], width: int,
                       moved: Sequence[PackedEntry]) -> bool:
    """Exact check that ``moved`` equals Σ_g expr[g]·gens[g] at every word.

    ``table`` holds the packed entries of the generators.  Each coefficient
    of ``expr`` is packed once; each word's sum is accumulated in one dict of
    packed exponents, where a product of monomials is one int addition, and
    compared with the packed moved entry.  ``_provider_expression`` has
    checked the indices, the arity and the homogeneity, so every product has
    the lift's degree and no field carries at ``width``."""
    terms = [(table[gi], [(pack(e, width), c) for e, c in coeff.terms.items()])
             for gi, coeff in expr.items()]
    for j, entry in enumerate(moved):
        acc: PackedEntry = {}
        for entries, cterms in terms:
            for e2, c2 in entries[j].items():
                for e1, c1 in cterms:
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
        if {e: c for e, c in acc.items() if c} != entry:
            return False
    return True


def _provider_expression(M: ImageModule, provider: ExpressionProvider,
                         gen_index: int, w: Permutation,
                         ) -> dict[int, SparsePoly]:
    expr = provider(gen_index, w)
    if not isinstance(expr, Mapping):
        raise CertificateError("stability", f"expression for generator "
                               f"{gen_index} under {w!r} is not a mapping of "
                               "generator indices to polynomials")
    expr = dict(expr)
    d = M.gens[gen_index].degree
    for gi, coeff in expr.items():
        if type(gi) is not int or not 0 <= gi < len(M.gens):
            raise CertificateError("stability", f"expression for generator "
                                   f"{gen_index} under {w!r} names {gi!r}, "
                                   "which is not a generator index")
        if not isinstance(coeff, SparsePoly) or coeff.nvars != M.k:
            raise CertificateError("stability", f"expression for generator "
                                   f"{gen_index} under {w!r} has a "
                                   "coefficient that is not a polynomial in "
                                   f"{M.k} variables")
        if not coeff.is_homogeneous(d - M.gens[gi].degree):
            raise CertificateError("stability", f"expression for generator "
                                   f"{gen_index} under {w!r} is not "
                                   f"homogeneous of degree {d}")
    return expr


def verify_w_stability(M: ImageModule,
                       expression_provider: ExpressionProvider,
                       ) -> StabilityReport:
    """Verify that s_1 … s_{n−1} map each graded piece M_d into itself.

    Only the lifts need direct verification: products are moved to products by
    Q[z]-linearity of the action (w·(m·v) = m·(w·v)), so their stability is
    implied.  ``expression_provider`` gives the exact rewriting expression of
    each moved lift over the generators.  The first time an expression
    appears it is expanded exactly at every word and compared with the moved
    lift, which proves that the moved lift lies in M_d, and the verified
    moved lift is kept under it.  A later lift with the same expression is
    compared entrywise with that vector, so every moved lift is proved equal
    to its exact expansion.  ``fully_expanded`` counts the expansions: one
    per distinct expression that passes, one per moved lift whose
    expression fails.

    Read modulo Q[z]^+ M, each expression is a column of the quotient matrix
    of s_i.  Last, the Coxeter relations (s_i s_j)^m = 1 (m = 1, 3, 2 for
    |i − j| = 0, 1, ≥ 2) are checked on the matrices of every degree: they
    define an S_n-action.
    """
    n = M.P.shape.n
    simple = [Permutation.adjacent_transposition(n, i) for i in range(1, n)]
    actions = [coset_action(M.P, w) for w in simple]
    width = field_width(M.degree_bound)
    table = _packed_entries(M, width)
    verified: dict[frozenset, tuple[PackedEntry, ...]] = {}
    failures: list[str] = []
    checked = expanded = 0
    matrices: list[tuple[Matrix, ...]] = []
    for d in range(M.degree_bound + 1):
        pos = {gi: r for r, gi in enumerate(M.lifts[d])}
        per_degree: list[Matrix] = []
        for w, action in zip(simple, actions):
            cols: list[list[Rational]] = []
            for gi in M.lifts[d]:
                checked += 1
                col = [0] * len(pos)
                expr = _provider_expression(M, expression_provider, gi, w)
                moved = tuple(table[gi][j] for j in action)
                key = frozenset(expr.items())
                if key not in verified:
                    expanded += 1
                    if _expansion_matches(table, expr, width, moved):
                        verified[key] = moved
                if verified.get(key) != moved:
                    failures.append(
                        f"degree {d}: expression for lift {gi} under "
                        f"{w!r} fails exact expansion")
                for src, coeff in expr.items():  # lower degrees vanish
                    if M.gens[src].degree == d:
                        for lift, beta in M.gen_class[src].items():
                            col[pos[lift]] += coeff.constant_term() * beta
                cols.append(col)
            per_degree.append(tuple(zip(*cols)))
        matrices.append(tuple(per_degree))
        for i in range(n - 1):
            for j in range(i, n - 1):
                m = {0: 1, 1: 3}.get(j - i, 2)
                ab = _mat_mul(per_degree[i], per_degree[j])
                if reduce(_mat_mul, [ab] * m) != _identity(len(pos)):
                    failures.append(f"degree {d}: Coxeter relation "
                                    f"(s_{i + 1} s_{j + 1})^{m} = 1 fails")
    return StabilityReport(checked, expanded, tuple(failures),
                           tuple(matrices))


def quotient_action_matrix(M: ImageModule, stability: StabilityReport,
                           w: Permutation) -> list[Matrix]:
    """Matrices of w on each graded quotient piece, in the lift bases.

    Entry [r][c] of the degree-d matrix is the coefficient of lift r in the
    quotient class of w · (lift c): a product of the certified generator
    matrices of ``stability`` along a reduced word of w, with no solving.
    A ``stability`` with failures raises :class:`CertificateError`.
    """
    if not stability.passed:
        failed = "; ".join(stability.failures[:5])
        raise CertificateError("stability", "the quotient action is not "
                               f"certified: {failed}", partial=M.q_dims)
    word = _reduced_word(w)
    out: list[Matrix] = []
    for q, mats in zip(M.q_dims, stability.generator_matrices):
        acc = _identity(q)
        for i in reversed(word):
            acc = _mat_mul(mats[i - 1], acc)
        out.append(acc)
    return out


@dataclass(frozen=True)
class GradedCharacter:
    """Graded character of the quotient W-representation.

    ``values[d][j]`` is the trace of the degree-d action matrix at the j-th
    conjugacy class of ``cycle_types``.  The degrees and the graded
    dimensions (the traces of the identity) are read from ``values``.
    """

    cycle_types: tuple[Partition, ...]
    values: tuple[tuple[Rational, ...], ...]

    @property
    def degrees(self) -> range:
        return range(len(self.values))

    @property
    def q_dims(self) -> tuple[int, ...]:
        """The identity-class column; a non-integral entry raises."""
        j = self.cycle_types.index(Partition([1] * self.cycle_types[0].n))
        if any(row[j] != int(row[j]) for row in self.values):
            raise ValueError("an identity trace is not an integer")
        return tuple(int(row[j]) for row in self.values)

    def value(self, degree: int, cycle_type: Partition) -> Rational:
        return self.values[degree][self.cycle_types.index(cycle_type)]

    def degree_row(self, degree: int) -> dict[Partition, Rational]:
        return dict(zip(self.cycle_types, self.values[degree], strict=True))


def graded_character(M: ImageModule,
                     stability: StabilityReport) -> GradedCharacter:
    """Traces of the quotient action at one representative per conjugacy
    class."""
    classes = conjugacy_classes(M.P.shape.n)
    columns: list[list[Rational]] = [[] for _ in M.lifts]
    for cls in classes:
        mats = quotient_action_matrix(M, stability, cls.rep)
        for d, mat in enumerate(mats):
            columns[d].append(sum(mat[r][r] for r in range(len(mat))))
    return GradedCharacter(tuple(c.cycle_type for c in classes),
                           tuple(tuple(col) for col in columns))
