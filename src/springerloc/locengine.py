"""Localization engine for the fixed-point image module and its Weyl action.

The engine receives the staircase exponents a of a fixed-point word set P and
studies the Q[z]-module M generated inside Fun(P) ⊗ Q[z] by the restriction
vectors ι*(y^a): at the word ω the single monomial ∏_i z_{ω(i)}^{a_i} with
coefficient 1.  ``ImageModule.gens`` holds each generator as |P| packed ints
(``flagmodel.packed_restrictions``, at the one width ``ImageModule.width``):
no polynomial is built per (generator, word) pair.

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
  ``graded_character`` pushes each unit vector e_c through them along a
  reduced word of each class representative and traces the results.

The quotient matrices hold a few nonzeros per column, so they exist only as
sparse columns (column c as {row: nonzero entry}, ``StabilityReport.columns``),
from the stability check that builds and certifies them to the traces:
``_apply`` maps a sparse vector through one matrix, and no dense matrix is
formed.

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
No expression is evaluated at a word.  The normal forms are certified by
their rewrite steps instead: one audit of the reducer's memo
(``StaircaseReducer.audit``) after the last normal form, with the relations
certificate, proves each memo entry an identity of restriction vectors, the
build's entries included; one check per s_i proves that the pullback by
``coset_action`` moves ι*(y_j) to ι*(y_{s_i(j)}); and each expression is
tied to the memo entry of its moved monomial on what the quotient columns
read.

The normal forms of integral data carry ``int`` coefficients.  The build
eliminates in integers too; a ``Fraction`` appears only where a dependent
generator's ``gen_class`` coefficient is not an integer, and from there in
the s_i matrices and their traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CertificateError, MalformedInputError
from .exactalg import (Exponent, Rational, SparseEchelon, SparsePoly,
                       TrackedEchelon, field_width)
from .flagmodel import packed_restrictions
from .straighten import StaircaseReducer
from .symgroup import (FixedPointSet, Partition, Permutation, coset_action,
                       conjugacy_classes)

ExpressionProvider = Callable[[int, Permutation], Mapping[int, SparsePoly]]
Column = dict[int, Rational]  # a sparse matrix column: row -> entry

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

    It stores the staircase exponent of each generator (``exps``), the
    generators as packed rows (``gens[i][j]`` is ι*(y^exps[i]) at word j,
    packed at ``width`` bits per variable), ``lifts`` (per degree, the
    indices of the generators kept as quotient basis), ``gen_class`` (per
    generator, its exact quotient coordinates over same-degree lifts) and
    ``relations`` (the relations the build adopted, which the relations
    certificate checks) and ``reducer``, whose normal forms the build read
    and the stability check audits; ``q_dims`` (graded dimensions of
    M / Q[z]^+ M) and ``degree_bound`` are read from ``lifts``.
    """

    P: FixedPointSet
    exps: tuple[Exponent, ...]
    width: int
    gens: tuple[tuple[int, ...], ...]
    lifts: tuple[tuple[int, ...], ...]
    gen_class: tuple[dict[int, Rational], ...]
    relations: tuple[SparsePoly, ...]
    reducer: StaircaseReducer

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


def build_image_module(P: FixedPointSet, exps: Sequence[Exponent],
                       reducer: StaircaseReducer) -> ImageModule:
    """Graded presentation of the module generated by the restrictions of
    the staircase classes y^exps[i], up to their top degree, whose packed
    rows are laid out at the width of that degree.  Each relation whose
    image becomes a row of J is kept in ``ImageModule.relations``, for the
    relations certificate."""
    exps = tuple(exps)
    if not exps:
        raise MalformedInputError("no generators supplied")
    if reducer.shape != P.shape:
        raise MalformedInputError("the reducer is not of the word set's shape")
    n = P.shape.n
    # columns: the staircase exponents in reverse family order, so that the
    # lifts (taken first in family order) reduce to unit vectors
    stairs = sorted(product(*(range(n - p) for p in range(n))), reverse=True)
    col = {a: j for j, a in enumerate(stairs)}
    for a in exps:
        if a not in col:
            raise MalformedInputError(f"{a!r} is not a staircase exponent")
    degrees = [sum(a) for a in exps]
    top = max(degrees)
    width = field_width(top)
    gens = packed_restrictions(P, exps, width)

    def coords(terms: Iterable[tuple[Exponent, Rational]],
               ) -> dict[int, Rational]:
        return {col[a]: c for a, c in reducer.z_free(terms).items()}

    lifts: list[tuple[int, ...]] = []
    gen_class: list[dict[int, Rational]] = [{} for _ in exps]
    adopted: list[SparsePoly] = []
    # the relations by total degree, each degree read once
    by_degree: dict[int, list[SparsePoly]] = {}
    for rel in reducer.relations:
        by_degree.setdefault(rel.total_degree(), []).append(rel)
    ideal = SparseEchelon()
    for d in range(top + 1):
        products = [[(stairs[j][:i] + (stairs[j][i] + 1,) + stairs[j][i + 1:],
                      c) for j, c in row.items()]
                    for row in ideal.rows.values() for i in range(n)]
        ideal = SparseEchelon()  # J_d: y_i·J_{d−1}, then the relations
        for terms in products:
            ideal.insert(coords(terms))
        for rel in by_degree.get(d, ()):
            if ideal.insert(coords(rel.terms.items())):
                adopted.append(rel)
        solver, kept = TrackedEchelon(), []
        for gi, a in enumerate(exps):
            if degrees[gi] != d:
                continue
            dep = solver.insert(gi, ideal.reduce({col[a]: 1}))
            if dep is None:
                kept.append(gi)
            gen_class[gi] = {gi: 1} if dep is None else dep
        lifts.append(tuple(kept))

    return ImageModule(P, exps, width, gens, tuple(lifts), tuple(gen_class),
                       tuple(adopted), reducer)


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
    mask = (1 << M.width) - 1

    @cache
    def value(e: int) -> int:  # ∏_b ζ_b^{c_b} mod p of the packed z^c
        out = 1
        for b, zeta in enumerate(point):
            out = out * pow(zeta, e >> b * M.width & mask, _FIBER_PRIME)
        return out % _FIBER_PRIME

    order = [(d, gi) for d, kept in enumerate(M.lifts) for gi in kept]
    bad = _first_dependent((list(map(value, M.gens[gi])) for _, gi in order),
                           _FIBER_PRIME)
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
    """What ``verify_w_stability`` checked, and the action it certified.

    ``checked_lifts`` counts the moved lifts, ``fully_expanded`` the
    normal-form memo entries audited, and ``failures`` every failed unit
    row, expression, memo entry or Coxeter relation (the report ``passed``
    when there is none).  ``columns[d][i − 1][c]`` is
    column c of s_i on the degree-d quotient piece, {row: nonzero entry}.
    """

    checked_lifts: int
    fully_expanded: int
    failures: tuple[str, ...]
    columns: tuple[tuple[tuple[Column, ...], ...], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _apply(cols: Sequence[Column], vec: Column) -> Column:
    """A·vec for the matrix A given by its sparse columns.

    Entry r is Σ_k A[r][k]·vec[k] over the nonzero terms only.  An entry
    that cancels to zero is kept: a trace read from the result then has the
    value and the type (``int`` or ``Fraction``) of the trace of the dense
    matrix product, which the tests compare it with."""
    out: Column = {}
    for k, x in vec.items():
        if x:
            for r, a in cols[k].items():
                out[r] = out.get(r, 0) + a * x
    return out


def _image(mats: Sequence[Sequence[Column]], word: Sequence[int],
           c: int) -> Column:
    """Column c of mats[i_1 − 1] ⋯ mats[i_l − 1] for ``word`` = i_1 … i_l:
    the unit vector e_c pushed through the factors, the last one first."""
    vec: Column = {c: 1}
    for i in reversed(word):
        vec = _apply(mats[i - 1], vec)
    return vec


def _coxeter_failures(d: int, mats: Sequence[Sequence[Column]]) -> list[str]:
    """The Coxeter relations (s_i s_j)^m = 1 (m = 1, 3, 2 for |i − j| = 0,
    1, ≥ 2) that the degree-d matrices ``mats[i − 1]`` of s_i break, checked
    exactly on every unit vector."""
    failures = []
    for i in range(1, len(mats) + 1):
        for j in range(i, len(mats) + 1):
            m = {0: 1, 1: 3}.get(j - i, 2)
            for c in range(len(mats[0])):
                vec = _image(mats, [i, j] * m, c)
                if vec.pop(c, 0) != 1 or any(vec.values()):
                    failures.append(f"degree {d}: Coxeter relation "
                                    f"(s_{i} s_{j})^{m} = 1 fails")
                    break
    return failures


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


def _provider_expression(M: ImageModule, provider: ExpressionProvider,
                         gen_index: int, w: Permutation,
                         ) -> dict[int, SparsePoly]:
    expr = provider(gen_index, w)
    if not isinstance(expr, Mapping):
        raise CertificateError("stability", f"expression for generator "
                               f"{gen_index} under {w!r} is not a mapping of "
                               "generator indices to polynomials")
    expr = dict(expr)
    d = sum(M.exps[gen_index])
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
        if not coeff.is_homogeneous(d - sum(M.exps[gi])):
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
    implied.  The paper's s_i·ι*(y^a) = ι*(y^{s_i·a}) rewrites each moved
    lift through the normal form of y^{s_i·a} in ``M.reducer``, and the
    proof has three parts, none of which evaluates an expression at a word:

    * the relations certificate, run before this, shows that every tower
      relation f_j(y_j) vanishes at every word;
    * the audit of the reducer's normal-form memo
      (``StaircaseReducer.audit``), run after the last normal form, checks
      every entry against its rewrite step in Q[y, z], so each entry is an
      identity ι*(y^b) = Σ_γ nf(b)_γ·ι*(y^γ) of restriction vectors; this
      covers the entries the build read through ``z_free`` as well;
    * pulling back by ``coset_action(P, s_i)`` maps each packed unit row
      ι*(y_j) to ι*(y_{s_i(j)}), once per s_i.  ``packed_restrictions``
      builds every generator row as Σ_j a_j·ι*(y_j), and the pullback is a
      ring map, so the pullback of ι*(y^a) is ι*(y^{s_i·a}).

    ``expression_provider`` gives the expression of each moved lift over the
    generators, and it is tied to the memo entry of y^{s_i·a} on what the
    columns read: the same support, and the same constant terms.
    ``fully_expanded`` counts the audited memo entries.

    Read modulo Q[z]^+ M, each expression is a column of the quotient matrix
    of s_i, kept as {row: nonzero entry} in ``StabilityReport.columns``.
    Last, the Coxeter relations (s_i s_j)^m = 1 (m = 1, 3, 2 for |i − j| =
    0, 1, ≥ 2), which define an S_n-action, are checked exactly on these
    columns in every degree, all i <= j: (s_i s_j)^m must fix each e_c.
    """
    n = M.P.shape.n
    simple = [Permutation.adjacent_transposition(n, i) for i in range(1, n)]
    failures: list[str] = []
    units = packed_restrictions(
        M.P, [tuple(int(i == j) for i in range(n)) for j in range(n)],
        M.width)
    for i, w in enumerate(simple, 1):
        action = coset_action(M.P, w)
        for j, unit in enumerate(units, 1):
            if tuple(map(unit.__getitem__, action)) != units[w(j) - 1]:
                failures.append(f"the pullback by s_{i} does not map "
                                f"ι*(y_{j}) to ι*(y_{w(j)})")
    checked = 0
    columns: list[tuple[tuple[Column, ...], ...]] = []
    for d in range(M.degree_bound + 1):
        pos = {gi: r for r, gi in enumerate(M.lifts[d])}
        per_degree: list[tuple[Column, ...]] = []
        for i, w in enumerate(simple, 1):
            cols: list[Column] = []
            for gi in M.lifts[d]:
                checked += 1
                col: Column = {}
                expr = _provider_expression(M, expression_provider, gi, w)
                a = M.exps[gi]
                moved = a[:i - 1] + (a[i], a[i - 1]) + a[i + 1:]  # s_i·a
                parts = M.reducer.constant_parts(moved)
                if len(expr) != len(parts) or parts != {
                        M.exps[src]: coeff.constant_term()
                        for src, coeff in expr.items()}:
                    failures.append(
                        f"degree {d}: expression for lift {gi} under {w!r} "
                        f"is not the normal form of y^{moved}")
                for src, coeff in expr.items():  # lower degrees vanish
                    if sum(M.exps[src]) == d:
                        for lift, beta in M.gen_class[src].items():
                            x = coeff.constant_term() * beta
                            col[pos[lift]] = col.get(pos[lift], 0) + x
                cols.append({r: x for r, x in col.items() if x})
            per_degree.append(tuple(cols))
        columns.append(tuple(per_degree))
        failures += _coxeter_failures(d, per_degree)
    audited, wrong = M.reducer.audit()
    failures += wrong
    return StabilityReport(checked, audited, tuple(failures), tuple(columns))


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
    class.  Entry r of the degree-d matrix of w, column c, is the coefficient
    of lift r in the quotient class of w · (lift c): the unit vector e_c
    pushed through the certified columns of ``stability`` along a reduced
    word of w, with no solving.  The trace sums entry c of each such column.
    A ``stability`` with failures raises :class:`CertificateError`."""
    if not stability.passed:
        failed = "; ".join(stability.failures[:5])
        raise CertificateError("stability", "the quotient action is not "
                               f"certified: {failed}", partial=M.q_dims)
    classes = conjugacy_classes(M.P.shape.n)
    values: list[list[Rational]] = [[] for _ in M.lifts]
    for cls in classes:
        word = _reduced_word(cls.rep)
        for q, mats, row in zip(M.q_dims, stability.columns, values):
            row.append(sum(_image(mats, word, c).get(c, 0) for c in range(q)))
    return GradedCharacter(tuple(c.cycle_type for c in classes),
                           tuple(map(tuple, values)))
