"""Localization engine for the fixed-point image module and its Weyl action.

The engine receives restriction vectors of cohomology classes to a fixed-point
word set P (functions P -> Q[z_1..z_k], one homogeneous polynomial per word)
and studies the Q[z]-module M they generate inside Fun(P) ⊗ Q[z]:

* ``build_image_module`` computes, degree by degree up to the top generator
  degree, the graded dimensions q_d of the quotient M / Q[z]^+ M, with a
  chosen *lift* (an input generator) for each quotient basis vector and the
  exact expression of every other generator over the lifts modulo Q[z]^+ M.
* ``augmentation_quotient`` certifies completeness of the quotient (its
  dimensions must sum to |P|).
* ``freeness_certificate`` certifies that M is free over Q[z] with the lifts
  as basis, via the per-degree rank identity rank M_d = Σ_e q_e · dim Q[z]_{d−e}.
  Both certificates raise :class:`CertificateError` at the failing degree.
* ``verify_w_stability`` certifies the Weyl group action (permutation of the
  P-coordinates) through s_1 … s_{n−1} and keeps their quotient matrices;
  ``quotient_action_matrix`` multiplies them along a reduced word of any w,
  and ``graded_character`` traces the products.

Every stage after the build reads the ``ImageModule`` itself; each certificate
is computed once, by the stage that needs it.

The input picks one of two exact builds; there is no option to choose.  A
regular shape (every part of λ is 1) with one generator per word is built
syzygy-free when the fiber certificate passes at its one point, every other
input by echelon; ``ImageModule.mode`` records which.

echelon mode
    Per degree d, a sparse echelon of the products {monomial · lift} over all
    lower-degree lifts is assembled.  By induction on degree these products
    span (Q[z]^+ M)_d exactly: every generator of degree e < d has already
    been written over the lifts modulo (Q[z]^+ M)_e, so M_e lies in the
    Q[z]-span of the lifts of degree <= e.  Degree-d generators are reduced
    against the product span and then against each other with exact
    dependence tracking; the survivors are the lifts, the dependencies are
    the quotient coordinates.  Ranks are true ranks, so completeness and
    freeness are direct exact computations.  The echelons are locals of the
    build and are freed with it; the W-action is certified through rewriting
    expressions as in syzygy-free mode.

syzygy-free mode
    Used for the staircase family of a regular-shape word set, which has
    exactly |P| members.  A fiber certificate — the square matrix of
    generator values at the integer point ζ = (2, 3, 5, …) is nonsingular —
    proves the generators linearly independent over the fraction field Q(z),
    hence the module they generate is free *on the generators themselves*
    with no relations at all.  Then q_d is simply the number of degree-d
    generators, every generator is its own lift, and the W-action is
    certified through the same rewriting expressions.  Nonsingularity is
    established once, by the build, modulo one large prime (sound direction:
    nonzero mod p implies nonzero over Q); the build records ζ as
    ``ImageModule.fiber_point``.  A matrix that is singular modulo the prime
    is not decided further: the echelon build takes the input and decides
    exactly.

In both modes ``verify_w_stability`` reads an ``expression_provider(gen_index,
w)``: the exact expression of the moved generator w·gens[gen_index] as
``{other_gen_index: coefficient in Q[z]}``.  The staircase normal forms of
:mod:`springerloc.straighten` supply this for restriction families: the paper's
s_i·ι*(y^a) = ι*(y^{s_i·a}), with y^{s_i·a} rewritten over staircase classes.
Every expression is expanded and compared with the moved lift entrywise.

Restriction vectors and expressions of integral data carry ``int``
coefficients, so the expansions run in integer arithmetic.  The echelon
build eliminates in integers too; a ``Fraction`` appears only where a
dependent generator's ``gen_class`` coefficient is not an integer, and from
there in the s_i matrices and their traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (CertificateError, GuardrailError, MalformedInputError,
                     StabilityError)
from .exactalg import (Exponent, Rational, SparseEchelon, SparsePoly,
                       SparseVec, TrackedEchelon, monomial_count,
                       monomials_of_degree)
from .flagmodel import FixedPointVector
from .symgroup import (FixedPointSet, Partition, Permutation, coset_action,
                       conjugacy_classes)

ExpressionProvider = Callable[[int, Permutation], Mapping[int, SparsePoly]]
Matrix = tuple[tuple[Rational, ...], ...]

# Guardrail: refuse echelon builds whose per-degree coordinate space would be
# absurdly large (the regular-shape family must go through syzygy-free mode).
ECHELON_AMBIENT_LIMIT = 500_000

_POINT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
_FIBER_PRIME = (1 << 61) - 1


# ---------------------------------------------------------------------------
# Coordinate plumbing.
# ---------------------------------------------------------------------------

def _index_map(k: int, degree: int) -> dict[Exponent, int]:
    return {exps: i for i, exps in enumerate(monomials_of_degree(k, degree))}

def _vector_coords(vec: FixedPointVector, imap: Mapping[Exponent, int],
                   block: int) -> SparseVec:
    out: SparseVec = {}
    for i, poly in enumerate(vec.entries):
        base = i * block
        for exps, c in poly.terms.items():
            out[base + imap[exps]] = c
    return out

def _shifted_coords(vec: FixedPointVector, shift: Exponent,
                    imap: Mapping[Exponent, int], block: int) -> SparseVec:
    out: SparseVec = {}
    for i, poly in enumerate(vec.entries):
        base = i * block
        for exps, c in poly.terms.items():
            moved = tuple(a + b for a, b in zip(exps, shift))
            out[base + imap[moved]] = c
    return out

def act_on_vector(P: FixedPointSet, vec: FixedPointVector,
                  w: Permutation) -> FixedPointVector:
    """Left W-action on restriction vectors: (w·f)(ω) = f(ω·w)."""
    action = coset_action(P, w)
    return FixedPointVector(tuple(vec.entries[action[i]]
                                  for i in range(len(vec.entries))), vec.degree)


# ---------------------------------------------------------------------------
# The fiber certificate (a modular shortcut in the sound direction only).
# ---------------------------------------------------------------------------

def _rank_mod_p(rows: Sequence[Sequence[Rational]], p: int) -> int | None:
    """Row rank of a rational matrix reduced mod p; None if p divides a denominator."""
    mat: list[list[int]] = []
    for row in rows:
        red = []
        for x in row:
            if x.denominator % p == 0:
                return None
            red.append(x.numerator * pow(x.denominator, p - 2, p) % p)
        mat.append(red)
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank

def _fiber_certificate(gens: Sequence[FixedPointVector],
                       k: int) -> tuple[int, ...] | None:
    """The point (2, 3, 5, …) if the |gens| x |P| value matrix there has full
    row rank modulo ``_FIBER_PRIME`` (full rank mod p forces full rank over
    Q); None otherwise, and the echelon build decides exactly."""
    point = _POINT_PRIMES[:k]
    rows = [[poly.evaluate(point) for poly in g.entries] for g in gens]
    return point if _rank_mod_p(rows, _FIBER_PRIME) == len(rows) else None


# ---------------------------------------------------------------------------
# The image module.
# ---------------------------------------------------------------------------

class ImageModule:
    """Graded presentation data of the module generated by restriction vectors.

    Attributes of interest: ``mode`` ("echelon" or "syzygy-free"), ``q_dims``
    (graded dimensions of M / Q[z]^+ M), ``lifts`` (per degree, the indices of
    the generators kept as quotient basis), ``gen_class`` (per generator, its
    exact quotient coordinates over same-degree lifts), and ``ranks`` (rank of
    M_d for each degree up to the bound).
    """

    def __init__(self, P: FixedPointSet, gens: tuple[FixedPointVector, ...],
                 degree_bound: int, mode: str, q_dims: tuple[int, ...],
                 lifts: tuple[tuple[int, ...], ...],
                 gen_class: tuple[dict[int, Rational], ...],
                 ranks: tuple[int, ...], fiber_point: tuple[int, ...] | None):
        self.P = P
        self.gens = gens
        self.degree_bound = degree_bound
        self.mode = mode
        self.q_dims = q_dims
        self.lifts = lifts
        self.gen_class = gen_class
        self.ranks = ranks
        self.fiber_point = fiber_point

    @property
    def k(self) -> int:
        return len(self.P.shape)

    def rank(self, degree: int) -> int:
        return self.ranks[degree]

    def __repr__(self) -> str:
        return (f"ImageModule(shape={self.P.shape}, mode={self.mode!r}, "
                f"q_dims={self.q_dims})")


def build_image_module(P: FixedPointSet,
                       gens: Iterable[FixedPointVector]) -> ImageModule:
    """Graded presentation of the module generated by ``gens`` up to their top
    degree: syzygy-free when every part of λ is 1, there is one generator per
    word and the fiber certificate passes; echelon otherwise."""
    gens = tuple(gens)
    if not gens:
        raise MalformedInputError("no generators supplied")
    k = len(P.shape)
    for g in gens:
        if len(g.entries) != P.size:
            raise MalformedInputError("generator length does not match word set")
        if g.k != k:
            raise MalformedInputError("generator arity does not match word set")
    degree_bound = max(g.degree for g in gens)

    if all(part == 1 for part in P.shape) and len(gens) == P.size:
        fiber_point = _fiber_certificate(gens, k)
        if fiber_point is not None:
            return _build_syzygy_free(P, gens, degree_bound, fiber_point)
    return _build_echelon(P, gens, degree_bound)


def _build_syzygy_free(P: FixedPointSet, gens: tuple[FixedPointVector, ...],
                       degree_bound: int, fiber_point: tuple[int, ...],
                       ) -> ImageModule:
    k = len(P.shape)
    lifts = tuple(tuple(i for i, g in enumerate(gens) if g.degree == d)
                  for d in range(degree_bound + 1))
    q_dims = tuple(len(ls) for ls in lifts)
    gen_class = tuple({i: 1} for i in range(len(gens)))
    ranks = tuple(sum(q_dims[e] * monomial_count(k, d - e)
                      for e in range(d + 1))
                  for d in range(degree_bound + 1))
    return ImageModule(P, gens, degree_bound, "syzygy-free", q_dims, lifts,
                       gen_class, ranks, fiber_point)


def _build_echelon(P: FixedPointSet, gens: tuple[FixedPointVector, ...],
                   degree_bound: int) -> ImageModule:
    k = len(P.shape)
    ambient_top = P.size * monomial_count(k, degree_bound)
    if ambient_top > ECHELON_AMBIENT_LIMIT:
        raise GuardrailError("echelon ambient dimension", ambient_top,
                             ECHELON_AMBIENT_LIMIT)

    by_degree: list[list[int]] = [[] for _ in range(degree_bound + 1)]
    for i, g in enumerate(gens):
        by_degree[g.degree].append(i)

    lifts: list[tuple[int, ...]] = []
    q_dims: list[int] = []
    ranks: list[int] = []
    gen_class: list[dict[int, Rational] | None] = [None] * len(gens)

    for d in range(degree_bound + 1):
        imap = _index_map(k, d)
        block = monomial_count(k, d)
        prod = SparseEchelon()
        for e in range(d):
            for gi in lifts[e]:
                g = gens[gi]
                for shift in monomials_of_degree(k, d - e):
                    prod.insert(_shifted_coords(g, shift, imap, block))
        solver = TrackedEchelon()
        kept: list[int] = []
        for gi in by_degree[d]:
            reduced = prod.reduce(_vector_coords(gens[gi], imap, block))
            dep = solver.insert(gi, reduced)
            if dep is None:
                kept.append(gi)
                gen_class[gi] = {gi: 1}
            else:
                gen_class[gi] = dep
        lifts.append(tuple(kept))
        q_dims.append(len(kept))
        ranks.append(prod.rank + len(kept))

    return ImageModule(P, gens, degree_bound, "echelon", tuple(q_dims),
                       tuple(lifts), tuple(gen_class), tuple(ranks), None)


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
    """Certify that M is free over Q[z] on the lifts: the per-degree rank
    identity rank M_d = Σ_e q_e · dim Q[z]_{d−e} must hold in every degree.

    In echelon mode the ranks are true echelon ranks.  In syzygy-free mode
    the identity holds by construction; the certificate is the fiber
    nonsingularity that the build established at ``M.fiber_point`` (every
    generator is a lift, so the build checked the lift matrix itself).
    """
    for d in range(M.degree_bound + 1):
        expected = sum(M.q_dims[e] * monomial_count(M.k, d - e)
                       for e in range(d + 1))
        if M.rank(d) != expected:
            raise CertificateError(
                "freeness", f"rank {M.rank(d)} != free prediction {expected}",
                degree=d, partial=M.q_dims)


# ---------------------------------------------------------------------------
# W-action on the module and the quotient.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    passed: bool
    checked_lifts: int
    fully_expanded: int
    failures: tuple[str, ...]
    generator_matrices: tuple[tuple[Matrix, ...], ...]  # [d][i - 1]: s_i in degree d


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


def _expression_residual(M: ImageModule, moved: FixedPointVector,
                         expr: Mapping[int, SparsePoly]) -> bool:
    """Exact check that ``moved`` equals sum(expr[g] * gens[g]) entrywise."""
    for i, entry in enumerate(moved.entries):
        acc = SparsePoly.zero(M.k)
        for gi, coeff in expr.items():
            acc = acc + coeff * M.gens[gi].entries[i]
        if acc != entry:
            return False
    return True


def _provider_expression(M: ImageModule, provider: ExpressionProvider,
                         gen_index: int, w: Permutation,
                         ) -> dict[int, SparsePoly]:
    expr = dict(provider(gen_index, w))
    d = M.gens[gen_index].degree
    for gi, coeff in expr.items():
        if not coeff.is_homogeneous(d - M.gens[gi].degree):
            raise StabilityError(
                f"expression for generator {gen_index} under {w!r} is not "
                f"homogeneous of degree {d}")
    return expr


def verify_w_stability(M: ImageModule,
                       expression_provider: ExpressionProvider,
                       ) -> StabilityReport:
    """Verify that s_1 … s_{n−1} map each graded piece M_d into itself.

    Only the lifts need direct verification: products are moved to products by
    Q[z]-linearity of the action (w·(m·v) = m·(w·v)), so their stability is
    implied.  ``expression_provider`` gives the exact rewriting expression of
    each moved lift over the generators, the same route in both modes.  Every
    expression is fully expanded and compared with the moved lift entrywise,
    which proves that the moved lift lies in M_d; ``fully_expanded`` counts
    the expansions and equals ``checked_lifts``.

    Read modulo Q[z]^+ M, each expression is a column of the quotient matrix
    of s_i.  Last, the Coxeter relations (s_i s_j)^m = 1 (m = 1, 3, 2 for
    |i − j| = 0, 1, ≥ 2) are checked on the matrices of every degree: they
    define an S_n-action.
    """
    n = M.P.shape.n
    simple = [Permutation.adjacent_transposition(n, i) for i in range(1, n)]
    failures: list[str] = []
    checked = 0
    matrices: list[tuple[Matrix, ...]] = []
    for d in range(M.degree_bound + 1):
        pos = {gi: r for r, gi in enumerate(M.lifts[d])}
        per_degree: list[Matrix] = []
        for w in simple:
            cols: list[list[Rational]] = []
            for gi in M.lifts[d]:
                checked += 1
                col = [0] * len(pos)
                expr = _provider_expression(M, expression_provider, gi, w)
                moved = act_on_vector(M.P, M.gens[gi], w)
                if not _expression_residual(M, moved, expr):
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
    return StabilityReport(not failures, checked, checked,
                           tuple(failures), tuple(matrices))


def quotient_action_matrix(M: ImageModule, stability: StabilityReport,
                           w: Permutation) -> list[Matrix]:
    """Matrices of w on each graded quotient piece, in the lift bases.

    Entry [r][c] of the degree-d matrix is the coefficient of lift r in the
    quotient class of w · (lift c): a product of the certified generator
    matrices of ``stability`` along a reduced word of w, with no solving.
    """
    if not stability.passed:
        raise StabilityError("the quotient action is not certified: "
                             + "; ".join(stability.failures[:3]))
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
    conjugacy class of ``cycle_types``.
    """

    shape: Partition
    degrees: tuple[int, ...]
    cycle_types: tuple[Partition, ...]
    values: tuple[tuple[Rational, ...], ...]
    q_dims: tuple[int, ...]

    def value(self, degree: int, cycle_type: Partition) -> Rational:
        return self.values[degree][self.cycle_types.index(cycle_type)]

    def degree_row(self, degree: int) -> dict[Partition, Rational]:
        return dict(zip(self.cycle_types, self.values[degree]))


def graded_character(M: ImageModule,
                     stability: StabilityReport) -> GradedCharacter:
    """Traces of the quotient action at one representative per conjugacy class.

    The identity-class column doubles as a self-check: its trace must equal
    the quotient dimension in every degree.
    """
    n = M.P.shape.n
    classes = conjugacy_classes(n)
    degrees = tuple(range(M.degree_bound + 1))
    columns: list[list[Rational]] = [[] for _ in degrees]
    for cls in classes:
        mats = quotient_action_matrix(M, stability, cls.rep)
        for d in degrees:
            trace = sum(mats[d][r][r] for r in range(len(mats[d])))
            if cls.cycle_type == Partition([1] * n) and trace != M.q_dims[d]:
                raise CertificateError(
                    "action", f"identity trace {trace} != quotient dimension "
                    f"{M.q_dims[d]}", degree=d)
            columns[d].append(trace)
    return GradedCharacter(M.P.shape, degrees,
                           tuple(c.cycle_type for c in classes),
                           tuple(tuple(col) for col in columns),
                           M.q_dims)
