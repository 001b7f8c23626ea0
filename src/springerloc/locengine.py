"""Localization engine for the fixed-point image module and its Weyl action.

The engine receives restriction vectors of cohomology classes to a fixed-point
word set P (functions P -> Q[z_1..z_k], one homogeneous polynomial per word)
and studies the Q[z]-module M they generate inside Fun(P) ⊗ Q[z]:

* ``build_image_module`` computes, degree by degree up to a bound, the graded
  dimensions q_d of the augmentation quotient M / Q[z]^+ M, together with a
  chosen *lift* (an input generator) for each quotient basis vector and the
  exact expression of every other generator over the lifts modulo Q[z]^+ M.
* ``augmentation_quotient`` packages the quotient and certifies completeness
  (the dimensions must sum to |P|).
* ``freeness_certificate`` certifies that M is free over Q[z] with the lifts
  as basis, via the per-degree rank identity rank M_d = Σ_e q_e · dim Q[z]_{d−e}.
* ``verify_w_stability`` / ``quotient_action_matrix`` / ``graded_character``
  transport the Weyl group action (permutation of the P-coordinates) to the
  quotient and extract its graded character.

Two exact build modes are supported.

echelon mode
    Per degree d, a sparse echelon of the products {monomial · lift} over all
    lower-degree lifts is assembled.  By induction on degree these products
    span (Q[z]^+ M)_d exactly: every generator of degree e < d has already
    been written over the lifts modulo (Q[z]^+ M)_e, so M_e lies in the
    Q[z]-span of the lifts of degree <= e.  Degree-d generators are reduced
    against the product span and then against each other with exact
    dependence tracking; the survivors are the lifts, the dependencies are
    the quotient coordinates.  Ranks are true ranks, so every certificate in
    this mode is a direct exact computation.

syzygy-free mode
    Used when the generator family has exactly |P| members (the staircase
    family of a regular-shape word set).  A fiber certificate — the square
    matrix of generator values at one integer point ζ is nonsingular — proves
    the generators linearly independent over the fraction field Q(z), hence
    the module they generate is free *on the generators themselves* with no
    relations at all.  Then q_d is simply the number of degree-d generators,
    every generator is its own lift, and the W-action is certified through
    externally supplied rewriting expressions (see ``expression_provider``)
    that are point-checked and sample-expanded inside the engine.
    Nonsingularity is established modulo a large prime (sound direction:
    nonzero mod p implies nonzero over Q) with an exact fallback.

An ``expression_provider(gen_index, w)`` returns the exact expression of the
moved generator w·gens[gen_index] as ``{other_gen_index: coefficient in Q[z]}``;
the staircase normal forms of :mod:`springerloc.straighten` supply this for
restriction families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (CertificateError, GuardrailError, MalformedInputError,
                     StabilityError)
from .exactalg import (Exponent, SparseEchelon, SparsePoly, SparseVec,
                       TrackedEchelon, monomial_count, monomials_of_degree)
from .flagmodel import FixedPointVector
from .symgroup import (FixedPointSet, Partition, Permutation, coset_action,
                       conjugacy_classes)

ExpressionProvider = Callable[[int, Permutation], Mapping[int, SparsePoly]]

_ZERO = Fraction(0)

# Guardrail: refuse echelon builds whose per-degree coordinate space would be
# absurdly large (the regular-shape family must go through syzygy-free mode).
ECHELON_AMBIENT_LIMIT = 500_000

_POINT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
_MOD_PRIMES = ((1 << 61) - 1, (1 << 31) - 1, 10**9 + 7)


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
# Fiber certificates (exact; modular shortcut in the sound direction only).
# ---------------------------------------------------------------------------

def _distinct_point(k: int, attempt: int) -> tuple[int, ...]:
    base = attempt % (len(_POINT_PRIMES) - k)
    return tuple(_POINT_PRIMES[base + i] for i in range(k))

def _rank_mod_p(rows: Sequence[Sequence[Fraction]], p: int) -> int | None:
    """Row rank of a rational matrix reduced mod p; None if p divides a denominator."""
    mat: list[list[int]] = []
    for row in rows:
        red = []
        for x in row:
            f = Fraction(x)
            if f.denominator % p == 0:
                return None
            red.append(f.numerator * pow(f.denominator, p - 2, p) % p)
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

def _exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    ech = SparseEchelon()
    for row in rows:
        ech.insert({j: Fraction(x) for j, x in enumerate(row) if x})
    return ech.rank

def _rows_full_rank(rows: Sequence[Sequence[Fraction]]) -> bool:
    """True iff the rows are linearly independent over Q (exact answer)."""
    if not rows:
        return True
    want = len(rows)
    if want > len(rows[0]):
        return False
    for p in _MOD_PRIMES:
        if _rank_mod_p(rows, p) == want:
            return True  # sound: full rank mod p forces full rank over Q
    return _exact_rank(rows) == want

def _evaluate_vector(vec: FixedPointVector,
                     point: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(poly.evaluate(point) for poly in vec.entries)

def _fiber_certificate(gens: Sequence[FixedPointVector], k: int,
                       attempts: int = 5) -> tuple[int, ...] | None:
    """Integer point where the |gens| x |P| value matrix has full row rank."""
    for attempt in range(attempts):
        point = _distinct_point(k, 3 * attempt)
        rows = [_evaluate_vector(g, point) for g in gens]
        if _rows_full_rank(rows):
            return point
    return None


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
                 gen_class: tuple[dict[int, Fraction], ...],
                 ranks: tuple[int, ...],
                 product_echelons: tuple[SparseEchelon | None, ...],
                 gen_solvers: tuple[TrackedEchelon | None, ...],
                 fiber_point: tuple[int, ...] | None,
                 expression_provider: ExpressionProvider | None):
        self.P = P
        self.gens = gens
        self.degree_bound = degree_bound
        self.mode = mode
        self.q_dims = q_dims
        self.lifts = lifts
        self.gen_class = gen_class
        self.ranks = ranks
        self.fiber_point = fiber_point
        self.expression_provider = expression_provider
        self._product_echelons = product_echelons
        self._gen_solvers = gen_solvers
        self._index_maps: dict[int, dict[Exponent, int]] = {}
        self._blocks: dict[int, int] = {}
        self._point_evals: dict[int, tuple[Fraction, ...]] = {}
        self._check_point = (fiber_point if fiber_point is not None
                             else _distinct_point(len(P.shape), 0))

    @property
    def k(self) -> int:
        return len(self.P.shape)

    def rank(self, degree: int) -> int:
        return self.ranks[degree]

    def index_map(self, degree: int) -> tuple[dict[Exponent, int], int]:
        imap = self._index_maps.get(degree)
        if imap is None:
            imap = self._index_maps[degree] = _index_map(self.k, degree)
            self._blocks[degree] = monomial_count(self.k, degree)
        return imap, self._blocks[degree]

    def gen_values(self, gen_index: int) -> tuple[Fraction, ...]:
        """Values of a generator at the engine's check point (cached)."""
        got = self._point_evals.get(gen_index)
        if got is None:
            got = self._point_evals[gen_index] = _evaluate_vector(
                self.gens[gen_index], self._check_point)
        return got

    def __repr__(self) -> str:
        return (f"ImageModule(shape={self.P.shape}, mode={self.mode!r}, "
                f"q_dims={self.q_dims})")


def _resolve_mode(mode: str, P: FixedPointSet,
                  gens: Sequence[FixedPointVector]) -> str:
    if mode not in ("auto", "echelon", "syzygy-free"):
        raise MalformedInputError(f"unknown mode {mode!r}")
    if mode == "syzygy-free" and len(gens) != P.size:
        raise MalformedInputError(
            "syzygy-free mode needs exactly one generator per word")
    if mode != "auto":
        return mode
    regular = all(part == 1 for part in P.shape)
    if regular and len(gens) == P.size:
        return "syzygy-free"
    return "echelon"


def build_image_module(P: FixedPointSet, gens: Iterable[FixedPointVector],
                       degree_bound: int | None = None, *, mode: str = "auto",
                       expression_provider: ExpressionProvider | None = None,
                       ) -> ImageModule:
    """Compute the graded presentation of the module generated by ``gens``."""
    gens = tuple(gens)
    if not gens:
        raise MalformedInputError("no generators supplied")
    k = len(P.shape)
    for g in gens:
        if len(g.entries) != P.size:
            raise MalformedInputError("generator length does not match word set")
        if g.k != k:
            raise MalformedInputError("generator arity does not match word set")
    if degree_bound is None:
        degree_bound = max(g.degree for g in gens)
    if any(g.degree > degree_bound for g in gens):
        raise MalformedInputError("generator degree exceeds the degree bound")

    resolved = _resolve_mode(mode, P, gens)
    fiber_point: tuple[int, ...] | None = None
    if resolved == "syzygy-free":
        fiber_point = _fiber_certificate(gens, k)
        if fiber_point is None:
            if mode == "syzygy-free":
                raise CertificateError(
                    "fiber",
                    "generator value matrix is singular at every sampled point")
            resolved = "echelon"

    if resolved == "syzygy-free":
        return _build_syzygy_free(P, gens, degree_bound, fiber_point,
                                  expression_provider)
    return _build_echelon(P, gens, degree_bound, expression_provider)


def _build_syzygy_free(P: FixedPointSet, gens: tuple[FixedPointVector, ...],
                       degree_bound: int, fiber_point: tuple[int, ...],
                       provider: ExpressionProvider | None) -> ImageModule:
    k = len(P.shape)
    lifts = tuple(tuple(i for i, g in enumerate(gens) if g.degree == d)
                  for d in range(degree_bound + 1))
    q_dims = tuple(len(ls) for ls in lifts)
    gen_class = tuple({i: Fraction(1)} for i in range(len(gens)))
    ranks = tuple(sum(q_dims[e] * monomial_count(k, d - e)
                      for e in range(d + 1))
                  for d in range(degree_bound + 1))
    empty = (None,) * (degree_bound + 1)
    return ImageModule(P, gens, degree_bound, "syzygy-free", q_dims, lifts,
                       gen_class, ranks, empty, empty, fiber_point, provider)


def _build_echelon(P: FixedPointSet, gens: tuple[FixedPointVector, ...],
                   degree_bound: int,
                   provider: ExpressionProvider | None) -> ImageModule:
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
    gen_class: list[dict[int, Fraction] | None] = [None] * len(gens)
    product_echelons: list[SparseEchelon] = []
    gen_solvers: list[TrackedEchelon] = []

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
                gen_class[gi] = {gi: Fraction(1)}
            else:
                gen_class[gi] = dep
        lifts.append(tuple(kept))
        q_dims.append(len(kept))
        ranks.append(prod.rank + len(kept))
        product_echelons.append(prod)
        gen_solvers.append(solver)

    return ImageModule(P, gens, degree_bound, "echelon", tuple(q_dims),
                       tuple(lifts), tuple(gen_class), tuple(ranks),
                       tuple(product_echelons), tuple(gen_solvers),
                       None, provider)


# ---------------------------------------------------------------------------
# Augmentation quotient and certificates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuotientPresentation:
    """The augmentation quotient M / Q[z]^+ M with chosen lifts."""

    module: ImageModule
    dims: tuple[int, ...]
    lift_indices: tuple[tuple[int, ...], ...]
    lift_vectors: tuple[tuple[FixedPointVector, ...], ...]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def poincare(self) -> tuple[int, ...]:
        return self.dims


_FIXED_POINT_COUNT = object()  # default sentinel: certify against |P|


def augmentation_quotient(M: ImageModule,
                          expected_total=_FIXED_POINT_COUNT,
                          ) -> QuotientPresentation:
    """Package the quotient; certify completeness against ``expected_total``.

    ``expected_total`` defaults to |P|; pass ``None`` to skip the completeness
    certificate (experiment mode for generator families that are not expected
    to fill the whole function space).
    """
    if expected_total is _FIXED_POINT_COUNT:
        expected_total = M.P.size
    total = sum(M.q_dims)
    if expected_total is not None and total != expected_total:
        raise CertificateError(
            "completeness",
            f"quotient dimensions sum to {total}, expected {expected_total} "
            f"by degree {M.degree_bound}",
            degree=M.degree_bound, partial=M.q_dims)
    vectors = tuple(tuple(M.gens[i] for i in row) for row in M.lifts)
    return QuotientPresentation(M, M.q_dims, M.lifts, vectors)


@dataclass(frozen=True)
class FreenessReport:
    passed: bool
    mode: str
    per_degree: tuple[tuple[int, int, int], ...]  # (degree, rank, expected)
    fiber_point: tuple[int, ...] | None
    failures: tuple[str, ...]


def freeness_certificate(M: ImageModule,
                         Q: QuotientPresentation) -> FreenessReport:
    """Certify that M is free over Q[z] on the lifts.

    In echelon mode this is the exact per-degree rank identity
    rank M_d = Σ_e q_e · dim Q[z]_{d−e} computed from true echelon ranks.  In
    syzygy-free mode the identity holds by construction; the certificate is
    the fiber nonsingularity, which is re-established here at a fresh point.
    """
    if Q.module is not M:
        raise MalformedInputError("quotient does not belong to this module")
    k = M.k
    failures: list[str] = []
    per_degree: list[tuple[int, int, int]] = []
    for d in range(M.degree_bound + 1):
        expected = sum(M.q_dims[e] * monomial_count(k, d - e)
                       for e in range(d + 1))
        got = M.rank(d)
        per_degree.append((d, got, expected))
        if got != expected:
            failures.append(f"degree {d}: rank {got} != free prediction {expected}")
    fiber_point = M.fiber_point
    if M.mode == "syzygy-free":
        all_lifts = [M.gens[i] for row in M.lifts for i in row]
        fiber_point = _fiber_certificate(all_lifts, k, attempts=7)
        if fiber_point is None:
            failures.append("lift fiber matrix singular at every sampled point")
    return FreenessReport(not failures, M.mode, tuple(per_degree),
                          fiber_point, tuple(failures))


# ---------------------------------------------------------------------------
# W-action on the module and the quotient.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    passed: bool
    mode: str
    checked_lifts: int
    implied_products: int
    point_checked: int
    fully_expanded: int
    failures: tuple[str, ...]


def _solve_in_module(M: ImageModule, degree: int, vec: FixedPointVector,
                     ) -> tuple[dict[int, Fraction], SparseVec]:
    """Express a degree-d vector over same-degree lifts modulo (Q[z]^+ M)_d.

    Echelon mode only.  The residual is empty exactly when the vector lies in
    M_d; the combination is keyed by lift generator indices.
    """
    imap, block = M.index_map(degree)
    coords = _vector_coords(vec, imap, block)
    reduced = M._product_echelons[degree].reduce(coords)
    return M._gen_solvers[degree].solve(reduced)


def _expression_residual(M: ImageModule, moved: FixedPointVector,
                         expr: Mapping[int, SparsePoly]) -> bool:
    """Exact check that ``moved`` equals sum(expr[g] * gens[g]) entrywise."""
    size = len(moved.entries)
    acc = [SparsePoly.zero(M.k) for _ in range(size)]
    for gi, coeff in expr.items():
        g = M.gens[gi]
        for i in range(size):
            if not g.entries[i].is_zero() and not coeff.is_zero():
                acc[i] = acc[i] + coeff * g.entries[i]
    return all((acc[i] - moved.entries[i]).is_zero() for i in range(size))


def _expression_point_check(M: ImageModule, gen_index: int, w: Permutation,
                            expr: Mapping[int, SparsePoly]) -> bool:
    """Spot-check an expression at the engine's integer point (exact equality)."""
    action = coset_action(M.P, w)
    base = M.gen_values(gen_index)
    lhs = [base[action[i]] for i in range(M.P.size)]
    rhs = [_ZERO] * M.P.size
    pt = M._check_point
    for gi, coeff in expr.items():
        c = coeff.evaluate(pt)
        if not c:
            continue
        vals = M.gen_values(gi)
        for i in range(M.P.size):
            if vals[i]:
                rhs[i] += c * vals[i]
    return lhs == rhs


def _provider_expression(M: ImageModule, gen_index: int, w: Permutation,
                         ) -> dict[int, SparsePoly]:
    if M.expression_provider is None:
        raise MalformedInputError(
            "syzygy-free mode needs an expression provider for the W-action")
    expr = dict(M.expression_provider(gen_index, w))
    d = M.gens[gen_index].degree
    for gi, coeff in expr.items():
        if not coeff.is_homogeneous(d - M.gens[gi].degree):
            raise StabilityError(
                f"expression for generator {gen_index} under {w!r} is not "
                f"homogeneous of degree {d}")
    return expr


def verify_w_stability(M: ImageModule,
                       elements: Sequence[Permutation] | None = None,
                       ) -> StabilityReport:
    """Verify that the W-action maps each graded piece M_d into itself.

    Only the lifts need direct verification: products are moved to products by
    Q[z]-linearity of the action (w·(m·v) = m·(w·v)), so their stability is
    implied.  Echelon mode reduces each moved lift to an exact zero residual
    inside M_d.  Syzygy-free mode obtains an exact rewriting expression from
    the provider; every expression is point-checked at an integer point and a
    deterministic sample (all of them for small word sets) is fully expanded
    and compared entrywise.
    """
    n = M.P.shape.n
    if elements is None:
        elements = [Permutation.adjacent_transposition(n, i)
                    for i in range(1, n)]
    failures: list[str] = []
    checked = 0
    point_checked = 0
    fully_expanded = 0
    expand_all = M.P.size <= 24
    for d in range(M.degree_bound + 1):
        for w in elements:
            first = True
            for gi in M.lifts[d]:
                checked += 1
                moved = act_on_vector(M.P, M.gens[gi], w)
                if M.mode == "echelon":
                    _, residual = _solve_in_module(M, d, moved)
                    if residual:
                        failures.append(
                            f"degree {d}: moved lift {gi} escapes M_d under {w!r}")
                else:
                    expr = _provider_expression(M, gi, w)
                    point_checked += 1
                    if not _expression_point_check(M, gi, w, expr):
                        failures.append(
                            f"degree {d}: expression for lift {gi} under {w!r} "
                            "fails its point check")
                    elif expand_all or first:
                        fully_expanded += 1
                        if not _expression_residual(M, moved, expr):
                            failures.append(
                                f"degree {d}: expression for lift {gi} under "
                                f"{w!r} fails exact expansion")
                first = False
    implied = sum(M.rank(d) - M.q_dims[d] for d in range(M.degree_bound + 1))
    return StabilityReport(not failures, M.mode, checked, implied,
                           point_checked, fully_expanded, tuple(failures))


def quotient_action_matrix(Q: QuotientPresentation, w: Permutation,
                           ) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Matrices of w on each graded quotient piece, in the lift bases.

    Entry [r][c] of the degree-d matrix is the coefficient of lift r in the
    quotient class of w · (lift c).
    """
    M = Q.module
    out: list[tuple[tuple[Fraction, ...], ...]] = []
    for d in range(M.degree_bound + 1):
        lift_ids = Q.lift_indices[d]
        pos = {gi: r for r, gi in enumerate(lift_ids)}
        q = len(lift_ids)
        cols: list[list[Fraction]] = []
        for gi in lift_ids:
            col = [_ZERO] * q
            if M.mode == "echelon":
                moved = act_on_vector(M.P, M.gens[gi], w)
                combo, residual = _solve_in_module(M, d, moved)
                if residual:
                    raise StabilityError(
                        f"degree {d}: moved lift {gi} is not in M_d under {w!r}")
                for src, c in combo.items():
                    col[pos[src]] = c
            else:
                expr = _provider_expression(M, gi, w)
                if not _expression_point_check(M, gi, w, expr):
                    raise StabilityError(
                        f"degree {d}: expression for lift {gi} under {w!r} "
                        "fails its point check")
                for src, coeff in expr.items():
                    if M.gens[src].degree != d:
                        continue  # strictly lower degree: dies in the quotient
                    c = coeff.constant_term()
                    if not c:
                        continue
                    for lift_id, beta in M.gen_class[src].items():
                        col[pos[lift_id]] += c * beta
            cols.append(col)
        out.append(tuple(tuple(cols[c][r] for c in range(q))
                         for r in range(q)))
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
    values: tuple[tuple[Fraction, ...], ...]
    q_dims: tuple[int, ...]

    def value(self, degree: int, cycle_type: Partition) -> Fraction:
        return self.values[degree][self.cycle_types.index(cycle_type)]

    def degree_row(self, degree: int) -> dict[Partition, Fraction]:
        return dict(zip(self.cycle_types, self.values[degree]))


def graded_character(Q: QuotientPresentation,
                     cycle_types: Sequence[Partition] | None = None,
                     ) -> GradedCharacter:
    """Traces of the quotient action at one representative per conjugacy class.

    The identity-class column doubles as a self-check: its trace must equal
    the quotient dimension in every degree.
    """
    M = Q.module
    n = M.P.shape.n
    classes = conjugacy_classes(n)
    if cycle_types is not None:
        wanted = set(cycle_types)
        classes = [c for c in classes if c.cycle_type in wanted]
    degrees = tuple(range(M.degree_bound + 1))
    columns: list[list[Fraction]] = [[] for _ in degrees]
    for cls in classes:
        mats = quotient_action_matrix(Q, cls.rep)
        for d in degrees:
            trace = sum((mats[d][r][r] for r in range(len(mats[d]))), _ZERO)
            if cls.cycle_type == Partition([1] * n) and trace != M.q_dims[d]:
                raise CertificateError(
                    "action", f"identity trace {trace} != quotient dimension "
                    f"{M.q_dims[d]}", degree=d)
            columns[d].append(trace)
    return GradedCharacter(M.P.shape, degrees,
                           tuple(c.cycle_type for c in classes),
                           tuple(tuple(col) for col in columns),
                           M.q_dims)
