"""Localization engine: ranks, modes, quotient, certificates, action matrices.

Rank values are cross-checked against a from-scratch dense matrix handed to
sympy (independent linear algebra), and the two engine modes are cross-checked
against each other on shapes where both apply.
"""

import math
import random
from fractions import Fraction

import pytest
from sympy import Matrix

from springerloc import locengine
from springerloc.errors import (
    CertificateError,
    GuardrailError,
    MalformedInputError,
    StabilityError,
)
from springerloc.exactalg import SparsePoly, monomials_of_degree
from springerloc.flagmodel import (
    FixedPointVector,
    springer_restriction,
    weyl_act_on_class,
)
from springerloc.locengine import (
    ECHELON_AMBIENT_LIMIT,
    act_on_vector,
    augmentation_quotient,
    build_image_module,
    freeness_certificate,
    graded_character,
    quotient_action_matrix,
    verify_w_stability,
)
from springerloc.springer import make_expression_provider, staircase_family
from springerloc.straighten import StaircaseReducer
from springerloc.symgroup import (
    Partition,
    Permutation,
    all_permutations,
    fixed_point_set,
    partitions_of,
)

rng = random.Random(60211)


def staircase_module(parts, *, mode="auto", bound=None):
    shape = Partition(parts)
    if bound is None:
        bound = shape.top_degree()
    P, gens, exps = staircase_family(shape, bound)
    provider = make_expression_provider(StaircaseReducer(shape), exps)
    return build_image_module(P, gens, bound, mode=mode,
                              expression_provider=provider)


def dense_product_rows(P, gens, degree, k):
    """All degree-d products (z-monomial) x (generator) as dense rows."""
    cols = list(monomials_of_degree(k, degree))
    col_index = {e: j for j, e in enumerate(cols)}
    width = len(cols)
    rows = []
    for g in gens:
        if g.degree > degree:
            continue
        for mono in monomials_of_degree(k, degree - g.degree):
            mpoly = SparsePoly.monomial(k, mono)
            row = [Fraction(0)] * (width * P.size)
            for i, entry in enumerate(g.entries):
                for e, c in (mpoly * entry).terms.items():
                    row[i * width + col_index[e]] = c
            rows.append(row)
    return rows


def mat_mul(a, b):
    q = len(a)
    return tuple(tuple(sum((a[r][j] * b[j][c] for j in range(q)), Fraction(0))
                       for c in range(q)) for r in range(q))


# -- frozen rank values ------------------------------------------------------

def test_hook_shape_ranks_and_quotient_dims():
    M = staircase_module([2, 1], mode="echelon")
    assert M.mode == "echelon"
    assert M.q_dims == (1, 2)
    assert M.ranks == (1, 4)


def test_regular_rank_values_are_the_known_ones():
    M2 = staircase_module([1, 1], mode="echelon")
    assert M2.ranks == (1, 3)
    M3 = staircase_module([1, 1, 1], mode="echelon")
    assert M3.q_dims == (1, 2, 2, 1)
    assert M3.rank(1) == 5


def test_ranks_match_dense_sympy_oracle_up_to_rank_three():
    for n in range(1, 4):
        for lam in partitions_of(n):
            M = staircase_module(lam.parts, mode="echelon")
            P, gens, _ = staircase_family(lam, M.degree_bound)
            for d in range(M.degree_bound + 1):
                rows = dense_product_rows(P, gens, d, len(lam))
                oracle = Matrix(rows).rank() if rows else 0
                assert M.rank(d) == oracle, (lam, d)


# -- mode selection and cross-validation -------------------------------------

def test_auto_mode_selects_syzygy_free_exactly_for_regular_shapes():
    assert staircase_module([1, 1, 1]).mode == "syzygy-free"
    assert staircase_module([1, 1, 1, 1]).mode == "syzygy-free"
    assert staircase_module([2, 2]).mode == "echelon"
    assert staircase_module([2, 1, 1]).mode == "echelon"


def test_syzygy_free_mode_requires_square_family():
    shape = Partition([2, 2])
    P, gens, exps = staircase_family(shape, shape.top_degree())
    assert len(gens) != P.size
    with pytest.raises(MalformedInputError):
        build_image_module(P, gens, shape.top_degree(), mode="syzygy-free")


def test_singular_square_family_fails_the_fiber_certificate():
    P = fixed_point_set(Partition([1, 1]))
    one = SparsePoly.const(2, 1)
    gen = FixedPointVector((one, one), 0)
    with pytest.raises(CertificateError) as exc:
        build_image_module(P, (gen, gen), 0, mode="syzygy-free")
    assert exc.value.stage == "fiber"


def spy_on_exact_rank(monkeypatch) -> list:
    """Record the matrices that reach the exact fallback of the fiber rank."""
    calls = []
    exact = locengine._exact_rank

    def spy(rows):
        calls.append(rows)
        return exact(rows)

    monkeypatch.setattr(locengine, "_exact_rank", spy)
    return calls


def test_fiber_rank_falls_back_to_exact_elimination(monkeypatch):
    calls = spy_on_exact_rank(monkeypatch)
    # singular modulo every fiber prime, nonsingular over Q
    rows = [[Fraction(math.prod(locengine._MOD_PRIMES))]]
    assert locengine._rows_full_rank(rows)
    assert calls == [rows]
    assert locengine._exact_rank(rows) == 1


def test_fiber_rank_exact_fallback_rejects_singular_rows(monkeypatch):
    calls = spy_on_exact_rank(monkeypatch)
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(1, 2), Fraction(1), Fraction(3, 2)]]
    assert not locengine._rows_full_rank(rows)
    assert calls == [rows]
    assert locengine._exact_rank(rows) == Matrix(rows).rank() == 1


def test_modes_agree_on_regular_shapes():
    for parts in ([1, 1], [1, 1, 1], [1, 1, 1, 1]):
        fast = staircase_module(parts)
        slow = staircase_module(parts, mode="echelon")
        assert fast.mode == "syzygy-free" and slow.mode == "echelon"
        assert fast.q_dims == slow.q_dims
        assert fast.ranks == slow.ranks
        assert fast.lifts == slow.lifts
        qf = augmentation_quotient(fast)
        qs = augmentation_quotient(slow)
        n = len(parts)
        for i in range(1, n):
            w = Permutation.adjacent_transposition(n, i)
            assert quotient_action_matrix(qf, w) == quotient_action_matrix(qs, w)
        cf, cs = graded_character(qf), graded_character(qs)
        assert cf.cycle_types == cs.cycle_types
        assert cf.values == cs.values


def test_forced_syzygy_free_agrees_with_echelon_on_a_hook():
    # (2,1) happens to have one staircase generator per word, so the
    # syzygy-free route applies even though the shape is not regular.
    fast = staircase_module([2, 1], mode="syzygy-free")
    slow = staircase_module([2, 1], mode="echelon")
    assert fast.q_dims == slow.q_dims == (1, 2)
    qf, qs = augmentation_quotient(fast), augmentation_quotient(slow)
    assert graded_character(qf).values == graded_character(qs).values


# -- quotient and certificates ------------------------------------------------

def test_completeness_certificate_reports_partial_dimensions():
    shape = Partition([2, 1])
    P, gens, _ = staircase_family(shape, 0)  # constants only
    M = build_image_module(P, gens, 1, mode="echelon")
    with pytest.raises(CertificateError) as exc:
        augmentation_quotient(M)
    assert exc.value.stage == "completeness"
    assert exc.value.degree == 1
    assert exc.value.partial == (1, 0)
    # experiment mode: skipping the certificate hands back the partial module
    Q = augmentation_quotient(M, expected_total=None)
    assert Q.poincare() == (1, 0)


def test_freeness_certificate_passes_for_staircase_families():
    for parts in ([2, 1], [2, 2], [1, 1, 1]):
        M = staircase_module(parts)
        Q = augmentation_quotient(M)
        rep = freeness_certificate(M, Q)
        assert rep.passed, rep.failures
        assert all(got == want for _, got, want in rep.per_degree)
        if M.mode == "syzygy-free":
            assert rep.fiber_point is not None


def test_freeness_certificate_rejects_foreign_quotient():
    M1 = staircase_module([2, 1])
    M2 = staircase_module([2, 1])
    Q2 = augmentation_quotient(M2)
    with pytest.raises(MalformedInputError):
        freeness_certificate(M1, Q2)


def test_unstable_generator_family_is_caught():
    P = fixed_point_set(Partition([1, 1]))
    z1 = SparsePoly.variable(2, 0)
    lopsided = FixedPointVector((z1, SparsePoly.zero(2)), 1)
    M = build_image_module(P, (lopsided,), 1, mode="echelon")
    Q = augmentation_quotient(M, expected_total=None)
    rep = verify_w_stability(M)
    assert not rep.passed
    assert rep.failures
    with pytest.raises(StabilityError):
        quotient_action_matrix(Q, Permutation.adjacent_transposition(2, 1))


def test_stability_passes_and_counts_work_for_both_modes():
    slow = staircase_module([2, 2])
    rep = verify_w_stability(slow)
    assert rep.passed and rep.mode == "echelon"
    assert rep.checked_lifts == sum(slow.q_dims) * 3  # three adjacent swaps
    fast = staircase_module([1, 1, 1])
    repf = verify_w_stability(fast)
    assert repf.passed and repf.mode == "syzygy-free"
    assert repf.point_checked == repf.checked_lifts
    assert repf.fully_expanded == repf.checked_lifts  # small set: expand all


# -- the W-action --------------------------------------------------------------

def test_act_on_vector_matches_the_class_level_action():
    # moving a class then restricting equals restricting then moving
    from springerloc.flagmodel import artin_basis

    shape = Partition([2, 1])
    P = fixed_point_set(shape)
    for c in artin_basis(shape.n):
        for w in all_permutations(shape.n):
            lhs = springer_restriction(weyl_act_on_class(c, w), P)
            rhs = act_on_vector(P, springer_restriction(c, P), w)
            assert lhs.entries == rhs.entries


def test_quotient_action_is_a_representation():
    M = staircase_module([2, 2])
    Q = augmentation_quotient(M)
    n = 4
    perms = all_permutations(n)
    ident = quotient_action_matrix(Q, Permutation.identity(n))
    for d, mat in enumerate(ident):
        q = len(mat)
        assert mat == tuple(tuple(Fraction(1 if r == c else 0)
                                  for c in range(q)) for r in range(q))
        assert q == M.q_dims[d]
    for _ in range(6):
        u = perms[rng.randrange(len(perms))]
        v = perms[rng.randrange(len(perms))]
        mu = quotient_action_matrix(Q, u)
        mv = quotient_action_matrix(Q, v)
        muv = quotient_action_matrix(Q, u * v)
        for d in range(M.degree_bound + 1):
            assert mat_mul(mu[d], mv[d]) == muv[d], (u, v, d)


def test_transposition_matrices_are_involutions():
    M = staircase_module([2, 1, 1])
    Q = augmentation_quotient(M)
    n = 4
    for i in range(1, n):
        mats = quotient_action_matrix(Q, Permutation.adjacent_transposition(n, i))
        for mat in mats:
            q = len(mat)
            square = mat_mul(mat, mat)
            assert square == tuple(tuple(Fraction(1 if r == c else 0)
                                         for c in range(q))
                                   for r in range(q))


def test_hook_character_is_trivial_plus_standard():
    M = staircase_module([2, 1])
    Q = augmentation_quotient(M)
    char = graded_character(Q)
    assert char.q_dims == (1, 2)
    assert char.cycle_types == (Partition([3]), Partition([2, 1]),
                                Partition([1, 1, 1]))
    for ct in char.cycle_types:
        assert char.value(0, ct) == 1
    assert char.value(1, Partition([1, 1, 1])) == 2
    assert char.value(1, Partition([2, 1])) == 0
    assert char.value(1, Partition([3])) == -1


# -- guardrails ----------------------------------------------------------------

def test_echelon_ambient_guardrail_fires_before_any_heavy_work():
    P = fixed_point_set(Partition([1] * 6))
    entry = SparsePoly.monomial(6, (15, 0, 0, 0, 0, 0))
    fake = FixedPointVector((entry,) * P.size, 15)
    with pytest.raises(GuardrailError) as exc:
        build_image_module(P, (fake,), 15, mode="echelon")
    assert exc.value.limit == ECHELON_AMBIENT_LIMIT
    assert exc.value.value > ECHELON_AMBIENT_LIMIT


def test_generator_validation():
    P = fixed_point_set(Partition([2, 1]))
    with pytest.raises(MalformedInputError):
        build_image_module(P, (), 1)
    short = FixedPointVector((SparsePoly.const(2, 1),) * 2, 0)
    with pytest.raises(MalformedInputError):
        build_image_module(P, (short,), 1)
    deg2 = FixedPointVector((SparsePoly.monomial(2, (2, 0)),) * 3, 2)
    with pytest.raises(MalformedInputError):
        build_image_module(P, (deg2,), 1)
