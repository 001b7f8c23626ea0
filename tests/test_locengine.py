"""Localization engine: ranks, modes, quotient, certificates, action matrices.

Rank values are cross-checked against a from-scratch dense matrix handed to
sympy (independent linear algebra), the syzygy-free build is cross-checked
against the echelon build (called directly) on the regular shapes, and the
quotient matrices of the W-action against direct exact solves of the moved
lifts.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from springerloc import locengine
from springerloc.errors import (
    CertificateError,
    GuardrailError,
    MalformedInputError,
    StabilityError,
)
from springerloc.exactalg import (SparseEchelon, SparsePoly, TrackedEchelon,
                                  monomial_count, monomials_of_degree)
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
from springerloc.springer import (make_expression_provider, springer_compute,
                                  staircase_family)
from springerloc.straighten import StaircaseReducer
from springerloc.symgroup import (
    Partition,
    Permutation,
    all_permutations,
    fixed_point_set,
    partitions_of,
)

rng = random.Random(60211)


def staircase_module(parts):
    shape = Partition(parts)
    P, gens, _ = staircase_family(shape, shape.top_degree())
    return build_image_module(P, gens)


def echelon_module(parts):
    """The echelon build of the staircase family, whatever the shape: the
    reference the syzygy-free build is cross-checked against."""
    shape = Partition(parts)
    P, gens, _ = staircase_family(shape, shape.top_degree())
    return locengine._build_echelon(P, tuple(gens), shape.top_degree())


def provider_of(M):
    """The staircase expression provider that both modes read."""
    shape = M.P.shape
    _, _, exps = staircase_family(shape, M.degree_bound)
    return make_expression_provider(StaircaseReducer(shape), exps)


def stability_of(M):
    return verify_w_stability(M, provider_of(M))


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


def identity_matrix(q):
    return tuple(tuple(Fraction(1 if r == c else 0) for c in range(q))
                 for r in range(q))


def character_of(M):
    augmentation_quotient(M)
    return graded_character(M, stability_of(M))


# -- frozen rank values ------------------------------------------------------

def test_hook_shape_ranks_and_quotient_dims():
    M = staircase_module([2, 1])
    assert M.mode == "echelon"
    assert M.q_dims == (1, 2)
    assert M.ranks == (1, 4)


def test_regular_rank_values_are_the_known_ones():
    M2 = echelon_module([1, 1])
    assert M2.ranks == (1, 3)
    M3 = echelon_module([1, 1, 1])
    assert M3.q_dims == (1, 2, 2, 1)
    assert M3.rank(1) == 5


def test_ranks_match_dense_sympy_oracle_up_to_rank_three():
    for n in range(1, 4):
        for lam in partitions_of(n):
            M = echelon_module(lam.parts)
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


def test_singular_square_family_falls_back_to_echelon():
    # one generator per word of a regular shape, but the two are equal: the
    # fiber certificate finds no point, so the echelon build takes over and
    # completeness, not a syzygy-free answer, reports the missing dimension
    P = fixed_point_set(Partition([1, 1]))
    one = SparsePoly.const(2, 1)
    gen = FixedPointVector((one, one), 0)
    M = build_image_module(P, (gen, gen))
    assert M.mode == "echelon" and M.q_dims == (1,)
    with pytest.raises(CertificateError) as exc:
        augmentation_quotient(M)
    assert exc.value.stage == "completeness"


def test_fiber_certificate_defers_to_echelon_when_singular_mod_p():
    # the constant 2^61 - 1 is nonzero over Q but vanishes modulo the fiber
    # prime: the certificate does not decide it, the echelon build does
    P = fixed_point_set(Partition([1]))
    gen = FixedPointVector((SparsePoly.const(1, (1 << 61) - 1),), 0)
    M = build_image_module(P, (gen,))
    assert M.mode == "echelon" and M.fiber_point is None
    assert M.q_dims == (1,)
    assert augmentation_quotient(M) is None


def test_modes_agree_on_regular_shapes():
    for parts in ([1, 1], [1, 1, 1], [1, 1, 1, 1]):
        fast = staircase_module(parts)
        slow = echelon_module(parts)
        assert fast.mode == "syzygy-free" and slow.mode == "echelon"
        assert fast.q_dims == slow.q_dims
        assert fast.ranks == slow.ranks
        assert fast.lifts == slow.lifts
        rf, rs = stability_of(fast), stability_of(slow)
        assert rf.passed and rs.passed
        assert len(rf.generator_matrices[0]) == len(parts) - 1
        assert rf.generator_matrices == rs.generator_matrices
        cf, cs = character_of(fast), character_of(slow)
        assert cf.cycle_types == cs.cycle_types
        assert cf.values == cs.values


# -- quotient and certificates ------------------------------------------------

def test_completeness_certificate_reports_partial_dimensions():
    shape = Partition([2, 1])
    P, gens, _ = staircase_family(shape, 0)  # constants only
    M = build_image_module(P, gens)
    with pytest.raises(CertificateError) as exc:
        augmentation_quotient(M)
    assert exc.value.stage == "completeness"
    assert exc.value.degree == 0
    assert exc.value.partial == (1,)


def test_freeness_certificate_passes_for_staircase_families():
    for parts in ([2, 1], [2, 2], [1, 1, 1]):
        M = staircase_module(parts)
        assert augmentation_quotient(M) is None
        assert freeness_certificate(M) is None
        assert (M.fiber_point is not None) == (M.mode == "syzygy-free")


def test_freeness_certificate_names_the_failing_degree():
    # (z_1, 0), (z_2, 0), (z_1^2, 0) on (1,1): z_1^2 is z_1 times the first
    # lift, and z_2·(z_1, 0) = z_1·(z_2, 0) is a degree-2 syzygy, so M_2 has
    # rank 3, not the free prediction 2 · dim Q[z]_1 = 4
    P = fixed_point_set(Partition([1, 1]))
    z1, z2 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    zero = SparsePoly.zero(2)
    gens = (FixedPointVector((z1, zero), 1), FixedPointVector((z2, zero), 1),
            FixedPointVector((z1 * z1, zero), 2))
    M = build_image_module(P, gens)
    assert M.mode == "echelon" and M.q_dims == (0, 2, 0)
    with pytest.raises(CertificateError) as exc:
        freeness_certificate(M)
    assert exc.value.stage == "freeness"
    assert exc.value.degree == 2
    assert exc.value.partial == (0, 2, 0)


def test_syzygy_free_fiber_is_certified_once(monkeypatch):
    calls = []
    fiber = locengine._fiber_certificate

    def spy(gens, k):
        calls.append(len(gens))
        return fiber(gens, k)

    monkeypatch.setattr(locengine, "_fiber_certificate", spy)
    M = staircase_module([1, 1, 1])
    assert M.mode == "syzygy-free" and calls == [6]
    assert freeness_certificate(M) is None
    assert calls == [6]
    assert M.fiber_point == (2, 3, 5)
    springer_compute(Partition([1, 1, 1]))
    assert calls == [6, 6]


def test_unstable_generator_family_is_caught():
    P = fixed_point_set(Partition([1, 1]))
    z1 = SparsePoly.variable(2, 0)
    lopsided = FixedPointVector((z1, SparsePoly.zero(2)), 1)
    M = build_image_module(P, (lopsided,))

    def claims_fixed(gen_index, w):  # s_1·g = g, which is false
        return {gen_index: SparsePoly.const(2, 1)}

    rep = verify_w_stability(M, claims_fixed)
    assert not rep.passed
    assert rep.failures == (
        "degree 1: expression for lift 0 under "
        f"{Permutation.adjacent_transposition(2, 1)!r} fails exact expansion",)
    with pytest.raises(StabilityError):
        quotient_action_matrix(M, rep, Permutation.adjacent_transposition(2, 1))
    with pytest.raises(StabilityError):
        graded_character(M, rep)


def test_coxeter_certificate_rejects_a_non_involutive_generator(monkeypatch):
    # every expression still checks out, but the quotient classes of the
    # generators are doubled, so each quotient matrix comes out twice too
    # large and s_i^2 = 4, not 1
    build = locengine._build_echelon

    def doubled(*args):
        M = build(*args)
        M.gen_class = tuple({lift: 2 * c for lift, c in cls.items()}
                            for cls in M.gen_class)
        return M

    monkeypatch.setattr(locengine, "_build_echelon", doubled)
    M = staircase_module([2, 1])
    rep = stability_of(M)
    assert not rep.passed
    assert not any("expression" in f for f in rep.failures)
    assert "degree 0: Coxeter relation (s_1 s_1)^1 = 1 fails" in rep.failures
    assert rep.generator_matrices[0][0] == ((Fraction(2),),)
    with pytest.raises(StabilityError):
        quotient_action_matrix(M, rep, Permutation.identity(3))
    with pytest.raises(CertificateError) as exc:
        springer_compute(Partition([2, 1]))
    assert exc.value.stage == "stability"


def test_shape_one_has_no_generators():
    for M in (staircase_module([1]), echelon_module([1])):
        rep = stability_of(M)
        assert rep.passed and rep.checked_lifts == 0
        assert rep.generator_matrices == ((),)
        assert quotient_action_matrix(M, rep, Permutation.identity(1)) == [
            identity_matrix(1)]
        char = graded_character(M, rep)
        assert char.cycle_types == (Partition([1]),)
        assert char.values == ((1,),)


def test_stability_passes_and_counts_work_for_both_modes():
    slow = staircase_module([2, 2])
    rep = stability_of(slow)
    assert slow.mode == "echelon" and rep.passed
    assert rep.checked_lifts == sum(slow.q_dims) * 3  # three adjacent swaps
    fast = staircase_module([1, 1, 1])
    repf = stability_of(fast)
    assert fast.mode == "syzygy-free" and repf.passed


@pytest.mark.parametrize("parts, mode", [([2, 2, 1], "echelon"),
                                         ([1] * 5, "syzygy-free")],
                         ids=["2,2,1-echelon", "1,1,1,1,1-syzygy-free"])
def test_stability_expands_every_expression(parts, mode):
    M = staircase_module(parts)
    assert M.mode == mode
    rep = stability_of(M)
    assert rep.passed
    assert rep.checked_lifts == sum(M.q_dims) * (M.P.shape.n - 1)
    assert rep.fully_expanded == rep.checked_lifts


def test_expansion_catches_an_error_that_vanishes_at_the_fiber_point():
    # lift 6 (degree 2) of 1^5 gains the term (3 z_1 - 2 z_2) z_1 · gen_0,
    # which is zero at the fiber point (2, 3, 5, 7, 11): an evaluation there
    # cannot see it, the entrywise expansion must
    M = staircase_module([1] * 5)
    assert M.fiber_point[:2] == (2, 3) and M.gens[6].degree == 2
    honest = provider_of(M)
    z1, z2 = SparsePoly.variable(5, 0), SparsePoly.variable(5, 1)
    error = (z1 * 3 - z2 * 2) * z1

    def provider(gen_index, w):
        expr = dict(honest(gen_index, w))
        if gen_index == 6:
            expr[0] = expr.get(0, SparsePoly.zero(5)) + error
        return expr

    rep = verify_w_stability(M, provider)
    assert not rep.passed
    assert rep.fully_expanded == rep.checked_lifts
    assert rep.failures == tuple(
        f"degree 2: expression for lift 6 under "
        f"{Permutation.adjacent_transposition(5, i)!r} fails exact expansion"
        for i in range(1, 5))


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


def solved_action_matrix(M, w, d):
    """The degree-d matrix of w from direct exact solves of the moved lifts.

    The products of lower-degree lifts with monomials span (Q[z]^+ M)_d; each
    moved lift is reduced against them and then solved over the degree-d
    lifts.  An empty residual proves the moved lift lies in M_d.
    """
    k = M.k
    imap = {e: i for i, e in enumerate(monomials_of_degree(k, d))}
    block = monomial_count(k, d)

    def coords(entries):
        return {i * block + imap[e]: c for i, poly in enumerate(entries)
                for e, c in poly.terms.items()}

    products = SparseEchelon()
    for e in range(d):
        for gi in M.lifts[e]:
            for shift in monomials_of_degree(k, d - e):
                mono = SparsePoly.monomial(k, shift)
                products.insert(coords([mono * p for p in M.gens[gi].entries]))
    lifts = TrackedEchelon()
    for gi in M.lifts[d]:
        assert lifts.insert(gi, products.reduce(coords(M.gens[gi].entries))) \
            is None
    cols = []
    for gi in M.lifts[d]:
        moved = act_on_vector(M.P, M.gens[gi], w)
        combo, residual = lifts.solve(products.reduce(coords(moved.entries)))
        assert not residual
        cols.append([combo.get(src, 0) for src in M.lifts[d]])
    return tuple(zip(*cols))


@pytest.mark.parametrize("parts", [
    *(lam.parts for n in range(1, 5) for lam in partitions_of(n)),
    (3, 2), (2, 2, 1)], ids=lambda parts: ",".join(map(str, parts)))
def test_generator_matrices_equal_exact_solves(parts):
    M = staircase_module(list(parts))
    rep = stability_of(M)
    assert rep.passed
    n = M.P.shape.n
    for d in range(M.degree_bound + 1):
        for i in range(1, n):
            s_i = Permutation.adjacent_transposition(n, i)
            assert rep.generator_matrices[d][i - 1] == \
                solved_action_matrix(M, s_i, d), (d, i)


def test_quotient_action_is_a_representation():
    M = staircase_module([2, 2])
    rep = stability_of(M)
    n = 4
    perms = all_permutations(n)
    assert len(perms) == 24
    for w in perms:
        mats = quotient_action_matrix(M, rep, w)
        for d in range(M.degree_bound + 1):
            assert mats[d] == solved_action_matrix(M, w, d), (w, d)
    ident = quotient_action_matrix(M, rep, Permutation.identity(n))
    for d, mat in enumerate(ident):
        assert mat == identity_matrix(M.q_dims[d])
    for _ in range(6):
        u = perms[rng.randrange(len(perms))]
        v = perms[rng.randrange(len(perms))]
        mu = quotient_action_matrix(M, rep, u)
        mv = quotient_action_matrix(M, rep, v)
        muv = quotient_action_matrix(M, rep, u * v)
        for d in range(M.degree_bound + 1):
            assert mat_mul(mu[d], mv[d]) == muv[d], (u, v, d)


def test_transposition_matrices_are_involutions():
    M = staircase_module([2, 1, 1])
    rep = stability_of(M)
    n = 4
    for i in range(1, n):
        s_i = Permutation.adjacent_transposition(n, i)
        for mat in quotient_action_matrix(M, rep, s_i):
            assert mat_mul(mat, mat) == identity_matrix(len(mat))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
def test_reduced_word_spells_the_permutation(images):
    w = Permutation(images)
    n = w.n
    word = locengine._reduced_word(w)
    product = Permutation.identity(n)
    for i in word:
        product = product * Permutation.adjacent_transposition(n, i)
    assert product == w
    inversions = sum(images[a] > images[b]
                     for a in range(n) for b in range(a + 1, n))
    assert len(word) == inversions


def test_hook_character_is_trivial_plus_standard():
    char = character_of(staircase_module([2, 1]))
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
        build_image_module(P, (fake,))
    assert exc.value.limit == ECHELON_AMBIENT_LIMIT
    assert exc.value.value > ECHELON_AMBIENT_LIMIT


def test_generator_validation():
    P = fixed_point_set(Partition([2, 1]))
    with pytest.raises(MalformedInputError):
        build_image_module(P, ())
    short = FixedPointVector((SparsePoly.const(2, 1),) * 2, 0)
    with pytest.raises(MalformedInputError):
        build_image_module(P, (short,))
