"""Localization engine: the one build, quotient, certificates, action matrices.

The build works on the ring side (staircase coordinates modulo the Tanisaki
relations).  It is cross-checked against references made here on the module
side: the free-rank identity against a from-scratch dense product matrix
handed to sympy (independent linear algebra), the lifts and quotient
coordinates against an exact echelon of the products {z-monomial · lift},
and the quotient matrices of the W-action, kept as sparse columns and made
dense here, against direct exact solves of the moved lifts; the traces on
sparse columns against dense matrix products.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from springerloc import locengine
from springerloc import springer
from springerloc.errors import CertificateError, MalformedInputError
from springerloc.exactalg import (SparseEchelon, SparsePoly, TrackedEchelon,
                                  field_width, monomial_count,
                                  monomials_of_degree, pack)
from springerloc.flagmodel import (
    BorelClass,
    packed_restrictions,
    springer_restriction,
    weyl_act_on_class,
)
from springerloc.locengine import (
    StabilityReport,
    augmentation_quotient,
    build_image_module,
    freeness_certificate,
    graded_character,
    verify_w_stability,
)
from springerloc.springer import (make_expression_provider, springer_compute,
                                  staircase_family)
from springerloc.straighten import StaircaseReducer
from springerloc.symgroup import (
    Partition,
    Permutation,
    all_permutations,
    conjugacy_classes,
    coset_action,
    fixed_point_set,
    partitions_of,
)

rng = random.Random(60211)


def staircase_module(parts, reducer=None):
    shape = Partition(parts)
    P, exps = staircase_family(shape, shape.top_degree())
    return build_image_module(P, exps, reducer or StaircaseReducer(shape))


def restriction(a, P):
    """The reference restriction ι*(y^a): one ``SparsePoly`` per word."""
    return springer_restriction(
        BorelClass(SparsePoly.monomial(len(a), a), sum(a)), P)


def restrictions(M):
    """Every generator of M as its reference restriction."""
    return [restriction(a, M.P) for a in M.exps]


def product_echelon(M, d):
    """Exact echelon of the degree-d products {z-monomial · lift of degree
    < d}, which span (Q[z]^+ M)_d, in the coordinates (word, z-monomial)."""
    k = M.k
    imap = {e: i for i, e in enumerate(monomials_of_degree(k, d))}
    block = monomial_count(k, d)

    def coords(entries):
        return {i * block + imap[e]: c for i, poly in enumerate(entries)
                for e, c in poly.terms.items()}

    gens = restrictions(M)
    products = SparseEchelon()
    for e in range(d):
        for gi in M.lifts[e]:
            for shift in monomials_of_degree(k, d - e):
                mono = SparsePoly.monomial(k, shift)
                products.insert(coords([mono * p for p in gens[gi]]))
    return products, coords


def provider_of(M):
    """The staircase expression provider that stability reads: the normal
    forms of the reducer the build read, which the stability check audits."""
    return make_expression_provider(M.reducer, list(M.exps))


def moved_monomial(a, i):
    """The exponent of s_i·y^a: entries i and i + 1 of ``a`` swapped."""
    return a[:i - 1] + (a[i], a[i - 1]) + a[i + 1:]


def rewrite_failure(red, b):
    """The audit's failure for a wrong memo entry of y^b."""
    if all(e <= red.n - 1 - i for i, e in enumerate(b)):
        return f"the normal form of the staircase monomial y^{b} is not itself"
    return f"the normal form of y^{b} is not its rewrite"


def readers(red, b):
    """The memo entries whose rewrite step reads the entry of y^b."""
    n, out = red.n, set()
    for parent in red._packed:
        j = next((j for j in range(n, 0, -1) if parent[j - 1] > n - j), None)
        if j is None:
            continue
        tail = list(parent)
        tail[j - 1] -= n - j + 1
        if any(tuple(t + e for t, e in zip(tail, exps)) == b
               for exps in red._tower[j - 1].terms
               if exps[j - 1] < n - j + 1):  # not the leading term
            out.add(parent)
    return out


def audit_failures(rep):
    return {f for f in rep.failures if f.startswith("the normal form")}


def stability_of(M):
    return verify_w_stability(M, provider_of(M))


def dense_product_rows(P, exps, degree, k):
    """All degree-d products (z-monomial) x (generator) as dense rows."""
    cols = list(monomials_of_degree(k, degree))
    col_index = {e: j for j, e in enumerate(cols)}
    width = len(cols)
    rows = []
    for a in exps:
        if sum(a) > degree:
            continue
        for mono in monomials_of_degree(k, degree - sum(a)):
            mpoly = SparsePoly.monomial(k, mono)
            row = [Fraction(0)] * (width * P.size)
            for i, entry in enumerate(restriction(a, P)):
                for e, c in (mpoly * entry).terms.items():
                    row[i * width + col_index[e]] = c
            rows.append(row)
    return rows


def mat_mul(a, b):
    """Dense product over the nonzero terms only, from the int 0: an entry
    is a ``Fraction`` exactly when one of its terms is."""
    q = len(a)
    return tuple(tuple(sum((a[r][j] * b[j][c] for j in range(q)
                            if a[r][j] and b[j][c]), 0)
                       for c in range(q)) for r in range(q))


def identity_matrix(q):
    return tuple(tuple(Fraction(1 if r == c else 0) for c in range(q))
                 for r in range(q))


def dense_action(M, rep, w):
    """The matrix of w on each graded quotient piece, made dense from the
    sparse columns ``rep.columns``: column c is the unit vector e_c pushed
    along a reduced word of w."""
    word = locengine._reduced_word(w)
    out = []
    for q, mats in zip(M.q_dims, rep.columns):
        rows = [[0] * q for _ in range(q)]
        for c in range(q):
            for r, x in locengine._image(mats, word, c).items():
                rows[r][c] = x
        out.append(tuple(map(tuple, rows)))
    return out


def assert_refused_as_uncertified(M, rep):
    with pytest.raises(CertificateError) as exc:
        graded_character(M, rep)
    assert exc.value.stage == "stability" and exc.value.partial == M.q_dims
    assert str(exc.value).startswith(
        "[stability] the quotient action is not certified: ")


def character_of(M):
    augmentation_quotient(M)
    return graded_character(M, stability_of(M))


# -- the one build against module-side references ------------------------------

def dense_ranks(M):
    """rank M_d of the whole product span {z-monomial · generator}, by sympy."""
    P, exps = staircase_family(M.P.shape, M.degree_bound)
    ranks = []
    for d in range(M.degree_bound + 1):
        rows = dense_product_rows(P, exps, d, M.k)
        ranks.append(Matrix(rows).rank() if rows else 0)
    return tuple(ranks)


def test_hook_shape_ranks_and_quotient_dims():
    M = staircase_module([2, 1])
    assert M.mode == "echelon"
    assert M.q_dims == (1, 2)
    assert M.lifts == ((0,), (1, 2))
    assert M.gen_class == ({0: 1}, {1: 1}, {2: 1})
    assert dense_ranks(M) == (1, 4)


def test_regular_rank_values_are_the_known_ones():
    assert dense_ranks(staircase_module([1, 1])) == (1, 3)
    M3 = staircase_module([1, 1, 1])
    assert M3.q_dims == (1, 2, 2, 1)
    assert dense_ranks(M3)[1] == 5


def test_ranks_match_dense_sympy_oracle_up_to_rank_three():
    # rank M_d of the whole product span is what a module free on the lifts
    # predicts, Σ_e q_e · dim Q[z]_{d−e}
    for n in range(1, 4):
        for lam in partitions_of(n):
            M = staircase_module(lam.parts)
            assert freeness_certificate(M) is None
            free = tuple(sum(M.q_dims[e] * monomial_count(M.k, d - e)
                             for e in range(d + 1))
                         for d in range(M.degree_bound + 1))
            assert dense_ranks(M) == free, lam


def assert_equals_the_product_echelon(M):
    """The reference the one build replaced: per degree, each generator is
    reduced against the products of lower lifts and inserted in family order
    with exact dependence tracking, all on the module side."""
    for d in range(M.degree_bound + 1):
        products, coords = product_echelon(M, d)
        solver, kept = TrackedEchelon(), []
        for gi, entries in enumerate(restrictions(M)):
            if sum(M.exps[gi]) != d:
                continue
            dep = solver.insert(gi, products.reduce(coords(entries)))
            if dep is None:
                kept.append(gi)
            assert M.gen_class[gi] == ({gi: 1} if dep is None else dep), (d, gi)
        assert M.lifts[d] == tuple(kept), d


@pytest.mark.parametrize("parts", [
    *(lam.parts for n in range(1, 5) for lam in partitions_of(n)),
    (3, 2), (2, 2, 1)], ids=lambda parts: ",".join(map(str, parts)))
def test_lifts_and_quotient_coordinates_equal_the_product_echelon(parts):
    assert_equals_the_product_echelon(staircase_module(list(parts)))


def test_auto_mode_selects_syzygy_free_exactly_for_regular_shapes():
    # the mode is a report label, read off the shape; no build branches on it
    assert staircase_module([1, 1, 1]).mode == "syzygy-free"
    assert staircase_module([1, 1, 1, 1]).mode == "syzygy-free"
    assert staircase_module([2, 2]).mode == "echelon"
    assert staircase_module([2, 1, 1]).mode == "echelon"


def test_modes_agree_on_regular_shapes():
    # what the deleted syzygy-free build read off directly (every generator
    # of (1ⁿ) is a lift) is what the one build and the module-side product
    # echelon find, and the action and character follow from it
    for parts in ([1, 1], [1, 1, 1], [1, 1, 1, 1]):
        M = staircase_module(parts)
        assert M.mode == "syzygy-free"
        assert all(cls == {gi: 1} for gi, cls in enumerate(M.gen_class))
        assert sum(M.q_dims) == M.P.size == len(M.gens)
        assert_equals_the_product_echelon(M)
        rep = stability_of(M)
        assert rep.passed
        assert len(rep.columns[0]) == len(parts) - 1
        assert character_of(M).q_dims == M.q_dims


# -- mutations: a recipe error cannot give a wrong answer ------------------------

@pytest.mark.parametrize("parts", [(2, 2), (2, 1, 1), (3, 2), (2, 2, 1)],
                         ids=lambda parts: ",".join(map(str, parts)))
def test_dropping_a_relation_fails_completeness_and_freeness(parts):
    # the relations the build adopted (``M.relations``) give the same
    # quotient on their own; each is independent of the others modulo the
    # products y_i·J_{d−1}, so dropping any one leaves an extra lift
    shape = Partition(list(parts))
    full = staircase_module(list(parts))
    used = list(full.relations)
    assert used
    reducer = StaircaseReducer(shape)
    reducer.relations = list(used)
    M = staircase_module(list(parts), reducer)
    assert (M.lifts, M.gen_class) == (full.lifts, full.gen_class)
    for i in range(len(used)):
        reducer = StaircaseReducer(shape)
        reducer.relations = used[:i] + used[i + 1:]
        M = staircase_module(list(parts), reducer)
        with pytest.raises(CertificateError) as exc:
            augmentation_quotient(M)
        assert exc.value.stage == "completeness"
        with pytest.raises(CertificateError) as exc:
            freeness_certificate(M)
        assert exc.value.stage == "freeness"


@pytest.mark.parametrize("parts", [(2, 1, 1), (3, 2), (2, 2, 1)],
                         ids=lambda parts: ",".join(map(str, parts)))
def test_perturbing_a_used_relation_fails_the_vanishing_check(parts):
    shape = Partition(list(parts))
    reducer = StaircaseReducer(shape)
    used = list(staircase_module(list(parts), reducer).relations)
    P = fixed_point_set(shape)
    assert used and reducer.relations_vanish_on(P, used)
    n, nvars = shape.n, shape.n + len(shape)
    for i, rel in enumerate(used):
        # z_1^{deg} keeps the z = 0 part, so the build would not see it
        z1_power = (0,) * n + (rel.total_degree(),) + (0,) * (nvars - n - 1)
        perturbed = rel + SparsePoly.monomial(nvars, z1_power)
        assert not reducer.relations_vanish_on(
            P, used[:i] + [perturbed] + used[i + 1:]), (parts, i)
    assert reducer.relations_vanish_on(P, used)


# -- quotient and certificates ------------------------------------------------

def test_completeness_certificate_reports_partial_dimensions():
    shape = Partition([2, 1])
    P, exps = staircase_family(shape, 0)  # constants only
    M = build_image_module(P, exps, StaircaseReducer(shape))
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


def test_freeness_certificate_names_the_failing_degree():
    # the row of lift 2 of (2,2,1) (degree 1) is replaced by the row of lift
    # 1, the lift before it: the certificate cannot pass at degree 1
    M = staircase_module([2, 2, 1])
    assert M.lifts[1][:2] == (1, 2)
    assert M.gens[2] != M.gens[1]
    M.gens = M.gens[:2] + (M.gens[1],) + M.gens[3:]
    with pytest.raises(CertificateError) as exc:
        freeness_certificate(M)
    assert exc.value.stage == "freeness"
    assert exc.value.degree == 1
    assert exc.value.partial == M.q_dims == (1, 4, 9, 11, 5)


def test_singular_square_family_fails_completeness():
    # one generator per word of a regular shape, but the two are equal: the
    # second is no lift, and completeness reports the missing dimension
    shape = Partition([1, 1])
    P = fixed_point_set(shape)
    M = build_image_module(P, [(0, 0)] * 2, StaircaseReducer(shape))
    assert M.gens == ((0, 0), (0, 0))
    assert M.q_dims == (1,) and M.gen_class == ({0: 1}, {0: 1})
    with pytest.raises(CertificateError) as exc:
        augmentation_quotient(M)
    assert exc.value.stage == "completeness"


def test_fiber_certificate_does_not_decide_a_lift_singular_mod_p():
    # the constant 2^61 - 1 is nonzero over Q but vanishes modulo the fiber
    # prime: the certificate's elimination calls its row dependent rather
    # than decide over Q.  (A packed monomial row is a power product of the
    # point's primes, never 0 modulo p, so the row is given directly.)
    p = locengine._FIBER_PRIME
    assert p == (1 << 61) - 1
    assert locengine._first_dependent([[(1 << 61) - 1]], p) == 0
    assert locengine._first_dependent([[1 << 61]], p) is None
    assert locengine._first_dependent([[2, 3], [(1 << 61) + 1, 3]], p) == 1


def test_syzygy_free_fiber_is_certified_once(monkeypatch):
    calls = []
    first_dependent = locengine._first_dependent

    def spy(rows, p):
        rows = list(rows)
        calls.append(len(rows))
        return first_dependent(rows, p)

    monkeypatch.setattr(locengine, "_first_dependent", spy)
    for parts in ([1, 1, 1], [2, 2]):  # one certificate, on the lifts, for both
        calls.clear()
        M = staircase_module(parts)
        assert calls == []  # the build evaluates nothing at the fiber
        assert freeness_certificate(M) is None
        assert calls == [sum(M.q_dims)] == [6]
    springer_compute(Partition([1, 1, 1]))
    assert calls == [6, 6]


def test_unstable_generator_family_is_caught():
    # the row of ι*(y_1) on (1,1) is (z_1, z_2); s_1 moves it to (z_2, z_1),
    # which is ι*(y_2) = z_1 + z_2 − ι*(y_1).  A memo entry that claims
    # y_2 = y_1 gives the expression s_1·g = g, which the audit refuses
    P = fixed_point_set(Partition([1, 1]))
    M = build_image_module(P, [(1, 0)], StaircaseReducer(Partition([1, 1])))
    assert M.gens == ((1, 1 << M.width),) and M.lifts == ((), (0,))
    assert M.reducer.constant_parts((0, 1)) == {(1, 0): -1, (0, 0): 0}
    M.reducer._packed[(0, 1)] = {(1, 0): {0: 1}}

    rep = verify_w_stability(M, provider_of(M))
    assert not rep.passed
    assert rep.failures == ("the normal form of y^(0, 1) is not its rewrite",)
    assert_refused_as_uncertified(M, rep)


def test_coxeter_certificate_rejects_a_non_involutive_generator(monkeypatch):
    # every expression still checks out, but the quotient classes of the
    # generators are doubled, so each quotient matrix comes out twice too
    # large and s_i^2 = 4, not 1
    def doubled(*args):
        M = build_image_module(*args)
        M.gen_class = tuple({lift: 2 * c for lift, c in cls.items()}
                            for cls in M.gen_class)
        return M

    monkeypatch.setattr(springer, "build_image_module", doubled)
    shape = Partition([2, 1])
    P, exps = staircase_family(shape, shape.top_degree())
    M = doubled(P, exps, StaircaseReducer(shape))
    rep = stability_of(M)
    assert not rep.passed
    assert not any("expression" in f for f in rep.failures)
    assert "degree 0: Coxeter relation (s_1 s_1)^1 = 1 fails" in rep.failures
    assert rep.columns[0][0] == ({0: 2},)
    assert_refused_as_uncertified(M, rep)
    with pytest.raises(CertificateError) as exc:
        springer_compute(Partition([2, 1]))
    assert exc.value.stage == "stability" and exc.value.partial == (1, 2)


S_1 = [{0: 1}, {1: -1}]  # diag(1, −1), as sparse columns
SWAP = [{1: 1}, {0: 1}]  # [[0, 1], [1, 0]]; S_1·SWAP has order 4


@pytest.mark.parametrize("mats, broken", [
    ([S_1, SWAP], ["(s_1 s_2)^3"]),
    ([S_1, S_1, SWAP], ["(s_1 s_3)^2", "(s_2 s_3)^3"]),
], ids=["braid", "commutation"])
def test_coxeter_certificate_checks_braids_and_commutations(mats, broken):
    # every matrix is an involution, so s_i^2 = 1 holds; only the relations
    # with m = 3 or m = 2 can catch the pair of order 4
    assert locengine._coxeter_failures(4, mats) == [
        f"degree 4: Coxeter relation {rel} = 1 fails" for rel in broken]


def test_shape_one_has_no_generators():
    M = staircase_module([1])
    rep = stability_of(M)
    assert rep.passed and rep.checked_lifts == 0
    assert rep.columns == ((),)
    assert dense_action(M, rep, Permutation.identity(1)) == [
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


@pytest.mark.parametrize("parts, mode, audited", [
    ([2, 2, 1], "echelon", 86), ([1] * 5, "syzygy-free", 389)],
    ids=["2,2,1-echelon", "1,1,1,1,1-syzygy-free"])
def test_stability_audits_every_memo_entry(parts, mode, audited):
    # the audit runs after the last normal form: it checks every memo
    # entry, the build's and those of every moved lift; every moved lift is
    # tied to its entry
    M = staircase_module(parts)
    assert M.mode == mode
    build_entries = set(M.reducer._packed)
    rep = stability_of(M)
    assert rep.passed
    assert rep.checked_lifts == sum(M.q_dims) * (M.P.shape.n - 1)
    memo = M.reducer._packed
    assert rep.fully_expanded == len(memo) == audited
    assert build_entries <= set(memo)
    assert {moved_monomial(M.exps[gi], i) for kept in M.lifts for gi in kept
            for i in range(1, M.P.shape.n)} <= set(memo)


def test_a_repeated_expression_is_compared_with_the_moved_lift():
    # the provider reads the converted normal forms of the reducer
    # (``nf_monomial``); lift B's moved monomial under s_1 is given the form
    # of lift A's there, while the memo stays honest: the tie to the memo
    # entry must fail for every moved lift with B's moved monomial, and
    # only for those, and the audit passes
    M = staircase_module([2, 2, 1])
    a, b = M.lifts[1][:2]
    moved_a, moved_b = (moved_monomial(M.exps[g], 1) for g in (a, b))
    M.reducer._cache[moved_b] = M.reducer.nf_monomial(moved_a)

    rep = verify_w_stability(M, provider_of(M))
    assert not rep.passed
    expected = [
        f"degree {d}: expression for lift {gi} under "
        f"{Permutation.adjacent_transposition(5, i)!r} is not the normal "
        f"form of y^{moved_b}"
        for d, kept in enumerate(M.lifts) for i in range(1, 5)
        for gi in kept if moved_monomial(M.exps[gi], i) == moved_b]
    assert len(expected) > 1
    assert [f for f in rep.failures if "expression" in f] == expected
    assert not audit_failures(rep)
    assert_refused_as_uncertified(M, rep)


def test_audit_catches_an_error_that_vanishes_at_the_fiber_point():
    # the memo entry of y_4^2 = s_3·y_3^2 (lift 6, degree 2, of 1^5) gains
    # the term (3 z_1 - 2 z_2) z_1 · y^0, which is zero at the fiber point
    # (2, 3, 5, 7, 11) and has no constant term: an evaluation there cannot
    # see it, nor can the quotient columns, but the audit must
    M = staircase_module([1] * 5)
    assert locengine._POINT_PRIMES[:2] == (2, 3) and sum(M.exps[6]) == 2
    red, target = M.reducer, moved_monomial(M.exps[6], 3)
    assert target == (0, 0, 0, 2, 0)
    red.constant_parts(target)
    zeros = (0,) * 5
    error = {pack((2, 0, 0, 0, 0), red._width): 3,
             pack((1, 1, 0, 0, 0), red._width): -2}
    terms = red._packed[target][zeros]
    for h, c in error.items():
        terms[h] = terms.get(h, 0) + c
    assert all(terms.values())

    rep = verify_w_stability(M, provider_of(M))
    assert not rep.passed
    # the entries filled after the change read it consistently, so only
    # the changed entry and those filled before that read it can fail
    assert rewrite_failure(red, target) in rep.failures
    assert set(rep.failures) <= {rewrite_failure(red, b)
                                 for b in readers(red, target) | {target}}
    assert rep.fully_expanded == len(red._packed)
    assert_refused_as_uncertified(M, rep)


def perturbed(entry, kind, n, rng):
    """A copy of the packed normal form ``entry`` with one term c·z^h of
    one coefficient scaled, dropped, or moved to another staircase
    exponent of the same degree: each changes the polynomial."""
    entry = {gamma: dict(zterms) for gamma, zterms in entry.items()}
    degree = {}
    for a in product(*(range(n - i) for i in range(n))):
        degree.setdefault(sum(a), []).append(a)
    gamma = rng.choice([g for g in sorted(entry)
                        if kind != "move" or len(degree[sum(g)]) > 1])
    h, c = rng.choice(sorted(entry[gamma].items()))
    if kind == "scale":
        entry[gamma][h] = c * (1 + rng.choice([-2, 1, 2]))
    else:
        del entry[gamma][h]
        if kind == "move":
            other = rng.choice([g for g in degree[sum(gamma)] if g != gamma])
            terms = entry.setdefault(other, {})
            terms[h] = terms.get(h, 0) + c
            if not terms[h]:
                del terms[h]
    return {gamma: zterms for gamma, zterms in entry.items() if zterms}


@pytest.mark.parametrize("kind", ["scale", "drop", "move"])
@pytest.mark.parametrize("parts", [(2, 2, 1), (1, 1, 1, 1)],
                         ids=lambda parts: ",".join(map(str, parts)))
def test_a_perturbed_memo_entry_fails_the_audit(parts, kind):
    # the memo entries of five moved lifts of positive degree, chosen by a
    # seeded draw, each get one perturbed term before the provider reads
    # them; the audit must name each, and name nothing but them and the
    # entries that read them (a changed constant term may break a Coxeter
    # relation as well)
    rng = random.Random(f"{parts}-{kind}")
    M = staircase_module(list(parts))
    red, n = M.reducer, M.P.shape.n
    moves = [moved_monomial(M.exps[gi], i)
             for d, kept in enumerate(M.lifts) if d
             for gi in kept for i in range(1, n)]
    targets = set(rng.sample(moves, 5))
    for b in sorted(targets):
        red.constant_parts(b)
        red._packed[b] = perturbed(red._packed[b], kind, n, rng)

    rep = verify_w_stability(M, provider_of(M))
    named = {rewrite_failure(red, b) for b in targets}
    assert named <= audit_failures(rep) <= named | {
        rewrite_failure(red, b) for t in targets for b in readers(red, t)}
    assert not [f for f in rep.failures if "expression" in f]
    assert_refused_as_uncertified(M, rep)


def stability_after_the_certificates(shape, reducer):
    """Build on ``reducer`` and run the certificates before stability, as
    ``springer_compute`` does (each must pass); then the stability report."""
    P, exps = staircase_family(shape, shape.top_degree())
    M = build_image_module(P, exps, reducer)
    assert reducer.relations_vanish_on(P, M.relations)
    augmentation_quotient(M)
    freeness_certificate(M)
    return M, verify_w_stability(M, provider_of(M))


def test_a_tower_relation_that_is_not_monic_fails_the_audit():
    # 2·f_2 vanishes at every word as f_2 does, so the relations
    # certificate passes; but the rewrite reads y_2^4 = −(other terms),
    # which is false for 2·f_2: only the monic check can refuse it
    shape = Partition([2, 2, 1])
    red = StaircaseReducer(shape)
    red._tower[1] = red._tower[1] * 2
    M, rep = stability_after_the_certificates(shape, red)
    assert rep.failures == ("f_2 is not monic in y_2^4",)
    assert_refused_as_uncertified(M, rep)


def test_a_tower_term_changed_after_the_fill_fails_the_audit():
    # the normal forms were filled from the honest f_3, and the relations
    # certificate restricted it; one coefficient of f_3 then changes, so
    # the proof would rest on two towers: the audit refuses
    shape = Partition([2, 2, 1])
    red = StaircaseReducer(shape)
    P, exps = staircase_family(shape, shape.top_degree())
    M = build_image_module(P, exps, red)
    assert red.relations_vanish_on(P, M.relations)
    terms = dict(red._tower[2].terms)
    e = next(e for e in terms if e[2] < 3)  # not the leading y_3^3
    terms[e] += 1
    red._tower[2] = SparsePoly(red.n + red.k, terms)
    rep = verify_w_stability(M, provider_of(M))
    assert rep.failures == (
        "the normal forms read terms of f_3 that are not in the tower",)
    assert_refused_as_uncertified(M, rep)


def test_a_child_that_is_not_smaller_fails_the_audit():
    # f_1 + z_1·f_2 still vanishes at every word and is monic in y_1^3, and
    # every normal form it gives is right; but rewriting y_1^3 by it reads
    # monomials in y_2, which are not smaller than y_1^3 in reverse-lex
    # order, so the induction behind the audit has no footing: it refuses
    shape = Partition([1, 1, 1])
    red = StaircaseReducer(shape)
    z_1 = SparsePoly.variable(red.n + red.k, red.n)
    red._tower[0] = red._tower[0] + z_1 * red._tower[1]
    M, rep = stability_after_the_certificates(shape, red)
    assert (3, 0, 0) in red._packed
    assert rep.failures == ("the rewrite of y^(3, 0, 0) reads y^(0, 1, 0), "
                            "which is not a smaller memo entry",)
    assert_refused_as_uncertified(M, rep)


def test_a_corrupted_unit_row_fails_stability(monkeypatch):
    # the unit rows ι*(y_j) are read from ``packed_restrictions``, which
    # builds every generator row from them; one entry of ι*(y_1) moved to
    # another letter breaks the pullback identity, and every failure names
    # ι*(y_1)
    M = staircase_module([2, 2, 1])
    restrict = locengine.packed_restrictions

    def corrupted(P, exps, width):
        rows = list(restrict(P, exps, width))
        rows[0] = (rows[0][0] << width,) + rows[0][1:]
        return tuple(rows)

    monkeypatch.setattr(locengine, "packed_restrictions", corrupted)
    rep = verify_w_stability(M, provider_of(M))
    assert not rep.passed
    assert all(f.startswith("the pullback by s_") and "ι*(y_1)" in f
               for f in rep.failures)
    assert_refused_as_uncertified(M, rep)


def test_the_audit_certifies_the_build_coordinates():
    # the build reads the z = 0 part of the normal form of y^(1,0,0,1,1)
    # through ``z_free``; stability reads nothing of it.  With that part
    # changed before the build, the relations, completeness and freeness
    # certificates and the Coxeter relations all pass: only the audit of
    # the memo can refuse the build's coordinates
    shape = Partition([2, 2, 1])
    P, exps = staircase_family(shape, shape.top_degree())
    honest = StaircaseReducer(shape)
    reads = []
    top_level = honest._top_level_nf
    honest._top_level_nf = lambda yexps: (reads.append(yexps),
                                          top_level(yexps))[1]
    build_image_module(P, exps, honest)
    target, gamma = (1, 0, 0, 1, 1), (3, 0, 0, 0, 0)
    assert target in reads and honest._packed[target][gamma][0]

    red = StaircaseReducer(shape)
    red._top_level_nf(target)
    red._packed[target][gamma][0] += 1
    M = build_image_module(P, exps, red)
    assert red.relations_vanish_on(P, M.relations)
    augmentation_quotient(M)
    freeness_certificate(M)
    rep = verify_w_stability(M, make_expression_provider(red, exps))
    assert rep.failures == (
        "the normal form of y^(1, 0, 0, 1, 1) is not its rewrite",)
    assert_refused_as_uncertified(M, rep)


@pytest.mark.parametrize("malform", [
    lambda expr, M: {gi - len(M.gens): c for gi, c in expr.items()},
    lambda expr, M: {**expr, len(M.gens): SparsePoly.zero(M.k)},
    lambda expr, M: {gi: 1 for gi in expr},
    lambda expr, M: {str(gi): c for gi, c in expr.items()},
    lambda expr, M: {bool(gi): c for gi, c in expr.items()},
    lambda expr, M: {gi: c.relabel(range(M.k), M.k + 1)
                     for gi, c in expr.items()},
    lambda expr, M: None,
    lambda expr, M: 3,
    lambda expr, M: [(0,)],
    lambda expr, M: "ab",
    lambda expr, M: list(expr.items()),
], ids=["negative-index", "index-past-the-end", "int-coefficient",
        "str-index", "bool-index", "wrong-arity-coefficient", "none", "int",
        "list-of-singletons", "str", "list-of-pairs"])
def test_malformed_expression_is_refused(malform):
    M = staircase_module([2, 1])
    honest = provider_of(M)
    with pytest.raises(CertificateError) as exc:
        verify_w_stability(M, lambda gi, w: malform(honest(gi, w), M))
    assert exc.value.stage == "stability"


# -- the W-action --------------------------------------------------------------

def test_act_on_vector_matches_the_class_level_action():
    # moving a class then restricting equals restricting then moving
    from springerloc.flagmodel import artin_basis

    shape = Partition([2, 1])
    P = fixed_point_set(shape)
    for c in artin_basis(shape.n):
        for w in all_permutations(shape.n):
            lhs = springer_restriction(weyl_act_on_class(c, w), P)
            rhs = springer_restriction(c, P)
            assert lhs == tuple(rhs[j] for j in coset_action(P, w))


def solved_action_matrix(M, w, d):
    """The degree-d matrix of w from direct exact solves of the moved lifts.

    The products of lower-degree lifts with monomials span (Q[z]^+ M)_d; each
    moved lift is reduced against them and then solved over the degree-d
    lifts.  An empty residual proves the moved lift lies in M_d.
    """
    products, coords = product_echelon(M, d)
    gens = restrictions(M)
    lifts = TrackedEchelon()
    for gi in M.lifts[d]:
        assert lifts.insert(gi, products.reduce(coords(gens[gi]))) is None
    cols = []
    for gi in M.lifts[d]:
        moved = [gens[gi][j] for j in coset_action(M.P, w)]
        combo, residual = lifts.solve(products.reduce(coords(moved)))
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
    # each degree holds n − 1 matrices of q_d columns, with no zero entry
    # and no row past q_d
    assert len(rep.columns) == M.degree_bound + 1
    for q, mats in zip(M.q_dims, rep.columns):
        assert len(mats) == n - 1
        for mat in mats:
            assert len(mat) == q
            assert all(x != 0 and 0 <= r < q
                       for col in mat for r, x in col.items())
    for d in range(M.degree_bound + 1):
        for i in range(1, n):
            s_i = Permutation.adjacent_transposition(n, i)
            assert dense_action(M, rep, s_i)[d] == \
                solved_action_matrix(M, s_i, d), (d, i)


def test_quotient_action_is_a_representation():
    M = staircase_module([2, 2])
    rep = stability_of(M)
    n = 4
    perms = all_permutations(n)
    assert len(perms) == 24
    for w in perms:
        mats = dense_action(M, rep, w)
        for d in range(M.degree_bound + 1):
            assert mats[d] == solved_action_matrix(M, w, d), (w, d)
    ident = dense_action(M, rep, Permutation.identity(n))
    for d, mat in enumerate(ident):
        assert mat == identity_matrix(M.q_dims[d])
    for _ in range(6):
        u = perms[rng.randrange(len(perms))]
        v = perms[rng.randrange(len(perms))]
        mu = dense_action(M, rep, u)
        mv = dense_action(M, rep, v)
        muv = dense_action(M, rep, u * v)
        for d in range(M.degree_bound + 1):
            assert mat_mul(mu[d], mv[d]) == muv[d], (u, v, d)


def dense_traces(M, stability):
    """Traces at each class representative of the dense products of the
    generator matrices along its reduced word, from the int identity, as
    ``values`` of a graded character."""
    n = M.P.shape.n
    words = [locengine._reduced_word(cls.rep) for cls in conjugacy_classes(n)]
    simple = [dense_action(M, stability,
                           Permutation.adjacent_transposition(n, i))
              for i in range(1, n)]
    values = []
    for d, q in enumerate(M.q_dims):
        mats = [s_i[d] for s_i in simple]
        row = []
        for word in words:
            acc = tuple(tuple(int(r == c) for c in range(q)) for r in range(q))
            for i in reversed(word):
                acc = mat_mul(mats[i - 1], acc)
            row.append(sum(acc[r][r] for r in range(q)))
        values.append(tuple(row))
    return tuple(values)


def types_of(values):
    return [[type(x) for x in row] for row in values]


@pytest.mark.parametrize("parts", [
    lam.parts for n in range(1, 6) for lam in partitions_of(n)],
    ids=lambda parts: ",".join(map(str, parts)))
def test_sparse_traces_equal_dense_products(parts):
    M = staircase_module(list(parts))
    rep = stability_of(M)
    values = graded_character(M, rep).values
    dense = dense_traces(M, rep)
    assert values == dense and types_of(values) == types_of(dense)
    # conjugated by diag(1, 2, 3, …) the matrices carry a Fraction where an
    # entry is not an integer, as the build stores one; the traces keep
    # their values, and each has the type of the dense trace
    def scaled(x, r, c):
        y = Fraction(x * (r + 1), c + 1)
        return y if y.denominator > 1 else int(y)

    conj = StabilityReport(rep.checked_lifts, rep.fully_expanded, (), tuple(
        tuple(tuple({r: scaled(x, r, c) for r, x in col.items()}
                    for c, col in enumerate(mat)) for mat in mats)
        for mats in rep.columns))
    sparse = graded_character(M, conj).values
    dense = dense_traces(M, conj)
    assert sparse == dense == values
    assert types_of(sparse) == types_of(dense)


def test_transposition_matrices_are_involutions():
    M = staircase_module([2, 1, 1])
    rep = stability_of(M)
    n = 4
    for i in range(1, n):
        s_i = Permutation.adjacent_transposition(n, i)
        for mat in dense_action(M, rep, s_i):
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

def test_build_works_in_staircase_coordinates(monkeypatch):
    # the build's echelons live in H^*(B), on the 5! = 120 staircase
    # monomials, never in the module coordinates (word, z-monomial) of the
    # former product echelon; J_d has codimension q_d in H^*(B)_d, whose
    # dimension is the q-factorial coefficient
    echelons = []

    class Recorded(SparseEchelon):
        def __init__(self):
            super().__init__()
            echelons.append(self)

    monkeypatch.setattr(locengine, "SparseEchelon", Recorded)
    M = staircase_module([2, 1, 1, 1])
    assert len(echelons) == M.degree_bound + 2
    widths = springer.gaussian_factorial(5)
    for d, ech in enumerate(echelons[1:]):
        assert all(col < 120 for row in ech.rows.values() for col in row)
        assert ech.rank == widths[d] - M.q_dims[d]
    # a non-staircase exponent, as the former ambient guardrail's degree-15
    # generator on (1⁶), is refused before any work
    shape = Partition([1] * 6)
    with pytest.raises(MalformedInputError):
        build_image_module(fixed_point_set(shape), [(15, 0, 0, 0, 0, 0)],
                           StaircaseReducer(shape))


def test_generator_validation():
    shape = Partition([2, 1])
    P, reducer = fixed_point_set(shape), StaircaseReducer(shape)
    with pytest.raises(MalformedInputError):
        build_image_module(P, [], reducer)
    with pytest.raises(MalformedInputError):  # an exponent of another arity
        build_image_module(P, [(0, 0)], reducer)
    with pytest.raises(MalformedInputError):  # a_1 > n − 1: off the stairs
        build_image_module(P, [(3, 0, 0)], reducer)
    with pytest.raises(MalformedInputError):  # a_3 > 0: off the staircase
        build_image_module(P, [(0, 0, 1)], reducer)
    with pytest.raises(MalformedInputError):  # a reducer of another shape
        build_image_module(P, [(0, 0, 0)],
                           StaircaseReducer(Partition([1, 1, 1])))


# -- the packed layout ---------------------------------------------------------

@pytest.mark.parametrize("parts", [
    lam.parts for n in range(1, 6) for lam in partitions_of(n)],
    ids=lambda parts: ",".join(map(str, parts)))
def test_packed_rows_equal_the_packed_reference_restrictions(parts):
    # each entry of ι*(y^a) is one monomial with coefficient 1, and the row
    # holds its exponent packed at the module's width, the one of n(λ)
    M = staircase_module(list(parts))
    assert M.width == field_width(M.P.shape.top_degree())
    assert len(M.gens) == len(M.exps)
    for a, row in zip(M.exps, M.gens):
        assert len(row) == M.P.size
        for entry, packed in zip(restriction(a, M.P), row):
            ((e, c),) = entry.terms.items()
            assert c == 1 and type(packed) is int
            assert packed == pack(e, M.width), (a, e)


def test_packed_layout_refuses_a_degree_wider_than_its_fields():
    # degree 3 needs 2 bits a field: at 1 bit, y_1^3 on (1,1,1) would carry
    # into z_2's field and pack as z_1 z_2, a different monomial
    P = fixed_point_set(Partition([1, 1, 1]))
    assert field_width(3) == 2
    assert packed_restrictions(P, [(1, 0, 0), (2, 1, 0)], 2)[1][0] \
        == pack((2, 1, 0), 2)
    for exps in ([(2, 1, 0)], [(0, 0, 0), (1, 1, 0), (2, 1, 0)]):
        with pytest.raises(MalformedInputError):
            packed_restrictions(P, exps, 1)
    assert packed_restrictions(P, [(1, 0, 0)], 1)[0][0] == 1
