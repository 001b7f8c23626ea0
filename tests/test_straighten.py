"""Staircase straightening: rewrite tower shape, vanishing, normal forms.

The decisive oracle: a normal form y^a = sum_b c_b(z) y^b is an identity of
restriction vectors, so both sides are restricted to every fixed-point word
(through the independent flagmodel path) and compared exactly.
"""

import random
from math import prod

import pytest

from springerloc.errors import MalformedInputError
from springerloc.exactalg import SparsePoly, monomials_of_degree
from springerloc.flagmodel import BorelClass, springer_restriction
from springerloc.gporacle import tanisaki_generators
from springerloc.straighten import StaircaseReducer
from springerloc.symgroup import Partition, fixed_point_set, partitions_of

rng = random.Random(411)


def restriction_of_monomial(exps, P):
    c = BorelClass(SparsePoly(len(exps), {tuple(exps): 1}), sum(exps))
    return springer_restriction(c, P)


def test_tower_has_monic_triangular_shape():
    for parts in ([2, 1], [1, 1, 1], [3, 1], [2, 2]):
        shape = Partition(parts)
        red = StaircaseReducer(shape)
        n, nvars = shape.n, shape.n + len(shape)
        assert len(red._tower) == n
        for j0, rel in enumerate(red._tower):
            # f_{j0+1}(y_{j0+1}) is monic of degree n - j0 in y_{j0+1}: one
            # leading term y_{j0+1}^{n-j0} with coefficient 1
            assert isinstance(rel, SparsePoly) and rel.nvars == nvars
            lead = tuple(n - j0 if i == j0 else 0 for i in range(nvars))
            assert rel.terms[lead] == 1
            assert all(exps[j0] < n - j0 for exps in rel.terms if exps != lead)
            # no y_i with i > j0 + 1, and homogeneous of degree n - j0
            assert all(e == 0 for exps in rel.terms for e in exps[j0 + 1:n])
            assert rel.is_homogeneous(n - j0)


def test_relations_vanish_on_every_word_up_to_rank_five():
    for n in range(1, 6):
        for lam in partitions_of(n):
            red = StaircaseReducer(lam)
            assert red.relations_vanish_on(fixed_point_set(lam), ()), lam
            # every equivariant relation
            assert red.relations_vanish_on(fixed_point_set(lam),
                                           red.relations), lam


def test_equivariant_relations_are_tanisaki_generators_at_z_zero():
    # the engine's recipe against the oracle's, which the engine never reads:
    # up to sign, the z = 0 parts are the Tanisaki generators of degree <= n(λ)
    for n in range(1, 6):
        for lam in partitions_of(n):
            red = StaircaseReducer(lam)
            at_zero = set()
            for rel in red.relations:
                assert rel.is_homogeneous(rel.total_degree())
                part = SparsePoly(n, {e[:n]: c for e, c in rel.terms.items()
                                      if not any(e[n:])})
                at_zero.add(part if min(part.terms.values()) > 0 else -part)
            assert len(at_zero) == len(red.relations), lam
            assert at_zero == {g for g in tanisaki_generators(lam)
                               if g.total_degree() <= lam.top_degree()}, lam


def test_z_free_coordinates_are_the_constant_part_of_the_normal_form():
    red = StaircaseReducer(Partition([2, 1]))
    # y3 = (2 z1 + z2) - y1 - y2: at z = 0, y3 -> -y1 - y2
    assert red.z_free(SparsePoly.monomial(3, (0, 0, 1))) == {
        (1, 0, 0): -1, (0, 1, 0): -1}
    # z-terms drop out, and so does a sum that cancels
    mixed = SparsePoly(5, {(0, 0, 1, 0, 0): 1, (1, 0, 0, 0, 0): 1,
                           (0, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0): 7})
    assert red.z_free(mixed) == {}


def test_vanishing_check_catches_a_perturbed_tower():
    for parts in ([2, 1], [2, 2, 1], [1, 1, 1, 1]):
        shape = Partition(parts)
        P = fixed_point_set(shape)
        red = StaircaseReducer(shape)
        n, nvars = shape.n, shape.n + len(shape)
        assert red.relations_vanish_on(P, ())
        for j0, kept in enumerate(red._tower):
            for s in range(n - j0):  # every power of y_{j0+1} below the lead
                # z_1^{n-j0-s} y_{j0+1}^s keeps the relation homogeneous
                exps = [0] * nvars
                exps[j0], exps[n] = s, n - j0 - s
                red._tower[j0] = kept + SparsePoly.monomial(nvars, tuple(exps))
                assert not red.relations_vanish_on(P, ()), (parts, j0, s)
            red._tower[j0] = kept
        assert red.relations_vanish_on(P, ())


def test_vanishing_check_restricts_at_every_letter_choice():
    # ∏_i ∏_{b != ω(i)} (y_i − z_b) vanishes at every word but ω, so the
    # check must visit each word; ∏_b (y_1 − z_b) vanishes at all of them
    for parts in ([2, 1], [2, 2, 1], [1, 1, 1, 1]):
        shape = Partition(parts)
        P = fixed_point_set(shape)
        red = StaircaseReducer(shape)
        n, k = shape.n, len(shape)
        y = [SparsePoly.variable(n + k, i) for i in range(n)]
        z = [SparsePoly.variable(n + k, n + b) for b in range(k)]
        one = SparsePoly.const(n + k, 1)
        assert red.relations_vanish_on(P, [prod((y[0] - zb for zb in z),
                                                start=one)])
        for word in P.words:
            only_at_word = prod((y[i] - z[b] for i in range(n)
                                 for b in range(k) if b != word[i] - 1),
                                start=one)
            assert not red.relations_vanish_on(P, [only_at_word]), word


def test_normal_form_fixes_staircase_monomials():
    shape = Partition([2, 1, 1])
    red = StaircaseReducer(shape)
    n = shape.n
    for _ in range(10):
        exps = tuple(rng.randint(0, n - 1 - i) for i in range(n))
        nf = red.nf_monomial(exps)
        assert list(nf) == [exps]
        assert nf[exps] == SparsePoly.const(len(shape), 1)


def test_normal_form_respects_caps_and_grading():
    shape = Partition([2, 2])
    red = StaircaseReducer(shape)
    n = shape.n
    for _ in range(15):
        exps = tuple(rng.randint(0, 3) for _ in range(n))
        nf = red.nf_monomial(exps)
        for bexp, zp in nf.items():
            assert all(bexp[i] <= n - 1 - i for i in range(n))
            assert zp.is_homogeneous(sum(exps) - sum(bexp))
            assert not zp.is_zero()


def test_normal_form_hand_value_for_two_one():
    # for shape (2,1) with block word (1,1,2): y3 = (2 z1 + z2) - y1 - y2
    red = StaircaseReducer(Partition([2, 1]))
    nf = red.nf_monomial((0, 0, 1))
    assert nf[(0, 0, 0)] == SparsePoly(2, {(1, 0): 2, (0, 1): 1})
    assert nf[(1, 0, 0)] == SparsePoly.const(2, -1)
    assert nf[(0, 1, 0)] == SparsePoly.const(2, -1)
    assert set(nf) == {(0, 0, 0), (1, 0, 0), (0, 1, 0)}


def test_normal_form_hand_value_for_regular_rank_two():
    red = StaircaseReducer(Partition([1, 1]))
    nf = red.nf_monomial((0, 1))
    assert nf[(0, 0)] == SparsePoly(2, {(1, 0): 1, (0, 1): 1})
    assert nf[(1, 0)] == SparsePoly.const(2, -1)


def test_normal_forms_are_identities_of_restriction_vectors():
    # every monomial with exponents <= n - 1 up to degree n(λ) + 1
    for n in range(1, 5):
        for shape in partitions_of(n):
            k = len(shape)
            P = fixed_point_set(shape)
            red = StaircaseReducer(shape)
            staircase = {}
            for d in range(shape.top_degree() + 2):
                for exps in monomials_of_degree(n, d):
                    if max(exps) > n - 1:
                        continue
                    lhs = restriction_of_monomial(exps, P)
                    acc = [SparsePoly.zero(k)] * P.size
                    for bexp, zp in red.nf_monomial(exps).items():
                        if bexp not in staircase:
                            staircase[bexp] = restriction_of_monomial(bexp, P)
                        acc = [a + zp * r for a, r in
                               zip(acc, staircase[bexp].entries)]
                    assert acc == list(lhs.entries), (shape, exps)


def test_integral_data_keep_int_coefficients():
    # restriction vectors, the rewrite tower and normal forms never leave the
    # integers, so the stability expansions run in integer arithmetic
    for parts in ([2, 1], [1, 1, 1], [2, 2], [3, 1, 1], [1, 1, 1, 1]):
        shape = Partition(parts)
        P = fixed_point_set(shape)
        red = StaircaseReducer(shape)
        polys = list(red._tower)  # the n relations f_j(y_j)
        for d in range(shape.top_degree() + 2):
            for mono in monomials_of_degree(shape.n, d):
                polys.extend(red.nf_monomial(mono).values())
                polys.extend(restriction_of_monomial(mono, P).entries)
        coeffs = [c for poly in polys for c in poly.terms.values()]
        assert coeffs and all(type(c) is int for c in coeffs)


def test_normal_form_validates_arity():
    red = StaircaseReducer(Partition([2, 1]))
    with pytest.raises(MalformedInputError):
        red.nf_monomial((1, 0))


def test_vanishing_check_rejects_foreign_word_set():
    red = StaircaseReducer(Partition([2, 1]))
    with pytest.raises(MalformedInputError):
        red.relations_vanish_on(fixed_point_set(Partition([1, 1, 1])), ())
