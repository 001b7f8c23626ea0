"""Borel presentation classes, torus/word restrictions, GKM and equivariance."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import springerloc.flagmodel as flagmodel
from springerloc.errors import (CertificateError, GuardrailError,
                               MalformedInputError)
from springerloc.exactalg import SparsePoly
from springerloc.flagmodel import (BorelClass, FixedPointVector, artin_basis,
                                   equivariance_failures,
                                   gkm_divisibility_check, restrict_to_t_fixed,
                                   springer_restriction, weyl_act_on_class)
from springerloc.springer import gaussian_factorial
from springerloc.symgroup import (Partition, Permutation, all_permutations,
                                  coset_action, fixed_point_set,
                                  partitions_of)

rng = random.Random(97)


def test_artin_basis_refuses_a_rank_above_the_cap(monkeypatch):
    def no_enumeration(*_):
        raise AssertionError("enumerated the staircase before refusing")

    monkeypatch.setattr(flagmodel, "product", no_enumeration)
    with pytest.raises(GuardrailError) as exc:
        artin_basis(9)
    assert (exc.value.what, exc.value.value, exc.value.limit) == ("rank n", 9, 8)


def test_artin_basis_size_and_graded_counts():
    for n in range(1, 6):
        basis = artin_basis(n)
        assert len(basis) == math.factorial(n)
        by_degree = {}
        for c in basis:
            by_degree[c.degree] = by_degree.get(c.degree, 0) + 1
            exps = next(iter(c.poly.terms))
            assert all(exps[i] <= n - 1 - i for i in range(n))
        counts = tuple(by_degree.get(d, 0)
                       for d in range(max(by_degree) + 1))
        assert counts == gaussian_factorial(n)


def test_borel_class_validates_homogeneity():
    poly = SparsePoly(2, {(1, 0): 1, (0, 0): 1})
    with pytest.raises(MalformedInputError):
        BorelClass(poly, 1)
    ok = BorelClass(SparsePoly(2, {(1, 0): 1}), 1)
    assert ok.n == 2


def test_torus_restriction_relabels_variables():
    c = BorelClass(SparsePoly(3, {(2, 1, 0): 1}), 3)  # y1^2 y2
    w = Permutation([3, 1, 2])
    restricted = restrict_to_t_fixed(c, w)
    assert restricted == SparsePoly(3, {(1, 0, 2): 1})  # t3^2 t1


def test_springer_restriction_entries_follow_words():
    lam = Partition([2, 1])
    P = fixed_point_set(lam)
    c = BorelClass(SparsePoly(3, {(1, 0, 0): 1}), 1)  # y1
    vec = springer_restriction(c, P)
    assert vec.degree == 1
    for i, word in enumerate(P.words):
        assert vec.entries[i] == SparsePoly.variable(2, word[0] - 1)


def test_springer_restriction_is_ring_compatible():
    # restriction of a product equals the entrywise product of restrictions
    lam = Partition([2, 2])
    P = fixed_point_set(lam)
    for _ in range(10):
        e1 = tuple(rng.randint(0, 2) for _ in range(4))
        e2 = tuple(rng.randint(0, 2) for _ in range(4))
        c1 = BorelClass(SparsePoly(4, {e1: 1}), sum(e1))
        c2 = BorelClass(SparsePoly(4, {e2: 1}), sum(e2))
        prod = BorelClass(c1.poly * c2.poly, c1.degree + c2.degree)
        r1, r2, rp = (springer_restriction(c, P) for c in (c1, c2, prod))
        for i in range(P.size):
            assert rp.entries[i] == r1.entries[i] * r2.entries[i]


def test_weyl_action_is_group_action_on_classes():
    perms = all_permutations(3)
    basis = artin_basis(3)
    for _ in range(20):
        u, v = rng.choice(perms), rng.choice(perms)
        c = rng.choice(basis)
        seq = weyl_act_on_class(weyl_act_on_class(c, v), u)
        both = weyl_act_on_class(c, u * v)
        assert seq.poly == both.poly
    for c in basis:
        assert weyl_act_on_class(c, Permutation.identity(3)).poly == c.poly


def test_gkm_divisibility_for_staircase_classes():
    for n in range(1, 5):
        for c in artin_basis(n):
            report = gkm_divisibility_check(c)
            assert report.passed, (n, c, report.failures[:3])


def test_restriction_equivariance_small_shapes():
    for parts in ([2], [1, 1], [3], [2, 1], [1, 1, 1], [2, 2], [3, 1]):
        P = fixed_point_set(Partition(parts))
        assert equivariance_failures(P) == []


def test_equivariance_computes_each_coset_action_once(monkeypatch):
    calls = []

    def spy(P, w):
        calls.append(w)
        return coset_action(P, w)

    monkeypatch.setattr(flagmodel, "coset_action", spy)
    P = fixed_point_set(Partition([2, 2]))
    assert equivariance_failures(P) == []
    assert calls == [Permutation.adjacent_transposition(4, i)
                     for i in (1, 2, 3)]


def test_equivariance_reports_a_wrong_coset_action(monkeypatch):
    # with the identity index map, only classes that s_i fixes still pass
    monkeypatch.setattr(flagmodel, "coset_action",
                        lambda P, w: tuple(range(P.size)))
    P = fixed_point_set(Partition([2, 1]))
    assert equivariance_failures(P) == [
        ((0, 1, 0), 1), ((0, 1, 0), 2), ((1, 0, 0), 1), ((1, 1, 0), 2),
        ((2, 0, 0), 1), ((2, 1, 0), 1), ((2, 1, 0), 2)]


def test_equivariance_restricts_only_the_units_once_each(monkeypatch):
    calls = []

    def spy(c, P):
        calls.append(c.poly)
        return springer_restriction(c, P)

    monkeypatch.setattr(flagmodel, "springer_restriction", spy)
    for n in range(2, 5):
        units = [SparsePoly.variable(n, j) for j in range(n)]
        for lam in partitions_of(n):
            calls.clear()
            assert equivariance_failures(fixed_point_set(lam)) == []
            assert sorted(calls, key=units.index) == units, lam


def packed_restriction(c, P):
    """ι*(c) of a monomial class packed as ``equivariance_failures`` packs
    it: word ω's slot holds its z-exponents, one field per variable."""
    n, k = P.shape.n, len(P.shape)
    width = max(n * (n - 1) // 2, 1).bit_length()
    packed = 0
    for w, entry in enumerate(springer_restriction(c, P).entries):
        ((e, coeff),) = entry.terms.items()
        assert coeff == 1
        for b, x in enumerate(e):
            assert x < 1 << width
            packed += x << (w * k + b) * width
    return packed


def test_packed_units_add_up_to_every_class_restriction():
    # ring maps: Σ_j a_j·W(y_j) is the packed ι*(y^a), for every staircase
    # class and every class s_i·y^a, with no field carrying into the next
    for n in range(1, 6):
        moves = [Permutation.adjacent_transposition(n, i) for i in range(1, n)]
        units = [BorelClass(SparsePoly.variable(n, j), 1) for j in range(n)]
        for lam in partitions_of(n):
            P = fixed_point_set(lam)
            W = [packed_restriction(y, P) for y in units]
            for c in artin_basis(n):
                for d in [c] + [weyl_act_on_class(c, s) for s in moves]:
                    (a,) = d.poly.terms
                    assert (sum(x * w for x, w in zip(a, W))
                            == packed_restriction(d, P)), (lam, a)


@pytest.mark.parametrize("entry", [
    pytest.param(SparsePoly(2, {(1, 0): 2}), id="coefficient-2"),
    pytest.param(SparsePoly(2, {(1, 0): Fraction(1, 2)}), id="coefficient-1/2"),
    pytest.param(SparsePoly(2, {(1, 0): 1, (0, 1): 1}), id="two-terms"),
    pytest.param(SparsePoly(2, {(2, 0): 1}), id="degree-2"),
    pytest.param(SparsePoly(2, {}), id="zero"),
])
def test_equivariance_refuses_a_unit_restriction_off_one_variable(
        monkeypatch, entry):
    P = fixed_point_set(Partition([2, 1]))

    def bad(c, P):  # only the entry at the last word is off
        entries = springer_restriction(c, P).entries
        return SimpleNamespace(entries=entries[:-1] + (entry,))

    monkeypatch.setattr(flagmodel, "springer_restriction", bad)
    with pytest.raises(CertificateError) as exc:
        equivariance_failures(P)
    assert exc.value.stage == "equivariance"


def test_equivariance_fields_hold_a_class_of_top_degree(monkeypatch):
    # y^(2,1,0) has degree n(n-1)/2 = 3, so its packed fields reach 3, and
    # with these restrictions its failure under s_1 cancels in fields of
    # fewer bits than ``equivariance_failures`` gives them
    P = fixed_point_set(Partition([1, 1, 1]))
    letters = [[0, 2, 0, 1, 0, 2], [2, 0, 0, 1, 2, 0], [2, 0, 2, 2, 2, 1]]

    def restriction(c, P):
        ((e, _),) = c.poly.terms.items()
        return SimpleNamespace(entries=tuple(
            SparsePoly.variable(3, b) for b in letters[e.index(1)]))

    s1 = Permutation.adjacent_transposition(3, 1)
    monkeypatch.setattr(flagmodel, "springer_restriction", restriction)
    monkeypatch.setattr(flagmodel, "coset_action", lambda P, w: (
        (5, 4, 2, 0, 1, 3) if w == s1 else coset_action(P, w)))
    assert ((2, 1, 0), 1) in equivariance_failures(P)


def reference_failures(P):
    """The plain double loop: one restriction per (class, s_i) pair."""
    n = P.shape.n
    bad = []
    for c in artin_basis(n):
        base = springer_restriction(c, P).entries
        for i in range(1, n):
            s = Permutation.adjacent_transposition(n, i)
            pull = flagmodel.coset_action(P, s)
            acted = springer_restriction(weyl_act_on_class(c, s), P).entries
            if acted != tuple(base[j] for j in pull):
                bad.append((next(iter(c.poly.terms)), i))
    return bad


@pytest.mark.parametrize("wrong_action", [
    pytest.param(lambda P, w: tuple(range(P.size)), id="identity"),
    pytest.param(lambda P, w: coset_action(P, w)[::-1], id="reversed"),
    pytest.param(lambda P, w: coset_action(
        P, Permutation.adjacent_transposition(w.n, 1)), id="s1-for-every-si"),
])
def test_equivariance_failures_match_the_plain_double_loop(monkeypatch,
                                                           wrong_action):
    monkeypatch.setattr(flagmodel, "coset_action", wrong_action)
    found = 0
    for n in range(1, 6):
        for lam in partitions_of(n):
            P = fixed_point_set(lam)
            expected = reference_failures(P)
            assert equivariance_failures(P) == expected, lam
            found += len(expected)
    assert found


def test_equivariance_identity_written_out():
    # (w . iota* c)(omega) = (iota* (w . c))(omega) for a specific class
    lam = Partition([2, 1])
    P = fixed_point_set(lam)
    w = Permutation.adjacent_transposition(3, 1)
    c = BorelClass(SparsePoly(3, {(0, 1, 0): 1}), 1)  # y2
    lhs = springer_restriction(weyl_act_on_class(c, w), P)
    base = springer_restriction(c, P)
    pull = coset_action(P, w)
    rhs = FixedPointVector(tuple(base.entries[pull[i]]
                                 for i in range(P.size)), base.degree)
    assert lhs.entries == rhs.entries
