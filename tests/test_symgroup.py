"""Symmetric group combinatorics, word sets, and characters.

Character values are verified through the orthogonality relations and against
hand-pinned tables; class sizes and fixed-word counts are verified by brute
force over all permutations.
"""

import math
import random
from fractions import Fraction

import pytest

import springerloc.symgroup as symgroup
from springerloc.errors import GuardrailError, MalformedInputError
from springerloc.symgroup import (Partition, Permutation, all_permutations,
                                  class_representative, class_size,
                                  conjugacy_classes, coset_action,
                                  count_fixed_words,
                                  decompose_class_function, fixed_point_set,
                                  mn_character, partitions_of)

rng = random.Random(1730)


# -- partitions ---------------------------------------------------------------

def test_partition_normalizes_and_validates():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    assert Partition.from_string("2,1").parts == (2, 1)
    assert Partition.from_string(" 2 , 1 ").parts == (2, 1)
    assert Partition([2, 1]).to_string() == "2,1"
    for bad in ([2, 0], [2.9, 1], ["2", "1"], [True, True], [2.0]):
        with pytest.raises(MalformedInputError):
            Partition(bad)
    for bad in ("a,b", "2_1", "٢,١", "2,,1", "2,1,", ",2,1", "2, ,1", "",
                " "):
        with pytest.raises(MalformedInputError):
            Partition.from_string(bad)


def test_partition_conjugate_is_involution_and_transposes():
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam
            assert lam.conjugate().n == lam.n


def test_partition_invariants():
    lam = Partition([2, 1])
    assert lam.n == 3
    assert lam.top_degree() == 1
    assert lam.multinomial() == 3
    assert lam.block_word() == (1, 1, 2)
    assert Partition([1, 1, 1]).top_degree() == 3
    assert Partition([1] * 4).multinomial() == 24
    assert Partition([2, 2]).block_word() == (1, 1, 2, 2)


def test_partitions_of_counts_and_order():
    counts = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for n, expected in counts.items():
        shapes = partitions_of(n)
        assert len(shapes) == expected
        assert shapes[0] == Partition([n])
        assert shapes[-1] == Partition([1] * n)
        assert len(set(shapes)) == expected
    with pytest.raises(GuardrailError) as exc:
        partitions_of(9)
    assert exc.value.limit == 8


def test_fixed_point_set_refuses_a_rank_above_the_cap(monkeypatch):
    def no_enumeration(*_):
        raise AssertionError("enumerated the words before refusing")

    monkeypatch.setattr(symgroup, "_it_permutations", no_enumeration)
    with pytest.raises(GuardrailError) as exc:
        fixed_point_set(Partition([1] * 9))
    assert (exc.value.what, exc.value.value, exc.value.limit) == ("rank n", 9, 8)


# -- permutations ---------------------------------------------------------------

def test_composition_convention_is_left_then_right():
    u = Permutation([2, 1, 3])   # swaps 1,2
    v = Permutation([1, 3, 2])   # swaps 2,3
    assert (u * v)(3) == u(v(3)) == u(2) == 1
    assert (u * v).images == (2, 3, 1)


def test_group_axioms_on_random_elements():
    perms = all_permutations(4)
    for _ in range(30):
        a, b, c = (rng.choice(perms) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        inverse = Permutation(a.images.index(i) + 1 for i in range(1, 5))
        assert a * inverse == Permutation.identity(4)
        assert inverse * a == Permutation.identity(4)


def test_permutation_constructors():
    assert Permutation.adjacent_transposition(4, 2).images == (1, 3, 2, 4)
    assert Permutation.transposition(4, 1, 3).images == (3, 2, 1, 4)
    assert Permutation.from_cycles(4, [(1, 2, 3)]).images == (2, 3, 1, 4)
    assert Permutation.from_cycles(5, [(1, 2), (3, 4, 5)]).cycle_type() == \
        Partition([3, 2])
    for bad in ([1.5, 2], [1.0, 2.0], ["1", "2"], [True], [2, 2]):
        with pytest.raises(MalformedInputError):
            Permutation(bad)


def test_all_permutations_is_the_whole_group():
    for n in range(1, 6):
        perms = all_permutations(n)
        assert len(perms) == math.factorial(n)
        assert len({p.images for p in perms}) == math.factorial(n)


# -- fixed-point word sets ------------------------------------------------------

def test_fixed_point_set_size_is_multinomial():
    for n in range(1, 7):
        for lam in partitions_of(n):
            P = fixed_point_set(lam)
            assert P.size == lam.multinomial()
            assert len(set(P.words)) == P.size
            for word in P.words:
                assert sorted(word) == list(lam.block_word())


def test_coset_action_is_right_action():
    P = fixed_point_set(Partition([2, 1, 1]))
    perms = all_permutations(4)
    for _ in range(25):
        u, v = rng.choice(perms), rng.choice(perms)
        au, av, avu = (coset_action(P, w) for w in (u, v, v * u))
        # function composition a(u) after a(v) realizes the product v·u
        assert tuple(au[av[i]] for i in range(P.size)) == avu
    ident = coset_action(P, Permutation.identity(4))
    assert ident == tuple(range(P.size))


def test_count_fixed_words_matches_brute_force():
    for lam in (Partition([2, 1]), Partition([2, 2]), Partition([1, 1, 1])):
        P = fixed_point_set(lam)
        for w in all_permutations(lam.n):
            action = coset_action(P, w)
            brute = sum(1 for i in range(P.size) if action[i] == i)
            assert count_fixed_words(P, w) == brute


# -- conjugacy classes and characters --------------------------------------------

def test_class_sizes_partition_the_group():
    for n in range(1, 6):
        classes = conjugacy_classes(n)
        assert sum(c.size for c in classes) == math.factorial(n)
        by_type = {}
        for p in all_permutations(n):
            by_type.setdefault(p.cycle_type(), 0)
            by_type[p.cycle_type()] += 1
        for c in classes:
            assert by_type[c.cycle_type] == c.size == class_size(c.cycle_type)
            assert class_representative(c.cycle_type).cycle_type() == c.cycle_type


def test_character_table_first_orthogonality():
    # sum over classes of |C| chi_mu(C) chi_nu(C) equals n! * delta(mu, nu)
    for n in range(1, 6):
        shapes = partitions_of(n)
        classes = conjugacy_classes(n)
        for mu in shapes:
            for nu in shapes:
                total = sum(c.size * mn_character(mu, c.cycle_type)
                            * mn_character(nu, c.cycle_type) for c in classes)
                assert total == (math.factorial(n) if mu == nu else 0)


def test_character_hand_values():
    # S_3 table, rows (mu), columns (3), (2,1), (1,1,1)
    table3 = {
        Partition([3]): (1, 1, 1),
        Partition([2, 1]): (-1, 0, 2),
        Partition([1, 1, 1]): (1, -1, 1),
    }
    cols = [Partition([3]), Partition([2, 1]), Partition([1, 1, 1])]
    for mu, row in table3.items():
        assert tuple(mn_character(mu, ct) for ct in cols) == row
    # dimensions at the identity for n = 4 (hook length values)
    dims4 = {Partition([4]): 1, Partition([3, 1]): 3, Partition([2, 2]): 2,
             Partition([2, 1, 1]): 3, Partition([1, 1, 1, 1]): 1}
    for mu, dim in dims4.items():
        assert mn_character(mu, Partition([1, 1, 1, 1])) == dim
    # sign character sanity: value is the permutation sign
    assert mn_character(Partition([1] * 5), Partition([5])) == 1
    assert mn_character(Partition([1] * 5), Partition([2, 1, 1, 1])) == -1


def test_decompose_class_function_roundtrip():
    for n in range(2, 6):
        shapes = partitions_of(n)
        classes = conjugacy_classes(n)
        for _ in range(5):
            target = {mu: rng.randint(0, 3) for mu in shapes}
            values = {
                c.cycle_type: Fraction(sum(
                    m * mn_character(mu, c.cycle_type)
                    for mu, m in target.items()))
                for c in classes
            }
            decomposed = decompose_class_function(values, n)
            for mu in shapes:
                assert decomposed.get(mu, 0) == target[mu]


def test_decompose_class_function_with_fraction_values_is_exact():
    # non-integral multiplicities come back exactly, each as a Fraction,
    # whether the values are Fractions or ints
    for n in range(1, 6):
        shapes = partitions_of(n)
        classes = conjugacy_classes(n)
        target = {mu: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                  for mu in shapes}
        values = {c.cycle_type: sum(m * mn_character(mu, c.cycle_type)
                                    for mu, m in target.items())
                  for c in classes}
        assert all(type(v) is Fraction for v in values.values())
        decomposed = decompose_class_function(values, n)
        assert decomposed == target
        assert all(type(m) is Fraction for m in decomposed.values())
        scaled = {c: int(v * math.factorial(7)) for c, v in values.items()}
        decomposed = decompose_class_function(scaled, n)
        assert decomposed == {mu: m * math.factorial(7)
                              for mu, m in target.items()}
        assert all(type(m) is Fraction for m in decomposed.values())


def test_decompose_requires_every_class():
    values = {Partition([3]): Fraction(1)}
    with pytest.raises(MalformedInputError):
        decompose_class_function(values, 3)
