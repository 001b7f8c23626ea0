"""Exact polynomial arithmetic and echelon linear algebra.

Derived linear-algebra results (ranks, span membership, dependences) of the
elimination kernel are checked against sympy as an independent oracle and against exact reconstruction identities;
polynomial arithmetic is checked through random-point evaluation homomorphisms.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from springerloc.errors import MalformedInputError
from springerloc.exactalg import (SparseEchelon, SparsePoly, TrackedEchelon,
                                  monomial_count, monomials_of_degree)

rng = random.Random(20250825)


def random_poly(nvars: int, max_terms: int = 5, max_exp: int = 3) -> SparsePoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return SparsePoly(nvars, terms)


def random_point(nvars: int) -> list[Fraction]:
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(nvars)]


# -- SparsePoly --------------------------------------------------------------

def test_constructor_drops_zero_terms_and_validates():
    p = SparsePoly(2, {(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): Fraction(2)}
    with pytest.raises(MalformedInputError):
        SparsePoly(2, {(1,): 1})
    with pytest.raises(MalformedInputError):
        SparsePoly(2, {(-1, 0): 1})


def test_arithmetic_is_evaluation_homomorphism():
    for _ in range(40):
        nvars = rng.randint(1, 4)
        a, b = random_poly(nvars), random_poly(nvars)
        pt = random_point(nvars)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a - b).evaluate(pt) == a.evaluate(pt) - b.evaluate(pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (-a).evaluate(pt) == -a.evaluate(pt)
        assert (a * 3).evaluate(pt) == 3 * a.evaluate(pt)


def test_power_matches_repeated_multiplication():
    for _ in range(10):
        a = random_poly(3, max_terms=3, max_exp=2)
        prod = SparsePoly.const(3, 1)
        for k in range(5):
            assert a ** k == prod
            prod = prod * a


def test_degree_and_homogeneity_queries():
    p = SparsePoly(2, {(2, 1): 1, (0, 3): -1})
    assert p.total_degree() == 3
    assert p.is_homogeneous(3)
    assert not (p + SparsePoly.const(2, 1)).is_homogeneous(3)
    assert SparsePoly.zero(2).is_homogeneous(7)
    assert SparsePoly.const(2, 5).constant_term() == 5
    assert SparsePoly.variable(2, 1) == SparsePoly.monomial(2, (0, 1))


def test_monomial_enumeration_matches_count_and_order():
    for nvars in range(1, 5):
        for degree in range(0, 6):
            monos = monomials_of_degree(nvars, degree)
            assert len(monos) == monomial_count(nvars, degree)
            assert monos == sorted(monos)
            assert all(sum(m) == degree for m in monos)
            assert len(set(monos)) == len(monos)


# -- sparse echelon ------------------------------------------------------------

def random_vectors(count: int, dim: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-4, 4)) for _ in range(dim)]
            for _ in range(count)]


def to_sparse(vec) -> dict[int, Fraction]:
    return {j: Fraction(x) for j, x in enumerate(vec) if x}


def combine(vecs, coeffs, dim: int) -> list[Fraction]:
    """The dense vector sum(coeffs[i] * vecs[i])."""
    return [sum((c * vecs[i][j] for i, c in coeffs.items()), Fraction(0))
            for j in range(dim)]


def in_sympy_span(vecs, v) -> bool:
    return sympy.Matrix(vecs + [v]).rank() == sympy.Matrix(vecs).rank()


def test_graded_basis_rank_matches_sympy():
    # a graded basis is a SparseEchelon over the monomials of one degree
    for _ in range(15):
        dim = rng.randint(2, 7)
        vecs = random_vectors(rng.randint(1, 9), dim)
        basis = SparseEchelon()
        fresh = [basis.insert(to_sparse(v)) for v in vecs]
        assert basis.rank == sum(fresh) == sympy.Matrix(vecs).rank()


def test_reduce_and_contains_are_consistent():
    vecs = random_vectors(5, 6)
    basis = SparseEchelon()
    for v in vecs:
        basis.insert(to_sparse(v))
    for v in vecs:
        assert not basis.reduce(to_sparse(v))
    coeffs = {p: Fraction(rng.randint(-3, 3)) for p in basis.rows}
    combo = [sum((c * basis.rows[p].get(j, 0) for p, c in coeffs.items()),
                 Fraction(0)) for j in range(6)]
    assert not basis.reduce(to_sparse(combo))
    residual = basis.reduce(to_sparse([1] * 6))
    assert basis.reduce(residual) == residual
    assert (not residual) == in_sympy_span(vecs, [1] * 6)


def test_sparse_echelon_rank_matches_dense_and_sympy():
    for _ in range(15):
        dim = rng.randint(3, 8)
        vecs = random_vectors(rng.randint(2, 10), dim)
        sparse = SparseEchelon()
        for v in vecs:
            sparse.insert(to_sparse(v))
        assert sparse.rank == sympy.Matrix(vecs).rank()


def test_sparse_reduce_is_zero_exactly_on_span_members():
    vecs = random_vectors(6, 7)
    sparse = SparseEchelon()
    for v in vecs:
        sparse.insert(to_sparse(v))
    for _ in range(25):
        v = combine(vecs, {i: Fraction(rng.randint(-2, 2))
                           for i in range(len(vecs))}, 7)
        if rng.random() < 0.5:
            v[rng.randrange(7)] += 1
        assert (not sparse.reduce(to_sparse(v))) == in_sympy_span(vecs, v)


def test_sparse_reduce_normal_form_avoids_pivots():
    vecs = random_vectors(5, 6)
    sparse = SparseEchelon()
    for v in vecs:
        sparse.insert(to_sparse(v))
    residual = sparse.reduce(to_sparse([1, 1, 1, 1, 1, 1]))
    assert all(j not in sparse.rows for j in residual)
    assert sparse.reduce(residual) == residual


# -- tracked echelon -----------------------------------------------------------

def test_tracked_dependences_reconstruct_inserted_vectors():
    dim = 7
    vecs = random_vectors(10, dim)
    tracked = TrackedEchelon()
    for src, v in enumerate(vecs):
        dep = tracked.insert(src, to_sparse(v))
        if dep is not None:
            assert set(dep) <= set(tracked.kept)
            assert combine(vecs, dep, dim) == v
    assert len(tracked.kept) == sympy.Matrix(vecs).rank()


def test_tracked_solve_certifies_membership():
    dim = 6
    vecs = random_vectors(6, dim)
    tracked = TrackedEchelon()
    for src, v in enumerate(vecs):
        tracked.insert(src, to_sparse(v))
    for _ in range(20):
        coeffs = {src: Fraction(rng.randint(-3, 3)) for src in tracked.kept}
        target = combine(vecs, coeffs, dim)
        combo, residual = tracked.solve(to_sparse(target))
        assert not residual
        assert combine(vecs, combo, dim) == target
    # a vector outside the span must leave a residual
    units = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for outside in units:
        if not in_sympy_span(vecs, outside):
            combo, residual = tracked.solve(to_sparse(outside))
            assert residual


# -- the kernel as a whole, on random integer matrices -------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_agrees_with_sympy_on_small_integer_matrices(data):
    dim = data.draw(st.integers(1, 6), label="dim")
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    vecs = data.draw(st.lists(row, min_size=1, max_size=7), label="vecs")
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(vecs),
                                max_size=len(vecs)), label="coeffs")
    probes = data.draw(st.lists(row, max_size=3), label="probes")
    member = combine(vecs, dict(enumerate(coeffs)), dim)

    sparse, tracked = SparseEchelon(), TrackedEchelon()
    for src, v in enumerate(vecs):
        sparse.insert(to_sparse(v))
        dep = tracked.insert(src, to_sparse(v))
        if dep is not None:
            assert combine(vecs, dep, dim) == v
    assert sparse.rank == len(tracked.kept) == sympy.Matrix(vecs).rank()

    for v in vecs + [member] + probes:
        residual = sparse.reduce(to_sparse(v))
        assert sparse.reduce(residual) == residual
        assert not set(residual) & set(sparse.rows)
        assert (not residual) == in_sympy_span(vecs, v)
        combo, tracked_residual = tracked.solve(to_sparse(v))
        assert tracked_residual == residual
        rebuilt = combine(vecs, combo, dim)
        for j, c in residual.items():
            rebuilt[j] += c
        assert rebuilt == v
