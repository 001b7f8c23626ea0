"""Exact polynomial arithmetic and echelon linear algebra.

Derived linear-algebra results (ranks, span membership, dependences) of the
elimination kernel are checked against sympy as an independent oracle, against
a plain ``Fraction`` Gauss–Jordan normal form and against exact reconstruction
identities; polynomial arithmetic is checked through random-point evaluation
homomorphisms.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from springerloc import exactalg, locengine
from springerloc.errors import MalformedInputError
from springerloc.exactalg import (SparseEchelon, SparsePoly, TrackedEchelon,
                                  field_width, monomial_count,
                                  monomials_of_degree, pack)
from springerloc.springer import staircase_family
from springerloc.straighten import StaircaseReducer
from springerloc.symgroup import Partition

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
    for bad_exps in ((-1, 0), (1.0, 0), (True, 0), ("1", 0)):
        with pytest.raises(MalformedInputError):
            SparsePoly(2, {bad_exps: 1})
    with pytest.raises(MalformedInputError):
        SparsePoly(1, {(1.5,): 1})
    for bad in (0.1, 2.0, "3", None, True, False):
        with pytest.raises(MalformedInputError):
            SparsePoly(2, {(1, 0): bad})
        with pytest.raises(MalformedInputError):
            SparsePoly.const(2, bad)


def test_coefficients_are_stored_as_given():
    p = SparsePoly(2, {(1, 0): 3, (0, 1): Fraction(1, 2)})
    assert type(p.terms[(1, 0)]) is int
    assert type(p.terms[(0, 1)]) is Fraction
    q = (p * p + SparsePoly.const(2, 2)) * 4
    assert type(q.terms[(2, 0)]) is int and q.terms[(2, 0)] == 36
    assert type(q.constant_term()) is int
    assert q.terms[(0, 2)] == 1


def evaluate(poly, point):
    """The value of ``poly`` at ``point``, exactly."""
    return sum(c * math.prod(v ** e for v, e in zip(point, exps))
               for exps, c in poly.terms.items())


def test_arithmetic_is_evaluation_homomorphism():
    for _ in range(40):
        nvars = rng.randint(1, 4)
        a, b = random_poly(nvars), random_poly(nvars)
        pt = random_point(nvars)
        ea, eb = evaluate(a, pt), evaluate(b, pt)
        assert evaluate(a + b, pt) == ea + eb
        assert evaluate(a - b, pt) == ea - eb
        assert evaluate(a * b, pt) == ea * eb
        assert evaluate(-a, pt) == -ea
        assert evaluate(a * 3, pt) == 3 * ea


def test_relabel_substitutes_and_merges_variables():
    p = SparsePoly(3, {(2, 0, 1): 3, (0, 2, 1): -3, (1, 1, 0): 2})
    # x0 -> w1, x1 -> w1, x2 -> w0: the first two terms cancel
    assert p.relabel((1, 1, 0), 2) == SparsePoly(2, {(0, 2): 2})
    assert p.relabel((0, 1, 2), 3) == p
    assert SparsePoly.zero(3).relabel((0, 0, 0), 1).is_zero()
    with pytest.raises(MalformedInputError):
        p.relabel((0, 1), 2)


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


@pytest.mark.parametrize("nvars, degree", [(3, 28), (6, 15)],
                         ids=["k3-D28", "k6-D15"])
def test_packing_is_injective_and_additive_up_to_the_degree(nvars, degree):
    # D = 28 is the top degree n(λ) at the hard cap n = 8
    width = field_width(degree)
    assert width >= degree.bit_length()
    vectors = [m for d in range(degree + 1)
               for m in monomials_of_degree(nvars, d)]
    keys = {pack(m, width) for m in vectors}
    assert len(keys) == len(vectors) == math.comb(degree + nvars, nvars)
    # a product within the degree is one addition: no field carries
    for _ in range(2000):
        a, b = rng.choice(vectors), rng.choice(vectors)
        if sum(a) + sum(b) <= degree:
            assert pack(a, width) + pack(b, width) == pack(
                tuple(map(sum, zip(a, b))), width)
    # one exponent past the field would overflow into the next variable
    assert pack((1 << width,) + (0,) * (nvars - 1), width) == pack(
        (0, 1) + (0,) * (nvars - 2), width)


# -- sparse echelon ------------------------------------------------------------

def random_vectors(count: int, dim: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-4, 4)) for _ in range(dim)]
            for _ in range(count)]


def to_sparse(vec) -> dict:
    """The nonzero entries of a dense vector, each an ``int`` or a
    ``Fraction`` as given."""
    return {j: x for j, x in enumerate(vec) if x}


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


# -- the kernel as a whole: integer and Fraction matrices ----------------------

def gauss_jordan_normal_form(vecs, v) -> dict[int, Fraction]:
    """Reference normal form: the reduced row echelon form of ``vecs`` over
    ``Fraction``, then ``v`` minus its pivot-column parts."""
    rref: list[tuple[int, list[Fraction]]] = []
    for vec in vecs:
        r = [Fraction(x) for x in vec]
        for p, row in rref:
            r = [a - r[p] * b for a, b in zip(r, row)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        r = [x / r[lead] for x in r]
        rref = [(p, [a - row[lead] * b for a, b in zip(row, r)])
                for p, row in rref]
        rref.append((lead, r))
    nf = [Fraction(x) for x in v]
    for p, row in rref:
        nf = [a - nf[p] * b for a, b in zip(nf, row)]
    return {j: x for j, x in enumerate(nf) if x}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_agrees_with_sympy_and_gauss_jordan(data):
    # integer matrices reach non-unit pivots; Fraction matrices are cleared
    # to integers on entry
    dim = data.draw(st.integers(1, 6), label="dim")
    if data.draw(st.booleans(), label="integral"):
        entry = st.integers(-5, 5)
    else:
        entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
    row = st.lists(entry, min_size=dim, max_size=dim)
    vecs = data.draw(st.lists(row, min_size=1, max_size=7), label="vecs")
    coeffs = data.draw(st.lists(entry, min_size=len(vecs),
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
        assert residual == gauss_jordan_normal_form(vecs, v)
        assert all(type(c) is int or c.denominator > 1
                   for c in residual.values())
        assert (not residual) == in_sympy_span(vecs, v)
        combo, tracked_residual = tracked.solve(to_sparse(v))
        assert tracked_residual == residual
        rebuilt = combine(vecs, combo, dim)
        for j, c in residual.items():
            rebuilt[j] += c
        assert rebuilt == v


# -- integral data give integral rows ------------------------------------------

def assert_primitive_integer_rows(rows):
    for pivot, row in rows.items():
        assert all(type(c) is int for c in row.values())
        assert math.gcd(*row.values()) == 1
        assert min(row) == pivot and row[pivot] > 0


def test_integral_data_give_primitive_integer_rows(monkeypatch):
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built on integer input")

    with monkeypatch.context() as patch:
        patch.setattr(exactalg, "Fraction", no_fraction)
        basis = SparseEchelon()
        for _ in range(20):
            basis.insert({j: rng.randint(-9, 9) for j in range(8)})
    assert basis.rank == 8
    assert_primitive_integer_rows(basis.rows)

    echelons = []

    class Recorded(SparseEchelon):
        def __init__(self):
            super().__init__()
            echelons.append(self)

    monkeypatch.setattr(locengine, "SparseEchelon", Recorded)
    shape = Partition([2, 2, 1])
    P, exps = staircase_family(shape, shape.top_degree())
    M = locengine.build_image_module(P, exps, StaircaseReducer(shape))
    assert M.mode == "echelon" and sum(e.rank for e in echelons) > 0
    for ech in echelons:
        assert_primitive_integer_rows(ech.rows)
