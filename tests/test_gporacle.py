"""Tanisaki-ideal oracle: defects, generators, dimensions, orientation pin.

The oracle must stand on its own, so these tests check it against hand
calculations and against pure combinatorics (fixed-word counts), never against
the localization engine it is meant to police.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import springerloc.gporacle as gporacle
from springerloc.errors import CertificateError, GuardrailError
from springerloc.exactalg import (SparseEchelon, SparsePoly,
                                  monomials_of_degree)
from springerloc.gporacle import (
    gp_graded_character,
    tanisaki_defects,
    tanisaki_generators,
)
from springerloc.symgroup import (
    Partition,
    all_permutations,
    conjugacy_classes,
    count_fixed_words,
    fixed_point_set,
    partitions_of,
)

rng = random.Random(3349)


def em(n, pairs):
    return SparsePoly(n, {e: Fraction(c) for e, c in pairs})


def test_defect_hand_values():
    assert tanisaki_defects(Partition([2, 1])) == (0, 1, 3)
    assert tanisaki_defects(Partition([3])) == (1, 2, 3)
    assert tanisaki_defects(Partition([1, 1, 1])) == (0, 0, 3)
    assert tanisaki_defects(Partition([2, 1, 1, 1])) == (0, 0, 0, 1, 5)


def test_defects_are_monotone_and_end_at_n():
    for n in range(1, 7):
        for lam in partitions_of(n):
            d = tanisaki_defects(lam)
            assert len(d) == n
            assert d[-1] == n
            assert all(d[i] <= d[i + 1] for i in range(n - 1))


def test_hook_generators_match_hand_construction():
    got = set(tanisaki_generators(Partition([2, 1])))
    e1 = em(3, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])
    e2 = em(3, [((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1)])
    e3 = em(3, [((1, 1, 1), 1)])
    pair12 = em(3, [((1, 1, 0), 1)])
    pair13 = em(3, [((1, 0, 1), 1)])
    pair23 = em(3, [((0, 1, 1), 1)])
    assert got == {e1, e2, e3, pair12, pair13, pair23}


def test_generators_keep_int_coefficients():
    # the partial elementary polynomials are 0/1 data: no Fraction is built
    # until the elimination kernel divides
    for n in range(1, 5):
        for lam in partitions_of(n):
            for g in tanisaki_generators(lam):
                assert all(type(c) is int for c in g.terms.values()), (lam, g)


def test_one_row_shape_ideal_is_the_whole_augmentation_ideal():
    # λ = (n): the quotient is the trivial module in degree 0 only
    for n in (2, 3, 4):
        char = gp_graded_character(Partition([n]))
        assert char.q_dims == (1,)
        assert all(v == 1 for v in char.values[0])


def test_quotient_dimensions_sum_to_the_multinomial():
    for n in range(1, 5):
        for lam in partitions_of(n):
            char = gp_graded_character(lam)
            assert sum(char.q_dims) == lam.multinomial(), lam
            assert len(char.q_dims) == lam.top_degree() + 1


def ideal_spans(lam, top, build=gporacle._ideal_echelon):
    """(monos, imap, echelon) of I_λ in each degree 0..top, each degree
    built by ``build`` from the degree below."""
    n = lam.n
    gens = tanisaki_generators(lam)
    spans, ech, monos = [], SparseEchelon(), []
    for d in range(top + 1):
        below_monos, monos = monos, monomials_of_degree(n, d)
        imap = {e: i for i, e in enumerate(monos)}
        ech = build(n, ech, below_monos,
                    [g for g in gens if g.total_degree() == d], imap)
        spans.append((monos, imap, ech))
    return spans


def test_ideal_is_setwise_w_stable():
    # permuting variables in any generator lands back in the ideal span
    for parts in ([2, 1], [2, 2], [3, 1], [2, 1, 1]):
        lam = Partition(parts)
        n = lam.n
        gens = tanisaki_generators(lam)
        spans = ideal_spans(lam, max(g.total_degree() for g in gens))
        perms = all_permutations(n)
        for g in gens:
            _, imap, ech = spans[g.total_degree()]
            for _ in range(4):
                w = perms[rng.randrange(len(perms))]
                moved: dict[int, Fraction] = {}
                for exps, c in g.terms.items():
                    out = [0] * n
                    for i in range(1, n + 1):
                        out[w(i) - 1] = exps[i - 1]
                    idx = imap[tuple(out)]
                    moved[idx] = moved.get(idx, Fraction(0)) + c
                residual = ech.reduce({i: c for i, c in moved.items() if c})
                assert not residual, (parts, g, w)


def full_product_echelon(n, below, below_monos, gens, imap):
    """The span of every product y_i·r with r a row of ``below``, and the
    generators, each through ``insert``: the reference for the criterion."""
    ech = SparseEchelon()
    for row in below.rows.values():
        terms = [(below_monos[j], c) for j, c in row.items()]
        for i in range(n):
            ech.insert({imap[e[:i] + (e[i] + 1,) + e[i + 1:]]: c
                        for e, c in terms})
    for g in gens:
        ech.insert({imap[exps]: c for exps, c in g.terms.items()})
    return ech


CRITERION_SHAPES = [lam for n in range(1, 6) for lam in partitions_of(n)] + [
    Partition([2, 1, 1, 1, 1])]


@pytest.mark.parametrize("lam", CRITERION_SHAPES, ids=Partition.to_string)
def test_multiplier_span_has_the_pivots_of_every_product(lam):
    # the pivot set is the set of leading monomials of the span, so equal
    # pivot sets in every degree mean equal spans
    top = lam.top_degree() + 1
    got = ideal_spans(lam, top)
    want = ideal_spans(lam, top, full_product_echelon)
    for d, ((_, _, ech), (_, _, ref)) in enumerate(zip(got, want)):
        assert set(ech.rows) == set(ref.rows), (lam, d)


@pytest.mark.parametrize("lam", CRITERION_SHAPES, ids=Partition.to_string)
def test_every_multiplier_row_is_a_shifted_row_of_the_degree_below(lam):
    spans = ideal_spans(lam, lam.top_degree() + 1)
    adopted = 0
    for (below_monos, _, below), (_, imap, ech) in zip(spans, spans[1:]):
        shifted = set()
        for row in below.rows.values():
            for i in range(lam.n):
                shifted.add((i, frozenset(
                    (imap[below_monos[j][:i] + (below_monos[j][i] + 1,)
                          + below_monos[j][i + 1:]], c)
                    for j, c in row.items())))
        for pivot, i in ech.multiplier.items():
            assert (i, frozenset(ech.rows[pivot].items())) in shifted, (
                lam, pivot, i)
        adopted += len(ech.multiplier)
    assert adopted or lam.top_degree() == 0


@pytest.mark.parametrize("lam", CRITERION_SHAPES, ids=Partition.to_string)
def test_every_row_is_primitive_and_keyed_by_its_positive_least_column(lam):
    for _, _, ech in ideal_spans(lam, lam.top_degree() + 1):
        for pivot, row in ech.rows.items():
            assert pivot == min(row), (lam, pivot)
            assert row[pivot] > 0, (lam, pivot)
            assert all(type(c) is int for c in row.values())
            assert math.gcd(*row.values()) == 1, (lam, pivot)


def test_a_span_missing_products_is_refused_at_the_convention_stage(
        monkeypatch):
    # off by one in the multiplier rule: a row adopted as y_m·h forms only
    # y_i·r with i < m, so the span shrinks and the quotient grows
    ideal_echelon = gporacle._ideal_echelon

    def short_by_one(n, below, *args):
        if isinstance(below, gporacle.IdealSpan):
            below.multiplier = {p: m - 1 for p, m in below.multiplier.items()}
        return ideal_echelon(n, below, *args)

    monkeypatch.setattr(gporacle, "_ideal_echelon", short_by_one)
    with pytest.raises(CertificateError) as exc:
        gp_graded_character(Partition([2, 1, 1]))
    assert exc.value.stage == "convention"


def test_flipped_orientation_is_caught_immediately(monkeypatch):
    # the recipe applied to the conjugate: (3) and (1,1,1) trade ideals
    defects = gporacle.tanisaki_defects
    monkeypatch.setattr(gporacle, "tanisaki_defects",
                        lambda shape: defects(shape.conjugate()))
    with pytest.raises(CertificateError,
                       match="does not vanish in degree 1") as exc:
        gp_graded_character(Partition([3]))
    assert exc.value.stage == "convention" and exc.value.degree == 1
    assert exc.value.partial == (1,)
    with pytest.raises(CertificateError,
                       match="total dimension 1 through degree 3, expected 6",
                       ) as exc:
        gp_graded_character(Partition([1, 1, 1]))
    assert exc.value.stage == "convention" and exc.value.degree == 3
    assert exc.value.partial == (1, 0, 0, 0)


def test_oracle_refuses_rank_above_the_limit_before_any_generator(
        monkeypatch):
    def no_generators(*args):
        raise AssertionError("a generator was built past the rank limit")

    monkeypatch.setattr(gporacle, "_partial_elementary", no_generators)
    with pytest.raises(GuardrailError) as exc:
        gp_graded_character(Partition([9]))
    assert exc.value.what == "rank n"
    assert exc.value.value == 9 and exc.value.limit == 8


def test_oracle_imports_nothing_from_the_pipeline():
    # the oracle polices the engine, so it must not reach it: every import
    # is at module level, and none comes from the pipeline or the CLI
    tree = ast.parse(Path(gporacle.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports)
    sources = set()
    for node in imports:
        names = [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        sources.update(name.split(".")[-1] for name in names)
    assert not sources & {"springer", "cli"}


def test_character_totals_are_fixed_word_counts():
    # summing the graded character over degrees gives the permutation
    # character of the word set — independent combinatorics
    for n in range(2, 7):
        for lam in partitions_of(n):
            char = gp_graded_character(lam)
            P = fixed_point_set(lam)
            for cls in conjugacy_classes(n):
                total = sum(char.value(d, cls.cycle_type)
                            for d in char.degrees)
                assert total == count_fixed_words(P, cls.rep), (lam, cls)


def test_hook_degree_one_piece_is_the_standard_character():
    char = gp_graded_character(Partition([2, 1]))
    assert char.q_dims == (1, 2)
    assert char.value(1, Partition([1, 1, 1])) == 2
    assert char.value(1, Partition([2, 1])) == 0
    assert char.value(1, Partition([3])) == -1


def test_identity_column_equals_dimensions():
    for parts in ([2, 2], [3, 1], [2, 1, 1]):
        lam = Partition(parts)
        char = gp_graded_character(lam)
        ident = Partition([1] * lam.n)
        for d in char.degrees:
            assert char.value(d, ident) == char.q_dims[d]
