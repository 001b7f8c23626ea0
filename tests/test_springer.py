"""Top-level pipeline: reports, conventions, graded multiplicity tables.

The q = 1 anchor is Young's rule via pure combinatorics: decomposing the
fixed-word permutation character gives the Kostka numbers, which must equal
the summed graded multiplicities.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from springerloc import springer
from springerloc.errors import (CertificateError, GuardrailError,
                               MalformedInputError)
from springerloc.gporacle import gp_graded_character
from springerloc.springer import (
    equivariance_check,
    gaussian_factorial,
    kostka_foulkes_table,
    oracle_cross_check,
    springer_compute,
)
from springerloc.symgroup import (
    Partition,
    conjugacy_classes,
    count_fixed_words,
    decompose_class_function,
    fixed_point_set,
    mn_character,
    partitions_of,
)

_REPORTS = {}


def report_for(parts, **kw):
    key = (tuple(parts), tuple(sorted(kw.items())))
    if key not in _REPORTS:
        _REPORTS[key] = springer_compute(Partition(parts), **kw)
    return _REPORTS[key]


def P(*parts):
    return Partition(list(parts))


def tableaux(mu, lam):
    """Rows of every semistandard tableau of shape mu and content lam, each
    letter i added as a horizontal strip of lam[i - 1] cells."""
    def grow(rows, letter):
        if letter > len(lam):
            yield rows
            return
        old = [len(row) for row in rows]

        def place(i, left, new):
            if i == len(mu):
                if not left:
                    yield from grow(new, letter + 1)
                return
            top = min(mu[i], old[i - 1]) if i else mu[0]
            for c in range(min(left, top - old[i]) + 1):
                yield from place(i + 1, left - c,
                                 new + [rows[i] + [letter] * c])

        yield from place(0, lam[letter - 1], [])

    return [rows for rows in grow([[] for _ in mu], 1)
            if [len(row) for row in rows] == list(mu)]


def charge(word):
    """Lascoux–Schützenberger charge of a word of partition content: take
    standard subwords from the right (the rightmost 1, then moving left,
    cyclically, to the next 2, ...); the index starts at 0 and rises by 1
    each time the next letter is found by wrapping around."""
    word, total = list(word), 0
    while word:
        pos, index, taken, r = len(word), 0, set(), 1
        while r in word:
            left = [i for i in range(pos - 1, -1, -1) if word[i] == r]
            if left:
                pos = left[0]
            else:
                pos = max(i for i, x in enumerate(word) if x == r)
                index += 1
            total += index
            taken.add(pos)
            r += 1
        word = [x for i, x in enumerate(word) if i not in taken]
    return total


def charge_multiplicities(mu, lam):
    """Multiplicity of chi^mu in degrees 0 .. n(lam) for Jordan type lam:
    the tableaux of shape mu and content lam with n(lam) - charge = d, the
    reading word taken row by row from the bottom, each row left to right
    (Macdonald III.6)."""
    top = lam.top_degree()
    counts = [0] * (top + 1)
    for rows in tableaux(mu.parts, lam.parts):
        counts[top - charge(x for row in reversed(rows) for x in row)] += 1
    return counts


def test_gaussian_factorial_values():
    assert gaussian_factorial(1) == (1,)
    assert gaussian_factorial(2) == (1, 1)
    assert gaussian_factorial(3) == (1, 2, 2, 1)
    assert gaussian_factorial(4) == (1, 3, 5, 6, 5, 3, 1)
    assert sum(gaussian_factorial(5)) == 120


def test_frozen_poincare_polynomials():
    assert report_for([2, 1]).poincare == (1, 2)
    assert report_for([1, 1]).poincare == (1, 1)
    assert report_for([1, 1, 1]).poincare == (1, 2, 2, 1)
    assert report_for([2, 2]).poincare == (1, 3, 2)
    assert report_for([3]).poincare == (1,)


def test_all_certificates_and_conventions_hold_up_to_rank_four():
    for n in range(1, 5):
        for lam in partitions_of(n):
            rep = report_for(list(lam.parts))
            assert all(ok for _, ok in rep.certificates), lam
            assert all(ok for _, ok in rep.conventions), lam
            assert rep.certificate("freeness")
            assert sum(rep.poincare) == lam.multinomial()
            assert len(rep.poincare) == lam.top_degree() + 1


def test_multiplicities_weighted_by_dimension_fill_the_word_count():
    for n in range(1, 5):
        for lam in partitions_of(n):
            rep = report_for(list(lam.parts))
            total = sum(m * mn_character(mu, P(*[1] * mu.n))
                        for row in rep.multiplicities for mu, m in row)
            assert total == sum(rep.poincare), lam


def test_summed_multiplicities_obey_youngs_rule():
    # q = 1: decomposing the fixed-word permutation character combinatorially
    for n in range(2, 5):
        for lam in partitions_of(n):
            rep = report_for(list(lam.parts))
            Pset = fixed_point_set(lam)
            perm_char = {cls.cycle_type: count_fixed_words(Pset, cls.rep)
                         for cls in conjugacy_classes(n)}
            kostka = decompose_class_function(perm_char, n)
            expected = {mu: int(c) for mu, c in kostka.items() if c}
            assert rep.total_multiplicities() == expected, lam


def test_degree_zero_is_trivial_and_top_is_the_shape_itself():
    for parts in ([2, 1], [2, 2], [1, 1, 1], [3, 1]):
        rep = report_for(parts)
        shape = P(*parts)
        assert rep.multiplicities[0] == ((P(shape.n), 1),)
        assert rep.multiplicities[-1] == ((shape, 1),)
        assert rep.multiplicity(rep.degree_bound, shape) == 1
        assert rep.multiplicity(0, shape) == (1 if len(parts) == 1 else 0)


def test_graded_table_rank_three():
    table = kostka_foulkes_table(3)
    assert table.shapes == (P(3), P(2, 1), P(1, 1, 1))
    assert table.entry(P(3), P(3)) == (1,)
    assert table.entry(P(2, 1), P(3)) == ()
    assert table.entry(P(3), P(2, 1)) == (1,)
    assert table.entry(P(2, 1), P(2, 1)) == (0, 1)
    assert table.entry(P(1, 1, 1), P(2, 1)) == ()
    assert table.entry(P(3), P(1, 1, 1)) == (1,)
    assert table.entry(P(2, 1), P(1, 1, 1)) == (0, 1, 1)
    assert table.entry(P(1, 1, 1), P(1, 1, 1)) == (0, 0, 0, 1)
    assert sum(table.entry(P(2, 1), P(1, 1, 1))) == 2


def test_graded_table_rank_two():
    table = kostka_foulkes_table(2)
    assert table.entry(P(2), P(2)) == (1,)
    assert table.entry(P(2), P(1, 1)) == (1,)
    assert table.entry(P(1, 1), P(1, 1)) == (0, 1)
    assert table.entry(P(1, 1), P(2)) == ()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_graded_table_matches_the_charge_statistic(n):
    table = kostka_foulkes_table(n)
    for mu in table.shapes:
        for lam in table.shapes:
            counts = charge_multiplicities(mu, lam)
            while counts and counts[-1] == 0:
                counts.pop()
            assert table.entry(mu, lam) == tuple(counts), (mu, lam)


def test_table_columns_count_words_at_q_equals_one():
    table = kostka_foulkes_table(4)
    for lam in table.shapes:
        total = sum(sum(table.entry(mu, lam))
                    * mn_character(mu, P(*[1] * mu.n))
                    for mu in table.shapes)
        assert total == lam.multinomial()


def test_equivariance_check_reports_clean():
    for parts in ([2, 1], [2, 2], [1, 1, 1, 1], [3, 1]):
        rep = equivariance_check(P(*parts))
        assert rep.passed
        assert rep.failures == ()


def test_equivariance_check_refuses_rank_above_the_limit(monkeypatch):
    def no_words(shape):
        raise AssertionError("fixed points enumerated past the rank limit")

    monkeypatch.setattr(springer, "fixed_point_set", no_words)
    with pytest.raises(GuardrailError) as exc:
        equivariance_check(P(9))
    assert exc.value.value == 9 and exc.value.limit == 8


@pytest.mark.parametrize("parts, poincare", [
    ((6,), (1,)),
    ((5, 1), (1, 5)),
    ((4, 2), (1, 5, 9)),
    ((4, 1, 1), (1, 5, 14, 10)),
    ((3, 3), (1, 5, 9, 5)),
    ((3, 2, 1), (1, 5, 14, 24, 16)),
    ((2, 2, 2), (1, 5, 14, 24, 25, 16, 5)),
    ((3, 1, 1, 1), (1, 5, 14, 29, 35, 26, 10)),
    ((2, 2, 1, 1), (1, 5, 14, 29, 44, 47, 31, 9)),
], ids=["6", "5,1", "4,2", "4,1,1", "3,3", "3,2,1", "2,2,2", "3,1,1,1",
        "2,2,1,1"])
def test_rank_six_shapes_agree_with_the_oracle(parts, poincare, monkeypatch):
    reports = []  # the cross-check's own engine run, kept for the charge check

    def kept(shape):
        reports.append(springer_compute(shape))
        return reports[-1]

    monkeypatch.setattr(springer, "springer_compute", kept)
    cross = oracle_cross_check(P(*parts))
    assert cross.passed, cross.mismatches[:5]
    assert cross.engine.q_dims == cross.oracle.q_dims == poincare
    (rep,) = reports
    for mu in partitions_of(6):
        assert ([rep.multiplicity(d, mu) for d in range(len(poincare))]
                == charge_multiplicities(mu, rep.shape)), mu


def test_two_one_four_runs_through_the_engine_against_the_charge_statistic():
    # (2,1⁴), with 360 fixed words, through the engine; every multiplicity is
    # checked against the charge reference, which shares no recipe with it
    rep = springer_compute(P(2, 1, 1, 1, 1))
    assert sum(rep.poincare) == 360 and rep.degree_bound == 10
    for mu in partitions_of(6):
        assert ([rep.multiplicity(d, mu) for d in range(11)]
                == charge_multiplicities(mu, rep.shape)), mu


@pytest.mark.parametrize("parts", [(2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)],
                         ids=["2,1,1,1,1", "1,1,1,1,1,1"])
def test_oracle_on_the_largest_rank_six_shapes_against_the_charge_statistic(
        parts):
    # the Tanisaki oracle alone, each degree decomposed into irreducibles
    # and checked against the charge reference
    lam = P(*parts)
    char = gp_graded_character(lam)
    assert len(char.values) == lam.top_degree() + 1
    mults = [decompose_class_function(char.degree_row(d), 6)
             for d in char.degrees]
    for mu in partitions_of(6):
        assert [m[mu] for m in mults] == charge_multiplicities(mu, lam), mu


def test_rank_guardrail_and_bound_validation():
    with pytest.raises(GuardrailError) as exc:
        springer_compute(P(9))
    assert exc.value.value == 9 and exc.value.limit == 8
    with pytest.raises(MalformedInputError):
        springer_compute([2.9, 1])


def test_timings_cover_every_stage():
    echelon = report_for([2, 2])
    regular = report_for([1, 1, 1])
    for rep in (echelon, regular):
        assert [name for name, _ in rep.timings_ms] == [
            "generators", "build", "relations", "quotient", "freeness",
            "stability", "character", "decompose"]
        assert [name for name, _ in rep.certificates] == [
            "relations", "completeness", "freeness", "stability"]
        assert all(ms >= 0 for _, ms in rep.timings_ms)
        assert all(ok for _, ok in rep.certificates)


@pytest.mark.parametrize("parts", [(1, 1, 1), (2, 2)], ids=["1,1,1", "2,2"])
def test_failed_relations_certificate_stops_the_pipeline(monkeypatch, parts):
    monkeypatch.setattr(springer.StaircaseReducer, "relations_vanish_on",
                        lambda self, P, relations: False)
    with pytest.raises(CertificateError) as exc:
        springer_compute(P(*parts))
    assert exc.value.stage == "relations"



def added_in_degree_one(char, cycle_type, amount=1):
    values = [list(row) for row in char.values]
    values[1][char.cycle_types.index(cycle_type)] += amount
    return replace(char, values=tuple(map(tuple, values)))


@pytest.mark.parametrize("edit, mismatch", [
    (lambda char: added_in_degree_one(char, P(3)),
     "degree 1, class 3: engine 0 vs oracle -1"),
    (lambda char: added_in_degree_one(char, P(1, 1, 1)),  # identity 2 -> 3
     "graded dimensions differ: engine (1, 3) vs oracle (1, 2)"),
], ids=["trace-value", "graded-dimensions"])
def test_cross_check_reports_an_engine_mismatch(monkeypatch, edit, mismatch):
    rep = springer_compute(P(2, 1))
    changed = replace(rep, character=edit(rep.character))
    monkeypatch.setattr(springer, "springer_compute", lambda shape: changed)
    cross = oracle_cross_check(P(2, 1))
    assert not cross.passed and cross.mismatches == (mismatch,)


def test_non_integral_multiplicity_fails_the_decomposition(monkeypatch):
    original = springer.graded_character
    monkeypatch.setattr(springer, "graded_character", lambda M, stability:
                        added_in_degree_one(original(M, stability), P(3)))
    with pytest.raises(CertificateError) as exc:
        springer_compute(P(2, 1))
    assert exc.value.stage == "decomposition" and exc.value.degree == 1


def test_graded_dimensions_refuse_a_non_integral_identity_trace():
    char = springer_compute(P(2, 1)).character
    assert char.q_dims == (1, 2)
    half = added_in_degree_one(char, P(1, 1, 1), Fraction(1, 2))
    assert half.value(1, P(1, 1, 1)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        half.q_dims
