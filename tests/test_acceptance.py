"""Acceptance suite: nine exact criteria, one test (and one line) each.

Each test prints a single ``criterion N (...): PASS in S s`` line and, where a
runtime budget is stated, asserts the measured wall time against it:
criterion 1 under 1 s, criterion 2 under 30 s, criterion 3 under 2 min,
criterion 6 under 5 s, criterion 7 under 10 min.  Pipeline reports are
computed once (inside the criterion-3 timing, which covers the full build)
and shared by the later structural criteria.
"""

import time

from springerloc.flagmodel import artin_basis, gkm_divisibility_check
from springerloc.springer import (
    equivariance_check,
    gaussian_factorial,
    oracle_cross_check,
    springer_compute,
)
from springerloc.symgroup import (
    Partition,
    conjugacy_classes,
    count_fixed_words,
    decompose_class_function,
    fixed_point_set,
    partitions_of,
)

_reports = {}


def report_for(lam):
    if lam not in _reports:
        _reports[lam] = springer_compute(lam)
    return _reports[lam]


def shapes_up_to(n_max):
    return [lam for n in range(1, n_max + 1) for lam in partitions_of(n)]


def finish(num, label, started, budget=None):
    elapsed = time.perf_counter() - started
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f} s")
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} took {elapsed:.2f} s, over its {budget} s budget")


def test_criterion_1_fixed_point_counts():
    t0 = time.perf_counter()
    for lam in shapes_up_to(6):
        assert fixed_point_set(lam).size == lam.multinomial(), lam
    finish(1, "fixed-point counts", t0, budget=1.0)


def test_criterion_2_localization_sanity():
    t0 = time.perf_counter()
    for n in range(1, 6):
        for c in artin_basis(n):
            rep = gkm_divisibility_check(c)
            assert rep.passed, (n, c.poly.terms, rep.failures[:3])
    expected = {1: (1,), 2: (1, 1), 3: (1, 2, 2, 1), 4: (1, 3, 5, 6, 5, 3, 1)}
    for n, coeffs in expected.items():
        assert gaussian_factorial(n) == coeffs
        assert report_for(Partition([1] * n)).poincare == coeffs
    finish(2, "GKM divisibility and regular-shape Poincare", t0, budget=30.0)


def test_criterion_3_w_stability():
    t0 = time.perf_counter()
    for lam in shapes_up_to(5):
        assert report_for(lam).certificate("stability"), lam
    finish(3, "W-stability of the image module", t0, budget=120.0)


def test_criterion_4_completeness():
    t0 = time.perf_counter()
    for lam in shapes_up_to(5):
        rep = report_for(lam)
        assert rep.certificate("completeness"), lam
        assert sum(rep.poincare) == lam.multinomial(), lam
        assert rep.degree_bound == lam.top_degree(), lam
    finish(4, "augmentation quotient completeness", t0)


def test_criterion_5_freeness():
    t0 = time.perf_counter()
    for lam in shapes_up_to(5):
        assert report_for(lam).certificate("freeness"), lam
    finish(5, "freeness over the equivariant base ring", t0)


def test_criterion_6_equivariance():
    t0 = time.perf_counter()
    for lam in shapes_up_to(6):
        rep = equivariance_check(lam)
        assert rep.passed, (lam, rep.failures[:3])
    finish(6, "restriction equivariance", t0, budget=5.0)


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    for lam in shapes_up_to(5):
        cross = oracle_cross_check(lam)
        assert cross.passed, (lam, cross.mismatches[:5])
        assert cross.engine.q_dims == cross.oracle.q_dims, lam
    finish(7, "graded characters equal the Tanisaki oracle", t0, budget=600.0)


def test_criterion_8_representation_structure():
    t0 = time.perf_counter()
    for lam in shapes_up_to(5):
        rep = report_for(lam)
        conventions = dict(rep.conventions)
        assert conventions["degree0_trivial"], lam
        assert conventions["top_matches_shape"], lam
        # q = 1 totals against Young's rule, computed from word fixed counts
        n = lam.n
        P = fixed_point_set(lam)
        perm_char = {cls.cycle_type: count_fixed_words(P, cls.rep)
                     for cls in conjugacy_classes(n)}
        kostka = decompose_class_function(perm_char, n)
        expected = {mu: int(c) for mu, c in kostka.items() if c}
        assert rep.total_multiplicities() == expected, lam
    finish(8, "trivial bottom, shape at top, Young's rule at q=1", t0)


def test_criterion_9_spot_values():
    t0 = time.perf_counter()
    hook = report_for(Partition([2, 1]))
    assert hook.poincare == (1, 2)
    char = hook.character
    assert char.value(1, Partition([1, 1, 1])) == 2
    assert char.value(1, Partition([2, 1])) == 0
    assert char.value(1, Partition([3])) == -1
    assert hook.multiplicities[1] == ((Partition([2, 1]), 1),)

    reg2 = report_for(Partition([1, 1]))
    assert reg2.poincare == (1, 1)
    assert reg2.character.value(1, Partition([2])) == -1
    assert reg2.character.value(1, Partition([1, 1])) == 1
    assert reg2.multiplicities[1] == ((Partition([1, 1]), 1),)
    finish(9, "hand-computed spot values", t0)
