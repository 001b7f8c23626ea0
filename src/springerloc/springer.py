"""End-to-end Springer representation reports for one nilpotent Jordan type.

``springer_compute`` runs the whole pipeline for a partition λ of n:

1. enumerate the fixed-point word set P of content λ;
2. list the staircase cohomology classes y^a (a_i <= n−i) of degree up to
   the bound; their restrictions to P, one packed monomial per word, are
   the generator family of the image module M;
3. build M with the localization engine, as the quotient of H^*(B) by the
   Tanisaki relations in staircase coordinates; certify that the staircase
   rewriting relations and the Tanisaki relations the build used vanish at
   every word, then certify completeness of the augmentation quotient,
   freeness and W-stability; the W-action of every shape is rewritten
   through staircase normal forms, s_i·ι*(y^a) = ι*(y^{s_i·a}), which the
   relations certificate proves sound;
4. extract the graded character and decompose every degree into irreducible
   multiplicities (which must be non-negative integers).

The graded multiplicity of the irreducible of shape μ inside the quotient is
the Kostka–Foulkes entry for (μ, λ); ``kostka_foulkes_table`` collects those
polynomials for all shapes of one rank.  ``oracle_cross_check`` and
``equivariance_check`` are the two independent checks of one shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import CertificateError, GuardrailError
from .exactalg import Exponent
from .flagmodel import equivariance_failures, staircase_exponents
from .gporacle import gp_graded_character
from .locengine import (ExpressionProvider, GradedCharacter,
                        augmentation_quotient, build_image_module,
                        freeness_certificate, graded_character,
                        verify_w_stability)
from .straighten import StaircaseReducer
from .symgroup import (HARD_MAX_N, FixedPointSet, Partition, Permutation,
                       decompose_class_function, fixed_point_set,
                       partitions_of)


def gaussian_factorial(n: int) -> tuple[int, ...]:
    """Coefficients of [n]_q! = prod_{i=1..n} (1 + q + ... + q^{i-1})."""
    coeffs = [1]
    for i in range(2, n + 1):
        new = [0] * (len(coeffs) + i - 1)
        for d, c in enumerate(coeffs):
            for j in range(i):
                new[d + j] += c
        coeffs = new
    return tuple(coeffs)


def staircase_family(shape: Partition, degree_bound: int,
                     ) -> tuple[FixedPointSet, list[Exponent]]:
    """Word set plus the exponents of all staircase classes within the bound,
    in ``artin_basis`` order.  ``build_image_module`` lays out their
    restrictions to the words as packed rows, one int per (class, word)."""
    exps = [a for a in staircase_exponents(shape.n) if sum(a) <= degree_bound]
    return fixed_point_set(shape), exps


def make_expression_provider(reducer: StaircaseReducer,
                             exps: list[Exponent]) -> ExpressionProvider:
    """Rewrite w·y^a over the staircase family via normal forms.

    The moved monomial has exponents a'' with a''_{w(i)} = a_i; its normal
    form references only staircase monomials of no larger degree, so every
    referenced exponent is inside the family whenever the family is
    degree-saturated.
    """
    index_of = {e: i for i, e in enumerate(exps)}
    n = reducer.n

    def provider(gen_index: int, w: Permutation):
        a = exps[gen_index]
        moved = [0] * n
        for i in range(1, n + 1):
            moved[w(i) - 1] = a[i - 1]
        out = {}
        for bexp, zp in reducer.nf_monomial(tuple(moved)).items():
            out[index_of[bexp]] = zp
        return out

    return provider


@dataclass(frozen=True)
class SpringerReport:
    """Everything computed for one shape: every fact not stored is read from
    the character and multiplicities, and a report exists only when every
    certificate has passed."""

    shape: Partition
    character: GradedCharacter
    multiplicities: tuple[tuple[tuple[Partition, int], ...], ...]
    timings_ms: tuple[tuple[str, float], ...]

    certificates = (("relations", True), ("completeness", True),
                    ("freeness", True), ("stability", True))

    @property
    def poincare(self) -> tuple[int, ...]:
        """The graded dimensions: the character at the identity."""
        return self.character.q_dims

    @property
    def degree_bound(self) -> int:
        return len(self.character.values) - 1

    @property
    def conventions(self) -> tuple[tuple[str, bool], ...]:
        first, top = self.multiplicities[0], self.multiplicities[-1]
        return (("degree0_trivial", first == ((Partition([self.shape.n]), 1),)),
                ("top_matches_shape", top == ((self.shape, 1),)))

    def multiplicity(self, degree: int, mu: Partition) -> int:
        for shape_, m in self.multiplicities[degree]:
            if shape_ == mu:
                return m
        return 0

    def total_multiplicities(self) -> dict[Partition, int]:
        out: dict[Partition, int] = {}
        for row in self.multiplicities:
            for mu, m in row:
                out[mu] = out.get(mu, 0) + m
        return {mu: m for mu, m in out.items() if m}

    def certificate(self, name: str) -> bool:
        return dict(self.certificates)[name]


def graded_multiplicities(char: GradedCharacter, n: int,
                          ) -> tuple[tuple[tuple[Partition, int], ...], ...]:
    """Irreducible multiplicities of every degree of ``char``, the nonzero
    ones by decreasing shape; raises :class:`CertificateError` at stage
    "decomposition" on one that is not a non-negative integer."""
    mults = []
    for d in char.degrees:
        decomp = decompose_class_function(char.degree_row(d), n)
        row = []
        for mu, coeff in sorted(decomp.items(), key=lambda kv: kv[0].parts,
                                reverse=True):
            if coeff == 0:
                continue
            if coeff != int(coeff) or coeff < 0:
                raise CertificateError(
                    "decomposition",
                    f"multiplicity of {mu!r} is {coeff}, not a non-negative "
                    "integer", degree=d)
            row.append((mu, int(coeff)))
        mults.append(tuple(row))
    return tuple(mults)


def springer_compute(shape: Partition) -> SpringerReport:
    """Full localization pipeline for one Jordan type; raises on any failed
    certificate (:class:`CertificateError` names the stage and degree)."""
    if not isinstance(shape, Partition):
        shape = Partition(shape)
    if shape.n > HARD_MAX_N:
        raise GuardrailError("rank n", shape.n, HARD_MAX_N)
    timings: list[tuple[str, float]] = []

    def clock(label: str, start: float) -> None:
        timings.append((label, (time.perf_counter() - start) * 1000.0))

    t = time.perf_counter()
    P, exps = staircase_family(shape, shape.top_degree())
    clock("generators", t)

    t = time.perf_counter()
    reducer = StaircaseReducer(shape)
    M = build_image_module(P, exps, reducer)
    clock("build", t)

    t = time.perf_counter()
    relations_ok = reducer.relations_vanish_on(P, M.relations)
    clock("relations", t)
    if not relations_ok:
        raise CertificateError(
            "relations", "staircase rewriting or Tanisaki relations do not "
            "vanish on the fixed-point words")
    provider = make_expression_provider(reducer, exps)

    t = time.perf_counter()
    augmentation_quotient(M)
    clock("quotient", t)

    t = time.perf_counter()
    freeness_certificate(M)
    clock("freeness", t)

    t = time.perf_counter()
    stability = verify_w_stability(M, provider)
    clock("stability", t)

    t = time.perf_counter()
    char = graded_character(M, stability)  # refuses a failed stability
    clock("character", t)

    t = time.perf_counter()
    mults = graded_multiplicities(char, shape.n)
    clock("decompose", t)

    return SpringerReport(shape, char, mults, tuple(timings))


@dataclass(frozen=True)
class CrossCheckReport:
    """The engine's and the oracle's graded characters of one shape."""

    shape: Partition
    engine: GradedCharacter
    oracle: GradedCharacter

    @property
    def mismatches(self) -> tuple[str, ...]:
        """The graded dimensions if they differ, else every trace that does."""
        engine, oracle = self.engine, self.oracle
        if engine.q_dims != oracle.q_dims:
            return (f"graded dimensions differ: engine {engine.q_dims} vs "
                    f"oracle {oracle.q_dims}",)
        return tuple(f"degree {d}, class {ct.to_string()}: engine {ev} vs "
                     f"oracle {oracle.value(d, ct)}" for d in engine.degrees
                     for ct, ev in engine.degree_row(d).items()
                     if ev != oracle.value(d, ct))

    @property
    def passed(self) -> bool:
        return not self.mismatches


def oracle_cross_check(shape: Partition) -> CrossCheckReport:
    """Exact equality of the localization character and the oracle character.

    Compares graded dimensions and every trace value at every degree and
    conjugacy class.  Traces are class functions, so the two action
    orientations (left on functions, variable permutation on the quotient)
    are directly comparable.
    """
    engine = springer_compute(shape)
    return CrossCheckReport(engine.shape, engine.character,
                            gp_graded_character(engine.shape))


@dataclass(frozen=True)
class EquivarianceReport:
    shape: Partition
    failures: tuple[tuple[Exponent, int], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def equivariance_check(shape: Partition) -> EquivarianceReport:
    """Restriction-level equivariance: w · ι*(c) = ι*(w · c) for every
    staircase class and every adjacent transposition."""
    if not isinstance(shape, Partition):
        shape = Partition(shape)
    if shape.n > HARD_MAX_N:
        raise GuardrailError("rank n", shape.n, HARD_MAX_N)
    failures = tuple(equivariance_failures(fixed_point_set(shape)))
    return EquivarianceReport(shape, failures[:20])


@dataclass(frozen=True)
class KostkaFoulkesTable:
    """Graded multiplicity polynomials for all shapes of one rank.

    ``shapes`` orders both the rows and the columns of ``entries``;
    ``entry(mu, lam)`` maps degree -> multiplicity of the irreducible of shape
    μ in that degree of the quotient for Jordan type λ.  Convention note: with
    rows μ and columns λ, the entry is the Kostka–Foulkes polynomial for
    (μ, λ); at q = 1 each column's entries weighted by irreducible dimensions
    sum to the multinomial of λ.
    """

    n: int
    shapes: tuple[Partition, ...]
    entries: tuple[tuple[tuple[int, ...], ...], ...]  # [row][col] -> q-coeffs
    note: str

    def entry(self, mu: Partition, lam: Partition) -> tuple[int, ...]:
        return self.entries[self.shapes.index(mu)][self.shapes.index(lam)]


def kostka_foulkes_table(n: int) -> KostkaFoulkesTable:
    shapes = partitions_of(n)
    reports = {lam: springer_compute(lam) for lam in shapes}
    rows = []
    for mu in shapes:
        row = []
        for lam in shapes:
            rep = reports[lam]
            coeffs = [rep.multiplicity(d, mu)
                      for d in range(rep.degree_bound + 1)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            row.append(tuple(coeffs))
        rows.append(tuple(row))
    note = ("rows are irreducible shapes mu, columns are Jordan types lambda; "
            "entry [d] is the multiplicity of chi^mu in quotient degree d "
            "(the Kostka-Foulkes polynomial), so column lambda at q=1 counts "
            "fixed words: sum_mu entry(mu,lambda)(1) * dim chi^mu = "
            "n!/prod(lambda_i!)")
    return KostkaFoulkesTable(n, tuple(shapes), tuple(rows), note)
