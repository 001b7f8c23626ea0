"""Independent oracle: the Garsia–Procesi quotient by the Tanisaki ideal.

For a partition λ of n, the Tanisaki ideal I_λ ⊆ Q[y_1..y_n] is generated by
the partial elementary symmetric polynomials e_r(S) over all k-element
variable subsets S with k − d_k(λ) < r <= k, where d_k(λ) is the sum of the
last k entries of the conjugate partition padded to length n.  The quotient
R_λ = Q[y]/I_λ is the Garsia–Procesi module: a graded S_n-module of total
dimension n!/∏λ_i! whose graded character matches the Springer representation
computed by localization.  Everything here works directly in Q[y] with sparse
echelon spans of the graded ideal pieces — no fixed-point words, no Q[z], no
shared code path with the localization engine — so agreement between the two
graded characters is a genuine cross-check.  That comparison is
``springer.oracle_cross_check``: this module imports nothing from the pipeline.

The subset convention is applied to λ itself, not its conjugate, and the
dimension checks inside ``gp_graded_character`` pin it (stage "convention"):
the quotient must have total dimension n!/∏λ_i! through degree n(λ) and
vanish in degree n(λ) + 1.
Flipping the convention is caught at rank 3 already: (3) and (1,1,1) would
trade ideals, and their quotient dimensions 1 and 6 cannot both survive.

Each degree of the ideal is spanned from the degree below:
(I_λ)_d = Σ_i y_i·(I_λ)_{d−1} + span{generators of degree d}, since a
generator times a monomial of positive degree is y_i times an element of the
degree below.  The last degree built, n(λ) + 1, must be all of Q[y]_d.  Most
of the n·rank(I_{d−1}) products y_i·r are redundant, and two rules keep the
span small without eliminating them (multiplicative variables: Gerdt and
Blinkov, *Math. Comput. Simul.* 45, 1998):

1. *Direct adoption.*  Columns are monomials in lex order, a monomial
   order, so the pivot (least column) of y_i·r is y_i·lm(r).  When that
   column is not yet a pivot, the shifted row is stored as it is: it keeps
   the primitive coefficients and the positive pivot of r.  Its
   *multiplier* is i.
2. *Multiplier skip.*  A row r = y_m·h adopted directly from a row h of
   (I_λ)_{d−2} forms y_i·r only for i <= m; a row adopted by elimination
   forms all n products.  Products whose pivot is taken, and the
   generators, go through ``SparseEchelon.insert``.

Proof that the span is still (I_λ)_d, given that the rows of degree d − 1
span (I_λ)_{d−1}: by induction on i, y_i·(I_λ)_{d−1} lies in it.  Take a
row r.  If y_i·r was formed, it lies in the span.  If it was skipped, then
r = y_m·h with m < i, so y_i·r = y_m·(y_i·h); y_i·h lies in (I_λ)_{d−1}
because h lies in the ideal, so y_i·r lies in y_m·(I_λ)_{d−1}, which lies
in the span by induction.  Rows are never changed after adoption, so "r is
y_m·h" stays true.  The pivot set and the normal forms depend only on the
span, not on the order of insertion, so every character is the one the
full product set gives.  A span that is too small would enlarge the
quotient, and the dimension checks above refuse that.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CertificateError, GuardrailError, MalformedInputError
from .exactalg import (Exponent, Rational, SparseEchelon, SparsePoly,
                       monomial_count, monomials_of_degree)
from .locengine import GradedCharacter
from .symgroup import HARD_MAX_N, Partition, Permutation, conjugacy_classes


def tanisaki_defects(shape: Partition) -> tuple[int, ...]:
    """d_k(λ) for k = 1..n: sum of the last k entries of padded conjugate."""
    n = shape.n
    conj = list(shape.conjugate().parts)
    conj += [0] * (n - len(conj))
    return tuple(sum(conj[n - k:]) for k in range(1, n + 1))


def _partial_elementary(n: int, subset: tuple[int, ...], r: int) -> SparsePoly:
    terms: dict[Exponent, int] = {}
    for choice in combinations(subset, r):
        exps = [0] * n
        for i in choice:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return SparsePoly(n, terms)


def tanisaki_generators(shape: Partition) -> list[SparsePoly]:
    """Generators of the Tanisaki ideal, deduplicated, degree-sorted."""
    n = shape.n
    if n == 0:
        raise MalformedInputError("empty shape")
    if n > HARD_MAX_N:
        raise GuardrailError("rank n", n, HARD_MAX_N)
    defects = tanisaki_defects(shape)
    seen: dict[SparsePoly, None] = {}
    for k in range(1, n + 1):
        low = max(1, k - defects[k - 1] + 1)
        if low > k:
            continue
        for subset in combinations(range(n), k):
            for r in range(low, k + 1):
                seen.setdefault(_partial_elementary(n, subset, r))
    gens = list(seen)
    gens.sort(key=lambda g: (g.total_degree(), sorted(g.terms)))
    return gens


class IdealSpan(SparseEchelon):
    """The echelon of one degree of I_λ.  ``multiplier`` maps the pivot of
    each directly adopted row to the i with row = y_i·(a row of the degree
    below), entry for entry."""

    __slots__ = ("multiplier",)

    def __init__(self) -> None:
        super().__init__()
        self.multiplier: dict[int, int] = {}


def _ideal_echelon(n: int, below: SparseEchelon, below_monos: list[Exponent],
                   gens: list[SparsePoly], imap: dict[Exponent, int],
                   ) -> IdealSpan:
    """(I_λ)_d: y_i times each row of ``below`` = (I_λ)_{d−1}, whose columns
    index ``below_monos``, then the generators of degree d.  A product is
    adopted directly when its pivot is free and skipped by the multiplier
    rule (module docstring); a plain ``SparseEchelon`` as ``below`` records
    no multipliers, so every product of it is formed."""
    ech = IdealSpan()
    rows, multiplier = ech.rows, ech.multiplier
    below_multiplier = (below.multiplier if isinstance(below, IdealSpan)
                        else {})
    for pivot, row in below.rows.items():
        terms = [(below_monos[j], c) for j, c in row.items()]
        lead = below_monos[pivot]
        for i in range(below_multiplier.get(pivot, n - 1) + 1):
            vec = {imap[e[:i] + (e[i] + 1,) + e[i + 1:]]: c for e, c in terms}
            shifted = imap[lead[:i] + (lead[i] + 1,) + lead[i + 1:]]
            if shifted in rows:
                ech.insert(vec)
            else:
                rows[shifted] = vec
                multiplier[shifted] = i
    for g in gens:
        ech.insert({imap[exps]: c for exps, c in g.terms.items()})
    return ech


def gp_graded_character(shape: Partition) -> GradedCharacter:
    """Graded character of Q[y]/I_λ on standard-monomial bases.

    Raises :class:`CertificateError` at stage "convention" when the quotient
    dimensions do not sum to n!/∏λ_i! by the top degree n(λ), or when the
    piece above it does not vanish: both sharply detect a flipped convention.
    """
    if not isinstance(shape, Partition):
        shape = Partition(shape)
    n = shape.n
    top = shape.top_degree()
    gens = tanisaki_generators(shape)
    classes = conjugacy_classes(n)

    values: list[list[Rational]] = []
    ech, monos = SparseEchelon(), []
    for d in range(top + 2):
        below_monos, monos = monos, monomials_of_degree(n, d)
        imap = {exps: i for i, exps in enumerate(monos)}
        ech = _ideal_echelon(n, ech, below_monos,
                             [g for g in gens if g.total_degree() == d], imap)
        if d > top:
            break
        standard = [i for i in range(len(monos)) if i not in ech.rows]
        row: list[Rational] = []
        for cls in classes:
            row.append(_quotient_trace(monos, standard, imap, ech, cls.rep))
        values.append(row)

    char = GradedCharacter(tuple(cls.cycle_type for cls in classes),
                           tuple(tuple(row) for row in values))
    total = sum(char.q_dims)
    expected = shape.multinomial()
    if total != expected:
        raise CertificateError(
            "convention", f"Tanisaki quotient for {shape!r} has total "
            f"dimension {total} through degree {top}, expected {expected}; "
            "the subset convention orientation is wrong or the recipe is "
            "corrupted", degree=top, partial=char.q_dims)
    if ech.rank != monomial_count(n, top + 1):
        raise CertificateError(
            "convention", f"Tanisaki quotient for {shape!r} does not vanish "
            f"in degree {top + 1}", degree=top + 1, partial=char.q_dims)
    return char


def _quotient_trace(monos: list[Exponent], standard: list[int],
                    imap: dict[Exponent, int], ech: SparseEchelon,
                    w: Permutation) -> Rational:
    """Trace of w on the quotient piece in its standard-monomial basis."""
    trace: Rational = 0
    for idx in standard:
        exps = monos[idx]
        moved = [0] * len(exps)
        for i in range(1, len(exps) + 1):
            moved[w(i) - 1] = exps[i - 1]
        residual = ech.reduce({imap[tuple(moved)]: 1})
        trace += residual.get(idx, 0)
    return trace

