"""Normal forms over the staircase basis of a split complete intersection.

For a partition λ of n with block word b, the ring

    A = Q[y_1..y_n, z_1..z_k] / (e_r(y) − e_r(z_{b(1)}, ..., z_{b(n)}), r = 1..n)

is free as a Q[z]-module on the staircase monomials y^a, a_i <= n − i.  It is
the splitting algebra of the monic polynomial P(u) = ∏_i (u − z_{b(i)}): setting
f_1 = P and f_{j+1}(u) = (f_j(u) − f_j(y_j)) / (u − y_j) (synthetic division),
each y_j satisfies the monic relation f_j(y_j) = 0 of degree n − j + 1 whose
lower coefficients involve only y_1..y_{j−1} and z.  The tower is stored as
these n relations, polynomials in the one ring Q[y, z] (variables y_1..y_n,
then z_1..z_k).  Rewriting y_j^{n−j+1} with the other terms of f_j(y_j),
largest j first, reduces any polynomial to the staircase basis in finitely
many steps; this is classical straightening, not Gröbner completion — the
relation set is fixed and triangular from the start.

The rewrite runs on packed z-exponents (``exactalg.pack``): a normal form is
held as {staircase exponent: {packed z-monomial: coefficient}}, at one width
per reducer, so multiplying a coefficient by a tower term's z^g is one int
addition.  The non-leading terms of each f_j are packed once, from the
stored tower, at the first top-level normal form.  A monomial's z-parts
never exceed its degree, so the packing is injective up to ``degree_cap`` =
n², and a top-level call above the cap raises.  ``z_free`` reads the
constant coefficient at packed key 0; ``nf_monomial`` converts each
distinct monomial's normal form to ``SparsePoly`` coefficients once,
unpacking each packed z-monomial once.

Every fixed-point restriction kills all f_j(y_j) (the word is a rearrangement
of b, so the y-values are a permutation of the roots of P), which is what makes
these normal forms valid identities between restriction vectors.  ``audit``
proves that the memo holds normal forms: it recomputes every entry from its
rewrite step, in full Q[y, z], and checks that the step reads only smaller
entries and a monic tower, the same tower the vanishing check restricts.

The reducer also holds the S-equivariant Tanisaki relations (Tanisaki 1982;
De Concini–Procesi 1981) of degree at most n(λ), in the same ring: for
S ⊆ [n] with |S| = m, the u-coefficients of ∏_{i∈S} (u − y_i) modulo
D_S(u) = ∏_b (u − z_b)^{max(0, λ_b − (n − m))}.  At z = 0 they are the
generators of the Tanisaki ideal I_λ, and the engine reads them there, in
staircase coordinates, to compute the quotient H^*(B)/I_λ.  The build returns
the relations its quotient rests on, and writes nothing into the reducer;
``relations_vanish_on`` checks those and the n tower relations — the very
polynomials the normal forms rewrite with — exhaustively at every word.  It
restricts each relation by ι*, y_i -> z_{ω(i)}, on packed exponent vectors
(``exactalg.pack``): each term's z-part is packed once, and each letter
choice only adds its y-exponents into the fields of those letters.  A
relation's restriction depends only on the letters at its y-variables.
Every relation the engine makes is symmetric there (f_j(y_j) is the divided
difference f_1[y_1, ..., y_j], and a Tanisaki relation a coefficient of
∏_{i∈S} (u − y_i) mod D_S), so the check tests each relation's terms for that
symmetry, exactly, and restricts a symmetric one once per multiset of
letters; any other relation is restricted at each distinct ordered choice.
The relations of one subset size are built once and renamed to each subset.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from typing import Dict, Iterable, Mapping, Sequence

from .errors import MalformedInputError
from .exactalg import Exponent, Rational, SparsePoly, field_width, pack
from .symgroup import FixedPointSet, Partition

# mixed polynomial in y and z: y-exponent tuple -> coefficient in Q[z]
Mixed = Dict[Exponent, SparsePoly]
# the same with packed z-exponents: y-exponent tuple -> {packed z^g: coefficient}
PackedMixed = Dict[Exponent, Dict[int, Rational]]
# the non-leading terms of one tower relation: (y-exponent, packed z^g) -> c
Rewrite = Dict[tuple[Exponent, int], Rational]


def _times_linear(f: list[SparsePoly], v: SparsePoly) -> list[SparsePoly]:
    """(u − v)·f, for f given by its u-coefficients, lowest first."""
    zero = SparsePoly.zero(v.nvars)
    return [a - v * b for a, b in zip([zero] + f, f + [zero])]


def _symmetric(terms: Mapping[Exponent, Rational], ys: Sequence[int],
               ) -> bool:
    """Whether the polynomial with ``terms`` is unchanged by every
    permutation of the variables ``ys``: by the transposition of the first
    two and by the cycle through all of them, which generate Sym(ys)."""
    if len(ys) < 2:
        return True
    swap = ((ys[0], ys[1]), (ys[1], ys[0]))
    cycle = tuple(zip(ys, ys[1:] + ys[:1]))
    for perm in (swap, cycle):
        for exps, c in terms.items():
            moved = list(exps)
            for i, j in perm:  # the exponent of variable i moves to j
                moved[j] = exps[i]
            if terms.get(tuple(moved)) != c:
                return False
    return True


class StaircaseReducer:
    """Rewrite tower and equivariant Tanisaki relations for one shape."""

    def __init__(self, shape: Partition):
        self.shape = shape
        self.n = shape.n
        self.k = len(shape)
        self._tower = self._build_tower()
        # the normal forms pack z-exponents at one width: a z-part never
        # has more degree than its y-monomial, at most degree_cap
        self.degree_cap = self.n ** 2
        self._width = field_width(self.degree_cap)
        self._packed: dict[Exponent, PackedMixed] = {}
        # the non-leading tower terms as the fill and the audit read them,
        # packed from ``_tower`` at the first top-level normal form
        self._rewrites: list[Rewrite] | None = None
        self._zexps: dict[int, Exponent] = {}
        self._cache: dict[Exponent, Mixed] = {}
        self.relations = self._equivariant_relations()

    def _build_tower(self) -> list[SparsePoly]:
        """tower[j − 1] is the relation f_j(y_j) in Q[y, z]: monic of degree
        n − j + 1 in y_j, every other term in y_1..y_{j−1} and z."""
        n, nvars = self.n, self.n + self.k
        f = [SparsePoly.const(nvars, 1)]
        for letter in self.shape.block_word():  # f_1 = ∏ (u − z_letter)
            f = _times_linear(f, SparsePoly.variable(nvars, n + letter - 1))
        tower = []
        for j in range(n):
            # synthetic division of f_{j+1}(u) by u − y_{j+1}: the quotient
            # is f_{j+2}(u), the remainder (Horner) is f_{j+1}(y_{j+1})
            y = SparsePoly.variable(nvars, j)
            acc = [f[-1]]  # highest coefficient first
            for coeff in reversed(f[:-1]):
                acc.append(coeff + y * acc[-1])
            rel = acc.pop()
            if not rel.is_homogeneous(n - j):
                raise AssertionError("rewrite tower lost homogeneity")
            tower.append(rel)
            f = acc[::-1]
        return tower

    def _equivariant_relations(self) -> list[SparsePoly]:
        """The S-equivariant Tanisaki relations of degree <= n(λ): the
        coefficients of ∏_{i∈S} (u − y_i) mod D_S(u) for every S ⊆ [n],
        subsets of one size in ``combinations`` order.

        The division runs once per size m, for S = {1..m}.  D_S depends only
        on m = |S|, so the ring automorphism that permutes the y-variables
        by y_i -> y_{S[i]} (and fixes z) carries ∏_{i≤m} (u − y_i), D_S and
        the whole division to those of S: the relations of S are the
        relations of {1..m} renamed by ``SparsePoly.relabel``, term for
        term, with the same coefficients."""
        n, nvars, top = self.n, self.n + self.k, self.shape.top_degree()
        relations = []
        for m in range(1, n + 1):
            divisor = [SparsePoly.const(nvars, 1)]  # D_S(u), the same for all S
            for b, part in enumerate(self.shape.parts):
                for _ in range(part - (n - m)):
                    divisor = _times_linear(
                        divisor, SparsePoly.variable(nvars, n + b))
            t = len(divisor) - 1
            if not t:
                continue
            rem = [SparsePoly.const(nvars, 1)]
            for i in range(m):
                rem = _times_linear(rem, SparsePoly.variable(nvars, i))
            for s in range(m, t - 1, -1):  # divide by the monic D_S
                lead = rem.pop()
                for i in range(t):
                    rem[s - t + i] = rem[s - t + i] - lead * divisor[i]
            first = [rel for s, rel in enumerate(rem) if m - s <= top]
            for subset in combinations(range(n), m):
                # a permutation of the y-variables that sends i to subset[i]
                rest = [i for i in range(n) if i not in subset]
                target = (*subset, *rest, *range(n, nvars))
                relations.extend(rel.relabel(target, nvars) for rel in first)
        return relations

    # -- normal forms --------------------------------------------------------

    def _lead(self, j: int) -> Exponent:
        """The exponent of y_j^{n−j+1}, the leading term of f_j."""
        n = self.n
        return (0,) * (j - 1) + (n - j + 1,) + (0,) * (n - j + self.k)

    def _pack_tower(self) -> list[Rewrite]:
        """Per f_j, its terms c·y^e·z^g other than the leading y_j^{n−j+1},
        as {(e, packed g): c}."""
        n, width = self.n, self._width
        return [{(exps[:n], pack(exps[n:], width)): c
                 for exps, c in rel.terms.items() if exps != self._lead(j)}
                for j, rel in enumerate(self._tower, 1)]

    def _packed_nf(self, yexps: Exponent) -> PackedMixed:
        """Normal form of y^yexps with packed z-exponents (``self._width``
        bits per variable), memoized per instance."""
        cached = self._packed.get(yexps)
        if cached is not None:
            return cached
        n = self.n
        j = next((j for j in range(n, 0, -1) if yexps[j - 1] > n - j), None)
        if j is None:
            self._packed[yexps] = out = {yexps: {0: 1}}
            return out
        # y_j^{n−j+1} = −(f_j(y_j) − y_j^{n−j+1}): each other term c·y^e·z^g
        # of the relation adds −c·z^g times the normal form of y^{tail + e},
        # where multiplying by z^g is one int addition
        tail = yexps[:j - 1] + (yexps[j - 1] - (n - j + 1),) + yexps[j:]
        acc: dict[Exponent, dict[int, Rational]] = {}
        for (e, g), c in self._rewrites[j - 1].items():
            for gamma, zterms in self._packed_nf(
                    tuple(map(add, tail, e))).items():
                out_terms = acc.setdefault(gamma, {})
                get = out_terms.get
                for h, d in zterms.items():
                    key = g + h
                    out_terms[key] = get(key, 0) - c * d
        out = {}
        for gamma, zterms in acc.items():
            zterms = {h: d for h, d in zterms.items() if d}
            if zterms:
                out[gamma] = zterms
        self._packed[yexps] = out
        return out

    def _top_level_nf(self, yexps: Exponent) -> PackedMixed:
        """``_packed_nf`` behind the checks of a top-level call: the arity,
        and the degree cap that keeps the packing injective (every z-part
        has degree at most ``sum(yexps)``)."""
        if len(yexps) != self.n:
            raise MalformedInputError("exponent arity mismatch")
        if sum(yexps) > self.degree_cap:
            raise MalformedInputError(
                f"degree {sum(yexps)} is above the normal-form cap "
                f"{self.degree_cap}")
        if self._rewrites is None:
            self._rewrites = self._pack_tower()
        return self._packed_nf(yexps)

    def nf_monomial(self, yexps: Exponent) -> Mixed:
        """Normal form of the monomial y^yexps over the staircase basis.

        Returns a mapping staircase-exponent -> homogeneous z-coefficient with
        total degree preserved.  Memoized per instance; a degree above
        ``degree_cap`` raises :class:`MalformedInputError`.
        """
        cached = self._cache.get(yexps)
        if cached is not None:
            return cached
        k, width, zexps = self.k, self._width, self._zexps
        mask = (1 << width) - 1
        out: Mixed = {}
        for gamma, zterms in self._top_level_nf(yexps).items():
            terms = {}
            for h, d in zterms.items():
                e = zexps.get(h)
                if e is None:  # each packed z-monomial is unpacked once
                    e = zexps[h] = tuple(h >> b * width & mask
                                         for b in range(k))
                terms[e] = d
            out[gamma] = SparsePoly._raw(k, terms)  # nonzero, k-tuples
        self._cache[yexps] = out
        return out

    def constant_parts(self, yexps: Exponent) -> dict[Exponent, Rational]:
        """The support of the normal form of y^yexps, each staircase
        exponent with the constant (z-free) term of its coefficient."""
        return {gamma: zterms.get(0, 0)
                for gamma, zterms in self._top_level_nf(yexps).items()}

    def z_free(self, terms: Iterable[tuple[Exponent, Rational]],
               ) -> dict[Exponent, Rational]:
        """Staircase coordinates of the z = 0 part of the polynomial with
        ``terms`` (exponent, coefficient), exponents in y or in y and z:
        the terms of its normal form with no z left.  A z-free term of
        degree above ``degree_cap`` raises :class:`MalformedInputError`."""
        n = self.n
        out: dict[Exponent, Rational] = {}
        for exps, c in terms:
            if any(exps[n:]):
                continue
            for gamma, zterms in self._top_level_nf(exps[:n]).items():
                d = zterms.get(0)  # the packed z^0
                if d:
                    out[gamma] = out.get(gamma, 0) + c * d
        return {gamma: c for gamma, c in out.items() if c}

    # -- certificates ----------------------------------------------------------

    def audit(self) -> tuple[int, list[str]]:
        """Check every normal form in the memo against its rewrite step, in
        full Q[y, z]: the number of entries checked, and the failures.

        Each f_j must be homogeneous of degree n − j + 1 with the leading
        term y_j^{n−j+1}, coefficient 1, and the packed terms that the
        normal forms read must be the other terms of ``_tower``, the very
        relations ``relations_vanish_on`` restricts.  A staircase b must map
        to y^b itself.  For any other b, with j the largest index where b_j
        exceeds n − j and tail = b − (n − j + 1)·e_j, nf(b) must equal
        −Σ c·z^g·nf(tail + e) over the non-leading terms c·y^e·z^g of f_j,
        each child tail + e in the memo and smaller than b in reverse-lex
        order (the last exponent compared first).  That order is a
        well-order, so by induction y^b − nf(b) lies in the ideal of the
        f_j for every entry, and ι*(y^b) = Σ_γ nf(b)_γ·ι*(y^γ) at every word
        where the f_j vanish.  Homogeneity and the degree cap keep every z-
        field of the recomputed sum within the packed width, so the packed
        comparison is the comparison of polynomials.
        """
        n, failures = self.n, []
        tower = self._pack_tower()
        rewrites = self._rewrites or tower  # the form the fill read
        for j, rel in enumerate(self._tower, 1):
            top = n - j + 1
            if rel.terms.get(self._lead(j)) != 1:
                failures.append(f"f_{j} is not monic in y_{j}^{top}")
            if not rel.is_homogeneous(top):
                failures.append(f"f_{j} is not homogeneous of degree {top}")
            if rewrites[j - 1] != tower[j - 1]:
                failures.append(f"the normal forms read terms of f_{j} "
                                "that are not in the tower")
        packed = self._packed
        for b, entry in packed.items():
            j = next((j for j in range(n, 0, -1) if b[j - 1] > n - j), None)
            if j is None:
                if entry != {b: {0: 1}}:
                    failures.append(f"the normal form of the staircase "
                                    f"monomial y^{b} is not itself")
                continue
            if sum(b) > self.degree_cap:
                failures.append(f"y^{b} is above the degree cap")
                continue
            tail = b[:j - 1] + (b[j - 1] - (n - j + 1),) + b[j:]
            # entry + Σ c·z^g·nf(child) must vanish
            acc = {gamma: dict(zterms) for gamma, zterms in entry.items()}
            for (e, g), c in rewrites[j - 1].items():
                child = tuple(map(add, tail, e))
                sub = packed.get(child)
                if sub is None or child[::-1] >= b[::-1]:
                    failures.append(f"the rewrite of y^{b} reads y^{child}, "
                                    "which is not a smaller memo entry")
                    break
                for gamma, zterms in sub.items():
                    out_terms = acc.setdefault(gamma, {})
                    get = out_terms.get
                    for h, d in zterms.items():
                        key = g + h
                        out_terms[key] = get(key, 0) + c * d
            else:
                if any(any(zterms.values()) for zterms in acc.values()):
                    failures.append(f"the normal form of y^{b} is not its "
                                    "rewrite")
        return len(packed), failures

    def relations_vanish_on(self, P: FixedPointSet,
                            relations: Sequence[SparsePoly]) -> bool:
        """Exhaustively check that f_j(y_j) and every one of ``relations``
        (those the build adopted) vanish under y_i -> z_{ω(i)} for every ω.

        This is the exact foundation that turns staircase normal forms into
        identities between fixed-point restriction vectors, and the
        relations the build used into relations of its quotient.  The
        restriction of a term keeps its total degree, so packing each
        relation at the width of its total degree is injective.

        A relation r with y-support ys (the y-variables it has) restricts
        at a word to a value that depends only on the letters at ys.  The
        check visits fewer letter choices when r is symmetric in ys:

        1. r is tested, exactly on its stored terms, for invariance under
           the transposition of ys[0] and ys[1] and under the cycle
           ys[0] -> ys[1] -> ... -> ys[0]; these two generate Sym(ys), so
           r is symmetric in ys if and only if both hold.
        2. For a symmetric r and a permutation σ of ys, the restriction at
           letters (ℓ_i)_{i∈ys} equals that of σ(r), which is r, at the
           letters permuted by σ.  So the value depends only on the multiset
           of letters, and r is restricted once per multiset that occurs,
           at its sorted arrangement.
        3. A relation that fails either test is restricted at every
           distinct ordered choice of letters, as for a general polynomial.

        So the check still returns True exactly when every relation
        vanishes at every word.
        """
        if P.shape != self.shape:
            raise MalformedInputError("fixed-point set has a different shape")
        n, nvars = self.n, self.n + self.k
        choices: dict[tuple[int, ...], tuple[set, set]] = {}
        for rel in (*self._tower, *relations):
            if rel.nvars != nvars:
                raise MalformedInputError(
                    f"relation in {rel.nvars} variables, expected {nvars}")
            width = field_width(rel.total_degree())
            # the terms by their nonzero y-exponents (i, e), each z-part
            # packed once
            parts: dict[tuple, list[tuple[int, Rational]]] = {}
            for exps, c in rel.terms.items():
                yes = tuple((i, e) for i, e in enumerate(exps[:n]) if e)
                parts.setdefault(yes, []).append((pack(exps[n:], width), c))
            # y_i -> z_{ω(i)} once per distinct choice of the letters of ω
            # where rel has a y-variable (all it depends on), or once per
            # multiset of them when rel is symmetric there
            ys = tuple(sorted({i for yes in parts for i, _ in yes}))
            if ys not in choices:
                ordered = {tuple(word[i] for i in ys) for word in P.words}
                choices[ys] = ordered, set(map(tuple, map(sorted, ordered)))
            ordered, multisets = choices[ys]
            shift = [0] * n
            for letters in (multisets if _symmetric(rel.terms, ys)
                            else ordered):
                for i, letter in zip(ys, letters):
                    shift[i] = width * (letter - 1)
                acc: dict[int, Rational] = {}
                get = acc.get
                for yes, zs in parts.items():
                    y = 0
                    for i, e in yes:
                        y += e << shift[i]
                    for z, c in zs:
                        key = y + z
                        acc[key] = get(key, 0) + c
                if any(acc.values()):
                    return False
        return True
