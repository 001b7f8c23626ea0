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
addition.  It reads the tower terms themselves, packing each z-part at a
cache miss.  A monomial's z-parts never exceed its degree, so the packing is
injective up to ``degree_cap`` = n², and a top-level call above the cap
raises.  ``z_free`` reads the constant coefficient at packed key 0;
``nf_monomial`` converts each distinct monomial's normal form to
``SparsePoly`` coefficients once, unpacking each packed z-monomial once.

Every fixed-point restriction kills all f_j(y_j) (the word is a rearrangement
of b, so the y-values are a permutation of the roots of P), which is what makes
these normal forms valid identities between restriction vectors.

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
(``exactalg.pack``): each term's z-part is packed once, and each distinct
choice of letters only adds its y-exponents into the fields of those letters.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from typing import Dict, Iterable, Sequence

from .errors import MalformedInputError
from .exactalg import Exponent, Rational, SparsePoly, field_width, pack
from .symgroup import FixedPointSet, Partition

# mixed polynomial in y and z: y-exponent tuple -> coefficient in Q[z]
Mixed = Dict[Exponent, SparsePoly]
# the same with packed z-exponents: y-exponent tuple -> {packed z^g: coefficient}
PackedMixed = Dict[Exponent, Dict[int, Rational]]


def _times_linear(f: list[SparsePoly], v: SparsePoly) -> list[SparsePoly]:
    """(u − v)·f, for f given by its u-coefficients, lowest first."""
    zero = SparsePoly.zero(v.nvars)
    return [a - v * b for a, b in zip([zero] + f, f + [zero])]


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
        coefficients of ∏_{i∈S} (u − y_i) mod D_S(u) for every S ⊆ [n]."""
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
            for subset in combinations(range(n), m):
                rem = [SparsePoly.const(nvars, 1)]
                for i in subset:
                    rem = _times_linear(rem, SparsePoly.variable(nvars, i))
                for s in range(m, t - 1, -1):  # divide by the monic D_S
                    lead = rem.pop()
                    for i in range(t):
                        rem[s - t + i] = rem[s - t + i] - lead * divisor[i]
                relations.extend(rel for s, rel in enumerate(rem)
                                 if m - s <= top)
        return relations

    # -- normal forms --------------------------------------------------------

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
        top = n - j + 1
        tail = yexps[:j - 1] + (yexps[j - 1] - top,) + yexps[j:]
        acc: dict[Exponent, dict[int, Rational]] = {}
        for exps, c in self._tower[j - 1].terms.items():
            if exps[j - 1] == top:  # the leading y_j^{n−j+1}
                continue
            g = pack(exps[n:], self._width)
            for gamma, zterms in self._packed_nf(
                    tuple(map(add, tail, exps[:n]))).items():
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

    def relations_vanish_on(self, P: FixedPointSet,
                            relations: Sequence[SparsePoly]) -> bool:
        """Exhaustively check that f_j(y_j) and every one of ``relations``
        (those the build adopted) vanish under y_i -> z_{ω(i)} for every ω.

        This is the exact foundation that turns staircase normal forms into
        identities between fixed-point restriction vectors, and the
        relations the build used into relations of its quotient.  The
        restriction of a term keeps its total degree, so packing each
        relation at the width of its total degree is injective.
        """
        if P.shape != self.shape:
            raise MalformedInputError("fixed-point set has a different shape")
        n = self.n
        for rel in (*self._tower, *relations):
            width = field_width(rel.total_degree())
            # the terms by their nonzero y-exponents (i, e), each z-part
            # packed once
            parts: dict[tuple, list[tuple[int, Rational]]] = {}
            for exps, c in rel.terms.items():
                yes = tuple((i, e) for i, e in enumerate(exps[:n]) if e)
                parts.setdefault(yes, []).append((pack(exps[n:], width), c))
            # y_i -> z_{ω(i)} once per distinct choice of the letters of ω
            # where rel has a y-variable (all it depends on)
            ys = sorted({i for yes in parts for i, _ in yes})
            shift = [0] * n
            for letters in {tuple(word[i] for i in ys) for word in P.words}:
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
