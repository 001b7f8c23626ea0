"""Normal forms over the staircase basis of a split complete intersection.

For a partition λ of n with block word b, the ring

    A = Q[y_1..y_n, z_1..z_k] / (e_r(y) − e_r(z_{b(1)}, ..., z_{b(n)}), r = 1..n)

is free as a Q[z]-module on the staircase monomials y^a, a_i <= n − i.  It is
the splitting algebra of the monic polynomial P(u) = ∏_i (u − z_{b(i)}): setting
f_1 = P and f_{j+1}(u) = (f_j(u) − f_j(y_j)) / (u − y_j) (synthetic division),
each y_j satisfies the monic relation f_j(y_j) = 0 of degree n − j + 1 whose
lower coefficients involve only y_1..y_{j−1} and z.  The tower keeps every
coefficient in the one ring Q[y, z] (variables y_1..y_n, then z_1..z_k).
Rewriting y_j-powers with these fixed relations, largest j first, reduces any
polynomial to the staircase basis in finitely many steps; this is classical
straightening, not Gröbner completion — the relation set is fixed and
triangular from the start.

Every fixed-point restriction kills all f_j(y_j) (the word is a rearrangement
of b, so the y-values are a permutation of the roots of P), which is what makes
these normal forms valid identities between restriction vectors; the engine
verifies that vanishing exhaustively at every word, restricting each relation
with ``SparsePoly.relabel`` — the same ι* that makes restriction vectors.
"""

from __future__ import annotations

from operator import add
from typing import Dict

from .errors import MalformedInputError
from .exactalg import Exponent, SparsePoly
from .symgroup import FixedPointSet, Partition

# mixed polynomial in y and z: y-exponent tuple -> coefficient in Q[z]
Mixed = Dict[Exponent, SparsePoly]


class StaircaseReducer:
    """Precomputed rewrite tower for one partition shape."""

    def __init__(self, shape: Partition):
        self.shape = shape
        self.n = shape.n
        self.k = len(shape)
        self._tower = self._build_tower()
        self._cache: dict[Exponent, Mixed] = {}

    def _build_tower(self) -> list[list[SparsePoly]]:
        """tower[j][s] is the u^s coefficient of f_{j+1} (0-based j), in Q[y, z];
        the leading coefficient (s = n − j) is the constant 1 and is stored too.
        """
        n, nvars = self.n, self.n + self.k
        f = [SparsePoly.const(nvars, 1)]
        for letter in self.shape.block_word():  # f_1 = ∏ (u − z_letter)
            z = SparsePoly.variable(nvars, n + letter - 1)
            f = [a - z * b for a, b in zip([SparsePoly.zero(nvars)] + f,
                                            f + [SparsePoly.zero(nvars)])]
        tower = [f]
        for j in range(1, n):  # f_{j+1} = (f_j(u) − f_j(y_j)) / (u − y_j)
            y = SparsePoly.variable(nvars, j - 1)
            nxt = [tower[-1][-1]]  # highest coefficient first
            for coeff in reversed(tower[-1][1:-1]):
                nxt.append(coeff + y * nxt[-1])
            tower.append(nxt[::-1])
        for j, coeffs in enumerate(tower):
            for s, coeff in enumerate(coeffs):
                if not coeff.is_homogeneous(n - j - s):
                    raise AssertionError("rewrite tower lost homogeneity")
        return tower

    # -- normal forms --------------------------------------------------------

    def nf_monomial(self, yexps: Exponent) -> Mixed:
        """Normal form of the monomial y^yexps over the staircase basis.

        Returns a mapping staircase-exponent -> homogeneous z-coefficient with
        total degree preserved.  Memoized per instance.
        """
        n, k = self.n, self.k
        if len(yexps) != n:
            raise MalformedInputError("exponent arity mismatch")
        cached = self._cache.get(yexps)
        if cached is not None:
            return cached
        j = next((j for j in range(n, 0, -1) if yexps[j - 1] > n - j), None)
        if j is None:
            out: Mixed = {yexps: SparsePoly.const(k, 1)}
            self._cache[yexps] = out
            return out
        # y_j^{n-j+1} = - sum_{s <= n-j} f_j[s] y_j^s, with f_j[s] read as a
        # polynomial in y over Q[z]
        out = {}
        for s, coeff in enumerate(self._tower[j - 1][:-1]):
            tail = tuple(e - (n - j + 1 - s) if i == j - 1 else e
                         for i, e in enumerate(yexps))
            over_z: dict[Exponent, dict[Exponent, int]] = {}
            for exps, c in coeff.terms.items():
                over_z.setdefault(exps[:n], {})[exps[n:]] = -c
            for yexp, zterms in over_z.items():
                zpoly = SparsePoly(k, zterms)
                for gamma, zp in self.nf_monomial(
                        tuple(map(add, tail, yexp))).items():
                    acc = zp * zpoly
                    if gamma in out:
                        acc = acc + out[gamma]
                    if acc.is_zero():
                        del out[gamma]
                    else:
                        out[gamma] = acc
        self._cache[yexps] = out
        return out

    # -- certificates ----------------------------------------------------------

    def relations_vanish_on(self, P: FixedPointSet) -> bool:
        """Exhaustively check f_j(y_j) -> 0 under y_i -> z_{ω(i)} for every ω.

        This is the exact foundation that turns staircase normal forms into
        identities between fixed-point restriction vectors.
        """
        if P.shape != self.shape:
            raise MalformedInputError("fixed-point set has a different shape")
        n, k = self.n, self.k
        relations = []
        for j, coeffs in enumerate(self._tower):  # f_{j+1}(y_{j+1}), Horner
            y = SparsePoly.variable(n + k, j)
            rel = coeffs[-1]
            for coeff in reversed(coeffs[:-1]):
                rel = rel * y + coeff
            relations.append(rel)
        targets = (tuple(letter - 1 for letter in word) + tuple(range(k))
                   for word in P.words)  # y_i -> z_{ω(i)}, z_r -> z_r
        return all(rel.relabel(target, k).is_zero()
                   for target in targets for rel in relations)
