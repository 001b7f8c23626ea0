"""Normal forms over the staircase basis of a split complete intersection.

For a partition λ of n with block word b, the ring

    A = Q[y_1..y_n, z_1..z_k] / (e_r(y) − e_r(z_{b(1)}, ..., z_{b(n)}), r = 1..n)

is free as a Q[z]-module on the staircase monomials y^a, a_i <= n − i.  It is
the splitting algebra of the monic polynomial P(u) = ∏_i (u − z_{b(i)}): setting
f_1 = P and f_{j+1}(u) = (f_j(u) − f_j(y_j)) / (u − y_j) (synthetic division),
each y_j satisfies the monic relation f_j(y_j) = 0 of degree n − j + 1 whose
lower coefficients involve only y_1..y_{j−1} and z.  Rewriting y_j-powers with
these fixed relations, largest j first, reduces any polynomial to the staircase
basis in finitely many steps; this is classical straightening, not Gröbner
completion — the relation set is fixed and triangular from the start.

Every fixed-point restriction kills all f_j(y_j) (the word is a rearrangement
of b, so the y-values are a permutation of the roots of P), which is what makes
these normal forms valid identities between restriction vectors; the engine
verifies that vanishing exhaustively at every word.
"""

from __future__ import annotations

from typing import Dict

from .errors import MalformedInputError
from .exactalg import Exponent, SparsePoly
from .symgroup import FixedPointSet, Partition

# mixed polynomial in y and z: y-exponent tuple -> coefficient in Q[z]
Mixed = Dict[Exponent, SparsePoly]


def _mixed_accumulate(dst: Mixed, yexp: Exponent, zp: SparsePoly) -> None:
    cur = dst.get(yexp)
    s = zp if cur is None else cur + zp
    if s.is_zero():
        dst.pop(yexp, None)
    else:
        dst[yexp] = s


class StaircaseReducer:
    """Precomputed rewrite tower for one partition shape."""

    def __init__(self, shape: Partition):
        self.shape = shape
        self.n = shape.n
        self.k = len(shape)
        self.block = shape.block_word()
        self.caps = tuple(self.n - j for j in range(1, self.n + 1))  # cap of y_j
        self._elementary = self._elementary_in_z()
        self._tower = self._build_tower()
        self._cache: dict[Exponent, Mixed] = {}

    # -- construction ------------------------------------------------------

    def _elementary_in_z(self) -> list[SparsePoly]:
        """e_0..e_n of the multiset (z_{b(1)}, ..., z_{b(n)})."""
        k = self.k
        e = [SparsePoly.const(k, 1)] + [SparsePoly.zero(k) for _ in range(self.n)]
        for letter in self.block:
            var = SparsePoly.variable(k, letter - 1)
            for r in range(self.n, 0, -1):
                e[r] = e[r] + e[r - 1] * var
        return e

    def _build_tower(self) -> list[list[Mixed]]:
        """tower[j] = coefficients of f_{j+1} (0-based j), as mixed polynomials.

        tower[j][s] is the u^s coefficient of f_{j+1}; the leading coefficient
        (s = n − j) is the constant 1 and is stored too.
        """
        n, k = self.n, self.k
        zero_y = (0,) * n
        f: list[Mixed] = [
            {zero_y: self._elementary[n - s] * ((-1) ** (n - s))}
            for s in range(n + 1)
        ]
        f = [coeff if not coeff[zero_y].is_zero() else {} for coeff in f]
        tower = [f]
        for j in range(1, n):  # build f_{j+1} from f_j, dividing by (u - y_j)
            prev = tower[-1]
            m = n - j + 1  # degree of f_j
            nxt: list[Mixed] = [dict() for _ in range(m)]
            nxt[m - 1] = dict(prev[m])
            for s in range(m - 1, 0, -1):
                acc: Mixed = {}
                for yexp, zp in prev[s].items():
                    _mixed_accumulate(acc, yexp, zp)
                for yexp, zp in nxt[s].items():  # + y_j * nxt[s]
                    shifted = tuple(e + 1 if i == j - 1 else e
                                    for i, e in enumerate(yexp))
                    _mixed_accumulate(acc, shifted, zp)
                nxt[s - 1] = acc
            tower.append(nxt)
        # homogeneity audit: the u^s coefficient of f_{j0+1} has degree m - s
        for j0, coeffs in enumerate(tower):
            m = n - j0
            for s, mixed in enumerate(coeffs):
                for yexp, zp in mixed.items():
                    if not zp.is_homogeneous(m - s - sum(yexp)):
                        raise AssertionError("rewrite tower lost homogeneity")
        return tower

    # -- normal forms --------------------------------------------------------

    def nf_monomial(self, yexps: Exponent) -> Mixed:
        """Normal form of the monomial y^yexps over the staircase basis.

        Returns a mapping staircase-exponent -> homogeneous z-coefficient with
        total degree preserved.  Memoized per instance.
        """
        if len(yexps) != self.n:
            raise MalformedInputError("exponent arity mismatch")
        cached = self._cache.get(yexps)
        if cached is not None:
            return cached
        j = self._violating_index(yexps)
        if j is None:
            out: Mixed = {yexps: SparsePoly.const(self.k, 1)}
            self._cache[yexps] = out
            return out
        # y_j^{n-j+1} = - sum_{s <= n-j} coeff_{j,s} y_j^s
        m = self.n - j + 1
        tail = tuple(e - m if i == j - 1 else e for i, e in enumerate(yexps))
        out = {}
        for s in range(m):
            for cy, cz in self._tower[j - 1][s].items():
                merged = tuple(tail[i] + cy[i] + (s if i == j - 1 else 0)
                               for i in range(self.n))
                for gamma, zp in self.nf_monomial(merged).items():
                    _mixed_accumulate(out, gamma, (zp * cz) * -1)
        self._cache[yexps] = out
        return out

    def _violating_index(self, yexps: Exponent) -> int | None:
        for j in range(self.n, 0, -1):
            if yexps[j - 1] > self.caps[j - 1]:
                return j
        return None

    # -- certificates ----------------------------------------------------------

    def relations_vanish_on(self, P: FixedPointSet) -> bool:
        """Exhaustively check f_j(y_j) -> 0 under y_i -> z_{ω(i)} for every ω.

        This is the exact foundation that turns staircase normal forms into
        identities between fixed-point restriction vectors.
        """
        if P.shape != self.shape:
            raise MalformedInputError("fixed-point set has a different shape")
        k = self.k
        for word in P.words:
            images = [SparsePoly.variable(k, letter - 1) for letter in word]
            for j in range(1, self.n + 1):
                u_val = images[j - 1]
                total = SparsePoly.zero(k)
                u_pow = SparsePoly.const(k, 1)
                for s in range(self.n - j + 2):
                    for yexp, zp in self._tower[j - 1][s].items():
                        mono = SparsePoly.const(k, 1)
                        for i, e in enumerate(yexp):
                            if e:
                                mono = mono * images[i] ** e
                        total = total + zp * mono * u_pow
                    u_pow = u_pow * u_val
                if not total.is_zero():
                    return False
        return True
