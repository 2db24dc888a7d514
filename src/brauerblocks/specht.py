"""Exact Specht modules over the integers.

The basis of S^mu is the polytabloids e_t of the standard tableaux t,
ordered lexicographically by row-reading word.  e_T is defined for any
filling T of mu, and two rules write it in that basis (James, LNM 682,
sections 7-8; Fulton, Young Tableaux, section 7.4):

* a permutation of T's columns multiplies e_T by its sign, so e_T is
  +-e_T' for T' with each column sorted upward;
* where a column-sorted T' has a row descent T'[r][c] > T'[r][c+1],
  with A the entries of column c from row r down and B those of column
  c+1 down to row r, the Garnir relation gives
  e_T' = -sum sgn(sigma) e_{sigma T'} over the coset representatives
  sigma != 1 of S_A x S_B in S_{A u B}.

Every entry of B is below every entry of A, so each Garnir term moves
smaller entries left and the recursion ends; a column-sorted filling
without a row descent is standard.  The generator column s_i*e_t is
e_{s_i t}, straightened so, with integer coefficients throughout, and
the straightened fillings are memoised for one build_specht and dropped
with it.  James's three cases need no code of their own: i and i+1 in
one column give -e_t from the sort, in neither one row nor one column a
standard s_i t, and in one row a Garnir relation.  No tabloid is formed.
The module carries no bilinear form: the oracle's Gram rank reads the
cell form off the symmetrizer images, where the Specht form,
nondegenerate, drops out.

Permutations of the m = |mu| tableau values are 0-based image tuples,
p[i] the image of i.  perm_matrix multiplies generator matrices along
the word in adjacent transpositions that adjacent_word reads off p.
"""

from __future__ import annotations

from itertools import chain, combinations

from brauerblocks import linalg
from brauerblocks.linalg import SparseVec
from brauerblocks.partitions import (InvariantError, Partition, specht_dim,
                                     standard_tableaux)

Tableau = tuple[tuple[int, ...], ...]


def row_word(tab: Tableau) -> tuple[int, ...]:
    return tuple(chain.from_iterable(tab))


class SpechtModule:
    """Immutable exact realization of S^mu with fixed basis order."""

    def __init__(self, mu: Partition, basis: list[Tableau],
                 gen_matrices: list[list[SparseVec]]):
        self.mu = mu
        self.basis = basis
        self.gen_matrices = gen_matrices
        self._m = mu.size
        self._perm_cache: dict[tuple[int, ...], list[SparseVec]] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def perm_matrix(self, sigma: tuple[int, ...]) -> list[SparseVec]:
        """Sparse-column matrix of a permutation of 1..m (0-based tuple),
        assembled from the generator matrices along a reduced word."""
        if len(sigma) != self._m:
            raise ValueError(f"permutation on {len(sigma)} points for |mu|={self._m}")
        cached = self._perm_cache.get(sigma)
        if cached is not None:
            return cached
        cols = linalg.identity_cols(self.dim)
        for i in reversed(adjacent_word(sigma)):
            cols = linalg.mat_mul(self.gen_matrices[i], cols)
        self._perm_cache[sigma] = cols
        return cols

    def __repr__(self) -> str:
        return f"SpechtModule({self.mu}, dim={self.dim})"


def adjacent_word(p: tuple[int, ...]) -> list[int]:
    """A word in adjacent transpositions s_i = (i, i+1), 0-based i, with
    p = product of the s_i applied left to right as composed maps; bubble
    sort of the one-line form."""
    arr = list(p)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i)
                changed = True
    # word applied to identity right-to-left rebuilds p
    word.reverse()
    return word


def build_specht(mu: Partition) -> SpechtModule:
    basis = sorted(standard_tableaux(mu), key=row_word)
    if len(basis) != specht_dim(mu):
        raise InvariantError((mu, len(basis)))
    heights = mu.columns(0)
    columns = [tuple(tuple(row[c] for row in tab[:h]) for c, h in enumerate(heights))
               for tab in basis]
    index = {cols: idx for idx, cols in enumerate(columns)}
    memo: dict[tuple, SparseVec] = {}

    def straighten(cols: tuple) -> SparseVec:
        """e_T in the basis, T given by its columns: sort each column,
        flipping the sign once per inversion, then read the sorted
        tableau off the memo or through garnir."""
        sign = (-1) ** sum(a > b for col in cols
                           for k, a in enumerate(col) for b in col[k + 1:])
        key = tuple(tuple(sorted(col)) for col in cols)
        vec = memo.get(key)
        if vec is None:
            memo[key] = vec = garnir(key)
        return {k: sign * v for k, v in vec.items()}

    def garnir(cols: tuple) -> SparseVec:
        """e_T for a column-sorted T: a basis vector, or the Garnir sum
        at T's first row descent.  A term puts the entries chosen in A's
        places and the rest in B's, each in order, so its sigma has
        sign (-1)^(inversions of rest + chosen)."""
        idx = index.get(cols)
        if idx is not None:
            return {idx: 1}
        descent = next(((c, r) for r in range(len(cols[0]))
                        for c in range(len(cols) - 1)
                        if r < len(cols[c + 1]) and cols[c][r] > cols[c + 1][r]),
                       None)
        if descent is None:  # column-sorted, rows increasing, not standard
            raise InvariantError((mu, cols))
        c, r = descent
        a, b = cols[c][r:], cols[c + 1][:r + 1]
        pool = b + a  # ascending: every entry of b is below every entry of a
        out: SparseVec = {}
        for chosen in combinations(pool, len(a)):
            if chosen == a:
                continue
            rest = tuple(x for x in pool if x not in chosen)
            odd = sum(x > y for x in rest for y in chosen) % 2
            moved = (cols[:c] + (cols[c][:r] + chosen, rest + cols[c + 1][r + 1:])
                     + cols[c + 2:])
            for k, v in straighten(moved).items():
                out[k] = out.get(k, 0) + (v if odd else -v)
        return {k: v for k, v in out.items() if v}

    gen_matrices = []
    for i in range(1, mu.size):  # s_i swaps values i, i+1
        swap = {i: i + 1, i + 1: i}
        gen_matrices.append([straighten(tuple(tuple(swap.get(v, v) for v in col)
                                              for col in cols))
                             for cols in columns])
    return SpechtModule(mu, basis, gen_matrices)
