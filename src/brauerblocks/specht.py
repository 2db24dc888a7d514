"""Exact Specht modules over the integers.

S^mu is realized inside the permutation module on tabloids: the basis is
the standard polytabloids (tableaux ordered lexicographically by
row-reading word), and the invariant bilinear form is the restriction of
the tabloid-orthonormal form.  Each standard polytabloid e_t has {t} as
its lex-least tabloid, with coefficient 1, so the basis is unitriangular
and the generator matrices come from peeling leading tabloids off s_i*e_t:
integer subtraction only, no solve and no straightening.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from brauerblocks import linalg, perms
from brauerblocks.linalg import SparseVec
from brauerblocks.partitions import Partition, specht_dim, standard_tableaux

Tableau = tuple[tuple[int, ...], ...]


def row_word(tab: Tableau) -> tuple[int, ...]:
    return tuple(chain.from_iterable(tab))


def tabloid_of(tab: Tableau, m: int) -> tuple[int, ...]:
    """Row index of each value 1..m; the tabloid forgets order within rows."""
    row = [0] * m
    for i, r in enumerate(tab):
        for v in r:
            row[v - 1] = i
    return tuple(row)


def _column_blocks(tab: Tableau) -> list[list[int]]:
    """Values in each column, 0-based for the permutation machinery."""
    width = len(tab[0]) if tab else 0
    return [[tab[i][j] - 1 for i in range(len(tab)) if len(tab[i]) > j]
            for j in range(width)]


def _polytabloid(tab: Tableau, m: int) -> SparseVec:
    out: SparseVec = {}
    base = tabloid_of(tab, m)
    for sigma in perms.block_perms(_column_blocks(tab), m):
        key = [0] * m
        for p in range(m):
            key[sigma[p]] = base[p]
        key_t = tuple(key)
        out[key_t] = out.get(key_t, 0) + perms.sign(sigma)
    return {k: v for k, v in out.items() if v}


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

    @cached_property
    def form(self) -> list[list[int]]:
        """Gram matrix of the invariant form on the polytabloid basis,
        built on first use: only Gram matrices read it."""
        polys = [_polytabloid(tab, self._m) for tab in self.basis]
        return [[_dot(a, b) for b in polys] for a in polys]

    def perm_matrix(self, sigma: tuple[int, ...]) -> list[SparseVec]:
        """Sparse-column matrix of a permutation of 1..m (0-based tuple),
        assembled from the generator matrices along a reduced word."""
        if len(sigma) != self._m:
            raise ValueError(f"permutation on {len(sigma)} points for |mu|={self._m}")
        cached = self._perm_cache.get(sigma)
        if cached is not None:
            return cached
        cols = linalg.identity_cols(self.dim)
        for i in reversed(perms.adjacent_word(sigma)):
            cols = linalg.mat_mul(self.gen_matrices[i], cols)
        self._perm_cache[sigma] = cols
        return cols

    def __repr__(self) -> str:
        return f"SpechtModule({self.mu}, dim={self.dim})"


def build_specht(mu: Partition) -> SpechtModule:
    m = mu.size
    basis = sorted(standard_tableaux(mu), key=row_word)
    assert len(basis) == specht_dim(mu)
    polys = [_polytabloid(tab, m) for tab in basis]
    lead = {tabloid_of(tab, m): idx for idx, tab in enumerate(basis)}
    gen_matrices = []
    for i in range(1, m):  # s_i swaps values i, i+1
        cols: list[SparseVec] = []
        for vec in polys:
            moved: SparseVec = {}
            for key, c in vec.items():
                lst = list(key)
                lst[i - 1], lst[i] = lst[i], lst[i - 1]
                moved[tuple(lst)] = c
            col: SparseVec = {}
            while moved:
                key = min(moved)
                idx = lead.get(key)
                assert idx is not None  # the Specht span is s_i-stable
                col[idx] = moved[key]
                moved = linalg.vec_add(moved, polys[idx], -moved[key])
            cols.append(col)
        gen_matrices.append(cols)
    return SpechtModule(mu, basis, gen_matrices)


def _dot(a: SparseVec, b: SparseVec) -> int:
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b[k] for k, v in a.items() if k in b)
