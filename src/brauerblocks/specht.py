"""Exact Specht modules over the integers.

S^mu is realized inside the permutation module on tabloids: the basis is
the standard polytabloids (tableaux ordered lexicographically by
row-reading word).  Each standard polytabloid e_t has {t} as its
lex-least tabloid, with coefficient 1, so the basis is unitriangular and
the generator matrices come from peeling leading tabloids off s_i*e_t:
integer subtraction only, no solve and no straightening.  The module
carries no bilinear form: the oracle's Gram rank reads the cell form off
the symmetrizer images, where the Specht form, nondegenerate, drops out.

The column group of a tableau is the product of the symmetric groups of
its columns, so e_t is summed column by column from one table of signed
permutations per column length.  The tables are built from the shape
for one build_specht and dropped with it: the table for column length L
holds L! permutations, never more than the terms of e_t.

Permutations of the m = |mu| tableau values are 0-based image tuples,
p[i] the image of i.  perm_matrix multiplies generator matrices along
the word in adjacent transpositions that adjacent_word reads off p.
"""

from __future__ import annotations

from itertools import chain

from brauerblocks import linalg
from brauerblocks.linalg import SparseVec
from brauerblocks.partitions import (InvariantError, Partition, specht_dim,
                                     standard_tableaux)

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


def _signed_perms(mu: Partition) -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """For each column length L of mu, every permutation of range(L)
    with its sign.  Inserting x into a permutation of range(x) at position
    q adds x - q inversions."""
    lengths = set(mu.conjugate().parts)
    table, tables = [((), 1)], {}
    for x in range(max(lengths, default=0)):
        table = [(p[:q] + (x,) + p[q:], -s if (x - q) % 2 else s)
                 for p, s in table for q in range(x + 1)]
        if x + 1 in lengths:
            tables[x + 1] = table
    return tables


def _polytabloid(tab: Tableau, m: int, tables: dict) -> SparseVec:
    """e_t: the signed sum of the tabloids {sigma t} over the column
    group, from the _signed_perms tables of t's shape.  A term gives the
    entries of column c the rows of one permutation p of its length, the
    i-th entry row p[i]; so a term's rows, read column by column, are the
    concatenation of one permutation per column, and its sign the product
    of theirs.  Distinct column permutations give distinct tabloids, so
    no terms cancel."""
    cols = _column_blocks(tab)
    terms = [((), 1)]
    for col in cols:
        terms = [(key + p, c * s) for key, c in terms for p, s in tables[len(col)]]
    # slot[v]: where entry v + 1 sits in the column-by-column reading
    slot = [0] * m
    for k, v in enumerate(chain.from_iterable(cols)):
        slot[v] = k
    return {tuple(map(key.__getitem__, slot)): c for key, c in terms}


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
    m = mu.size
    basis = sorted(standard_tableaux(mu), key=row_word)
    if len(basis) != specht_dim(mu):
        raise InvariantError((mu, len(basis)))
    tables = _signed_perms(mu)
    polys = [_polytabloid(tab, m, tables) for tab in basis]
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
                if idx is None:  # the Specht span is s_i-stable
                    raise InvariantError((mu, i, key))
                col[idx] = moved[key]
                moved = linalg.vec_add(moved, polys[idx], -moved[key])
            cols.append(col)
        gen_matrices.append(cols)
    return SpechtModule(mu, basis, gen_matrices)

