"""Sparse exact linear algebra over the rationals.

Vectors are dicts {column index: Fraction-like nonzero value}.  The one
workhorse is an incremental row echelon with optional combination
tracking, enough for ranks and solving against a fixed basis.
Exactness is non-negotiable here: every rank decision feeds a theorem
check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable

SparseVec = dict


def vec_add(a: SparseVec, b: SparseVec, scale=1) -> SparseVec:
    """a + scale*b, dropping zeros."""
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + scale * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def vec_scale(a: SparseVec, scale) -> SparseVec:
    if not scale:
        return {}
    return {k: scale * v for k, v in a.items()}


class Echelon:
    """Incremental reduced sparse row echelon over exact rationals.

    add() reduces a vector against the current rows and installs the
    remainder (pivot normalized to 1) if nonzero.  With track=True each
    row also carries the combination of inserted vectors producing it,
    so coords() can express a vector over the inserted family.
    """

    def __init__(self, track: bool = False):
        self.rows: dict[Hashable, SparseVec] = {}
        self.combs: dict[Hashable, SparseVec] | None = {} if track else None
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: SparseVec, comb: SparseVec | None):
        vec = dict(vec)
        while vec:
            pivot = min(vec)
            row = self.rows.get(pivot)
            if row is None:
                return vec, comb, pivot
            coeff = vec[pivot]
            vec = vec_add(vec, row, -coeff)
            if comb is not None:
                comb = vec_add(comb, self.combs[pivot], -coeff)
        return vec, comb, None

    def add(self, vec: SparseVec, tag: Hashable = None) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        if tag is None:
            tag = self._count
        comb = {tag: Fraction(1)} if self.combs is not None else None
        self._count += 1
        vec, comb, pivot = self._reduce(vec, comb)
        if pivot is None:
            return False
        inv = Fraction(1, 1) / Fraction(vec[pivot])
        self.rows[pivot] = vec_scale(vec, inv)
        if self.combs is not None:
            self.combs[pivot] = vec_scale(comb, inv)
        return True

    def coords(self, vec: SparseVec) -> SparseVec | None:
        """Combination of inserted vectors equal to vec, or None if vec is
        outside the span.  Requires track=True."""
        assert self.combs is not None
        residue, comb, pivot = self._reduce(vec, {})
        if pivot is not None:
            return None
        return {k: -v for k, v in comb.items()}

    def contains(self, vec: SparseVec) -> bool:
        residue, _, pivot = self._reduce(vec, None)
        return pivot is None


# Matrices are lists of sparse columns: cols[j] = {row index: value}.


def identity_cols(n: int) -> list[SparseVec]:
    return [{i: Fraction(1)} for i in range(n)]


def mat_vec(cols: list[SparseVec], vec: SparseVec) -> SparseVec:
    out: SparseVec = {}
    for j, c in vec.items():
        for i, a in cols[j].items():
            w = out.get(i, 0) + a * c
            if w:
                out[i] = w
            else:
                del out[i]
    return out


def mat_mul(a: list[SparseVec], b: list[SparseVec]) -> list[SparseVec]:
    """Columns of a*b; needs len(a) = row count of b."""
    return [mat_vec(a, col) for col in b]


def rank_of(rows: Iterable[SparseVec]) -> int:
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank
