"""Sparse exact linear algebra over the integers.

Vectors are dicts {column index: nonzero int}; the package makes no
Fraction, and nothing here takes one.  Matrices are lists of sparse
columns; specht builds its generator matrices by straightening and
multiplies them here into permutation matrices.
The cell action does not go through mat_vec: it keeps its own block
vectors (see cells) and flattens them into this form for elimination.
The one workhorse is an incremental row echelon for ranks, which
eliminates over the integers.  Exactness is non-negotiable here: every
rank decision feeds a theorem check.
"""

from __future__ import annotations

from math import gcd
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


class Echelon:
    """Incremental sparse row echelon over the integers.

    add() reduces an integer vector against the current rows and
    installs the remainder, divided by the gcd of its entries and with a
    positive pivot, if nonzero.  A reduction step cross-multiplies by the
    two pivots over their gcd, so no row leaves the integers and the span
    is that over the rationals.
    """

    def __init__(self):
        self.rows: dict[Hashable, SparseVec] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: SparseVec) -> bool:
        """Insert an integer vector; returns True if it enlarged the span.
        Zero entries are dropped, so the pivot is the least key of a
        nonzero.  A non-integer entry raises TypeError (from gcd) once it
        is a pivot or in the installed row."""
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            pivot = min(vec)
            row = self.rows.get(pivot)
            c = vec[pivot]
            if row is None:
                g = gcd(*vec.values()) if c > 0 else -gcd(*vec.values())
                self.rows[pivot] = {k: v // g for k, v in vec.items()}
                return True
            g = gcd(c, row[pivot])
            a, b = row[pivot] // g, c // g
            if a != 1:
                vec = {k: a * v for k, v in vec.items()}
            vec = vec_add(vec, row, -b)
        return False


# Matrices are lists of sparse columns: cols[j] = {row index: value}.


def identity_cols(n: int) -> list[SparseVec]:
    return [{i: 1} for i in range(n)]


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
