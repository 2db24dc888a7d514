"""Small permutation helpers for the Specht modules and the oracle:
words in adjacent transpositions, and the row and column blocks of a
shape.  Nothing here builds a transposition, enumerates a Young
subgroup or computes a sign: the cell modules move vectors by
transpositions in closed form, and specht sums each column group one
column at a time.

Permutations on m points are tuples of images, 0-based:
p[i] is the image of i.
"""

from __future__ import annotations

from typing import Iterable


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


def row_blocks(lam: Iterable[int]) -> list[list[int]]:
    """Row-reading filling of the shape with row lengths lam: row i holds
    consecutive entries; the 0-based entry blocks per row."""
    blocks, next_entry = [], 0
    for p in lam:
        blocks.append(list(range(next_entry, next_entry + p)))
        next_entry += p
    return blocks


def col_blocks(lam: Iterable[int]) -> list[list[int]]:
    """Column blocks of the row-reading filling of the shape with row
    lengths lam (0-based entries)."""
    rows = row_blocks(lam)
    return [[row[c] for row in rows if len(row) > c]
            for c in range(len(rows[0]) if rows else 0)]
