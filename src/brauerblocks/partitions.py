"""Young-diagram combinatorics: partitions, boxes and their contents,
skew shapes, the sum of Littlewood-Richardson coefficients over even
contents as one count of LR tableaux, standard-tableau counting, and
symmetric-group characters.

Everything here is pure and exact; partitions are immutable values.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial
from operator import index
from typing import Iterable, Iterator, NamedTuple


class InvariantError(AssertionError):
    """A theorem or invariant check of the package failed.  Raised
    explicitly, so the checks also run under python -O; as an
    AssertionError it keeps the CLI's exit code 3."""


class Box(NamedTuple):
    """A box of a Young diagram at (row, col), both 1-based, top-left origin."""

    row: int
    col: int

    @property
    def content(self) -> int:
        return self.col - self.row


class Partition:
    """A partition: weakly decreasing positive parts; () is the empty
    partition.  Parts are read through operator.index, so a float or a
    string part raises TypeError rather than being truncated."""

    __slots__ = ("parts", "size")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(filter(None, map(index, parts)))
        if ps != tuple(sorted(ps, reverse=True)):
            raise ValueError(f"parts not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"negative part in {ps}")
        object.__setattr__(self, "parts", ps)
        object.__setattr__(self, "size", sum(ps))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):
        return Partition, (self.parts,)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def row(self, i: int) -> int:
        """Length of 0-based row i, 0 beyond the last row."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __le__(self, other: "Partition") -> bool:
        return self.parts <= other.parts

    def __repr__(self) -> str:
        return f"Partition({self.parts})"

    def __str__(self) -> str:
        return format_partition(self)

    def contains(self, other: "Partition") -> bool:
        """Rowwise containment: other fits inside self."""
        return all(other.row(i) <= self.row(i) for i in range(other.rows))

    def columns(self, count: int) -> list[int]:
        """The column lengths, padded with zeros to count entries."""
        out: list[int] = []
        for i in range(len(self.parts), 0, -1):
            out += [i] * (self.parts[i - 1] - len(out))
        return out + [0] * (count - len(out))

    def conjugate(self) -> "Partition":
        return Partition(self.columns(0))

    def boxes(self) -> Iterator[Box]:
        for i, p in enumerate(self.parts):
            for j in range(p):
                yield Box(i + 1, j + 1)


EMPTY = Partition()


def parse_partition(text: str) -> Partition:
    """Parse "6,4,4,2,1"; the literal "0" denotes the empty partition.
    Every comma-separated token must be a positive integer in ASCII
    decimal digits, so "", ",", "3,,1", "1_0", "+3" and a fullwidth "３"
    are refused, though int() reads the last three."""
    text = text.strip()
    if text == "0":
        return EMPTY
    tokens = text.split(",")
    if not all(tok.isascii() and tok.isdigit() and int(tok) for tok in tokens):
        raise ValueError(f"bad partition literal {text!r}")
    return Partition([int(tok) for tok in tokens])


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam.parts) if lam.parts else "0"


class SkewShape:
    """A set of boxes with absolute (row, col) coordinates in some ambient
    diagram.  Coordinates are never re-normalized: contents and column
    positions of the boxes are meaningful."""

    __slots__ = ("boxes",)

    def __init__(self, boxes: Iterable[Box] = ()):
        object.__setattr__(self, "boxes", frozenset(boxes))

    def __setattr__(self, name, value):
        raise AttributeError("SkewShape is immutable")

    def __reduce__(self):
        return SkewShape, (self.boxes,)

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self.sorted_boxes())

    def __contains__(self, box: Box) -> bool:
        return box in self.boxes

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewShape) and self.boxes == other.boxes

    def __hash__(self) -> int:
        return hash(self.boxes)

    def __repr__(self) -> str:
        return f"SkewShape({self.sorted_boxes()})"

    def sorted_boxes(self) -> list[Box]:
        return sorted(self.boxes)


def content_sum(lam: Partition) -> int:
    """Sum of the box contents: row i (0-based) of length p adds
    (0 + 1 + ... + p-1) - i*p."""
    return sum(p * (p - 1) // 2 - i * p for i, p in enumerate(lam.parts))


def removable_boxes(lam: Partition) -> list[Box]:
    """Positions whose removal leaves a partition, sorted by content."""
    out = [Box(i + 1, p) for i, p in enumerate(lam) if p > lam.row(i + 1)]
    return sorted(out, key=lambda b: b.content)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first, in lexicographic descent."""
    return map(Partition, _part_tuples(n, n if max_part is None else max_part))


def _part_tuples(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """The parts of partitions_of(n, max_part), as plain tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _part_tuples(n - first, first):
            yield (first,) + rest


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """All partitions contained rowwise in lam (including empty and lam)."""

    def rec(i: int, prev: int, acc: list[int]) -> Iterator[Partition]:
        if i == lam.rows:
            yield Partition(acc)
            return
        for length in range(min(lam.row(i), prev), -1, -1):
            yield from rec(i + 1, length, acc + [length])

    yield from rec(0, lam.row(0) if lam.rows else 0, [])


def even_lr_sum(lam: Partition, mu: Partition) -> int:
    """Sum of Littlewood-Richardson coefficients c^lam_{mu,eta} over
    partitions eta of |lam|-|mu| with all parts even.

    c^lam_{mu,eta} counts the LR tableaux of shape lam/mu and content
    eta (Fulton, Young Tableaux, section 5), so the sum is one count of
    the LR tableaux whose label counts are all even.  The boxes are
    filled in reading order, rows top to bottom and each row right to
    left: going left along a row labels weakly decrease, each label
    exceeds the one directly above it in lam/mu, and the reading word
    stays a lattice word, so label l goes in only while fewer l than
    l-1 have been read."""
    gap = lam.size - mu.size
    if gap < 0 or gap % 2 or not lam.contains(mu):
        return 0
    rows = lam.rows
    boxes = [(r, c) for r in range(rows)
             for c in range(lam[r] - 1, mu.row(r) - 1, -1)]
    label = [[0] * p for p in lam]  # 0 on the boxes of mu
    count = [gap + 1] + [0] * rows  # count[0] never blocks label 1

    def fill(k: int) -> int:
        if k == gap:
            return int(all(x % 2 == 0 for x in count[1:]))
        r, c = boxes[k]
        top = label[r][c + 1] if c + 1 < lam[r] else rows
        low = label[r - 1][c] + 1 if r else 1
        found = 0
        for l in range(low, top + 1):
            if count[l] < count[l - 1]:
                count[l] += 1
                label[r][c] = l
                found += fill(k + 1)
                count[l] -= 1
        return found

    return fill(0)


# ---------------------------------------------------------------------------
# Standard tableaux and characters.


def standard_tableaux(lam: Partition) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All standard tableaux of shape lam as tuples of row tuples."""
    n = lam.size
    if n == 0:
        yield ()
        return
    shape = lam.parts
    rows = [[0] * p for p in shape]
    filled = [0] * len(shape)

    def rec(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if k > n:
            yield tuple(tuple(r) for r in rows)
            return
        for i in range(len(shape)):
            j = filled[i]
            if j < shape[i] and (i == 0 or filled[i - 1] > j):
                rows[i][j] = k
                filled[i] += 1
                yield from rec(k + 1)
                filled[i] -= 1
        return

    yield from rec(1)


@cache
def specht_dim(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook-length product."""
    n = lam.size
    if n == 0:
        return 1
    conj = lam.conjugate()
    num = factorial(n)
    for i, p in enumerate(lam.parts):
        for j in range(p):
            hook = (p - j) + (conj[j] - i) - 1
            num //= hook
    return num


def _border_strip_removals(lam: Partition, length: int) -> Iterator[tuple[Partition, int]]:
    """All ways to remove a border strip of the given length; yields the
    remaining partition and the strip height minus one (the sign exponent).
    Works on first-column hook lengths (beta numbers): a strip removal is a
    move b -> b - length to an unoccupied value."""
    k = lam.rows
    beta = [lam.row(i) + (k - 1 - i) for i in range(k)]
    occupied = set(beta)
    for b in beta:
        nb = b - length
        if nb < 0 or nb in occupied:
            continue
        crossed = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((occupied - {b}) | {nb}, reverse=True)
        parts = [new_beta[i] - (k - 1 - i) for i in range(k)]
        yield Partition(parts), crossed


@cache
def _mn(lam: Partition, rho: tuple[int, ...]) -> int:
    if not rho:
        return 1
    total = 0
    for rest, height in _border_strip_removals(lam, rho[0]):
        total += (-1) ** height * _mn(rest, rho[1:])
    return total


def mn_character(lam: Partition, cycle_type: Partition) -> int:
    """Irreducible symmetric-group character of shape lam at a class, via
    the Murnaghan-Nakayama recursion."""
    if lam.size != cycle_type.size:
        raise ValueError(f"size mismatch: {lam} vs {cycle_type}")
    return _mn(lam, cycle_type.parts)


def conjugacy_class_size(rho: Partition) -> int:
    """Number of permutations with the given cycle type."""
    counts = Counter(rho.parts)
    z = 1
    for part, m in counts.items():
        z *= part ** m * factorial(m)
    return factorial(rho.size) // z
