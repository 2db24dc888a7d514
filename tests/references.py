"""Reference constructions shared by several test files: named diagrams
and algebra elements, permutation helpers (among them the whole Young
subgroup and the sign, which the library does without) and addable
boxes.  The library runs none of them; the tests compare it
against them."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Iterator

from brauerblocks import perms
from brauerblocks.diagrams import AlgebraElement, BrauerDiagram, perm_diagram
from brauerblocks.partitions import Box, Partition, specht_dim


# Permutations on m points are tuples of images, 0-based: p[i] is the
# image of i.  compose(a, b) applies b first, then a.
def identity(m: int) -> tuple[int, ...]:
    return tuple(range(m))


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[b[i]] for i in range(len(a)))


def all_perms(m: int) -> Iterator[tuple[int, ...]]:
    return permutations(range(m))


def sign(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    s = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def block_perms(blocks: list[list[int]], m: int) -> Iterator[tuple[int, ...]]:
    """All permutations of {0..m-1} preserving each block (Young subgroup)."""

    def rec(i: int, current: list[int]) -> Iterator[tuple[int, ...]]:
        if i == len(blocks):
            yield tuple(current)
            return
        block = blocks[i]
        for images in permutations(block):
            for pos, img in zip(block, images):
                current[pos] = img
            yield from rec(i + 1, current)

    yield from rec(0, list(range(m)))


def addable_boxes(lam: Partition) -> list[Box]:
    """Positions whose addition leaves a partition, sorted by content."""
    out = [Box(i + 1, lam.row(i) + 1)
           for i in range(lam.rows + 1)
           if i == 0 or lam.row(i) < lam.row(i - 1)]
    return sorted(out, key=lambda b: b.content)


def identity_diagram(n: int) -> BrauerDiagram:
    return BrauerDiagram(n, n, [(i, -i) for i in range(1, n + 1)])


def u_diagram(n: int, i: int) -> BrauerDiagram:
    """Arcs {i, i+1} on both boundaries, all other strands straight."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"u_diagram index out of range: {i}")
    pairs = [(i, i + 1), (-i, -(i + 1))]
    pairs += [(k, -k) for k in range(1, n + 1) if k not in (i, i + 1)]
    return BrauerDiagram(n, n, pairs)


def from_diagram(d: BrauerDiagram, delta: int, coeff=1) -> AlgebraElement:
    return AlgebraElement(d.n, delta, {d: coeff})


def identity_element(n: int, delta: int) -> AlgebraElement:
    return from_diagram(identity_diagram(n), delta)


def transposition_element(n: int, delta: int, i: int) -> AlgebraElement:
    """The adjacent transposition s_i = (i, i+1), 1-based."""
    return from_diagram(perm_diagram(perms.transposition(n, i - 1, i)), delta)


def e(n: int, delta: int, t: int | None = None) -> AlgebraElement:
    """The arc idempotent: t nested-free arc pairs {n-1,n}, {n-3,n-2}, ...
    scaled by delta^-t.  e(n, delta) is the single-arc case t = 1;
    e(n, delta, 0) is the identity.  Needs delta != 0."""
    if t is None:
        t = 1
    if not 0 <= 2 * t <= n:
        raise ValueError(f"arc count out of range: t={t}, n={n}")
    if t == 0:
        return identity_element(n, delta)
    if delta == 0:
        raise ValueError("arc idempotent needs delta != 0; see e_bar")
    pairs = []
    for k in range(t):
        a = n - 2 * k
        pairs += [(a - 1, a), (-(a - 1), -a)]
    pairs += [(i, -i) for i in range(1, n - 2 * t + 1)]
    return from_diagram(BrauerDiagram(n, n, pairs), delta, Fraction(1, delta ** t))


def e_bar(n: int, delta: int) -> AlgebraElement:
    """A single loop-free diagram idempotent usable at every delta,
    including 0: northern arc {n-1, n}, southern arc {n-2, n-1}, a line
    from n-2 down to n, the rest straight.  Squaring creates no loop, so
    it is idempotent independently of delta, and conjugating B_n by it
    cuts exactly two strands.  The level-n reference scan in the oracle
    tests pads the identity of B_{n-2} to this diagram."""
    if n < 3:
        raise ValueError("n must be at least 3")
    pairs = [(n - 1, n), (-(n - 2), -(n - 1)), (n - 2, -n)]
    pairs += [(i, -i) for i in range(1, n - 2)]
    return from_diagram(BrauerDiagram(n, n, pairs), delta)


def young_symmetrizer(lam: Partition, n: int, delta: int) -> AlgebraElement:
    """The classical idempotent of the group algebra of the symmetric
    group sitting inside B_n: (dim/n!) * sum of sgn(c)*c*r over the
    column and row groups of the row-reading filling of lam."""
    if lam.size != n:
        raise ValueError(f"size mismatch: |{lam}| != {n}")
    scale = Fraction(specht_dim(lam), factorial(n))
    terms: dict = {}
    rows = perms.row_blocks(lam)
    cols = perms.col_blocks(lam)
    for c in block_perms(cols, n):
        sgn = sign(c)
        for r in block_perms(rows, n):
            # diagram product D(c)*D(r) corresponds to the map r o c
            d = perm_diagram(compose(r, c))
            terms[d] = terms.get(d, 0) + sgn
    return scale * AlgebraElement(n, delta, {d: Fraction(v) for d, v in terms.items()})
