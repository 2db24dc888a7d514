"""Block combinatorics for the diagram algebra at integral delta.

Two weights lie in the same block exactly when they form a balanced pair,
a condition on the contents of the two difference shapes around their
intersection, or equivalently when their shifted conjugates share a
type-D Weyl orbit (Cox, De Visscher and Martin).  This module decides
balancedness, keys and partitions a weight set by that orbit, finds the
orbit minimum under a weight (a weight is minimal when it is its own),
finds the maximal balanced subpartition (the predicted homomorphism
target) as the image of one reflection of that orbit's Weyl group,
strips rows and columns down to a weight's core, and lays out
the inclusion lattice of weights between a balanced pair differing by
isolated boxes.

Everything is exact integer combinatorics on partitions.
"""

from __future__ import annotations

from itertools import chain, starmap, zip_longest
from typing import NamedTuple

from .partitions import (
    Box,
    InvariantError,
    Partition,
    SkewShape,
    partitions_of,
    removable_boxes,
)


class WeightSet(NamedTuple):
    """The weights labelling cell modules at a given size: partitions of
    n, n-2, ... down to 1 or 0.  At delta = 0 the empty weight is omitted."""

    n: int
    delta: int
    weights: tuple[Partition, ...]


def weights(n: int, delta: int) -> WeightSet:
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []
    for k in range(n, -1, -2):
        if k == 0 and delta == 0:
            continue
        out.extend(sorted(partitions_of(k), key=lambda p: p.parts))
    return WeightSet(n, delta, tuple(out))


def check_weight(n: int, delta: int, mu: Partition) -> None:
    """Membership in weights(n, delta), by arithmetic on |mu| alone."""
    k = mu.size
    if k > n or (n - k) % 2 or (delta == 0 and k == 0):
        raise ValueError(f"{mu} is not a weight of B_{n}({delta})")


def _side_balanced(runs: list[tuple[int, int]], delta: int) -> bool:
    """The balanced test on one difference shape, given row by row as
    content runs: row i (0-based) holds the contents lo, ..., hi - 1."""
    contents = sorted(chain.from_iterable(starmap(range, runs)))
    # symmetric under c -> 1-delta-c exactly when the sorted contents
    # pair up from both ends; then the self-paired content (odd delta)
    # has the parity of the whole count
    if contents != [1 - delta - c for c in reversed(contents)] or len(contents) % 2:
        return False
    if delta % 2:
        return True
    gamma = (2 - delta) // 2
    rows = [i for i, (lo, hi) in enumerate(runs) if lo <= gamma < hi]
    if len(rows) % 2 == 0:
        return True
    # content-gamma boxes sit on one diagonal; the box below the latest
    # one has content gamma - 1 in the next row
    lo, hi = runs[rows[-1] + 1] if rows[-1] + 1 < len(runs) else (0, 0)
    return not lo < gamma <= hi


def _row_runs(lam: Partition, mu: Partition) -> list[tuple[int, int]]:
    """Per row i (0-based), (mu_i - i, lam_i - i): lam holds the contents
    mu_i - i, ..., lam_i - i - 1 beyond mu there, and mu holds the swapped
    run beyond lam."""
    rows = zip_longest(lam.parts, mu.parts, fillvalue=0)
    return [(q - i, p - i) for i, (p, q) in enumerate(rows)]


def is_balanced(lam: Partition, mu: Partition, delta: int) -> bool:
    """Whether the two weights lie in the same block at this delta.

    Both difference shapes around the intersection must have a content
    multiset symmetric under c -> 1-delta-c, with an extra parity
    condition on the self-paired content.
    """
    runs = _row_runs(lam, mu)
    return (_side_balanced(runs, delta)
            and _side_balanced([(hi, lo) for lo, hi in runs], delta))


def _shifted(lam: Partition, delta: int, rank: int) -> list[int]:
    """Doubled rho_delta-shifted coordinates x_i = 2 lam'_i - delta - 2i
    (0-based i), lam' the conjugate padded with zeros to rank entries."""
    if rank <= lam.row(0):
        raise ValueError(f"rank {rank} must exceed the largest part of {lam}")
    return [2 * c - delta - 2 * i for i, c in enumerate(lam.columns(rank))]


def _unshift(y: list[int], delta: int) -> Partition:
    """The partition whose shifted coordinates are y: the inverse of
    _shifted."""
    return Partition((v + delta + 2 * i) // 2 for i, v in enumerate(y)).conjugate()


def block_key(lam: Partition, delta: int, rank: int) -> tuple:
    """lam's type-D Weyl orbit at this rank: the sorted |x_i|, plus the
    parity of the negative x_i unless some x_i is 0.  Weights whose sizes
    share a parity lie in one block exactly when their keys agree at a
    common rank exceeding both conjugates' lengths."""
    x = _shifted(lam, delta, rank)
    parity = None if 0 in x else sum(v < 0 for v in x) % 2
    return tuple(sorted(map(abs, x))), parity


def bias(lam: Partition, tau: Partition, delta: int) -> int:
    """Content sum over the symmetric difference, recentred so that
    balanced pairs have bias zero."""
    runs = _row_runs(lam, tau)
    size = sum(abs(hi - lo) for lo, hi in runs)
    if size % 2 != 0:
        raise ValueError(
            f"symmetric difference of {lam} and {tau} has odd size {size}"
        )
    # row i's run holds the contents from min(lo, hi) to max(lo, hi) - 1
    total = sum(abs(hi - lo) * (lo + hi - 1) // 2 for lo, hi in runs)
    return total - size // 2 * (1 - delta)


class BlockPartition(NamedTuple):
    """Weights grouped into blocks, each with its unique minimal member."""

    n: int
    delta: int
    classes: tuple[tuple[Partition, tuple[Partition, ...]], ...]


def block_partition(n: int, delta: int) -> BlockPartition:
    """Partition the weight set into blocks by block key at rank n+1.

    Every class must be balanced with its unique member of least size,
    which is attached as the class minimal.
    """
    groups: dict[tuple, list[Partition]] = {}
    for w in weights(n, delta).weights:
        groups.setdefault(block_key(w, delta, n + 1), []).append(w)

    classes = []
    for members in groups.values():
        members.sort(key=lambda p: (p.size, p.parts))
        least = members[0]
        if not all(is_balanced(least, m, delta) for m in members):
            raise InvariantError((members, delta))
        if [m.size for m in members].count(least.size) != 1:
            raise InvariantError(members)
        classes.append((least, tuple(members)))
    classes.sort(key=lambda c: (c[0].size, c[0].parts))
    return BlockPartition(n, delta, tuple(classes))


def block_partition_json(bp: BlockPartition) -> dict:
    return {
        "n": bp.n,
        "delta": bp.delta,
        "blocks": [
            {
                "minimal": list(minimal.parts),
                "members": [list(m.parts) for m in members],
            }
            for minimal, members in bp.classes
        ],
    }


def maximal_balanced_sub(lam: Partition, mu: Partition, delta: int) -> Partition:
    """The closest weight below lam in the direction of mu: an image of
    lam under one type-D reflection s_{e_i+e_j}, which swaps x_i, x_j
    of the shifted coordinates for -x_j, -x_i and so removes x_i + x_j
    boxes.  Of the images that are partitions between mu and lam, keep
    the inclusion-maximal ones and take the one whose removed boxes,
    sorted, are least.

    Raises ValueError when no image contains mu.  On every pair of <= 14
    boxes that happens only when lam and mu are not balanced, so not in
    hom_target, whose mu is lam's orbit minimum."""
    if not lam.contains(mu) or lam == mu:
        raise ValueError(f"{mu} must be properly contained in {lam}")
    rank = lam.size + abs(delta) + 2
    return _reflect_down(lam, mu, delta, _shifted(lam, delta, rank),
                         _shifted(mu, delta, rank))


def _reflect_down(lam: Partition, mu: Partition, delta: int, x: list[int],
                  low: list[int]) -> Partition:
    """maximal_balanced_sub from the shifted coordinates x of lam and low
    of mu, both at rank |lam| + |delta| + 2."""
    images: list[list[int]] = []
    for i, a in enumerate(x):
        for b in x[i + 1:]:
            if a + b <= 0:
                break  # x decreases, so no later b removes a box
            rest = [v for v in x if v != a and v != b]
            if -a in rest or -b in rest:
                continue  # a repeated coordinate: no partition
            # swapping values for smaller ones keeps the sorted image <= x
            y = sorted(rest + [-a, -b], reverse=True)
            if all(map(int.__le__, low, y)):
                images.append(y)
    if not images:
        raise ValueError(f"no reflection image of {lam} lies between {mu} and {lam}")
    maximal = [y for y in images
               if not any(z != y and all(map(int.__le__, y, z)) for z in images)]

    def removed(y: list[int]) -> list[tuple[int, int]]:
        # 1-based column j keeps nu'_j = (v + delta) / 2 + j - 1 boxes
        # of lam'_j = (u + delta) / 2 + j - 1
        return sorted((r, j) for j, (v, u) in enumerate(zip(y, x), 1)
                      for r in range((v + delta) // 2 + j, (u + delta) // 2 + j))

    result = _unshift(min(maximal, key=removed), delta)
    if not (lam.contains(result) and result.contains(mu)) or result == lam:
        raise InvariantError((lam, mu, result))
    if not is_balanced(lam, result, delta):
        raise InvariantError((lam, result, delta))
    return result


def hat_steps(lam: Partition, delta: int) -> tuple[SkewShape, list[tuple[str, list[int]]]]:
    """Strip rows and columns from lam until only a core shape remains.

    At each step the surviving removable box with content farthest from
    (1-delta)/2 is examined.  If any surviving box carries the mirror
    content the procedure stops; otherwise all rows above and including
    the examined box (content above centre) or all columns left of and
    including it (below centre) are discarded.  Returns the surviving
    boxes and the removal log.
    """
    r0, c0 = 0, 0
    steps: list[tuple[str, list[int]]] = []
    remo = removable_boxes(lam)
    while True:
        alive = [b for b in remo if b.row > r0 and b.col > c0]
        if not alive:
            break
        # row i (0-based) of the region holds the contents c0-i ... lam_i-i-1
        runs = [(c0 - i, p - i)
                for i, p in enumerate(lam.parts[r0:], r0) if p > c0]

        # compare doubled distances to the centre to stay in integers
        def dist(b: Box) -> int:
            return abs(2 * b.content - (1 - delta))

        def partnered(b: Box) -> bool:
            # a centred b finds itself here, but a centred candidate ends
            # the walk whether it is partnered or not
            want = 1 - delta - b.content
            return any(lo <= want < hi for lo, hi in runs)

        best = max(dist(b) for b in alive)
        candidates = [b for b in alive if dist(b) == best]
        free = [b for b in candidates if not partnered(b)]
        if not free:
            break
        eps = min(free)
        if 2 * eps.content - (1 - delta) > 0:
            steps.append(("rows", list(range(r0 + 1, eps.row + 1))))
            r0 = eps.row
        elif 2 * eps.content - (1 - delta) < 0:
            steps.append(("cols", list(range(c0 + 1, eps.col + 1))))
            c0 = eps.col
        else:
            break  # centred and unpartnered: nothing forces a strip
    core = SkewShape(b for b in lam.boxes() if b.row > r0 and b.col > c0)
    return core, steps


def hat(lam: Partition, delta: int) -> SkewShape:
    return hat_steps(lam, delta)[0]


def _orbit_min_coords(x: list[int]) -> list[int]:
    """The minimum of the type-D orbit of the shifted coordinates x, in
    decreasing order, at a rank where any x_i can turn negative.  x
    strictly decreases, so a magnitude occurs at most twice, as a and -a.
    Every positive entry without its negative turns negative, a pair
    keeps both signs, and if an odd number turned and no entry is 0, the
    unpaired entry of least magnitude turns back to positive."""
    have = set(x)
    y = [-v if v > 0 and -v not in have else v for v in x]
    if 0 not in have and sum(map(int.__ne__, x, y)) % 2:
        a = min(abs(v) for v in x if -v not in have)
        y[y.index(-a)] = a
    y.sort(reverse=True)
    return y


def _orbit_coords(lam: Partition, delta: int) -> tuple[list[int], list[int]]:
    """lam's shifted coordinates x at rank |lam| + |delta| + 2, where any
    x_i can turn negative, and the least weight's y there: its orbit
    minimum's, but (2)'s where that is the empty partition (leading
    coordinate 0) at delta = 0 and lam is not.  The empty partition is
    no weight there, and (2), whose conjugate (1, 1) raises the first
    two coordinates by 2, is the only size-2 one in its orbit."""
    x = _shifted(lam, delta, lam.size + abs(delta) + 2)
    y = _orbit_min_coords(x)
    if delta == 0 and y[0] == 0 and y != x:
        y[:2] = 2, 0
    return x, y


def _orbit_min(lam: Partition, delta: int) -> tuple[Partition, list[int], list[int]]:
    """The least weight in lam's block, with _orbit_coords(lam, delta):
    lam itself when its coordinates are already the least weight's.  A
    minimum other than lam itself is checked to lie under lam, to be
    balanced with it and to be minimal; for lam these hold trivially."""
    x, y = _orbit_coords(lam, delta)
    if y == x:
        return lam, x, y
    found = _unshift(y, delta)
    if not (lam.contains(found) and is_balanced(lam, found, delta)
            and is_minimal(found, delta)):
        raise InvariantError((lam, found, delta))
    return found, x, y


def is_minimal(lam: Partition, delta: int) -> bool:
    """Whether lam is the smallest weight in its block: whether its
    coordinates are the least weight's of _orbit_coords."""
    x, y = _orbit_coords(lam, delta)
    return y == x


def minimal_weight(lam: Partition, delta: int) -> Partition:
    """The unique smallest weight under lam balanced with it, checked as
    _orbit_min says."""
    return _orbit_min(lam, delta)[0]


def hom_target(lam: Partition, delta: int) -> Partition | None:
    """The predicted receiver of a nonzero map out of the cell module
    at lam, or None when lam is minimal in its block: maximal_balanced_sub
    of lam and its minimal weight, on the coordinates _orbit_min read."""
    low, x, y = _orbit_min(lam, delta)
    if low == lam:
        return None
    return _reflect_down(lam, low, delta, x, y)


class LatticePrediction(NamedTuple):
    """The predicted submodule lattice between a balanced pair whose
    difference is 2m isolated boxes: one node per subset of the m
    mirrored box pairs, ordered by inclusion."""

    m: int
    pairs: tuple[tuple[Box, Box], ...]
    nodes: dict[frozenset[int], Partition]
    covers: tuple[tuple[frozenset[int], frozenset[int]], ...]


def lattice_predict(lam: Partition, mu: Partition, delta: int) -> LatticePrediction:
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    boxes = sorted(b for b in lam.boxes() if b.col > mu.row(b.row - 1))
    box_set = set(boxes)
    for b in boxes:
        for nb in (Box(b.row, b.col + 1), Box(b.row, b.col - 1),
                   Box(b.row + 1, b.col), Box(b.row - 1, b.col)):
            if nb in box_set:
                raise ValueError(f"{lam}/{mu} has adjacent boxes {b}, {nb}")
    if len(boxes) % 2 != 0:
        raise ValueError(f"{lam}/{mu} has an odd number of boxes")

    unused = sorted(boxes, key=lambda b: (-b.content, -b.row))
    pairs: list[tuple[Box, Box]] = []
    while unused:
        first = unused.pop(0)
        want = 1 - delta - first.content
        match = next((b for b in unused if b.content == want), None)
        if match is None:
            raise ValueError(
                f"box {first} has no partner of content {want} in {lam}/{mu}"
            )
        unused.remove(match)
        pairs.append((first, match))

    # with no two boxes adjacent, each box ends its row of lam above a
    # shorter row: a removable corner, and any set of them leaves a
    # partition
    m = len(pairs)
    nodes: dict[frozenset[int], Partition] = {}
    for mask in range(1 << m):
        x = frozenset(i + 1 for i in range(m) if mask >> i & 1)
        rows = {b.row for i in x for b in pairs[i - 1]}
        nodes[x] = Partition(p - (r in rows) for r, p in enumerate(lam, 1))
    covers = tuple(
        (x, x | {j})
        for x in nodes
        for j in range(1, m + 1)
        if j not in x
    )
    return LatticePrediction(m, tuple(pairs), nodes, covers)
