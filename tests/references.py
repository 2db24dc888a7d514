"""Reference constructions shared by several test files: algebra
elements with rational coefficients (integral_terms clears their
denominators for the integer-only Echelon) and the named diagrams and
elements built on them, permutation helpers on 0-based points (among
them the transposition, the row and column blocks of a shape, the whole
Young subgroup and the sign, which the library does without), the
permutation and hook diagrams, the strand walk and the general diagram
action on a cell module built on it (the library moves cell-module
vectors only by transpositions and hooks, each in closed form), the sum
of cell-module block vectors, the block vector of a flat vector, the
central element checked on every basis vector (the library checks one
vector whose S_n span is the module), addable boxes, the Partition, Box
and diagram helpers the library does without (box sets, adding and
removing one box, skew-shape contents, deleting a box set, the
propagating number, the free nodes of a one-row diagram), the
strip-chain Littlewood-Richardson coefficient, which the library sums
over even contents in one tableau count, the
balanced test and bias on Box sets, which the library computes from row
lengths, and the Box-set skew growth of maximal_balanced_sub, which the
library reads off one type-D reflection, the Counter-based orbit
minimum, which the library reads off coordinates, the sort-based
one-row diagram enumeration, which the library yields in order, the
Specht module on polytabloids, its generator columns peeled off leading
tabloids, which the library straightens on tableaux with Garnir
relations, and the polytabloid Specht form and the whole Gram matrix,
its pairings read off the strand walk of each cap diagram, which the
library's Gram rank does without.  The library runs none of them; the tests compare it
against them."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, permutations
from math import factorial, lcm
from typing import Iterable, Iterator

from brauerblocks.blocks import _shifted, _unshift
from brauerblocks.cells import CellModule, PartialOneRowDiagram
from brauerblocks.diagrams import BrauerDiagram, concat, flip
from brauerblocks.linalg import vec_add
from brauerblocks.partitions import (EMPTY, Box, InvariantError, Partition,
                                     SkewShape, removable_boxes, specht_dim,
                                     standard_tableaux)
from brauerblocks.specht import SpechtModule, row_word


# Permutations on m points are tuples of images, 0-based: p[i] is the
# image of i.  compose(a, b) applies b first, then a.
def identity(m: int) -> tuple[int, ...]:
    return tuple(range(m))


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[b[i]] for i in range(len(a)))


def transposition(m: int, i: int, j: int) -> tuple[int, ...]:
    """The transposition swapping 0-based points i and j; the library
    moves cell vectors by transpositions in closed form and never builds
    one."""
    out = list(range(m))
    out[i], out[j] = out[j], out[i]
    return tuple(out)


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


def shape_blocks(lam: Partition) -> tuple[list[list[int]], list[list[int]]]:
    """The row and column blocks of lam filled with 0..|lam|-1 row by row,
    the 0-based points the permutation tuples here act on; the library
    fills lam with the nodes 1..|lam|."""
    rows, start = [], 0
    for part in lam.parts:
        rows.append(list(range(start, start + part)))
        start += part
    return rows, [[row[c] for row in rows if len(row) > c]
                  for c in range(lam.row(0))]


def addable_boxes(lam: Partition) -> list[Box]:
    """Positions whose addition leaves a partition, sorted by content."""
    out = [Box(i + 1, lam.row(i) + 1)
           for i in range(lam.rows + 1)
           if i == 0 or lam.row(i) < lam.row(i - 1)]
    return sorted(out, key=lambda b: b.content)


def box_set(lam: Partition) -> frozenset[Box]:
    return frozenset(lam.boxes())


def add_box(lam: Partition, box: Box) -> Partition:
    lengths = list(lam.parts)
    while len(lengths) < box.row:
        lengths.append(0)
    if lengths[box.row - 1] + 1 != box.col:
        raise ValueError(f"{box} is not addable to {lam}")
    lengths[box.row - 1] += 1
    return Partition(lengths)


def remove_box(lam: Partition, box: Box) -> Partition:
    if lam.row(box.row - 1) != box.col:
        raise ValueError(f"{box} is not removable from {lam}")
    lengths = list(lam.parts)
    lengths[box.row - 1] -= 1
    return Partition(lengths)


def shape_contents(shape: SkewShape) -> Counter:
    """Multiset of the contents of the boxes of a skew shape."""
    return Counter(b.content for b in shape.boxes)


def partition_minus(lam: Partition, boxes: Iterable[Box]) -> Partition | None:
    """lam with the given boxes deleted, or None if the rest is not a
    partition shape (a deleted box must be a row suffix)."""
    drop: Counter = Counter()
    box_list = list(boxes)
    for b in box_list:
        drop[b.row] += 1
    lengths = [lam.row(i) - drop.get(i + 1, 0) for i in range(lam.rows)]
    # the deleted boxes must exactly fill the removed suffixes
    expected = set()
    for i, new_len in enumerate(lengths):
        for c in range(new_len + 1, lam.row(i) + 1):
            expected.add(Box(i + 1, c))
    if expected != set(box_list) or len(box_list) != len(set(box_list)):
        return None
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return None
    if any(l < 0 for l in lengths):
        return None
    return Partition(lengths)


def is_even(eta: Partition) -> bool:
    """True iff every part is even (vacuously true for the empty partition)."""
    return all(p % 2 == 0 for p in eta.parts)


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients by brute-force box addition.
#
# c^lam_{mu,eta} counts chains mu = nu^0 < nu^1 < ... < nu^r = lam where
# step i adds a horizontal strip of eta_i boxes (distinct columns), the
# strip's boxes are labelled right to left, and for every label position j
# the rows of the j-th boxes strictly increase from one strip to the next.


def _horizontal_strips(nu: Partition, k: int, lam: Partition) -> Iterator[Partition]:
    """All partitions nu' with nu <= nu' <= lam, |nu'/nu| = k and nu'/nu a
    horizontal strip (nu'_{i+1} <= nu_i)."""
    rows = max(nu.rows + 1, 1)

    def rec(i: int, remaining: int, acc: list[int]) -> Iterator[list[int]]:
        if i == rows:
            if remaining == 0:
                yield acc
            return
        lo = nu.row(i)
        hi = min(lam.row(i), lo + remaining)
        if i > 0:
            # partition shape below the previous new row, at most one new
            # box per column
            hi = min(hi, acc[i - 1], nu.row(i - 1))
        for new_len in range(lo, hi + 1):
            yield from rec(i + 1, remaining - (new_len - lo), acc + [new_len])

    for lengths in rec(0, k, []):
        yield Partition(lengths)


def _strip_rows(nu: Partition, nu2: Partition) -> list[int]:
    """Rows of nu2/nu boxes listed by decreasing column (label order)."""
    boxes = []
    for i in range(nu2.rows):
        for c in range(nu.row(i) + 1, nu2.row(i) + 1):
            boxes.append(Box(i + 1, c))
    boxes.sort(key=lambda b: -b.col)
    return [b.row for b in boxes]


def lr_coefficient(mu: Partition, eta: Partition, lam: Partition) -> int:
    """The Littlewood-Richardson coefficient for adding eta to mu to get lam,
    by direct enumeration of valid box-addition sequences."""
    if mu.size + eta.size != lam.size or not lam.contains(mu):
        return 0
    if eta.size == 0:
        return 1 if mu == lam else 0

    count = 0

    def rec(current: Partition, i: int, prev_rows: list[int]) -> None:
        nonlocal count
        if i == eta.rows:
            if current == lam:
                count += 1
            return
        k = eta[i]
        for nxt in _horizontal_strips(current, k, lam):
            rows = _strip_rows(current, nxt)
            # label position j: its row must strictly increase strip to strip
            if all(prev_rows[j] < rows[j] for j in range(k if prev_rows else 0)):
                rec(nxt, i + 1, rows)

    rec(mu, 0, [])
    return count


def propagating(d: BrauerDiagram) -> int:
    """Number of strands of d joining its northern and southern sides."""
    return sum(1 for p in d.pairs if min(p) < 0 < max(p))


def free_nodes(v: PartialOneRowDiagram) -> tuple[int, ...]:
    """The nodes of v on no arc, left to right."""
    taken = {x for a in v.arcs for x in a}
    return tuple(i for i in range(1, v.n + 1) if i not in taken)


def identity_diagram(n: int) -> BrauerDiagram:
    return BrauerDiagram(n, n, [(i, -i) for i in range(1, n + 1)])


def perm_diagram(sigma: tuple[int, ...]) -> BrauerDiagram:
    """Propagating diagram of a permutation: northern i joins southern
    sigma(i) (0-based tuple in, 1-based nodes out)."""
    n = len(sigma)
    return BrauerDiagram(n, n, [(i + 1, -(sigma[i] + 1)) for i in range(n)])


def u_diagram(n: int, i: int) -> BrauerDiagram:
    """Arcs {i, i+1} on both boundaries, all other strands straight."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"u_diagram index out of range: {i}")
    pairs = [(i, i + 1), (-i, -(i + 1))]
    pairs += [(k, -k) for k in range(1, n + 1) if k not in (i, i + 1)]
    return BrauerDiagram(n, n, pairs)


def hook_diagram(n: int, i: int, j: int) -> BrauerDiagram:
    """Arcs {i, j} on both boundaries, all other strands straight."""
    if not 1 <= i < j <= n:
        raise ValueError(f"hook indices out of range: {i},{j}")
    pairs = [(i, j), (-i, -j)]
    pairs += [(k, -k) for k in range(1, n + 1) if k not in (i, j)]
    return BrauerDiagram(n, n, pairs)


# ---------------------------------------------------------------------------
# The general action of a diagram on a cell module, by the strand walk.  The
# library moves vectors only by transpositions and hooks, each in closed
# form.


def decompose(cell: CellModule, d: BrauerDiagram, v_idx: int):
    """How d moves the v-th one-row diagram: None if the propagating
    number drops, else (w_idx, perm for the Specht factor, loops).

    Stack d on v and walk from each northern node of d: down its
    strand, and across an arc of v to the next strand of d, until the
    walk surfaces at a northern node (an arc of w) or stops on a free
    node of v (a through strand).  Middle nodes no walk touched close
    into loops."""
    n, m = cell.n, cell.mu.size
    mate, rank = cell._mate[v_idx], cell._rank[v_idx]
    # north x sits at x, south j at n + j
    link = [0] * (2 * n + 1)
    for a, b in d.pairs:
        a = a if a > 0 else n - a
        b = b if b > 0 else n - b
        link[a], link[b] = b, a
    seen = [False] * (2 * n + 1)
    arcs = []
    pinv = [0] * m
    through = 0
    for x in range(1, n + 1):
        if seen[x]:
            continue
        y = link[x]
        while y > n:
            j = y - n
            seen[y] = True
            k = mate[j]
            if not k:
                # free node j of v drops to southern rank[j] + 1; x is
                # w's free node number `through`, since x ascends and
                # the Specht factor sees the inverse permutation
                pinv[rank[j]] = through
                through += 1
                break
            seen[n + k] = True
            y = link[n + k]
        else:
            seen[y] = True
            arcs.append((x, y))
    if through < m:
        return None
    loops = 0
    for j in range(1, n + 1):
        if seen[n + j]:
            continue
        loops += 1
        y = n + j
        while not seen[y]:
            seen[y] = True
            k = mate[y - n]
            seen[n + k] = True
            y = link[n + k]
    return (cell._v_index[cell._arc_key(arcs)], tuple(pinv), loops)


def diagram_move(cell: CellModule, d: BrauerDiagram, v_idx: int):
    """The move-table entry of d at the v-th one-row diagram, read off
    the strand walk."""
    dec = decompose(cell, d, v_idx)
    if dec is None:
        return None
    w_idx, pinv, loops = dec
    scale = cell.delta ** loops
    if not scale:
        return None
    cols = None if pinv == cell._identity else cell.specht.perm_matrix(pinv)
    return (w_idx, cols, scale)


def act_diagram(cell: CellModule, d: BrauerDiagram, vec: dict) -> dict:
    """Left action of a single diagram, with the delta^loops factor, on a
    block vector, through the module's move kernel with d as the table
    key.  The result shares no list with vec."""
    out: dict = {}
    cell._add_moved(out, vec, d, partial(diagram_move, cell), 1)
    return {w_idx: acc for w_idx, acc in out.items() if any(acc)}


def block_sum(terms) -> dict:
    """The sum of c*vec over the (c, vec) pairs of terms, for cell-module
    block vectors {one-row index: list of Specht coordinates}, with no
    zero block.  Each block is summed into one fresh list, so the result
    shares no list with any vec."""
    out: dict = {}
    for c, vec in terms:
        for v_idx, block in vec.items():
            acc = out.get(v_idx)
            if acc is None:
                out[v_idx] = list(block) if c == 1 else [c * x for x in block]
            else:
                out[v_idx] = [a + c * x for a, x in zip(acc, block)]
    return {v_idx: acc for v_idx, acc in out.items() if any(acc)}


def to_blocks(cell: CellModule, vec: dict) -> dict:
    """The block vector of a flat sparse vector {v*f + x: value}, the
    inverse of cell.flatten; the library never converts this way."""
    f = cell.specht.dim
    out: dict = {}
    for idx, c in vec.items():
        v_idx, x = divmod(idx, f)
        out.setdefault(v_idx, [0] * f)[x] = c
    return {v_idx: block for v_idx, block in out.items() if any(block)}


def t_action_basis(cell: CellModule, scalar: int) -> bool:
    """Does the central element, the sum of the transpositions (i j)
    minus the sum of the hooks X_ij, act as scalar on every basis vector?
    The library checks one vector whose S_n span is the module; this
    moves each unit vector through the module's move tables."""
    n = cell.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for b in range(cell.dim):
        unit = to_blocks(cell, {b: 1})
        out = {v_idx: [-scalar * c for c in block] for v_idx, block in unit.items()}
        for pair in pairs:
            cell._add_moved(out, unit, pair, cell._transpose, 1)
            cell._add_moved(out, unit, ("hook", *pair), cell._hook_move, -1)
        if any(map(any, out.values())):
            return False
    return True


class AlgebraElement:
    """A formal rational linear combination of (n, n) diagrams at a fixed
    integer delta.  Zero coefficients are never stored."""

    __slots__ = ("n", "delta", "terms")

    def __init__(self, n: int, delta: int, terms=None):
        clean = {}
        for d, c in (terms or {}).items():
            if d.n != n or d.t != n:
                raise ValueError(f"diagram size {d.n},{d.t} in B_{n}")
            c = Fraction(c)
            if c:
                clean[d] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement)
                and (self.n, self.delta, self.terms) == (other.n, other.delta, other.terms))

    def __hash__(self) -> int:
        return hash((self.n, self.delta, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*[{d}]" for d, c in sorted(
            self.terms.items(), key=lambda t: t[0].sorted_pairs()))
        return f"AlgebraElement({self.n}, delta={self.delta}: {body or '0'})"

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "AlgebraElement"):
        if self.n != other.n or self.delta != other.delta:
            raise ValueError("mixing elements of different B_n(delta)")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, 0) + c
        return AlgebraElement(self.n, self.delta, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.n, self.delta,
                              {d: scalar * c for d, c in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms: dict = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                prod, loops = concat(d1, d2)
                c = c1 * c2 * self.delta ** loops
                if c:
                    terms[prod] = terms.get(prod, 0) + c
        return AlgebraElement(self.n, self.delta, terms)

    def flip(self) -> "AlgebraElement":
        return AlgebraElement(self.n, self.delta,
                              {flip(d): c for d, c in self.terms.items()})


def integral_terms(elem: AlgebraElement, index: dict) -> dict:
    """elem's coefficients as a sparse integer vector {index[d]: value},
    its denominators cleared by their lcm, for Echelon, which takes
    integers only."""
    den = lcm(*(c.denominator for c in elem.terms.values()))
    return {index[d]: int(c * den) for d, c in elem.terms.items()}


def from_diagram(d: BrauerDiagram, delta: int, coeff=1) -> AlgebraElement:
    return AlgebraElement(d.n, delta, {d: coeff})


def identity_element(n: int, delta: int) -> AlgebraElement:
    return from_diagram(identity_diagram(n), delta)


def transposition_element(n: int, delta: int, i: int) -> AlgebraElement:
    """The adjacent transposition s_i = (i, i+1), 1-based."""
    return from_diagram(perm_diagram(transposition(n, i - 1, i)), delta)


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
    rows, cols = shape_blocks(lam)
    for c in block_perms(cols, n):
        sgn = sign(c)
        for r in block_perms(rows, n):
            # diagram product D(c)*D(r) corresponds to the map r o c
            d = perm_diagram(compose(r, c))
            terms[d] = terms.get(d, 0) + sgn
    return scale * AlgebraElement(n, delta, {d: Fraction(v) for d, v in terms.items()})


def intersect(lam: Partition, mu: Partition) -> Partition:
    """Rowwise minimum, the largest partition inside both."""
    return Partition(min(a, b) for a, b in zip(lam.parts, mu.parts))


def skew(lam: Partition, mu: Partition) -> tuple[SkewShape, SkewShape]:
    """The two difference shapes of lam and mu around their rowwise
    intersection.  Containment is not required."""
    inter = intersect(lam, mu)
    inter_boxes = box_set(inter)
    lam_side = SkewShape(b for b in lam.boxes() if b not in inter_boxes)
    mu_side = SkewShape(b for b in mu.boxes() if b not in inter_boxes)
    return lam_side, mu_side


def _side_balanced(boxes: frozenset[Box], delta: int) -> bool:
    counts = Counter(b.content for b in boxes)
    for c in counts:
        if counts[c] != counts[1 - delta - c]:
            return False
    if delta % 2 == 0:
        gamma = (2 - delta) // 2
        tops = [b for b in boxes if b.content == gamma]
        if tops:
            # content-gamma boxes sit on one diagonal, so the latest-row
            # box is the one with no gamma box in a greater column
            top = max(tops, key=lambda b: b.row)
            if Box(top.row + 1, top.col) in boxes and len(tops) % 2 != 0:
                return False
    else:
        if counts[(1 - delta) // 2] % 2 != 0:
            return False
    return True


def is_balanced(lam: Partition, mu: Partition, delta: int) -> bool:
    """The balanced test on the Box sets of the two difference shapes."""
    lam_side, mu_side = skew(lam, mu)
    return (_side_balanced(lam_side.boxes, delta)
            and _side_balanced(mu_side.boxes, delta))


def bias(lam: Partition, tau: Partition, delta: int) -> int:
    """Content sum over the Box sets of the symmetric difference,
    recentred so that balanced pairs have bias zero."""
    lam_side, tau_side = skew(lam, tau)
    boxes = list(lam_side.boxes) + list(tau_side.boxes)
    if len(boxes) % 2 != 0:
        raise ValueError(
            f"symmetric difference of {lam} and {tau} has odd size {len(boxes)}"
        )
    t = len(boxes) // 2
    return sum(b.content for b in boxes) - t * (1 - delta)


def hat_steps(lam: Partition, delta: int) -> tuple[SkewShape, list[tuple[str, list[int]]]]:
    """hat_steps scanning the region's Box set for each candidate's
    partner: strip rows and columns from lam until only a core shape
    remains.

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
    all_boxes = box_set(lam)
    while True:
        alive = [b for b in remo if b.row > r0 and b.col > c0]
        if not alive:
            break
        region = [b for b in all_boxes if b.row > r0 and b.col > c0]

        # compare doubled distances to the centre to stay in integers
        def dist(b: Box) -> int:
            return abs(2 * b.content - (1 - delta))

        def partnered(b: Box) -> bool:
            want = 1 - delta - b.content
            return any(o.content == want and o != b for o in region)

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


def _maximal_box(boxes) -> Box:
    """Latest box in the diagram order: boxes of one content share a
    diagonal, so the latest row is also the latest column."""
    return max(boxes, key=lambda b: b.row)


def _cone_close(current: set[Box], lam_boxes: frozenset[Box]) -> None:
    """Grow current with every box of lam to the right of or below a
    member, until stable."""
    frontier = list(current)
    while frontier:
        b = frontier.pop()
        for nb in (Box(b.row, b.col + 1), Box(b.row + 1, b.col)):
            if nb in lam_boxes and nb not in current:
                current.add(nb)
                frontier.append(nb)


def _imax_skew(lam: Partition, mu: Partition, delta: int, seed: Box) -> frozenset[Box]:
    """The removable skew grown from one seed box: cone closure inside
    lam alternating with content-partner completion from the difference
    shape, then a single parity repair when the self-paired content is
    left odd."""
    lam_boxes = box_set(lam)
    skew_boxes = frozenset(b for b in lam_boxes if b.col > mu.row(b.row - 1))
    if seed not in skew_boxes or seed not in removable_boxes(lam):
        raise ValueError(f"seed {seed} is not a removable box of {lam}/{mu}")

    partner_content = 1 - delta - seed.content
    partners = [b for b in skew_boxes
                if b.content == partner_content and b != seed]
    if not partners:
        raise ValueError(
            f"seed {seed} has no partner of content {partner_content} in {lam}/{mu}"
        )
    current: set[Box] = {seed, _maximal_box(partners)}

    def partner_pass() -> bool:
        counts = Counter(b.content for b in current)
        added = False
        for c in sorted(counts):
            cbar = 1 - delta - c
            if cbar == c:
                continue
            need = counts[c] - counts[cbar]
            if need <= 0:
                continue
            avail = sorted((b for b in skew_boxes - current if b.content == cbar),
                           key=lambda b: -b.row)
            if len(avail) < need:
                raise ValueError(
                    f"cannot complete content {cbar}: need {need}, "
                    f"have {len(avail)} in {lam}/{mu}"
                )
            current.update(avail[:need])
            added = True
        return added

    def close() -> None:
        while True:
            _cone_close(current, lam_boxes)
            if not partner_pass():
                break

    close()

    # one repair step when the stabilized skew still breaks the parity
    # condition on the self-paired content; fresh boxes come from all of
    # lam, not just the difference shape
    counts = Counter(b.content for b in current)
    if delta % 2 == 0:
        gamma = (2 - delta) // 2
        vertical = any(b.content == gamma and Box(b.row + 1, b.col) in current
                       for b in current)
        if vertical and counts[gamma] % 2 != 0:
            for c in (gamma, -delta // 2):
                fresh = [b for b in lam_boxes - current if b.content == c]
                if not fresh:
                    raise ValueError(f"no box of content {c} left in {lam}")
                current.add(_maximal_box(fresh))
            close()
    else:
        half = (1 - delta) // 2
        if counts[half] % 2 != 0:
            fresh = [b for b in lam_boxes - current if b.content == half]
            if not fresh:
                raise ValueError(f"no box of content {half} left in {lam}")
            current.add(_maximal_box(fresh))
            close()

    return frozenset(current)


def maximal_balanced_sub(lam: Partition, mu: Partition, delta: int) -> Partition:
    """maximal_balanced_sub growing Box-set skews: grow a skew from every
    removable box of lam/mu, keep the inclusion-minimal results, and take
    the lexicographically least.  Where no result contains mu it still
    returns one, which the library raises ValueError for instead."""
    if not lam.contains(mu) or lam == mu:
        raise ValueError(f"{mu} must be properly contained in {lam}")
    skew_boxes = {b for b in lam.boxes() if b.col > mu.row(b.row - 1)}
    grown: list[frozenset[Box]] = []
    for seed in removable_boxes(lam):
        if seed not in skew_boxes:
            continue
        try:
            s = _imax_skew(lam, mu, delta, seed)
        except ValueError:
            continue  # unpartnered seed: no skew from here
        if s not in grown:
            grown.append(s)
    if not grown:
        raise ValueError(f"no removable box of {lam}/{mu} has a partner")
    minimal = [s for s in grown
               if not any(t < s for t in grown)]
    chosen = min(minimal, key=lambda s: sorted(s))
    result = partition_minus(lam, chosen)
    if result is None:
        raise InvariantError((lam, mu, sorted(chosen)))
    if not is_balanced(lam, result, delta):
        raise InvariantError((lam, result, delta))
    return result


def orbit_min(lam: Partition, delta: int) -> Partition:
    """The minimum of lam's type-D orbit from the magnitude counts of its
    shifted coordinates.  At rank |lam| + |delta| + 2 any x_i can turn
    negative; every unpaired nonzero |x_i| does, a doubled one keeps one
    copy of each sign, and if no x_i is 0 and the parity of the negatives
    changed, the smallest unpaired one turns back.  At delta = 0 the
    empty partition is no weight; (2) is the only size-2 one in its
    orbit."""
    rank = lam.size + abs(delta) + 2
    x = _shifted(lam, delta, rank)
    mags = Counter(map(abs, x))
    y = [-a for a in mags if a] + [a for a, c in mags.items() if c == 2]
    if 0 in mags:
        y.append(0)
    elif sum(v < 0 for v in y) % 2 != sum(v < 0 for v in x) % 2:
        a = min(a for a, c in mags.items() if c == 1)
        y[y.index(-a)] = a
    y.sort(reverse=True)
    found = _unshift(y, delta)
    if delta == 0 and found == EMPTY and lam != EMPTY:
        found = Partition((2,))
    return found


def enumerate_v(n: int, t: int) -> list[PartialOneRowDiagram]:
    """All partial one-row diagrams with t arcs on n nodes, each arc list
    sorted and then the whole list sorted lexicographically."""
    if not 0 <= 2 * t <= n:
        raise ValueError(f"arc count out of range: t={t}, n={n}")

    def rec(avail: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if k == 0:
            yield ()
            return
        if len(avail) < 2 * k:
            return
        first = avail[0]
        yield from rec(avail[1:], k)  # first node left free
        for idx in range(1, len(avail)):
            rest = avail[1:idx] + avail[idx + 1:]
            for tail in rec(rest, k - 1):
                yield ((first, avail[idx]),) + tail

    out = [PartialOneRowDiagram(n, tuple(sorted(arcs)))
           for arcs in rec(tuple(range(1, n + 1)), t)]
    out.sort(key=lambda v: v.arcs)
    return out


# ---------------------------------------------------------------------------
# Specht modules inside the permutation module on tabloids: the standard
# polytabloids, the generator matrices peeled off their leading tabloids,
# and the invariant form on them.  The library straightens tableaux with
# Garnir relations and never forms a tabloid.


def tabloid_of(tab, m: int) -> tuple[int, ...]:
    """Row index of each value 1..m; the tabloid forgets order within rows."""
    row = [0] * m
    for i, r in enumerate(tab):
        for v in r:
            row[v - 1] = i
    return tuple(row)


def _column_blocks(tab) -> list[list[int]]:
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


def _polytabloid(tab, m: int, tables: dict) -> dict:
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


def peeled_specht(mu: Partition) -> SpechtModule:
    """S^mu on the standard polytabloids, in the library's basis order.
    Each e_t has {t} as its lex-least tabloid, with coefficient 1, so a
    generator column s_i*e_t is read off by peeling leading tabloids:
    integer subtraction only."""
    m = mu.size
    basis = sorted(standard_tableaux(mu), key=row_word)
    if len(basis) != specht_dim(mu):
        raise InvariantError((mu, len(basis)))
    tables = _signed_perms(mu)
    polys = [_polytabloid(tab, m, tables) for tab in basis]
    lead = {tabloid_of(tab, m): idx for idx, tab in enumerate(basis)}
    gen_matrices = []
    for i in range(1, m):  # s_i swaps values i, i+1
        cols: list[dict] = []
        for vec in polys:
            moved: dict = {}
            for key, c in vec.items():
                lst = list(key)
                lst[i - 1], lst[i] = lst[i], lst[i - 1]
                moved[tuple(lst)] = c
            col: dict = {}
            while moved:
                key = min(moved)
                idx = lead.get(key)
                if idx is None:  # the Specht span is s_i-stable
                    raise InvariantError((mu, i, key))
                col[idx] = moved[key]
                moved = vec_add(moved, polys[idx], -moved[key])
            cols.append(col)
        gen_matrices.append(cols)
    return SpechtModule(mu, basis, gen_matrices)


# ---------------------------------------------------------------------------
# The invariant form of a Specht module and the Gram matrix of a cell module,
# its pairings read off the strand walk.  The library reads Gram ranks off
# the symmetrizer images through products of hooks, where the Specht form
# drops out.


def dot(a: dict, b: dict) -> int:
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b[k] for k, v in a.items() if k in b)


@lru_cache(maxsize=None)
def specht_form(md: SpechtModule) -> list[list[int]]:
    """Gram matrix of the invariant form on the polytabloid basis, the
    restriction of the tabloid-orthonormal form.  It is symmetric, so
    each pair is computed once and mirrored."""
    tables = _signed_perms(md.mu)
    polys = [_polytabloid(tab, md.mu.size, tables) for tab in md.basis]
    form = [[0] * len(polys) for _ in polys]
    for i, a in enumerate(polys):
        row = form[i]
        for j in range(i, len(polys)):
            row[j] = form[j][i] = dot(a, polys[j])
    return form


def cap_diagram(v: PartialOneRowDiagram) -> BrauerDiagram:
    """The arcs of v on both boundaries, all other strands straight: the
    product of the hooks on v's arcs."""
    pairs = [p for a, b in v.arcs for p in ((a, b), (-a, -b))]
    pairs += [(k, -k) for k in free_nodes(v)]
    return BrauerDiagram(v.n, v.n, pairs)


def gram_matrix(cell: CellModule) -> list[dict]:
    """Invariant bilinear form on the cell basis, as sparse rows
    {column: nonzero value}, one per basis vector: the (v, w) block is
    the Specht form times the strand walk's entry of cap_diagram(v) at w
    (scale times the matrix of the leftover permutation), zero where
    there is none."""
    f = cell.specht.dim
    form = specht_form(cell.specht)
    gram: list[dict] = [{} for _ in range(cell.dim)]
    for vi, v in enumerate(cell.v_list):
        cap = cap_diagram(v)
        for wi in range(len(cell.v_list)):
            move = diagram_move(cell, cap, wi)
            if move is None:
                continue
            _, cols, scale = move
            for k in range(f):
                col = {k: 1} if cols is None else cols[k]
                for j in range(f):
                    val = scale * sum(form[j][i] * a for i, a in col.items())
                    if val:
                        gram[vi * f + j][wi * f + k] = val
    return gram
