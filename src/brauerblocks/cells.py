"""Cell modules for the Brauer algebra B_n(delta).

The basis pairs a partial one-row diagram (t disjoint arcs on n nodes)
with a standard tableau of the weight mu, |mu| = n - 2t.  Every move is
read in closed form off index tables built once per module: each one-row
diagram's arc partner and free-node rank per node, its free nodes and
its arc-set key.
No diagram is built or walked.  Basis order is fixed (arc lists lex,
then tableaux) so every matrix is reproducible bit for bit.

The action works on block vectors: {one-row index: list of the f = dim
S^mu Specht coordinates}, dense and int, with no all-zero block.  Flat
index v*f + x is coordinate x of block v; flatten converts to it.
Callers address the action by the nodes 1..n that the one-row diagrams
use; only the Specht factor counts from 0, by rank among the free nodes.
Each transposition of two nodes and each hook X_ij gets a move table on
the module, a list over one-row indices filled on first use: None where
the propagating number drops or delta^loops = 0, else (target index,
Specht matrix of the leftover permutation or None for the identity,
delta^loops).  One kernel, CellModule._add_moved, adds c times a table's
image of a vector into an accumulator, one table lookup per block and,
through a Specht matrix, one column per nonzero coordinate: act_diagram
(one hook) and swap_sum (a vector plus a signed sum of transpositions, in
one pass) move vectors through it.  Lists in a block vector are never
shared with another vector, so a caller may mutate what it is given back.

A transposition of the nodes i and j moves v by cases (_transpose): an
arc i-j stays, with v; two arcs at i and j swap ends, with the identity
on the Specht factor; free i and j stay, and the Specht factor takes the
transposition of their ranks; and if one of them is free, the arc end
moves there and the ranks between shift by a cycle.  w is looked up by
its arc set's integer key, one bit per arc (_arc_key), which a move
edits by xor; there is no permutation tuple and no sort.  A general
permutation relabels v's arcs, and each free node of v goes to the rank
of its image in w (_perm_move); the oracle reads its permutation traces
that way.  A hook X_ij scales a v with the arc i-j by delta, kills a v
with i and j both free, and otherwise moves v as one transposition does
(_hook_move).  The hooks on v's arcs are disjoint, so their product is
the diagram with v's arcs on both rows; it sends w to block v or to 0,
and the oracle reads the Gram form's (v, w) block off it.
t_action_check checks that the central element acts by a given scalar,
on one vector whose S_n span is the module; it reads that vector's
entries directly and fills no move table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import factorial
from typing import Iterator, NamedTuple

from brauerblocks import specht
from brauerblocks.blocks import check_weight
from brauerblocks.linalg import SparseVec
from brauerblocks.partitions import InvariantError, Partition
from brauerblocks.specht import SpechtModule

BlockVec = dict  # one-row index -> list of its f Specht coordinates

_UNFILLED = object()  # move-table entry not computed yet


class PartialOneRowDiagram(NamedTuple):
    """t disjoint arcs on the nodes 1..n; the other nodes are free, and
    CellModule.free_nodes lists them left to right."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        body = " ".join(f"{a}-{b}" for a, b in self.arcs) or "-"
        return f"[{self.n}: {body}]"


def enumerate_v(n: int, t: int) -> list[PartialOneRowDiagram]:
    """All partial one-row diagrams with t arcs on n nodes, sorted
    lexicographically by arc list; one_row_count(n, t) of them.

    The recursion puts the first available node on an arc, partners
    ascending, before leaving it free, and each arc list comes out sorted
    by its left ends; so the diagrams come out in lex order."""
    if not 0 <= 2 * t <= n:
        raise ValueError(f"arc count out of range: t={t}, n={n}")

    def rec(avail: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if k == 0:
            yield ()
            return
        if len(avail) < 2 * k:
            return
        first = avail[0]
        for idx in range(1, len(avail)):
            rest = avail[1:idx] + avail[idx + 1:]
            for tail in rec(rest, k - 1):
                yield ((first, avail[idx]),) + tail
        yield from rec(avail[1:], k)  # first node left free

    out = [PartialOneRowDiagram(n, arcs) for arcs in rec(tuple(range(1, n + 1)), t)]
    if len(out) != one_row_count(n, t):
        raise InvariantError((n, t, len(out)))
    return out


def one_row_count(n: int, t: int) -> int:
    """The number of partial one-row diagrams with t arcs on n nodes,
    n!/(2^t t! (n-2t)!)."""
    return factorial(n) // (2 ** t * factorial(t) * factorial(n - 2 * t))


class CellModule:
    """Immutable cell module of B_n(delta) at weight mu."""

    def __init__(self, n: int, delta: int, mu: Partition):
        check_weight(n, delta, mu)
        self.n = n
        self.delta = delta
        self.mu = mu
        self.t = (n - mu.size) // 2
        self.specht = _specht(mu)
        self.v_list = enumerate_v(n, self.t)
        # an arc set's key has one bit per arc, _bit[a][b] = _bit[b][a]
        # for the arc a-b, so a move edits a key by xor
        self._bit = [[0] * (n + 1) for _ in range(n + 1)]
        for b in range(2, n + 1):
            for a in range(1, b):
                self._bit[a][b] = self._bit[b][a] = 1 << (b * (b - 1) // 2 + a - 1)
        # per one-row diagram: its free nodes, its key, and indexed by node
        # 1..n the arc partner (0 if free) and the rank among the free nodes
        # (-1 if on an arc)
        self.free_nodes: list[tuple[int, ...]] = []
        self._key: list[int] = []
        self._mate: list[list[int]] = []
        self._rank: list[list[int]] = []
        for v in self.v_list:
            mate = [0] * (n + 1)
            key = 0
            for a, b in v.arcs:
                mate[a], mate[b] = b, a
                key |= self._bit[a][b]
            self._key.append(key)
            free = tuple(x for x in range(1, n + 1) if not mate[x])
            rank = [-1] * (n + 1)
            for k, x in enumerate(free):
                rank[x] = k
            self.free_nodes.append(free)
            self._mate.append(mate)
            self._rank.append(rank)
        self._v_index = {key: i for i, key in enumerate(self._key)}
        self._identity = tuple(range(mu.size))
        # move tables, keyed by the node pair of a transposition or by
        # ("hook", i, j) for the hook on the nodes i and j
        self._moves: dict = {}

    @property
    def dim(self) -> int:
        return len(self.v_list) * self.specht.dim

    def _arc_key(self, arcs) -> int:
        """The integer key of a set of arcs, each a node pair in either
        order; _v_index maps it to the one-row diagram's index."""
        bit = self._bit
        return sum(bit[a][b] for a, b in arcs)

    def _add_moved(self, out: BlockVec, vec: BlockVec, key, fill, c: int) -> None:
        """Add c * (key acting on vec) into out, through key's move table,
        filling a missing entry by fill(key, v_idx).  Writes only to lists
        made here or already owned by out."""
        moves = self._moves.get(key)
        if moves is None:
            moves = self._moves[key] = [_UNFILLED] * len(self.v_list)
        f = self.specht.dim
        for v_idx, block in vec.items():
            move = moves[v_idx]
            if move is _UNFILLED:
                move = moves[v_idx] = fill(key, v_idx)
            if move is None:
                continue
            w_idx, cols, scale = move
            scale *= c
            acc = out.get(w_idx)
            if cols is None:
                out[w_idx] = ([scale * x for x in block] if acc is None
                              else [a + scale * x for a, x in zip(acc, block)])
                continue
            if acc is None:
                acc = out[w_idx] = [0] * f
            for j, x in compress(enumerate(block), block):
                x *= scale
                for i, a in cols[j].items():
                    acc[i] += a * x

    def _perm_move(self, tau, v_idx: int):
        """The move-table entry at the v-th one-row diagram of the
        permutation that relabels node x as node tau[x] (1-based, tau[0]
        unused), in closed form: w is v with its arcs relabelled, and free
        node f of v goes to the rank of its image in w.  No loop closes and
        no strand drops, so the scale is 1.  The permutation diagram of
        sigma moves v as the relabelling by sigma inverse."""
        w_idx = self._v_index[self._arc_key((tau[a], tau[b])
                                           for a, b in self.v_list[v_idx].arcs)]
        rank = self._rank[w_idx]
        pinv = tuple(rank[tau[f]] for f in self.free_nodes[v_idx])
        cols = None if pinv == self._identity else self.specht.perm_matrix(pinv)
        return (w_idx, cols, 1)

    def _transpose(self, pair: tuple[int, int], v_idx: int):
        """The move-table entry at the v-th one-row diagram of the
        transposition of the nodes pair = (i, j), by the four cases of the
        module docstring.  Arcs i-a and j-b become j-a and i-b; with one
        free node, its rank r becomes the rank s of the arc end in w, and
        the ranks between shift by one towards r."""
        i, j = pair
        mate = self._mate[v_idx]
        a, b = mate[i], mate[j]
        if a == j:
            return (v_idx, None, 1)
        bit = self._bit
        if a and b:
            key = self._key[v_idx] ^ bit[i][a] ^ bit[j][b] ^ bit[j][a] ^ bit[i][b]
            return (self._v_index[key], None, 1)
        ident = self._identity
        rank = self._rank[v_idx]
        if not (a or b):
            pinv = list(ident)
            pinv[rank[i]], pinv[rank[j]] = rank[j], rank[i]
            return (v_idx, self.specht.perm_matrix(tuple(pinv)), 1)
        if a:
            i, j, b = j, i, a  # now i is free and j has the arc j-b
        w_idx = self._v_index[self._key[v_idx] ^ bit[j][b] ^ bit[i][b]]
        r, s = rank[i], self._rank[w_idx][j]
        if r == s:
            return (w_idx, None, 1)
        pinv = (ident[:r] + (s,) + ident[r:s] + ident[s + 1:] if r < s
                else ident[:s] + ident[s + 1:r + 1] + (s,) + ident[r + 1:])
        return (w_idx, self.specht.perm_matrix(pinv), 1)

    def _hook_move(self, key, v_idx: int):
        """The move-table entry of the hook X_ij, key = ("hook", i, j)
        with nodes i and j, at the v-th one-row diagram.  If v joins i
        and j, the hook's southern arc closes a loop on that arc and v
        stays, scaled by delta; if both are free, it joins two through
        strands and the entry is None.  Otherwise the arc reaching i or j
        runs on to the other one, which is the move of the transposition
        of that arc's far end and the other node."""
        _, i, j = key
        mate = self._mate[v_idx]
        if mate[i] == j:
            return (v_idx, None, self.delta) if self.delta else None
        if mate[i]:
            return self._transpose((mate[i], j), v_idx)
        if mate[j]:
            return self._transpose((mate[j], i), v_idx)
        return None

    def act_diagram(self, pair: tuple[int, int], vec: BlockVec) -> BlockVec:
        """The hook X_ij of the node pair (i, j), with its delta factor,
        acting on a block vector.  The result shares no list with vec and
        has no zero block."""
        out: BlockVec = {}
        self._add_moved(out, vec, ("hook", *pair), self._hook_move, 1)
        return {w_idx: acc for w_idx, acc in out.items() if any(acc)}

    def swap_sum(self, vec: BlockVec, pairs, sign: int) -> BlockVec:
        """vec + sign * the sum of the transpositions of the node pairs
        applied to vec, built in one fresh accumulator: the result shares
        no list with vec and has no zero block."""
        out: BlockVec = {v_idx: list(block) for v_idx, block in vec.items()}
        for pair in pairs:
            self._add_moved(out, vec, pair, self._transpose, sign)
        return {w_idx: acc for w_idx, acc in out.items() if any(acc)}

    def flatten(self, vec: BlockVec) -> SparseVec:
        """The flat sparse vector {v*f + x: value} of a block vector."""
        f = self.specht.dim
        return {v_idx * f + x: c for v_idx, block in vec.items()
                for x, c in enumerate(block) if c}

    def __repr__(self) -> str:
        return f"CellModule(n={self.n}, delta={self.delta}, mu={self.mu}, dim={self.dim})"


# Kept for the life of the process, unlike cell modules: one Specht module
# per partition, shared by the cell modules of every level at that weight,
# so a module built again reuses its Specht factor and the permutation
# matrices cached on it.
@lru_cache(maxsize=None)
def _specht(mu: Partition) -> SpechtModule:
    return specht.build_specht(mu)


def t_action_check(cell: CellModule, scalar: int) -> bool:
    """Does the central element z = (sum of the transpositions (i j)) -
    (sum of the hooks X_ij) act on the cell module as scalar?

    It is checked on one vector, g = the first one-row diagram v tensored
    with the first Specht unit vector.  z commutes with S_n, and the S_n
    span of g is the whole module: S_n is transitive on the one-row
    diagrams, and the permutations of v's free nodes fix v and act on the
    Specht factor as S_|mu| does, where S^mu is irreducible.  So z acts as
    scalar iff z.g = scalar * g.  g's n(n-1) move-table entries are read
    directly, column 0 of each Specht matrix, and stored in no table."""
    n = cell.n
    out = {(0, 0): -scalar}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for move, sign in ((cell._transpose((i, j), 0), 1),
                               (cell._hook_move(("hook", i, j), 0), -1)):
                if move is None:
                    continue
                w_idx, cols, scale = move
                for x, a in ({0: 1} if cols is None else cols[0]).items():
                    out[w_idx, x] = out.get((w_idx, x), 0) + sign * scale * a
    return not any(out.values())
