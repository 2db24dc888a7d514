"""Cell modules for the Brauer algebra B_n(delta).

The basis pairs a partial one-row diagram (t disjoint arcs on n nodes)
with a standard tableau of the weight mu, |mu| = n - 2t.  A diagram acts
on the one-row part by walking its strands through the arcs of the
one-row diagram, read from index tables built once per module (the arc
partner and the free-node rank of each node); if the propagating number
drops the result is zero, otherwise the leftover permutation of free
nodes is pushed onto the Specht factor.  Basis order is fixed (arc lists
lex, then tableaux) so every matrix is reproducible bit for bit.

The action works on block vectors: {one-row index: list of the f = dim
S^mu Specht coordinates}, dense and int, with no all-zero block.  Flat
index v*f + x is coordinate x of block v; flatten and to_blocks convert.
Each diagram, and each transposition of two points, gets a move table on
the module, a list over one-row indices filled on first use: None where
the propagating number drops or delta^loops = 0, else (target index,
Specht matrix of the leftover permutation or None for the identity,
delta^loops).  One kernel, CellModule._add_moved, adds c times a table's
image of a vector into an accumulator, one table lookup per block:
act_diagram, swap_sum (a vector plus a signed sum of transpositions, in
one pass) and t_action_check all move vectors through it.  Lists in a
block vector are never shared with another vector, so a caller may
mutate what it is given back.

A permutation needs no diagram and no strand walk: it relabels v's arcs,
and each free node f of v goes to the rank of its image in w
(_perm_move); transpositions and the permutation traces of the oracle
are read that way.  Every other diagram's node links are read once, into
a table kept on the module beside its move table (gram_matrix drops each
row's diagram's table with the row), and each one-row diagram's free
nodes are stored at construction.

The Gram form is read through the same strand walk (_move), as sparse
rows, and t_action_check is the one check that the central element acts
by its closed-form scalar.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterator, NamedTuple

from brauerblocks import perms, specht
from brauerblocks.blocks import check_weight
from brauerblocks.diagrams import BrauerDiagram, hook_diagram
from brauerblocks.linalg import SparseVec
from brauerblocks.partitions import InvariantError, Partition, content_sum
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
    lexicographically by arc list; n!/(2^t t! (n-2t)!) of them.

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
    expected = factorial(n) // (2 ** t * factorial(t) * factorial(n - 2 * t))
    if len(out) != expected:
        raise InvariantError((n, t, len(out), expected))
    return out


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
        self._v_index = {v.arcs: i for i, v in enumerate(self.v_list)}
        # per one-row diagram: its free nodes, and indexed by node 1..n the
        # arc partner (0 if free) and the rank among the free nodes (-1 if
        # on an arc)
        self.free_nodes: list[tuple[int, ...]] = []
        self._mate: list[list[int]] = []
        self._rank: list[list[int]] = []
        for v in self.v_list:
            mate = [0] * (n + 1)
            for a, b in v.arcs:
                mate[a], mate[b] = b, a
            free = tuple(x for x in range(1, n + 1) if not mate[x])
            rank = [-1] * (n + 1)
            for k, x in enumerate(free):
                rank[x] = k
            self.free_nodes.append(free)
            self._mate.append(mate)
            self._rank.append(rank)
        self._identity = tuple(range(mu.size))
        # move tables, keyed by diagram or by the 0-based point pair of a
        # transposition
        self._moves: dict = {}
        self._links: dict[BrauerDiagram, list[int]] = {}

    @property
    def dim(self) -> int:
        return len(self.v_list) * self.specht.dim

    def decompose(self, d: BrauerDiagram, v_idx: int):
        """How d moves the v-th one-row diagram: None if the propagating
        number drops, else (w_idx, perm for the Specht factor, loops).

        Stack d on v and walk from each northern node of d: down its
        strand, and across an arc of v to the next strand of d, until the
        walk surfaces at a northern node (an arc of w) or stops on a free
        node of v (a through strand).  Middle nodes no walk touched close
        into loops."""
        n, m = self.n, self.mu.size
        mate, rank = self._mate[v_idx], self._rank[v_idx]
        link = self._links.get(d)
        if link is None:
            # north x sits at x, south j at n + j
            link = self._links[d] = [0] * (2 * n + 1)
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
        return (self._v_index[tuple(arcs)], tuple(pinv), loops)

    def _move(self, d: BrauerDiagram, v_idx: int):
        """The move-table entry of d at the v-th one-row diagram."""
        dec = self.decompose(d, v_idx)
        if dec is None:
            return None
        w_idx, pinv, loops = dec
        scale = self.delta ** loops
        if not scale:
            return None
        cols = None if pinv == self._identity else self.specht.perm_matrix(pinv)
        return (w_idx, cols, scale)

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
            for j, x in enumerate(block):
                if x:
                    x *= scale
                    for i, a in cols[j].items():
                        acc[i] += a * x

    def act_diagram(self, d: BrauerDiagram, vec: BlockVec) -> BlockVec:
        """Left action of a single diagram, with the delta^loops factor,
        on a block vector.  The result shares no list with vec."""
        out: BlockVec = {}
        self._add_moved(out, vec, d, self._move, 1)
        return {w_idx: acc for w_idx, acc in out.items() if any(acc)}

    def _perm_move(self, tau, v_idx: int):
        """The move-table entry at the v-th one-row diagram of the
        permutation that relabels node x as node tau[x] (1-based, tau[0]
        unused), in closed form: w is v with its arcs relabelled, and free
        node f of v goes to the rank of its image in w.  No loop closes and
        no strand drops, so the scale is 1.  The permutation diagram of
        sigma moves v as the relabelling by sigma inverse."""
        arcs = sorted((tau[a], tau[b]) if tau[a] < tau[b] else (tau[b], tau[a])
                      for a, b in self.v_list[v_idx].arcs)
        w_idx = self._v_index[tuple(arcs)]
        rank = self._rank[w_idx]
        pinv = tuple(rank[tau[f]] for f in self.free_nodes[v_idx])
        cols = None if pinv == self._identity else self.specht.perm_matrix(pinv)
        return (w_idx, cols, 1)

    def _swap_move(self, pair: tuple[int, int], v_idx: int):
        """The move-table entry of the transposition of the 0-based points
        of pair, which is its own relabelling."""
        i, j = pair
        return self._perm_move(perms.transposition(self.n + 1, i + 1, j + 1), v_idx)

    def swap_sum(self, vec: BlockVec, pairs, sign: int) -> BlockVec:
        """vec + sign * the sum of the transpositions of the 0-based point
        pairs applied to vec, built in one fresh accumulator: the result
        shares no list with vec and has no zero block."""
        out: BlockVec = {v_idx: list(block) for v_idx, block in vec.items()}
        for pair in pairs:
            self._add_moved(out, vec, pair, self._swap_move, sign)
        return {w_idx: acc for w_idx, acc in out.items() if any(acc)}

    def flatten(self, vec: BlockVec) -> SparseVec:
        """The flat sparse vector {v*f + x: value} of a block vector."""
        f = self.specht.dim
        return {v_idx * f + x: c for v_idx, block in vec.items()
                for x, c in enumerate(block) if c}

    def to_blocks(self, vec: SparseVec) -> BlockVec:
        """The block vector of a flat sparse vector."""
        f = self.specht.dim
        out: BlockVec = {}
        for idx, c in vec.items():
            v_idx, x = divmod(idx, f)
            out.setdefault(v_idx, [0] * f)[x] = c
        return {v_idx: block for v_idx, block in out.items() if any(block)}

    def __repr__(self) -> str:
        return f"CellModule(n={self.n}, delta={self.delta}, mu={self.mu}, dim={self.dim})"


# Kept for the life of the process, unlike cell modules: one Specht module
# per partition, shared by the cell modules of every level at that weight,
# so a module built again reuses its Specht factor and the permutation
# matrices cached on it.
@lru_cache(maxsize=None)
def _specht(mu: Partition) -> SpechtModule:
    return specht.build_specht(mu)


def gram_matrix(cell: CellModule) -> list[SparseVec]:
    """Invariant bilinear form on the cell basis, as sparse rows
    {column: nonzero value}, one per basis vector.

    The pairing of one-row diagrams v and w is read off the move of
    d_v = X_v0 * flip(X_v) at w, where v0 has its arcs on the last n - |mu|
    nodes: d_v carries v's arcs on its south side and v's free nodes up
    to nodes 1..|mu|.  Where the propagating number drops or delta^loops
    is 0 the (v, w) block is zero; otherwise it is delta^loops times the
    Specht form times the matrix of the leftover permutation."""
    n, m, f = cell.n, cell.mu.size, cell.specht.dim
    form = cell.specht.form
    top = [(a, a + 1) for a in range(m + 1, n, 2)]
    gram: list[SparseVec] = [{} for _ in range(cell.dim)]
    for vi, v in enumerate(cell.v_list):
        d_v = BrauerDiagram(n, n, top + [(k + 1, -x)
                                         for k, x in enumerate(cell.free_nodes[vi])]
                            + [(-a, -b) for a, b in v.arcs])
        for wi in range(len(cell.v_list)):
            move = cell._move(d_v, wi)
            if move is None:
                continue
            _, cols, scale = move
            for k in range(f):
                col = {k: 1} if cols is None else cols[k]
                for j in range(f):
                    val = scale * sum(form[j][i] * a for i, a in col.items())
                    if val:
                        gram[vi * f + j][wi * f + k] = val
        # d_v serves this row only; its link table would outlive it
        del cell._links[d_v]
    return gram


def t_action_check(cell: CellModule) -> bool:
    """Does the sum of all hooks X_{i,j} act as the transposition sum plus
    the scalar t(delta-1) - (content sum of mu)?  Each unit vector's
    -scalar multiple, minus its transposed images, plus its images under
    the hooks, must vanish."""
    n = cell.n
    scalar = cell.t * (cell.delta - 1) - content_sum(cell.mu)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    hooks = [hook_diagram(n, i + 1, j + 1) for i, j in pairs]
    for b in range(cell.dim):
        unit = cell.to_blocks({b: 1})
        out = {v_idx: [-scalar * c for c in block] for v_idx, block in unit.items()}
        for pair in pairs:
            cell._add_moved(out, unit, pair, cell._swap_move, -1)
        for h in hooks:
            cell._add_moved(out, unit, h, cell._move, 1)
        if any(map(any, out.values())):
            return False
    return True
