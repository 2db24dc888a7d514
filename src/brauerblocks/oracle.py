"""Brute-force verification layer.

Everything here recomputes, by exact integer linear algebra, what the
combinatorial layer only predicts: Hom-space dimensions between cell
modules, central-element scalars, Gram ranks, restriction multiplicities
to the symmetric group, and the empirical block graph.

A Hom space is computed at the level of its source weight, as the part
of the Young symmetrizer's image killed by the two-strand contractions
(_hom_dim_compressed), with lam filled by the nodes 1..|lam| row by row
(_filling).  Its transpositions (CellModule.swap_sum) and hooks
(CellModule.act_diagram) name those nodes, as the relabellings of the
permutation traces (CellModule._perm_move) do.  A Gram rank is read off
the same symmetrizer images (_image), one per partition nu of n, through
the hooks on each one-row diagram's arcs (CellModule.act_diagram), with
no Specht form and no Gram matrix (gram_rank).  All are closed-form move
tables: nothing builds a Brauer diagram or walks a strand.

Module dimensions are capped via the BRAUER_MAX_DIM environment variable
(a positive integer, default 400) so that a stray query cannot wedge a
test run.  Raise it explicitly for big one-off computations.

A cell module lives as long as the run of queries that shares it: the
oracle keeps only the last module it built, and block_graph and
verify_blocks ask their queries grouped by module and drop it before
they return.  What outlives a call holds no module: the Specht modules
(cells._specht) and the permutation traces of the last (n, mu) asked
(_perm_traces, one slot).
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain, combinations
from math import factorial
from typing import Iterator, NamedTuple

from .blocks import (WeightSet, block_partition, check_weight, hom_target,
                     is_balanced, is_minimal, weights)
from .cells import (BlockVec, CellModule, PartialOneRowDiagram, one_row_count,
                    t_action_check)
from .linalg import Echelon, SparseVec, rank_of
from .partitions import (InvariantError, Partition, conjugacy_class_size,
                         content_sum, even_lr_sum, mn_character,
                         partitions_of, specht_dim)

DEFAULT_MAX_DIM = 400


def _max_dim() -> int:
    raw = os.environ.get("BRAUER_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    msg = f"BRAUER_MAX_DIM must be a positive integer, got {raw!r}"
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(msg) from None
    if cap < 1:
        raise ValueError(msg)
    return cap


def cell_dim(n: int, mu: Partition) -> int:
    """Dimension of the cell module at weight mu, without building it."""
    return one_row_count(n, (n - mu.size) // 2) * specht_dim(mu)


@lru_cache(maxsize=1)
def _last_cell(n: int, delta: int, mu: Partition) -> CellModule:
    return CellModule(n, delta, mu)


def _check_cap(n: int, mu: Partition) -> None:
    """Refuse a cell module over the cap.  Callers check on every call,
    so that an answer taken from a memo obeys a lowered cap too."""
    d = cell_dim(n, mu)
    cap = _max_dim()
    if d > cap:
        raise RuntimeError(
            f"cell module at {mu}, n={n} has dimension {d} > cap {cap}; "
            "set BRAUER_MAX_DIM higher to allow it")


def _capped_cell(n: int, delta: int, mu: Partition) -> CellModule:
    """The cell module, checked against the cap and then taken from the
    one-slot memo."""
    _check_cap(n, mu)
    return _last_cell(n, delta, mu)


class _HomQueryFields(NamedTuple):
    n: int
    delta: int
    source: Partition
    target: Partition


class HomQuery(_HomQueryFields):
    """A single Hom-space question: maps from the cell module at `source`
    to the one at `target`, both over B_n(delta).  Both must be weights
    there."""

    __slots__ = ()

    def __new__(cls, n: int, delta: int, source: Partition, target: Partition):
        check_weight(n, delta, source)
        check_weight(n, delta, target)
        return tuple.__new__(cls, (n, delta, source, target))

    @classmethod
    def _make(cls, iterable) -> "HomQuery":
        # _replace builds through _make, so a replaced field is checked too
        return cls(*iterable)


class BlockGraph(NamedTuple):
    """Weights of B_n(delta) with one directed edge per nonzero Hom space."""

    vertices: WeightSet
    edges: tuple[tuple[Partition, Partition], ...]


def central_scalar_value(n: int, delta: int, mu: Partition) -> int:
    """Content sum of mu minus t*(delta-1), t = number of contracted pairs."""
    t = (n - mu.size) // 2
    return content_sum(mu) - t * (delta - 1)


def central_scalar(n: int, delta: int, mu: Partition) -> int:
    """Scalar by which the central element acts on the cell module at mu:
    central_scalar_value, checked on the module by t_action_check.  Any
    other action would falsify the implementation, so it raises
    InvariantError rather than a soft error.
    """
    check_weight(n, delta, mu)
    cell = _capped_cell(n, delta, mu)
    value = central_scalar_value(n, delta, mu)
    if not t_action_check(cell, value):
        raise InvariantError(
            f"central element does not act by {value} on the cell module at "
            f"{mu}, n={n}, delta={delta}")
    return value


def _cycle_rep(rho: Partition) -> tuple[int, ...]:
    """A relabelling of the nodes with cycle type rho: node x goes to
    image[x] (slot 0 unused), as _perm_move reads it."""
    image = [0]
    start = 1
    for part in rho.parts:
        image.extend(start + (i + 1) % part for i in range(part))
        start += part
    return tuple(image)


# One slot, like the module memo: restriction_multiplicity asks about every
# lam for one mu, and a miss reads a move per one-row diagram and class.
@lru_cache(maxsize=1)
def _perm_traces(n: int, mu: Partition) -> dict[Partition, int]:
    """Trace of each cycle type's permutation on the cell module.

    A permutation closes no loop and keeps every strand, so it moves each
    one-row diagram v to some w with scale 1, read in closed form from
    the relabelling of nodes by the cycle representative, and only the
    v with w = v add to the trace: f for the identity on the Specht
    factor, else the diagonal of its matrix.  The relabelling by sigma is
    the action of sigma's inverse, which has the same cycle type and so
    the same trace.  With no loop there is no power of delta, so the
    traces are read at delta = 1, where every mu of the right size is a
    weight.  The caller checks the cap."""
    cell = _last_cell(n, 1, mu)
    f = cell.specht.dim
    out = {}
    for rho in partitions_of(n):
        tau = _cycle_rep(rho)
        tr = 0
        for v_idx in range(len(cell.v_list)):
            w_idx, cols, _ = cell._perm_move(tau, v_idx)
            if w_idx == v_idx:
                tr += f if cols is None else sum(cols[j].get(j, 0)
                                                 for j in range(f))
        out[rho] = tr
    return out


def restriction_multiplicity(n: int, delta: int, mu: Partition,
                             lam: Partition) -> int:
    """Multiplicity of the Specht module S^lam in the restriction of the
    cell module at mu to the symmetric group.

    Computed two independent ways: a character inner product against the
    permutation-action traces, and the even-partition LR sum.  The two
    must agree; the character count is returned.
    """
    if lam.size != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    check_weight(n, delta, mu)
    _check_cap(n, mu)
    route_b = even_lr_sum(lam, mu)
    total = sum(conjugacy_class_size(rho) * mn_character(lam, rho) * tr
                for rho, tr in _perm_traces(n, mu).items())
    route_a, rem = divmod(total, factorial(n))
    if rem != 0 or route_a != route_b:
        raise InvariantError(
            f"restriction routes disagree at mu={mu}, lam={lam}, n={n}: "
            f"character count {total}/{factorial(n)} vs LR sum {route_b}")
    return route_a


def _filling(lam: Partition) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """lam filled with the nodes 1..|lam| row by row: each node's row
    (slot 0 unused), the nodes of each row and those of each column."""
    rows, start = [], 1
    for part in lam.parts:
        rows.append(list(range(start, start + part)))
        start += part
    row_of = [0] + [r for r, row in enumerate(rows) for _ in row]
    return row_of, rows, [[row[c] for row in rows if len(row) > c]
                          for c in range(lam.row(0))]


def _orbit_reps(v_list: list[PartialOneRowDiagram], lam: Partition) -> list[int]:
    """Index of the first one-row diagram of each orbit of the row group
    of lam (nodes 1..|lam| filled row by row), in v_list order, but the
    row-internal orbits, with every arc inside one row, first.

    Two sets of arcs lie in one orbit of a Young subgroup exactly when
    they join the same pairs of row blocks equally often, so the key is
    the sorted multiset of (row of a, row of b) over the arcs a-b."""
    row_of = _filling(lam)[0]
    first: dict[tuple[tuple[int, int], ...], int] = {}
    for v_idx, v in enumerate(v_list):
        key = tuple(sorted((row_of[a], row_of[b]) for a, b in v.arcs))
        first.setdefault(key, v_idx)
    return [v_idx for key, v_idx in sorted(
        first.items(), key=lambda item: any(r != s for r, s in item[0]))]


def _group_sum(cell: CellModule, vec: BlockVec, blocks: list[list[int]],
               sign: int) -> BlockVec:
    """The sum (sign 1) or signed sum (sign -1) of the Young subgroup on
    blocks of nodes, applied to vec in the cell module.  Coset
    transversals keep the term count at block_len^2 instead of
    block_len!; the identity coset acts trivially.  Each coset step is
    one swap_sum of vec and its j transposed images.  A signed sum first
    drops the blocks of vec with an arc p-q inside the block of nodes:
    the odd (p q) fixes them, so the sum kills them."""
    for pts in blocks:
        if sign < 0:
            mask = cell._arc_key(combinations(pts, 2))
            vec = {v_idx: block for v_idx, block in vec.items()
                   if not cell._key[v_idx] & mask}
        for j in range(1, len(pts)):
            vec = cell.swap_sum(vec, [(pts[i], pts[j]) for i in range(j)], sign)
    return vec


def _young_invariants(cell: CellModule, v_idx: int,
                      rows: list[list[int]]) -> list[list[int]]:
    """An integer basis of the Specht vectors fixed by the Young subgroup
    Y_a, a the sizes of rows, as dense lists.

    rows lists the free nodes of the v_idx-th one-row diagram v, grouped
    by row of lam.  A transposition of two of them in one row fixes v
    and acts on the Specht factor by the transposition of their ranks,
    which are consecutive within a row; so the row sum over rows
    acts on v's block as the sum of Y_a on consecutive blocks of sizes a.
    That sum is a positive multiple of the projection onto the fixed
    vectors, so its images of the unit vectors span them; there are
    K_{mu,sort(a)} (Young's rule), none unless mu dominates sort(a)."""
    f = cell.specht.dim
    ech = Echelon()
    basis = []
    for x in range(f):
        y = _group_sum(cell, {v_idx: [int(i == x) for i in range(f)]}, rows, 1)
        if y and ech.add(cell.flatten(y)):
            basis.append(y[v_idx])
    return basis


def _orbit_seeds(cell: CellModule, lam: Partition) -> Iterator[list[BlockVec]]:
    """For each v in _orbit_reps, the block seeds v (x) y, y over
    _young_invariants of v's free nodes grouped by row of lam.  The
    invariant bases are memoised per composition a, the free-node count
    per row."""
    row_of = _filling(lam)[0]
    invariants: dict[tuple[int, ...], list[list[int]]] = {}
    for v_idx in _orbit_reps(cell.v_list, lam):
        rows: list[list[int]] = [[] for _ in range(lam.rows)]
        for node in cell.free_nodes[v_idx]:
            rows[row_of[node]].append(node)
        a = tuple(map(len, rows))
        if a not in invariants:
            invariants[a] = _young_invariants(cell, v_idx, rows)
        yield [{v_idx: list(y)} for y in invariants[a]]


def _image(cell: CellModule, lam: Partition, bound: int) -> list[BlockVec]:
    """A basis of the image W of lam's Young symmetrizer (row sums, then
    signed column sums) on the cell module, with lam filled by the nodes
    1..|lam| (|lam| = cell.n).

    Seeds: for r in the row group R, (sum of R)*r = sum of R, and r sends
    v (x) x to rv (x) pi*x with pi invertible, so one one-row diagram v
    per R-orbit, with every x, seeds all of W.  v's free nodes in one row
    of lam have consecutive ranks, so the stabiliser R_v maps onto the
    Young subgroup Y_a, a = a(v) the free-node count per row, and the row
    sum of v (x) x is that of v (x) P*x, P a positive multiple of the
    projection onto the Y_a-fixed vectors.  So the seeds v (x) y, y over
    a basis of those vectors, span W and none dies under the row sum.
    dim W is the multiplicity of S^lam in the module (Fulton and Harris,
    4.1), even_lr_sum, which the caller passes as bound, so the rank must
    reach it exactly: a second derivation of every answer.  The
    row-internal orbits (every arc inside one row of lam) come first and
    the rest follow as a fallback; an order that reaches the bound late
    costs time, not exactness.

    Columns: _group_sum drops the blocks a column's signed sum kills, those
    with an arc inside the column.  The column groups commute, so such a
    block of a column already summed is 0 already.
    """
    _, row_bl, col_bl = _filling(lam)
    ech = Echelon()
    w_basis: list[BlockVec] = []
    for seed in chain.from_iterable(_orbit_seeds(cell, lam)):
        v = _group_sum(cell, _group_sum(cell, seed, row_bl, 1), col_bl, -1)
        if v and ech.add(cell.flatten(v)):
            w_basis.append(v)
            if ech.rank == bound:
                return w_basis
    raise InvariantError(
        f"symmetrizer image rank {ech.rank} differs from its multiplicity "
        f"bound {bound} at lam={lam}, mu={cell.mu}, delta={cell.delta}")


def _hom_dim_compressed(delta: int, lam: Partition, mu: Partition) -> int:
    """Hom dimension over B_k, k = |lam|, via the image of the Young
    symmetrizer.

    A map out of the cell module at lam is pinned down by the image w of
    its cyclic generator.  w must lie in the image W of the symmetrizer
    (_image) and be killed by every two-strand contraction.

    Hooks: every w in W has c*w = sgn(c)*w for c in C.  X_ij*s_ij = X_ij,
    so a hook inside one column sends w to -X_ij*w, that is to 0; and
    X_c(i)c(j)*w = sgn(c)*c*X_ij*w, so X_c(i)c(j) and X_ij have one
    kernel on W.  One hook per pair of distinct columns (on their top
    entries) therefore cuts out the Hom space.
    """
    bound = even_lr_sum(lam, mu)
    if bound == 0:
        return 0
    cell = _capped_cell(lam.size, delta, mu)
    w_basis = _image(cell, lam, bound)
    tops = [col[0] for col in _filling(lam)[2]]
    hooks = [(i, j) for a, i in enumerate(tops) for j in tops[a + 1:]]
    stacked = []
    for w in w_basis:
        image: SparseVec = {}
        for h_idx, h in enumerate(hooks):
            for key, val in cell.flatten(cell.act_diagram(h, w)).items():
                image[(h_idx, key)] = val
        stacked.append(image)
    return len(w_basis) - rank_of(stacked)


def gram_rank(n: int, delta: int, mu: Partition) -> int:
    """Exact rank of the cellular form G on the cell module M at mu, the
    dimension of its simple head (Graham and Lehrer, 1996), with no
    Specht form and no dim x dim matrix.

    1. The (v, w) block of G is F*Z_vw: F the Specht form, which is
       nondegenerate, and Z_vw the block v of E_v*w, E_v the product of
       the hooks X_ab over the arcs a-b of v (CellModule.act_diagram).
       Those hooks are disjoint, so they commute and close no loop among
       themselves, and E_v is the diagram with v's arcs on both rows:
       E_v*w is delta^loops times the matrix of the leftover permutation
       on block v, or 0.  So rank G = rank Z.
    2. G is S_n-invariant, so distinct isotypic parts are orthogonal, and
       on the nu-part S^nu (x) U, Schur's lemma makes G the Specht form
       times a form on U of some rank r_nu: rank G = sum f^nu * r_nu.
    3. With R the row sum and C the signed column sum of nu, the image
       W_nu = C*R*M (_image, nu for lam) is e (x) U for one vector e of
       S^nu, whose form is positive, so G has rank r_nu on W_nu.  R and C
       are self-adjoint and C*w = |C|*w on W_nu, so <w, C*R*m> =
       |C|*<R*w, m>, and r_nu is the rank of w -> <R*w, .> over a basis
       of W_nu; by 1, that of w -> (block v of E_v*R*w)_v.  <R*w, r*m>
       = <R*w, m> for r in R, so one v per row-group orbit (_orbit_reps)
       suffices.
    """
    check_weight(n, delta, mu)
    cell = _capped_cell(n, delta, mu)
    rank = 0
    for nu in partitions_of(n):
        bound = even_lr_sum(nu, mu)
        if bound == 0:
            continue
        row_bl = _filling(nu)[1]
        rws = [_group_sum(cell, w, row_bl, 1) for w in _image(cell, nu, bound)]
        # the map's rank is that of its columns, one per (v, Specht
        # coordinate), so the reps stop once it reaches bound
        ech = Echelon()
        for v_idx in _orbit_reps(cell.v_list, nu):
            caps = []
            for rw in rws:
                for pair in cell.v_list[v_idx].arcs:
                    rw = cell.act_diagram(pair, rw)
                caps.append(rw.get(v_idx, ()))
            for x in range(cell.specht.dim):
                ech.add({j: cap[x] for j, cap in enumerate(caps) if cap})
            if ech.rank == bound:
                break
        rank += specht_dim(nu) * ech.rank
    return rank


def hom_dim(q: HomQuery) -> int:
    """Dimension of the space of module maps from the cell module at
    q.source to the one at q.target, both over B_n(delta).

    Localisation M -> eM, for an idempotent e with e*B_n*e = B_(n-2)
    (loop-free at delta = 0), sends the level-n cell module at a weight
    to the level-(n-2) one.  So the Hom space is the one over B_k,
    k = |q.source|, and it is 0 when |q.target| > k.
    """
    n, delta, lam, mu = q.n, q.delta, q.source, q.target
    if mu.size >= lam.size:
        # At level |lam| both modules are Specht modules of the symmetric
        # group (every non-permutation diagram acting as zero), or the
        # module at mu vanishes there.
        return 1 if lam == mu else 0
    if central_scalar_value(n, delta, lam) != central_scalar_value(n, delta, mu):
        # The central element acts by distinct scalars, so any intertwiner
        # is annihilated by their difference.
        return 0
    return _hom_dim_compressed(delta, lam, mu)


def _hom_edges(n: int, delta: int) -> tuple[tuple[Partition, Partition], ...]:
    """Every pair (lam, mu) of distinct weights with a nonzero Hom space,
    source-major in weight order.

    The pairs are asked target-major: hom_dim builds the module at mu
    over B_|lam|, and weights come grouped by size, so all the queries on
    one module arrive back to back and the one-slot memo serves them.
    The memo is emptied on the way out, so no module outlives the call."""
    ws = weights(n, delta).weights
    try:
        found = {(lam, mu) for mu in ws for lam in ws
                 if lam != mu and hom_dim(HomQuery(n, delta, lam, mu)) > 0}
    finally:
        _last_cell.cache_clear()
    return tuple((lam, mu) for lam in ws for mu in ws if (lam, mu) in found)


def block_graph(n: int, delta: int) -> BlockGraph:
    """All weights of B_n(delta) with a directed edge for every pair of
    distinct weights carrying a nonzero Hom space."""
    return BlockGraph(weights(n, delta), _hom_edges(n, delta))


def verify_blocks(n: int, delta: int) -> dict:
    """Machine-check the predicted block partition against the oracle.

    Four families of checks: every predicted class has exactly one
    minimal weight and a constant central scalar; every Hom edge found by
    the solver joins balanced weights; and from every non-minimal weight
    the descent chain through hom_target reaches the class minimum with a
    nonzero Hom space at each hop, read from the solver's edge set.
    Returns a JSON-ready report.
    """
    checks: list[dict] = []

    def record(name: str, params: dict, ok: bool, witness=None) -> None:
        entry = {"name": name, "params": params,
                 "status": "pass" if ok else "fail"}
        if witness is not None:
            entry["witness"] = witness
        checks.append(entry)

    bp = block_partition(n, delta)
    # each weight's minimality, and each non-minimal weight's target, is
    # computed once here; the descent chains only read them
    minimal = {w: is_minimal(w, delta) for _, members in bp.classes
               for w in members}
    for _, members in bp.classes:
        names = [str(w) for w in members]
        lows = [w for w in members if minimal[w]]
        record("unique-minimal", {"class": names}, len(lows) == 1,
               None if len(lows) == 1 else [str(w) for w in lows])
        scalars = {central_scalar_value(n, delta, w) for w in members}
        record("constant-central-scalar", {"class": names},
               len(scalars) == 1,
               None if len(scalars) == 1 else sorted(scalars))
    target = {w: hom_target(w, delta) for w, least in minimal.items() if not least}

    edges = _hom_edges(n, delta)
    edge_set = set(edges)
    unbalanced = [(str(a), str(b)) for a, b in edges
                  if not is_balanced(a, b, delta)]
    record("hom-edges-balanced",
           {"n": n, "delta": delta, "edges": len(edges)},
           not unbalanced, unbalanced or None)

    # a hop is taken only along an edge, and edges join weights, so every
    # cur has an entry in minimal and, unless minimal, in target
    for _, members in bp.classes:
        for w in members:
            if minimal[w]:
                continue
            chain = [w]
            cur = w
            ok, witness = True, None
            while not minimal[cur]:
                nxt = target[cur]
                if (cur, nxt) not in edge_set:
                    ok, witness = False, {"hop": [str(cur), str(nxt)]}
                    break
                cur = nxt
                chain.append(cur)
                if len(chain) > len(members) + 1:
                    ok, witness = False, {"chain": [str(c) for c in chain]}
                    break
            if ok and cur not in members:
                ok, witness = False, {"left-class": str(cur)}
            record("descent-chain",
                   {"start": str(w), "chain": [str(c) for c in chain]},
                   ok, witness)

    return {"n": n, "delta": delta, "checks": checks}
