import copy
from fractions import Fraction
from math import factorial

import pytest

from brauerblocks import cells, oracle
from brauerblocks.cells import CellModule, enumerate_v, t_action_check
from brauerblocks.diagrams import BrauerDiagram, all_diagrams, concat, flip
from brauerblocks.linalg import SparseVec, mat_vec
from brauerblocks.oracle import _filling, central_scalar, central_scalar_value
from brauerblocks.partitions import (EMPTY, InvariantError, Partition,
                                     partitions_of, removable_boxes,
                                     specht_dim)
from brauerblocks.specht import build_specht
import references
from references import (AlgebraElement, act_diagram, add_box, addable_boxes,
                        all_perms, block_sum, cap_diagram, decompose,
                        diagram_move, free_nodes, from_diagram, gram_matrix,
                        hook_diagram, identity_diagram, identity_element,
                        perm_diagram, propagating, remove_box, specht_form,
                        t_action_basis, to_blocks, transposition, u_diagram)


def P(*parts):
    return Partition(parts)


DELTAS = (-2, -1, 0, 1, 2, 3)


def dense(gram, dim):
    """The dense rows of a Gram matrix given as sparse rows."""
    return [[row.get(j, 0) for j in range(dim)] for row in gram]


def v_count(n, t):
    return factorial(n) // (2 ** t * factorial(t) * factorial(n - 2 * t))


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def act_element(cell: CellModule, elem: AlgebraElement, vec: SparseVec) -> SparseVec:
    if elem.n != cell.n or elem.delta != cell.delta:
        raise ValueError("element and module live over different B_n(delta)")
    blocks = to_blocks(cell, vec)
    return cell.flatten(block_sum((c, act_diagram(cell, d, blocks))
                                  for d, c in elem.terms.items()))


def restriction_rule(lam: Partition, n: int) -> tuple[list[Partition], list[Partition]]:
    """Weights appearing under restriction to B_{n-1}: remove-a-box terms
    and add-a-box terms, the latter only when the result fits in level n-1."""
    if lam.size > n or (n - lam.size) % 2 != 0:
        raise ValueError(f"{lam} is not a weight at level {n}")
    down = [remove_box(lam, b) for b in removable_boxes(lam)]
    up = ([add_box(lam, b) for b in addable_boxes(lam)]
          if lam.size + 1 <= n - 1 else [])
    return down, up


def test_enumerate_v_matches_reference():
    # yielded in lex order, as the sort-based reference builds it
    cases = diagrams = 0
    for n in range(11):
        for t in range(n // 2 + 1):
            got = enumerate_v(n, t)
            assert got == references.enumerate_v(n, t), (n, t)
            assert len(got) == cells.one_row_count(n, t), (n, t)
            cases += 1
            diagrams += len(got)
    assert (cases, diagrams) == (36, 13232)


def test_enumerate_v():
    assert len(enumerate_v(4, 1)) == 6
    assert len(enumerate_v(5, 2)) == 15
    assert enumerate_v(2, 1)[0].arcs == ((1, 2),)
    assert free_nodes(enumerate_v(3, 0)[0]) == (1, 2, 3)
    with pytest.raises(ValueError):
        enumerate_v(3, 2)


def test_cell_validation():
    with pytest.raises(ValueError):
        CellModule(3, 1, P(2))
    with pytest.raises(ValueError):
        CellModule(2, 1, P(2, 2))
    with pytest.raises(ValueError):
        CellModule(2, 0, EMPTY)


def test_dims():
    for n in range(1, 6):
        for k in range(n % 2, n + 1, 2):
            for mu in partitions_of(k):
                cell = CellModule(n, 1, mu)
                assert cell.dim == v_count(n, (n - k) // 2) * specht_dim(mu)


def test_top_cell_is_specht():
    cell = CellModule(3, 2, P(2, 1))
    assert cell.dim == 2
    assert dense(gram_matrix(cell), cell.dim) == specht_form(cell.specht)
    # the diagram of sigma acts through sigma inverse: stacking diagrams
    # composes the underlying maps in the reverse order
    for sigma in all_perms(3):
        d = perm_diagram(sigma)
        inv = cell.specht.perm_matrix(inverse(sigma))
        for j in range(cell.dim):
            unit = to_blocks(cell, {j: Fraction(1)})
            assert cell.flatten(act_diagram(cell, d, unit)) == inv[j]
    # arc diagrams drop the propagating number and act as zero on top
    unit = to_blocks(cell, {0: Fraction(1)})
    assert cell.flatten(act_diagram(cell, u_diagram(3, 1), unit)) == {}


@pytest.mark.parametrize("delta", [0, 2])
def test_action_is_algebra_representation(delta):
    cell = CellModule(3, delta, P(1))
    pool = list(all_diagrams(3))
    for a in pool:
        ea = from_diagram(a, delta)
        for b in pool:
            prod = ea * from_diagram(b, delta)
            for j in range(cell.dim):
                unit = {j: Fraction(1)}
                step = cell.flatten(act_diagram(cell, a, act_diagram(cell, b, to_blocks(cell, unit))))
                assert step == act_element(cell, prod, unit)


def test_act_element_mismatch():
    cell = CellModule(3, 1, P(1))
    with pytest.raises(ValueError):
        act_element(cell, identity_element(3, 2), {0: Fraction(1)})
    with pytest.raises(ValueError):
        act_element(cell, identity_element(4, 1), {0: Fraction(1)})


def test_single_arc_gram():
    assert gram_matrix(CellModule(2, 3, EMPTY)) == [{0: Fraction(3)}]
    assert gram_matrix(CellModule(2, -1, EMPTY)) == [{0: Fraction(-1)}]


@pytest.mark.parametrize("delta", [-1, 0, 2])
def test_gram_symmetric_and_invariant(delta):
    cell = CellModule(3, delta, P(1))
    dim = cell.dim
    gram = dense(gram_matrix(cell), dim)
    for i in range(dim):
        for j in range(dim):
            assert gram[i][j] == gram[j][i]
    for d in all_diagrams(3):
        fd = flip(d)
        for b in range(dim):
            moved = cell.flatten(act_diagram(cell, d, to_blocks(cell, {b: Fraction(1)})))
            for c in range(dim):
                lhs = sum(v * gram[a][c] for a, v in moved.items())
                back = cell.flatten(act_diagram(cell, fd, to_blocks(cell, {c: Fraction(1)})))
                rhs = sum(gram[b][a] * v for a, v in back.items())
                assert lhs == rhs


@pytest.mark.parametrize("delta", [-1, 0, 2])
def test_t_action_small(delta):
    for n in range(1, 5):
        for k in range(n % 2, n + 1, 2):
            if delta == 0 and k == 0:
                continue
            for mu in partitions_of(k):
                assert t_action_check(CellModule(n, delta, mu),
                                      central_scalar_value(n, delta, mu))


def test_t_action_check_rejects_wrong_scalar(monkeypatch):
    # with the closed form off by one the central element misses it on
    # every module, and central_scalar refuses to answer
    monkeypatch.setattr(oracle, "central_scalar_value",
                        lambda n, delta, mu: central_scalar_value(n, delta, mu) + 1)
    count = 0
    for delta in (-1, 0, 2):
        for n in range(1, 5):
            for k in range(n % 2, n + 1, 2):
                if delta == 0 and k == 0:
                    continue
                for mu in partitions_of(k):
                    wrong = oracle.central_scalar_value(n, delta, mu)
                    assert not t_action_check(CellModule(n, delta, mu), wrong)
                    with pytest.raises(InvariantError):
                        central_scalar(n, delta, mu)
                    count += 1
    assert count == 46


def test_t_action_check_matches_every_basis_vector():
    # the one-vector check and the per-basis reference agree on every
    # module of n <= 7: both accept the closed form and refuse it plus 1
    count = 0
    for n in range(8):
        for delta in DELTAS:
            for cell in cell_modules(n, delta):
                c = central_scalar_value(n, delta, cell.mu)
                assert t_action_check(cell, c) and t_action_basis(cell, c), cell
                assert not t_action_check(cell, c + 1), cell
                assert not t_action_basis(cell, c + 1), cell
                count += 1
    assert count == 434


def _one_row_diagram(cell, v_idx):
    """The (n, |mu|) diagram with the arcs of the v_idx-th one-row
    diagram on top and its free node number k dropping to southern
    node k."""
    pairs = [tuple(a) for a in cell.v_list[v_idx].arcs]
    pairs += [(f, -(k + 1)) for k, f in enumerate(cell.free_nodes[v_idx])]
    return BrauerDiagram(cell.n, cell.mu.size, pairs)


def concat_decompose(cell, d, v_idx):
    """Reference reading of decompose: stack d on the one-row diagram as
    an (n, |mu|) diagram and read arcs, through strands and loops off the
    reduced product."""
    prod, loops = concat(d, _one_row_diagram(cell, v_idx))
    arcs, through = [], {}
    for p in prod.pairs:
        a, b = sorted(p, reverse=True)
        if b > 0:
            arcs.append((b, a))
        elif a < 0:
            return None
        else:
            through[a] = -b
    w_idx = [v.arcs for v in cell.v_list].index(tuple(sorted(arcs)))
    rank = {f: k for k, f in enumerate(cell.free_nodes[w_idx])}
    pinv = [0] * len(through)
    for f, b in through.items():
        pinv[b - 1] = rank[f]
    return (w_idx, tuple(pinv), loops)


def test_decompose_matches_concat():
    for n in range(6):
        pool = list(all_diagrams(n))
        for t in range(n // 2 + 1):
            m = n - 2 * t
            cell = CellModule(n, 1, P(m) if m else EMPTY)
            for d in pool:
                for v_idx in range(len(cell.v_list)):
                    assert decompose(cell, d, v_idx) == concat_decompose(cell, d, v_idx)


def concat_gram(cell):
    """Reference reading of gram_matrix: pair one-row diagrams by stacking
    the flip of one on the other with concat; a propagating drop gives
    zero, otherwise the leftover permutation is evaluated in the Specht
    form."""
    f = cell.specht.dim
    form = specht_form(cell.specht)
    dim = cell.dim
    gram = [[0] * dim for _ in range(dim)]
    xv = [_one_row_diagram(cell, vi) for vi in range(len(cell.v_list))]
    for vi in range(len(xv)):
        for wi in range(len(xv)):
            prod, loops = concat(flip(xv[vi]), xv[wi])
            if propagating(prod) < prod.n:
                continue
            scale = cell.delta ** loops
            if not scale:
                continue
            # north a joins south b: the permutation diagram acts on the
            # Specht factor through its inverse
            pinv = [0] * prod.n
            for p in prod.pairs:
                a, b = max(p), -min(p)
                pinv[b - 1] = a - 1
            mat = cell.specht.perm_matrix(tuple(pinv))
            for k in range(f):
                col = mat[k]
                for j in range(f):
                    val = scale * sum(form[j][i] * a for i, a in col.items())
                    gram[vi * f + j][wi * f + k] = val
    return gram


def test_gram_matches_concat_reading():
    count = 0
    for n in range(7):
        for delta in DELTAS:
            for cell in cell_modules(n, delta):
                gram = gram_matrix(cell)
                assert all(all(row.values()) for row in gram), cell
                assert dense(gram, cell.dim) == concat_gram(cell), cell
                count += 1
    assert count == 278


def test_hook_product_is_the_cap():
    # the hooks on v's arcs, applied one by one through act_diagram, send
    # each unit of block w to block v or to 0, as the strand walk of
    # cap_diagram(v) does: gram_rank reads the Gram pairing off them
    count = 0
    for n in range(7):
        for delta in DELTAS:
            for cell in cell_modules(n, delta):
                f = cell.specht.dim
                for vi, v in enumerate(cell.v_list):
                    cap = cap_diagram(v)
                    for wi in range(len(cell.v_list)):
                        move = diagram_move(cell, cap, wi)
                        for x in range(f):
                            out = {wi: [int(i == x) for i in range(f)]}
                            for pair in v.arcs:
                                out = cell.act_diagram(pair, out)
                            if move is None:
                                assert out == {}, (cell, vi, wi, x)
                                continue
                            w_idx, cols, scale = move
                            col = {x: 1} if cols is None else cols[x]
                            assert w_idx == vi, (cell, vi, wi)
                            assert out == {vi: [scale * col.get(i, 0) for i in range(f)]}, \
                                (cell, vi, wi, x)
                count += 1
    assert count == 278


def all_int(values) -> bool:
    return all(type(v) is int for v in values)


def test_action_layer_is_integral():
    for m in range(7):
        for mu in partitions_of(m):
            md = build_specht(mu)
            assert all(all_int(col.values()) for g in md.gen_matrices for col in g)
            assert all(all_int(row) for row in specht_form(md))
            cycle = tuple((p + 1) % m for p in range(m))
            for sigma in (cycle, tuple(reversed(range(m)))):
                assert all(all_int(col.values()) for col in md.perm_matrix(sigma))
    for n in range(1, 6):
        gens = [perm_diagram(transposition(n, i, i + 1)) for i in range(n - 1)]
        gens += [hook_diagram(n, 1, 2)] if n > 1 else []
        for delta in DELTAS:
            for k in range(n % 2, n + 1, 2):
                if delta == 0 and k == 0:
                    continue
                for mu in partitions_of(k):
                    cell = CellModule(n, delta, mu)
                    for d in gens:
                        for j in range(cell.dim):
                            unit = to_blocks(cell, {j: 1})
                            assert all_int(cell.flatten(act_diagram(cell, d, unit)).values())
                    assert all(all_int(row.values()) for row in gram_matrix(cell))


def reference_act(cell, d, vec):
    """The flat action that block vectors replaced: regroup a flat vector
    by one-row index, move each group by decompose and a Specht matrix,
    and add the entries back one by one."""
    f = cell.specht.dim
    grouped = {}
    for idx, c in vec.items():
        grouped.setdefault(idx // f, {})[idx % f] = c
    out = {}
    for v_idx, sub in grouped.items():
        dec = decompose(cell, d, v_idx)
        if dec is None:
            continue
        w_idx, pinv, loops = dec
        scale = cell.delta ** loops
        if not scale:
            continue
        moved = mat_vec(cell.specht.perm_matrix(pinv), sub)
        base = w_idx * f
        for tab_idx, val in moved.items():
            k = base + tab_idx
            acc = out.get(k, 0) + scale * val
            if acc:
                out[k] = acc
            else:
                del out[k]
    return out


def cell_modules(n, delta):
    for k in range(n % 2, n + 1, 2):
        if delta == 0 and k == 0:
            continue
        for mu in partitions_of(k):
            yield CellModule(n, delta, mu)


def check_against_reference(cell, diagrams):
    """The block action equals reference_act on every basis vector and on
    one vector with every coordinate nonzero, where blocks collide; each
    block is a list of f ints, not all zero."""
    f = cell.specht.dim
    full = {j: j % 5 - 2 or 3 for j in range(cell.dim)}
    for d in diagrams:
        for vec in [{j: 1} for j in range(cell.dim)] + [full]:
            got = act_diagram(cell, d, to_blocks(cell, vec))
            for block in got.values():
                assert type(block) is list and len(block) == f
                assert all_int(block) and any(block)
            assert cell.flatten(got) == reference_act(cell, d, vec), (cell, d, vec)


def test_block_action_matches_flat_reference():
    # up to n = 4 every diagram, so that some close loops while they
    # permute the free nodes; then the generators s_i and X_12
    for n in range(7):
        if n <= 4:
            gens = list(all_diagrams(n))
        else:
            gens = [perm_diagram(transposition(n, i, i + 1)) for i in range(n - 1)]
            gens.append(hook_diagram(n, 1, 2))
        for delta in DELTAS:
            for cell in cell_modules(n, delta):
                check_against_reference(cell, gens)
    # the Hom route's diagrams at level 7: transpositions inside a row or
    # a column of some lam, and the hooks on the tops of two columns
    route = set()
    for lam in partitions_of(7):
        _, rows, cols = _filling(lam)
        for pts in rows + cols:
            route.update(perm_diagram(transposition(7, a - 1, b - 1))
                         for j, b in enumerate(pts) for a in pts[:j])
        tops = [col[0] for col in cols]
        route.update(hook_diagram(7, i, j) for a, i in enumerate(tops)
                     for j in tops[a + 1:])
    assert len(route) == 42
    for cell in cell_modules(7, -2):
        check_against_reference(cell, sorted(route, key=repr))


def test_action_does_not_alias():
    # the result of act_diagram, swap_sum and block_sum shares no list
    # with the input: the input is unchanged by the call and by mutating
    # the result
    cell = CellModule(5, 2, P(2, 1))
    vec = to_blocks(cell, {j: j % 3 + 1 for j in range(cell.dim)})
    before = copy.deepcopy(vec)

    def scribble(out, label):
        assert vec == before, label
        for block in out.values():
            block[:] = [c + 7 for c in block]
        assert vec == before, label

    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    for pair in [(1, 2), (2, 4)]:
        scribble(cell.act_diagram(pair, vec), pair)
    # the move kernel under the reference action of general diagrams
    for d in [identity_diagram(5)] + [perm_diagram(transposition(5, i - 1, j - 1))
                                      for i, j in pairs]:
        scribble(act_diagram(cell, d, vec), d)
    # swap_sum adds vec and its signed transposed images in a fresh
    # accumulator, with the same guarantee
    for sign in (1, -1):
        for chosen in [[p] for p in pairs] + [pairs]:
            out = cell.swap_sum(vec, chosen, sign)
            assert out == block_sum([(1, vec)] + [
                (sign, act_diagram(cell, perm_diagram(transposition(5, i - 1, j - 1)), vec))
                for i, j in chosen])
            scribble(out, (chosen, sign))
    ones = {0: [1] * cell.specht.dim}
    for out in (block_sum([(1, vec), (1, vec)]), block_sum([(1, vec), (-1, ones)])):
        scribble(out, "block_sum")
    # three terms in which block 0 cancels: it is dropped, the others stay
    out = block_sum([(1, vec), (-1, {0: vec[0]}), (2, {1: vec[1]})])
    assert out == {v: [3 * c for c in block] if v == 1 else block
                   for v, block in vec.items() if v != 0}
    assert vec == before


def test_swap_tables_match_decompose():
    # the closed-form move of each transposition of two nodes equals the
    # strand walk of its permutation diagram, entry by entry, on every
    # module of n <= 7; a vector with every block nonzero fills the
    # whole table
    count = 0
    for n in range(8):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        diagrams = {(i, j): perm_diagram(transposition(n, i - 1, j - 1))
                    for i, j in pairs}
        for delta in DELTAS:
            for cell in cell_modules(n, delta):
                f = cell.specht.dim
                full = {v_idx: [1] * f for v_idx in range(len(cell.v_list))}
                cell.swap_sum(full, pairs, 1)
                for p in pairs:
                    table = cell._moves[p]
                    for v_idx, move in enumerate(table):
                        assert move == diagram_move(cell, diagrams[p], v_idx), (cell, p, v_idx)
                    count += len(table)
    assert count == 94244
    # every permutation sigma of n <= 5: relabelling the nodes by sigma
    # inverse is the strand walk of sigma's diagram
    count = modules = 0
    for n in range(6):
        for delta in DELTAS:
            for cell in cell_modules(n, delta):
                modules += 1
                for sigma in all_perms(n):
                    d = perm_diagram(sigma)
                    tau = (0,) + tuple(x + 1 for x in inverse(sigma))
                    for v_idx in range(len(cell.v_list)):
                        assert cell._perm_move(tau, v_idx) == diagram_move(cell, d, v_idx), \
                            (cell, sigma, v_idx)
                        count += 1
    assert (modules, count) == (165, 40509)


def test_hook_tables_match_decompose():
    # the closed-form move of each hook equals the strand walk of its
    # hook diagram, entry by entry, on every module of n <= 7; acting on
    # a vector with every block nonzero fills the whole table
    count = modules = 0
    for n in range(8):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        diagrams = {p: hook_diagram(n, *p) for p in pairs}
        for delta in DELTAS:
            for cell in cell_modules(n, delta):
                modules += 1
                f = cell.specht.dim
                full = {v_idx: [1] * f for v_idx in range(len(cell.v_list))}
                for p in pairs:
                    cell.act_diagram(p, full)
                    table = cell._moves[("hook",) + p]
                    for v_idx, move in enumerate(table):
                        assert move == diagram_move(cell, diagrams[p], v_idx), (cell, p, v_idx)
                    count += len(table)
    assert (modules, count) == (434, 94244)


def test_hook_and_swap_tables_are_kept_apart():
    # one node pair keys both a transposition table and a hook table;
    # whichever is filled first, each answers for itself
    pair = (1, 2)
    hook = hook_diagram(4, 1, 2)
    swap = perm_diagram(transposition(4, 0, 1))
    for swap_first in (False, True):
        cell = CellModule(4, 2, P(1, 1))
        full = {v_idx: [1] * cell.specht.dim for v_idx in range(len(cell.v_list))}
        if swap_first:
            cell.swap_sum(full, [pair], 1)
        hooked = cell.act_diagram(pair, full)
        assert hooked == act_diagram(cell, hook, full)
        assert hooked != act_diagram(cell, swap, full)
        assert cell.swap_sum(full, [pair], 1) == block_sum(
            [(1, full), (1, act_diagram(cell, swap, full))])


def test_swap_sum_matches_act_diagram(rng):
    # random integer vectors, random pairs and both signs: swap_sum is the
    # block_sum of vec and the signed actions of the permutation diagrams
    for n in range(2, 7):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for delta in (0, 1, 3):
            for cell in cell_modules(n, delta):
                f = cell.specht.dim
                for _ in range(4):
                    vec = {v_idx: [rng.randint(-3, 3) for _ in range(f)]
                           for v_idx in range(len(cell.v_list))
                           if rng.random() < 0.5}
                    vec = {v_idx: block for v_idx, block in vec.items() if any(block)}
                    chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
                    sign = rng.choice((1, -1))
                    got = cell.swap_sum(vec, chosen, sign)
                    for block in got.values():
                        assert type(block) is list and len(block) == f
                        assert all_int(block) and any(block)
                    assert got == block_sum([(1, vec)] + [
                        (sign, act_diagram(cell, perm_diagram(transposition(n, i - 1, j - 1)), vec))
                        for i, j in chosen]), (cell, chosen, sign)
    # (1 2) fixes the arc 1-2 and its free nodes, so vec - (1 2)vec
    # cancels that block and keeps the one it moves
    cell = CellModule(4, 1, P(1, 1))
    arcs = [v.arcs for v in cell.v_list]
    fixed, moved = arcs.index(((1, 2),)), arcs.index(((1, 3),))
    vec = {fixed: [2, -1], moved: [1, 3]}
    got = cell.swap_sum(vec, [(1, 2)], -1)
    assert fixed not in got and moved in got
    assert got == block_sum([(1, vec), (-1, act_diagram(
        cell, perm_diagram(transposition(4, 0, 1)), vec))])


def test_restriction_rule():
    down, up = restriction_rule(P(2, 1), 5)
    assert set(down) == {P(1, 1), P(2)}
    assert set(up) == {P(3, 1), P(2, 2), P(2, 1, 1)}
    down, up = restriction_rule(P(2, 1), 3)
    assert set(down) == {P(1, 1), P(2)} and up == []
    with pytest.raises(ValueError):
        restriction_rule(P(2), 3)
