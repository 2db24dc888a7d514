import gc
import os
import weakref
from collections import Counter
from unittest import mock

import pytest

from brauerblocks import cli, oracle
from brauerblocks.blocks import hom_target, weights
from brauerblocks.cells import CellModule, enumerate_v
from brauerblocks.diagrams import BrauerDiagram, all_diagrams, concat
from brauerblocks.linalg import Echelon, SparseVec, rank_of, vec_add
from brauerblocks.oracle import (HomQuery, _cycle_rep, _filling, _group_sum,
                                 _last_cell, _orbit_reps, _orbit_seeds, _perm_traces,
                                 block_graph, cell_dim, central_scalar,
                                 central_scalar_value, even_lr_sum,
                                 gram_rank, hom_dim,
                                 restriction_multiplicity, verify_blocks)
from brauerblocks.partitions import (EMPTY, Partition, mn_character,
                                     partitions_of, removable_boxes,
                                     specht_dim, subpartitions)
from references import (act_diagram, block_perms, e_bar, gram_matrix,
                        hook_diagram, identity, identity_diagram, is_even,
                        lr_coefficient, perm_diagram, remove_box,
                        shape_blocks, sign, to_blocks, transposition)

DELTAS = (-2, -1, 0, 1, 2, 3)


def P(*parts):
    return Partition(parts)


def cycle_type(p: tuple[int, ...]) -> Partition:
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def matrix_of(cell: CellModule, d: BrauerDiagram) -> list[SparseVec]:
    return [cell.flatten(act_diagram(cell, d, to_blocks(cell, {j: 1})))
            for j in range(cell.dim)]


def test_cell_dim_formula():
    assert cell_dim(4, P(2)) == 6
    assert cell_dim(3, P(2, 1)) == 2
    assert cell_dim(2, EMPTY) == 1
    for n in (3, 4, 5):
        for k in range(n % 2, n + 1, 2):
            for mu in partitions_of(k):
                assert cell_dim(n, mu) == CellModule(n, 1, mu).dim


def test_hom_query_validation():
    HomQuery(4, 1, P(2, 2), EMPTY)
    with pytest.raises(ValueError):
        HomQuery(3, 1, P(2), P(1))  # wrong parity
    with pytest.raises(ValueError):
        HomQuery(2, 0, EMPTY, P(2))  # empty weight absent at delta 0
    with pytest.raises(ValueError):
        HomQuery(2, 1, P(3), P(1))  # size above n


def test_hom_query_replace_is_checked():
    q = HomQuery(4, 1, P(2, 2), EMPTY)
    assert q._replace(n=6) == HomQuery(6, 1, P(2, 2), EMPTY)
    with pytest.raises(ValueError):
        q._replace(n=3)  # wrong parity
    with pytest.raises(ValueError):
        q._replace(delta=0)  # empty weight absent at delta 0


def test_weight_check_is_membership():
    for n in range(9):
        for delta in DELTAS:
            valid = set(weights(n, delta).weights)
            for k in range(n + 2):
                for mu in partitions_of(k):
                    if mu in valid:
                        HomQuery(n, delta, mu, mu)
                        continue
                    with pytest.raises(ValueError) as built:
                        HomQuery(n, delta, mu, mu)
                    with pytest.raises(ValueError) as ranked:
                        gram_rank(n, delta, mu)
                    assert str(ranked.value) == str(built.value)
                    with pytest.raises(ValueError) as celled:
                        CellModule(n, delta, mu)
                    assert str(celled.value) == str(built.value)


def test_dimension_cap():
    with mock.patch.dict(os.environ, {"BRAUER_MAX_DIM": "10"}):
        with pytest.raises(RuntimeError):
            central_scalar(5, 1, P(1))
    assert central_scalar(5, 1, P(1)) == 0 - 2 * 0  # fine once uncapped


def test_central_scalar():
    for delta in (-2, -1, 1, 2, 3):
        assert central_scalar(2, delta, EMPTY) == 1 - delta
    assert central_scalar(3, 2, P(2, 1)) == 0
    assert central_scalar(4, 1, P(2, 2)) == 0
    assert central_scalar_value(4, 1, EMPTY) == 0
    with pytest.raises(ValueError):
        central_scalar(2, 1, P(1))


def test_gram_rank_values():
    assert gram_rank(3, 2, P(2, 1)) == 2
    assert gram_rank(2, 1, EMPTY) == 1
    assert gram_rank(2, -1, EMPTY) == 1
    # on top weights the form restricts to the nondegenerate Specht form
    for n in (3, 4):
        for mu in partitions_of(n):
            for delta in (-1, 0, 2):
                assert gram_rank(n, delta, mu) == specht_dim(mu)


def test_gram_rank_matches_the_whole_gram_matrix():
    # the rank read off the symmetrizer images through the caps equals
    # the rank of the whole Gram matrix, Specht form included
    count = 0
    for n in range(8):
        for delta in DELTAS:
            for mu in weights(n, delta).weights:
                expected = rank_of(gram_matrix(CellModule(n, delta, mu)))
                assert gram_rank(n, delta, mu) == expected, (n, delta, mu)
                count += 1
    assert count == 434


def test_gram_rank_at_dimension_2520(monkeypatch):
    # rank_of(gram_matrix(...)) of the reference gave 944 here too, in
    # minutes; the symmetrizer images take about a second
    monkeypatch.setenv("BRAUER_MAX_DIM", "2520")
    assert cell_dim(9, P(2, 1)) == 2520
    assert gram_rank(9, 1, P(2, 1)) == 944


def test_even_lr_sum():
    assert even_lr_sum(P(2), EMPTY) == 1
    assert even_lr_sum(P(1, 1), EMPTY) == 0
    assert even_lr_sum(P(2, 2), EMPTY) == 1
    assert even_lr_sum(P(3, 1), P(1, 1)) == 1
    assert even_lr_sum(P(1), P(2)) == 0  # negative gap
    assert even_lr_sum(P(2, 1), EMPTY) == 0  # odd gap
    assert even_lr_sum(P(2), P(2)) == 1  # empty eta


def test_even_lr_sum_matches_strip_chains():
    # the one tableau count against the strip-chain coefficient summed
    # over even eta, on every mu inside every lam of size at most 12
    pairs = nonzero = 0
    for k in range(13):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                want = sum(lr_coefficient(mu, eta, lam)
                           for eta in partitions_of(k - mu.size) if is_even(eta))
                assert even_lr_sum(lam, mu) == want, (lam, mu)
                pairs += 1
                nonzero += want > 0
    assert (pairs, nonzero) == (8855, 2722)


def test_restriction_multiplicity():
    hits = {lam: restriction_multiplicity(4, 1, EMPTY, lam)
            for lam in partitions_of(4)}
    assert hits == {P(4): 1, P(2, 2): 1, P(3, 1): 0, P(2, 1, 1): 0,
                    P(1, 1, 1, 1): 0}
    with pytest.raises(ValueError):
        restriction_multiplicity(4, 1, EMPTY, P(3))


def probe_traces(cell) -> dict:
    """Trace of each cycle type's permutation diagram, one unit vector
    per basis element through the full action: the reading that
    _perm_traces replaced."""
    out = {}
    for rho in partitions_of(cell.n):
        d = perm_diagram(tuple(x - 1 for x in _cycle_rep(rho)[1:]))
        out[rho] = sum(cell.flatten(act_diagram(cell, d, to_blocks(cell, {j: 1}))).get(j, 0)
                       for j in range(cell.dim))
    return out


def test_perm_traces_match_probe():
    count = 0
    for n in range(7):
        for delta in DELTAS:
            for mu in weights(n, delta).weights:
                cell = CellModule(n, delta, mu)
                assert _perm_traces(n, mu) == probe_traces(cell), cell
                count += 1
    assert count == 278


def test_restriction_multiplicity_delta_independent():
    # permutation diagrams close no loops, so the trace route cannot
    # depend on delta
    for lam in partitions_of(4):
        vals = {restriction_multiplicity(4, delta, P(2), lam)
                for delta in (-2, 0, 1, 3)}
        assert len(vals) == 1


def test_hom_dim_fixed_values():
    assert hom_dim(HomQuery(3, 2, P(2, 1), P(2, 1))) == 1
    assert hom_dim(HomQuery(3, 2, P(2, 1), P(1, 1, 1))) == 0
    for delta in (-2, -1, 1, 2, 3):
        assert hom_dim(HomQuery(2, delta, P(1, 1), EMPTY)) == 0
    assert hom_dim(HomQuery(4, 1, P(2, 2), EMPTY)) == 1
    assert hom_dim(HomQuery(4, 2, P(2, 2), EMPTY)) == 0
    assert hom_dim(HomQuery(4, -2, P(3, 1), P(1, 1))) == 1


def generators(m: int) -> list[BrauerDiagram]:
    """s_1, ..., s_{m-1} and the hook X_{1,2}, which generate B_m."""
    gens = [perm_diagram(transposition(m, i - 1, i))
            for i in range(1, m)]
    return gens + [hook_diagram(m, 1, 2)]


def intertwiner_dim(src, tgt, gen_pairs) -> int:
    """Dimension of the space of matrices M with M*src(g) = tgt(g')*M for
    every pair (g, g'), one unknown per entry of M."""
    eqs = []
    for g, g_tgt in gen_pairs:
        a_cols = matrix_of(src, g)
        b_cols = matrix_of(tgt, g_tgt)
        b_rows: dict = {}
        for c, col in enumerate(b_cols):
            for a, val in col.items():
                b_rows.setdefault(a, {})[c] = val
        for b in range(src.dim):
            for a in range(tgt.dim):
                row: dict = {}
                for c, val in a_cols[b].items():
                    row[(a, c)] = val
                for c, val in b_rows.get(a, {}).items():
                    row[(c, b)] = row.get((c, b), 0) - val
                row = {k: v for k, v in row.items() if v}
                if row:
                    eqs.append(row)
    return src.dim * tgt.dim - rank_of(eqs)


def reference_hom_dim(n: int, delta: int, lam: Partition,
                      mu: Partition) -> int:
    """Hom dimension by the full intertwiner solve over the generators."""
    gens = generators(n)
    return intertwiner_dim(CellModule(n, delta, lam), CellModule(n, delta, mu),
                           zip(gens, gens))


def test_hom_routes_agree():
    # the level-|lam| symmetrizer route must reproduce the full
    # intertwiner solve at level n on every pair that reaches it,
    # delta = 0 included
    count = 0
    for n in (2, 3, 4, 5):
        for delta in DELTAS:
            ws = weights(n, delta).weights
            for lam in ws:
                for mu in ws:
                    if (central_scalar_value(n, delta, lam)
                            != central_scalar_value(n, delta, mu)
                            or lam.size == mu.size == n):
                        continue
                    got = hom_dim(HomQuery(n, delta, lam, mu))
                    want = reference_hom_dim(n, delta, lam, mu)
                    assert got == want, (n, delta, lam, mu, got, want)
                    count += 1
    assert count == 102


def padded_diagram(n: int, k: int, pairs) -> BrauerDiagram:
    """Extend a pairing of the first k strands to n strands without loops.

    North arcs (k+1,k+2), ..., (n-1,n) and south arcs (k,k+1), ...,
    (n-2,n-1) fill the rest, and the pairing's south end k drops to south
    node n.  This is A*d*B with B*A the identity of B_k and no loop
    closed, so d -> pad(d) embeds B_k in e*B_n*e for e = A*B at every
    delta.  With k = 0 there is no strand to route; nested arcs pad then.
    """
    if k == 0:
        full = [(a, a + 1) for a in range(1, n, 2)]
        full += [(-a, -(a + 1)) for a in range(1, n, 2)]
        return BrauerDiagram(n, n, full)
    full = [tuple(-n if x == -k else x for x in p) for p in pairs]
    full += [(a, a + 1) for a in range(k + 1, n, 2)]
    full += [(-a, -(a + 1)) for a in range(k, n - 1, 2)]
    return BrauerDiagram(n, n, full)


def pad(d: BrauerDiagram, n: int) -> BrauerDiagram:
    return padded_diagram(n, d.n, d.sorted_pairs())


def test_padding_is_a_loop_free_embedding():
    # pad(a)*pad(b) = delta^loops(ab) * pad(ab): the padding is
    # multiplicative and closes no loop of its own, so it embeds B_k at
    # every delta, 0 included
    for k in (1, 2, 3):
        pool = list(all_diagrams(k))
        for n in (k, k + 2, k + 4):
            for a in pool:
                for b in pool:
                    ab, loops = concat(a, b)
                    assert concat(pad(a, n), pad(b, n)) == (pad(ab, n), loops)
    for n in range(3, 8):
        (bar,) = e_bar(n, 0).terms
        assert pad(identity_diagram(n - 2), n) == bar


def full_scan(n: int, delta: int, lam: Partition, mu: Partition,
              v_seeds=None):
    """The symmetrizer route at level n, without localisation or symmetry
    cuts: the padded Young symmetrizer on every basis vector (or on
    v (x) x for every tableau x and the one-row diagrams v in v_seeds),
    then all k(k-1)/2 padded hooks.  Returns the Hom dimension and the
    basis of W it found."""
    k = lam.size
    bound = even_lr_sum(lam, mu)
    if bound == 0:
        return 0, []
    cell = CellModule(n, delta, mu)

    def pad_perm(p):
        return padded_diagram(n, k, [(i + 1, -(p[i] + 1)) for i in range(k)])

    def group_pass(vec, blocks, sign):
        for pts in blocks:
            for j in range(1, len(pts)):
                acc = vec
                for i in range(j):
                    tr = transposition(k, pts[i], pts[j])
                    moved = act_diagram(cell, pad_perm(tr), to_blocks(cell, vec))
                    acc = vec_add(acc, cell.flatten(moved), sign)
                vec = acc
        return vec

    f = cell.specht.dim
    if v_seeds is None:
        v_seeds = range(len(cell.v_list))
    ident = pad_perm(identity(k))
    rows, cols = shape_blocks(lam)
    ech = Echelon()
    w_basis = []
    for b in (v_idx * f + x for v_idx in v_seeds for x in range(f)):
        v = cell.flatten(act_diagram(cell, ident, to_blocks(cell, {b: 1})))
        v = group_pass(v, rows, 1)
        v = group_pass(v, cols, -1)
        if v and ech.add(v):
            w_basis.append(v)
            if ech.rank == bound:
                break
    assert ech.rank <= bound
    stacked = []
    for w in w_basis:
        image = {}
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                h = pad(hook_diagram(k, i, j), n)
                for key, val in cell.flatten(act_diagram(cell, h, to_blocks(cell, w))).items():
                    image[(i, j, key)] = val
        stacked.append(image)
    return len(w_basis) - rank_of(stacked), w_basis


def symmetrizer_pairs(max_n: int):
    """(n, delta, lam, mu) for every pair that reaches the symmetrizer
    route, 2 <= n <= max_n, at the six test deltas."""
    for n in range(2, max_n + 1):
        for delta in DELTAS:
            ws = weights(n, delta).weights
            for lam in ws:
                for mu in ws:
                    if (central_scalar_value(n, delta, lam)
                            == central_scalar_value(n, delta, mu)
                            and not lam.size == mu.size == n):
                        yield n, delta, lam, mu


def check_symmetry_cuts(n, delta, lam, mu) -> bool:
    """hom_dim equals full_scan; at |lam| = n the orbit seeds give the
    rank of W that every seed gives; every hook inside one column kills
    W.  Returns whether the orbit seeds were checked."""
    want, w_basis = full_scan(n, delta, lam, mu)
    assert hom_dim(HomQuery(n, delta, lam, mu)) == want, (n, delta, lam, mu)
    cell = CellModule(n, delta, mu)
    for col in _filling(lam)[2]:
        for a, i in enumerate(col):
            for j in col[a + 1:]:
                h = pad(hook_diagram(lam.size, i, j), n)
                for w in w_basis:
                    assert cell.flatten(act_diagram(cell, h, to_blocks(cell, w))) == {}, \
                        (n, delta, lam, mu, i, j)
    if lam.size != n:
        return False
    reps = _orbit_reps(cell.v_list, lam)
    _, w_orbit = full_scan(n, delta, lam, mu, reps)
    assert len(w_orbit) == len(w_basis), (n, delta, lam, mu)
    return True


def test_symmetry_cuts_match_full_scan():
    # localisation to level |lam|, orbit seeds and one hook per column
    # pair give the answer of the padded level-n full scan on every pair
    # that reached the symmetrizer route before localisation
    count = orbit_count = 0
    for n, delta, lam, mu in symmetrizer_pairs(6):
        orbit_count += check_symmetry_cuts(n, delta, lam, mu)
        count += 1
    assert (count, orbit_count) == (227, 52)
    # here seeding from every second orbit alone misses part of W
    assert check_symmetry_cuts(8, -1, P(3, 3, 1, 1), P(1, 1, 1, 1))


def young_sum(cell, vec, blocks, signed):
    """Sum over every element of the Young subgroup on blocks (signed
    when signed = -1), applied to vec one permutation diagram at a time."""
    out = {}
    for p in block_perms(blocks, cell.n):
        out = vec_add(out, cell.flatten(act_diagram(cell, perm_diagram(p), to_blocks(cell, vec))),
                      sign(p) if signed < 0 else 1)
    return out


def invariant_dim(mu: Partition, a: tuple[int, ...]) -> int:
    """dim of the Specht vectors fixed by the Young subgroup on blocks of
    sizes a, as the average of the character of mu over the subgroup."""
    blocks, start = [], 0
    for size in a:
        blocks.append(list(range(start, start + size)))
        start += size
    group = list(block_perms(blocks, mu.size))
    total = sum(mn_character(mu, cycle_type(p)) for p in group)
    assert total % len(group) == 0
    return total // len(group)


def dominates(mu: Partition, nu: Partition) -> bool:
    return all(sum(mu.parts[:i]) >= sum(nu.parts[:i])
               for i in range(1, nu.rows + 1))


def test_invariant_seeds():
    # at level |lam|, the seeds v (x) y of each row-group orbit number
    # dim (S^mu)^(Y_a), zero unless mu dominates sort(a); each has a
    # nonzero row image; and their symmetrizer images span a W of the
    # rank that every seed of the padded level-n scan gives; with
    # |mu| > |lam| there is no module at level |lam|, and W is 0
    count = seeded = 0
    for n, delta, lam, mu in symmetrizer_pairs(6):
        count += 1
        k = lam.size
        _, w_basis = full_scan(n, delta, lam, mu)
        if mu.size > k:
            assert w_basis == []
            continue
        cell = CellModule(k, delta, mu)
        row_of = _filling(lam)[0]
        row_bl, col_bl = shape_blocks(lam)
        ech = Echelon()
        for v_idx, seeds in zip(_orbit_reps(cell.v_list, lam),
                                _orbit_seeds(cell, lam), strict=True):
            a = [0] * lam.rows
            for node in cell.free_nodes[v_idx]:
                a[row_of[node]] += 1
            a = tuple(a)
            assert len(seeds) == invariant_dim(mu, a), (n, delta, lam, mu, a)
            if not dominates(mu, Partition(sorted(a, reverse=True))):
                assert seeds == [], (n, delta, lam, mu, a)
            for seed in seeds:
                row_image = young_sum(cell, cell.flatten(seed), row_bl, 1)
                assert row_image, (n, delta, lam, mu, seed)
                ech.add(young_sum(cell, row_image, col_bl, -1))
        assert ech.rank == len(w_basis), (n, delta, lam, mu)
        seeded += 1
    assert (count, seeded) == (227, 163)


def unpruned_signed_sum(cell, vec, blocks):
    """The signed Young-subgroup sum on blocks of nodes by swap_sum coset
    steps alone, dropping no block first."""
    for pts in blocks:
        for j in range(1, len(pts)):
            vec = cell.swap_sum(vec, [(pts[i], pts[j]) for i in range(j)], -1)
    return vec


def test_row_internal_seeds_and_column_drop():
    # on every Hom-route query with a nonzero bound and |lam| <= 8: the
    # signed column sum that drops in-column arcs equals the unpruned one
    # on every seed's row image, the row-internal orbits come first, and
    # their seeds alone reach the bound
    queries = seeds = 0
    for delta in DELTAS:
        for k in range(1, 9):
            for lam in partitions_of(k):
                for mu in weights(k, delta).weights:
                    if (mu.size == k or central_scalar_value(k, delta, lam)
                            != central_scalar_value(k, delta, mu)):
                        continue
                    bound = even_lr_sum(lam, mu)
                    if not bound:
                        continue
                    queries += 1
                    cell = CellModule(k, delta, mu)
                    row_of, row_bl, col_bl = _filling(lam)
                    ech = Echelon()
                    internal = []
                    for v_idx, orbit in zip(_orbit_reps(cell.v_list, lam),
                                            _orbit_seeds(cell, lam), strict=True):
                        internal.append(all(row_of[a] == row_of[b]
                                            for a, b in cell.v_list[v_idx].arcs))
                        for seed in orbit:
                            seeds += 1
                            u = _group_sum(cell, seed, row_bl, 1)
                            w = _group_sum(cell, u, col_bl, -1)
                            assert w == unpruned_signed_sum(cell, u, col_bl), (delta, lam, mu)
                            if internal[-1] and w:
                                ech.add(cell.flatten(w))
                    assert internal == sorted(internal, reverse=True), (delta, lam, mu)
                    assert ech.rank == bound, (delta, lam, mu)
    assert (queries, seeds) == (104, 668)


def test_cap_applies_at_source_level(capsys, monkeypatch):
    # the query is answered at level |lam| = 6, where the cell module at
    # (2,2) has dimension 30; at level 8 it has 420, over the default cap
    monkeypatch.delenv("BRAUER_MAX_DIM", raising=False)
    lam, mu = P(3, 2, 1), P(2, 2)
    assert cell_dim(8, mu) == 420 and cell_dim(6, mu) == 30
    assert hom_dim(HomQuery(8, 1, lam, mu)) == 1
    assert full_scan(8, 1, lam, mu)[0] == 1
    assert cli.run(["hom-dim", "--n", "8", "--delta", "1", "3,2,1", "2,2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cap_checked_on_a_repeated_query(capsys, monkeypatch):
    # the second query finds its module in the oracle's memo; the cap is
    # read again all the same
    argv = ["hom-dim", "--n", "8", "--delta", "1", "3,2,1", "2,2"]
    q = HomQuery(8, 1, P(3, 2, 1), P(2, 2))
    monkeypatch.setenv("BRAUER_MAX_DIM", "30")
    assert hom_dim(q) == 1
    monkeypatch.setenv("BRAUER_MAX_DIM", "29")
    with pytest.raises(RuntimeError, match="cap 29"):
        hom_dim(q)
    assert cli.run(argv) == 2
    assert "cap 29" in capsys.readouterr().err


def test_trace_cache_obeys_cap_and_ignores_delta(monkeypatch):
    # the traces of one (n, mu) are built once for every delta, since a
    # permutation diagram closes no loop; a cached answer still reads
    # the cap again
    _perm_traces.cache_clear()
    monkeypatch.setenv("BRAUER_MAX_DIM", "400")
    assert cell_dim(6, P(2)) == 45
    assert restriction_multiplicity(6, 1, P(2), P(6)) == 1
    assert restriction_multiplicity(6, 2, P(2), P(4, 2)) == 2
    assert _perm_traces.cache_info().misses == 1
    monkeypatch.setenv("BRAUER_MAX_DIM", "10")
    for delta in (1, 2):
        with pytest.raises(RuntimeError, match="cap 10"):
            restriction_multiplicity(6, delta, P(2), P(4, 2))


def test_orbit_reps_count():
    # the n = 10 query (4,3,2,1) -> (3,2,1) seeds from 34 of 630 one-row
    # diagrams; with no arcs, or a one-row lam, there is one orbit; with
    # one node per row every diagram is its own orbit
    assert len(_orbit_reps(enumerate_v(10, 2), P(4, 3, 2, 1))) == 34
    assert _orbit_reps(enumerate_v(5, 0), P(3, 2)) == [0]
    assert _orbit_reps(enumerate_v(6, 3), P(6)) == [0]
    assert len(_orbit_reps(enumerate_v(4, 1), P(1, 1, 1, 1))) == 6


def test_hom_adjacent_weights_at_most_one():
    for n, delta in [(4, 1), (4, -1), (5, 2)]:
        ws = weights(n, delta).weights
        for lam in ws:
            for mu in ws:
                if lam.contains(mu) and lam.size - mu.size == 2:
                    assert hom_dim(HomQuery(n, delta, lam, mu)) <= 1


def test_hom_targets_receive_maps():
    for size in range(2, 7):
        for lam in partitions_of(size):
            for delta in DELTAS:
                mu = hom_target(lam, delta)
                if mu is None or (delta == 0 and mu == EMPTY):
                    continue
                q = HomQuery(size, delta, lam, mu)
                assert hom_dim(q) >= 1, (lam, mu, delta)


def embed(d: BrauerDiagram, n: int) -> BrauerDiagram:
    """The diagram of the smaller algebra with strand n left straight."""
    return BrauerDiagram(n, n, list(d.pairs) + [(n, -n)])


def restricted_hom_dim(n: int, delta: int, src_w: Partition,
                       tgt_w: Partition) -> int:
    """Maps of modules over the algebra on n-1 strands, from its cell at
    src_w into the level-n cell at tgt_w viewed by restriction."""
    return intertwiner_dim(CellModule(n - 1, delta, src_w),
                           CellModule(n, delta, tgt_w),
                           [(g, embed(g, n)) for g in generators(n - 1)])


def test_restricted_hom_one_dimensional():
    # remove two removable boxes whose contents sum to 1 - delta; the
    # one-level restriction then receives exactly one map from the cell
    # labelled by the intermediate shape
    count = 0
    for n in (3, 4, 5):
        for lam in partitions_of(n):
            remo = removable_boxes(lam)
            for bi in remo:
                for bj in remo:
                    if bi == bj:
                        continue
                    delta = 1 - bi.content - bj.content
                    lam1 = remove_box(lam, bi)
                    lam2 = remove_box(lam1, bj)
                    if delta == 0 and lam2 == EMPTY:
                        continue
                    assert restricted_hom_dim(n, delta, lam1, lam2) == 1, \
                        (lam, bi, bj, delta)
                    count += 1
    assert count == 16


def test_block_graph():
    g = block_graph(4, 1)
    assert (P(2, 2), EMPTY) in g.edges
    assert all(a != b for a, b in g.edges)
    assert g.vertices.weights == weights(4, 1).weights
    assert block_graph(2, 2).edges == ()


def test_verify_blocks_passes():
    for n, delta in [(4, 1), (2, 2), (5, -1)]:
        report = verify_blocks(n, delta)
        assert report["n"] == n and report["delta"] == delta
        assert report["checks"]
        failing = [c for c in report["checks"] if c["status"] != "pass"]
        assert failing == []
    names = {c["name"] for c in verify_blocks(4, 1)["checks"]}
    assert names == {"unique-minimal", "constant-central-scalar",
                     "hom-edges-balanced", "descent-chain"}


def test_verify_blocks_asks_each_fact_once(monkeypatch):
    # the descent chains read minimality and targets from verify_blocks'
    # own tables: is_minimal runs once per weight, hom_target once per
    # non-minimal weight
    for delta in DELTAS:
        minimal, targets = Counter(), Counter()
        real_minimal, real_target = oracle.is_minimal, oracle.hom_target

        def counting_minimal(lam, d):
            minimal[lam] += 1
            return real_minimal(lam, d)

        def counting_target(lam, d):
            targets[lam] += 1
            return real_target(lam, d)

        with monkeypatch.context() as m:
            m.setattr(oracle, "is_minimal", counting_minimal)
            m.setattr(oracle, "hom_target", counting_target)
            report = verify_blocks(7, delta)
        assert all(c["status"] == "pass" for c in report["checks"])
        ws = weights(7, delta).weights
        lows = [w for w in ws if real_minimal(w, delta)]
        assert minimal == Counter(ws), delta
        assert targets == Counter(w for w in ws if w not in lows), delta
        assert sum(c["name"] == "descent-chain" for c in report["checks"]) \
            == len(ws) - len(lows)


def test_no_cell_module_outlives_a_run(monkeypatch):
    # block_graph and verify_blocks drop every cell module they build, and
    # verify_blocks builds each module once, with arcs: the Hom route
    # reads its Young invariants off the target module
    built = []
    init = CellModule.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(((self.n, self.delta, self.mu), weakref.ref(self)))

    monkeypatch.setattr(CellModule, "__init__", recording_init)
    report = verify_blocks(7, 0)
    assert all(c["status"] == "pass" for c in report["checks"])
    counts = Counter(key for key, _ in built)
    assert counts and set(counts.values()) == {1}, counts
    assert all(n > mu.size for n, _, mu in counts), counts
    gc.collect()
    assert [key for key, ref in built if ref() is not None] == []

    built.clear()
    block_graph(6, 1)
    gc.collect()
    assert built
    assert [key for key, ref in built if ref() is not None] == []


def test_route_walks_no_permutation_diagram(monkeypatch):
    # the Hom route moves vectors only through the closed-form tables of
    # transpositions and hooks: on each route query of n <= 6 the move
    # kernel is keyed by pairs of nodes 1..k and hook keys on them, never
    # by a diagram; restriction reads its traces in closed form, through
    # no table
    keys = Counter()
    off_nodes = []
    add_moved = CellModule._add_moved

    def recording_add_moved(self, out, vec, key, fill, c):
        if isinstance(key, BrauerDiagram):
            keys["diagram"] += 1
        else:
            keys["hook" if key[0] == "hook" else "swap"] += 1
            i, j = key[-2:]
            if not 1 <= i < j <= self.n:
                off_nodes.append((self.n, key))
        return add_moved(self, out, vec, key, fill, c)

    monkeypatch.setattr(CellModule, "_add_moved", recording_add_moved)
    _last_cell.cache_clear()
    queries = 0
    try:
        for n in range(7):
            for delta in DELTAS:
                ws = weights(n, delta).weights
                for lam in ws:
                    for mu in ws:
                        if (mu.size < lam.size and even_lr_sum(lam, mu)
                                and central_scalar_value(n, delta, lam)
                                == central_scalar_value(n, delta, mu)):
                            hom_dim(HomQuery(n, delta, lam, mu))
                            queries += 1
    finally:
        _last_cell.cache_clear()
    assert queries == 41
    assert set(keys) == {"hook", "swap"}, keys
    assert not off_nodes, off_nodes

    keys.clear()
    _perm_traces.cache_clear()
    queries = 0
    try:
        for n in range(1, 7):
            for mu in weights(n, 1).weights:
                for lam in partitions_of(n):
                    restriction_multiplicity(n, 1, mu, lam)
                    queries += 1
    finally:
        _last_cell.cache_clear()
        _perm_traces.cache_clear()
    assert queries == 345
    assert not keys, keys
