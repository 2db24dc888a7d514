from fractions import Fraction
from functools import lru_cache

import pytest

from brauerblocks import linalg, specht
from brauerblocks.linalg import SparseVec
from brauerblocks.partitions import (InvariantError, Partition, mn_character,
                                     partitions_of, specht_dim,
                                     standard_tableaux)
from brauerblocks.specht import SpechtModule, build_specht, row_word
from references import (_column_blocks, _polytabloid, _signed_perms, all_perms,
                        block_perms, compose, dot, identity, peeled_specht,
                        sign, specht_form, tabloid_of)


@lru_cache(maxsize=None)
def module(lam: Partition):
    return build_specht(lam)


def act_perm(module: SpechtModule, sigma: tuple[int, ...], vec: SparseVec) -> SparseVec:
    """Left action: act_perm(s, act_perm(t, v)) = act_perm(compose(s, t), v)."""
    for j in vec:
        if not 0 <= j < module.dim:
            raise ValueError(f"coordinate {j} outside dimension {module.dim}")
    return linalg.mat_vec(module.perm_matrix(sigma), vec)


def cycle_rep(rho: Partition) -> tuple[int, ...]:
    out = []
    start = 0
    for p in rho.parts:
        out += [start + (k + 1) % p for k in range(p)]
        start += p
    return tuple(out)


def trace(cols) -> Fraction:
    return sum((col.get(j, Fraction(0)) for j, col in enumerate(cols)),
               Fraction(0))


def test_tabloid_and_row_word():
    tab = ((1, 3), (2,))
    assert row_word(tab) == (1, 3, 2)
    assert tabloid_of(tab, 3) == (0, 1, 0)


def test_polytabloid_leading_tabloid():
    # the reference peeled_specht peels generator-matrix coordinates off
    # this unitriangularity: {t} leads e_t with coefficient 1, keys distinct
    for n in range(8):
        for lam in partitions_of(n):
            leads = set()
            tables = _signed_perms(lam)
            for tab in standard_tableaux(lam):
                poly = _polytabloid(tab, n, tables)
                key = tabloid_of(tab, n)
                assert min(poly) == key and poly[key] == 1
                leads.add(key)
            assert len(leads) == specht_dim(lam)


def whole_group_polytabloid(tab, m: int) -> SparseVec:
    """e_t summed over the whole column group at once, each element's
    sign worked out from its cycles."""
    out: SparseVec = {}
    base = tabloid_of(tab, m)
    for sigma in block_perms(_column_blocks(tab), m):
        key = [0] * m
        for p in range(m):
            key[sigma[p]] = base[p]
        key_t = tuple(key)
        out[key_t] = out.get(key_t, 0) + sign(sigma)
    return {k: v for k, v in out.items() if v}


def test_straightening_matches_the_peel():
    # Garnir straightening on tableaux gives the basis and generator
    # matrices of the polytabloid peel on every shape of 0..8 boxes
    count = 0
    for n in range(9):
        for lam in partitions_of(n):
            md, ref = module(lam), peeled_specht(lam)
            assert md.basis == ref.basis, lam
            assert md.gen_matrices == ref.gen_matrices, lam
            count += 1
    assert count == 67


def test_straightening_refuses_a_missing_basis_tableau(monkeypatch):
    # a column-sorted tableau with increasing rows that is not in the
    # basis is an InvariantError, not a StopIteration or a wrong column
    lam = Partition((2, 1))
    drop = max(standard_tableaux(lam), key=row_word)
    monkeypatch.setattr(specht, "standard_tableaux",
                        lambda mu: [t for t in standard_tableaux(mu) if t != drop])
    monkeypatch.setattr(specht, "specht_dim", lambda mu: 1)
    with pytest.raises(InvariantError):
        build_specht(lam)


def test_polytabloid_matches_whole_group_sum():
    # the column-by-column sum equals the sum over the whole column
    # group on every standard tableau of 0..8 boxes
    count = 0
    for n in range(9):
        for lam in partitions_of(n):
            tables = _signed_perms(lam)
            for tab in standard_tableaux(lam):
                assert _polytabloid(tab, n, tables) == whole_group_polytabloid(tab, n), tab
                count += 1
    assert count == 1116


def full_form(md: SpechtModule) -> list[list[int]]:
    """The form over all f^2 ordered pairs of polytabloids, with no
    mirroring of the symmetric half."""
    tables = _signed_perms(md.mu)
    polys = [_polytabloid(tab, md.mu.size, tables) for tab in md.basis]
    return [[dot(a, b) for b in polys] for a in polys]


def test_form_matches_full_pairing():
    count = 0
    for n in range(9):
        for lam in partitions_of(n):
            assert specht_form(module(lam)) == full_form(module(lam)), lam
            count += 1
    assert count == 67


def test_dims():
    for n in range(6):
        for lam in partitions_of(n):
            assert module(lam).dim == specht_dim(lam)


def test_perm_matrix_identity_and_errors():
    md = module(Partition((2, 1)))
    assert md.perm_matrix(identity(3)) == linalg.identity_cols(2)
    with pytest.raises(ValueError):
        md.perm_matrix(identity(4))
    with pytest.raises(ValueError):
        act_perm(md, identity(3), {5: Fraction(1)})


def test_composition_convention(rng):
    md = module(Partition((2, 1, 1)))
    pool = list(all_perms(4))
    for _ in range(10):
        s, t = rng.choice(pool), rng.choice(pool)
        assert linalg.mat_mul(md.perm_matrix(s), md.perm_matrix(t)) == \
            md.perm_matrix(compose(s, t))


def test_braid_relations():
    # the Coxeter relations of S_n on every shape of 0..6 boxes: s_i^2 = 1,
    # the braid relation, and commutation of s_i, s_j with |i - j| >= 2
    mul, count = linalg.mat_mul, 0
    for n in range(7):
        for lam in partitions_of(n):
            md = module(lam)
            gens = md.gen_matrices
            one = linalg.identity_cols(md.dim)
            for g in gens:
                assert mul(g, g) == one
            for i in range(len(gens) - 1):
                a, b = gens[i], gens[i + 1]
                assert mul(a, mul(b, a)) == mul(b, mul(a, b))
                for j in range(i + 2, len(gens)):
                    assert mul(a, gens[j]) == mul(gens[j], a)
            count += 1
    assert count == 30


def test_traces_match_characters():
    for n in range(1, 8):
        for lam in partitions_of(n):
            md = module(lam)
            for rho in partitions_of(n):
                got = trace(md.perm_matrix(cycle_rep(rho)))
                assert got == mn_character(lam, rho)


def test_form_invariance(rng):
    md = module(Partition((2, 2)))
    form = specht_form(md)
    pool = list(all_perms(4))
    for _ in range(6):
        s = rng.choice(pool)
        cols = md.perm_matrix(s)
        for a in range(md.dim):
            for b in range(md.dim):
                lhs = sum(cols[a].get(r, 0) * form[r][q] * cols[b].get(q, 0)
                          for r in range(md.dim) for q in range(md.dim))
                assert lhs == form[a][b]


def test_form_nondegenerate_small():
    md = module(Partition((3, 1)))
    assert linalg.rank_of([
        {j: v for j, v in enumerate(row) if v} for row in specht_form(md)
    ]) == md.dim


def test_act_perm_matches_matrix():
    md = module(Partition((2, 1)))
    sigma = (1, 2, 0)
    vec = {0: Fraction(2), 1: Fraction(-1)}
    assert act_perm(md, sigma, vec) == linalg.mat_vec(md.perm_matrix(sigma), vec)
