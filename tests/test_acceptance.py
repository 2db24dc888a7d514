"""End-to-end acceptance checks, one test per criterion.

Each test sweeps the full advertised domain, so this file is slower than
the unit suites; run it last.  Two published example values (in criteria
1 and 7) contradict the definitions they illustrate; those asserts check
the corrected values, and the comment beside each keeps the published
value together with the proof that it is wrong.
"""

import random

from brauerblocks.blocks import (hat_steps, is_balanced, is_minimal,
                                 lattice_predict, maximal_balanced_sub,
                                 weights)
from brauerblocks.cells import CellModule, t_action_check
from brauerblocks.diagrams import all_diagrams
from brauerblocks.linalg import Echelon
from brauerblocks.oracle import HomQuery, central_scalar_value, hom_dim, \
    restriction_multiplicity, verify_blocks
from brauerblocks.partitions import (EMPTY, Box, Partition, partitions_of,
                                     subpartitions)
from references import (box_set, e, e_bar, from_diagram, identity_element,
                        integral_terms, transposition_element, u_diagram,
                        young_symmetrizer)

DELTAS = (-2, -1, 0, 1, 2, 3)


def P(*parts):
    return Partition(parts)


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def test_criterion_01_balanced_fixtures():
    assert is_balanced(P(6, 5, 5, 2, 1), P(6, 4, 1), 2) is True
    assert is_balanced(P(6, 4, 4, 2, 1), P(5, 2, 2), 1) is False
    assert is_balanced(P(5, 4, 4, 4, 4), P(5, 1, 1, 1, 1), 2) is False
    assert is_balanced(P(7, 6, 6, 5, 4, 4, 2), P(7, 6, 6, 5, 4, 4, 2), 1) \
        is True
    # Published value: true.  The pair cannot be balanced.  Each side of a
    # balanced skew pairs content c with 1 - delta - c; at odd delta the
    # self-paired content occurs an even number of times, and at even delta
    # no content pairs with itself.  So both sides have an even number of
    # boxes, and so does |lam| - |mu|; here the sizes 34 and 15 differ by 19
    # (and count(3) = 2 against count(-3) = 1 already fails on lam's side).
    # Criterion 7's maximal balanced subpartition of this very pair,
    # (7,6,4,4,3,2,2) != mu, says the same, and so does the type-D orbit
    # key of Cox, De Visscher and Martin.
    lam, mu = P(7, 6, 6, 5, 4, 4, 2), P(5, 3, 2, 2, 2, 1)
    assert (lam.size - mu.size) % 2 == 1
    assert is_balanced(lam, mu, 1) is False


def test_criterion_02_two_box_homs():
    for n in range(1, 7):
        for delta in (-2, -1, 1, 2, 3):
            ws = weights(n, delta).weights
            for lam in ws:
                for mu in ws:
                    if not (lam.contains(mu) and lam.size - mu.size == 2):
                        continue
                    b1, b2 = (b for b in lam.boxes()
                              if b.col > mu.row(b.row - 1))
                    want = int(b1.content + b2.content == 1 - delta
                               and b1.col != b2.col)
                    got = hom_dim(HomQuery(n, delta, lam, mu))
                    assert got == want, (n, delta, lam, mu, got, want)


def test_criterion_03_hook_sum_action():
    for n in range(1, 7):
        for delta in DELTAS:
            for mu in weights(n, delta).weights:
                c = central_scalar_value(n, delta, mu)
                assert t_action_check(CellModule(n, delta, mu), c), \
                    (n, delta, mu)


def test_criterion_04_restriction_routes_agree():
    # the two routes are compared by an assertion inside the call
    for n in range(1, 8):
        for mu in weights(n, 1).weights:
            for lam in partitions_of(n):
                restriction_multiplicity(n, 1, mu, lam)


def rectangle_skew_pairs(max_size):
    """(lam, mu, a, b, c): mu is lam minus a translated a-by-b rectangle
    whose top-left box has content c."""
    for size in range(1, max_size + 1):
        for lam in partitions_of(size):
            rows = lam.rows
            for r0 in range(rows):
                length = lam.row(r0)
                for b in range(1, rows - r0 + 1):
                    if any(lam.row(r0 + i) != length for i in range(b)):
                        break
                    below = lam.row(r0 + b)
                    for a in range(1, length - below + 1):
                        mu = Partition(
                            [lam.row(i) - (a if r0 <= i < r0 + b else 0)
                             for i in range(rows)])
                        yield lam, mu, a, b, length - a - r0


def test_criterion_05_rectangle_homs():
    assert hom_dim(HomQuery(4, 1, P(2, 2), EMPTY)) == 1
    positives = 0
    for lam, mu, a, b, c in rectangle_skew_pairs(6):
        if (lam.size - mu.size) % 2:
            continue  # odd rectangle: mu is not a weight at this level
        dstar = b + 1 - a - 2 * c  # the one delta satisfying b = d-1+a+2c
        for delta in sorted({*DELTAS, dstar}):
            if delta == 0 and mu.size == 0:
                continue
            want = int(a % 2 == 0 and delta == dstar)
            got = hom_dim(HomQuery(lam.size, delta, lam, mu))
            assert got == want, (lam, mu, a, b, c, delta, got, want)
            positives += want
    assert positives >= 25


def test_criterion_06_block_classification():
    for n in range(1, 7):
        for delta in DELTAS:
            report = verify_blocks(n, delta)
            failing = [c for c in report["checks"] if c["status"] != "pass"]
            assert failing == [], (n, delta, failing)


def test_criterion_07_construction_fixtures():
    assert maximal_balanced_sub(P(7, 6, 6, 5, 4, 4, 2),
                                P(5, 3, 2, 2, 2, 1), 1) == \
        P(7, 6, 4, 4, 3, 2, 2)
    core, steps = hat_steps(P(7, 7, 6, 5, 4, 2, 1, 1), 1)
    assert steps == [("cols", [1]), ("rows", [1, 2]), ("cols", [2]),
                     ("rows", [3])]
    # Published value: the stripped core of (7,6,6,5,2,2) at delta = 1 lies
    # in a single row and the weight is minimal.  Neither can hold.  The
    # witness (7,5,5,5,1,1) sits inside it, and the removed boxes (2,6),
    # (3,6), (5,2), (6,2) have contents 4, 3, -3, -4, which pair off under
    # c -> -c with no content 0: the two are balanced, so the weight is not
    # minimal.  Brute force over all 960 proper subpartitions finds two
    # balanced ones, (7,5,1,1,1,1) and the witness, and the type-D orbit
    # key agrees on both facts.  Since no balanced removal straddles a
    # stripped row or column (see is_minimal), the witness's boxes lie in
    # the core, which so spans at least rows 2, 3, 5 and 6.  Which example
    # the published value meant is not settled: PAPER.md holds only the
    # abstract, and no delta in -6..7 gives this weight a one-row core
    # together with minimality, so a misprinted delta does not explain it.
    lam, witness = P(7, 6, 6, 5, 2, 2), P(7, 5, 5, 5, 1, 1)
    removed = box_set(lam) - box_set(witness)
    assert lam.contains(witness)
    assert sorted(b.content for b in removed) == [-4, -3, 3, 4]
    balanced_below = [mu for mu in subpartitions(lam)
                      if mu != lam and is_balanced(lam, mu, 1)]
    assert witness in balanced_below
    assert is_minimal(lam, 1) is False
    core, _ = hat_steps(lam, 1)
    assert removed <= core.boxes


def test_criterion_08_minimality_brute_force():
    for size in range(11):
        for lam in partitions_of(size):
            for delta in DELTAS:
                brute = not any(
                    is_balanced(lam, mu, delta)
                    for mu in subpartitions(lam)
                    if mu != lam
                    and not (delta == 0 and mu == EMPTY and lam != EMPTY))
                assert is_minimal(lam, delta) == brute, (lam, delta)


def test_criterion_09_isolated_pair_lattice(monkeypatch):
    # no shape of size <= 9 admits a skew of four isolated boxes: such
    # boxes occupy distinct rows and strictly decreasing columns, which
    # already needs the staircase of size 10
    for size in range(10):
        for lam in partitions_of(size):
            for mu in subpartitions(lam):
                if lam.size - mu.size != 4:
                    continue
                boxes = {b for b in lam.boxes()
                         if b.col > mu.row(b.row - 1)}
                assert any(
                    Box(b.row, b.col + 1) in boxes
                    or Box(b.row + 1, b.col) in boxes
                    for b in boxes), (lam, mu)
    # the smallest instance just beyond that bound
    lam, mu, delta = P(4, 3, 2, 1), P(3, 2, 1), 1
    lat = lattice_predict(lam, mu, delta)
    assert lat.m == 2
    nodes = list(lat.nodes.values())
    assert len(nodes) == 4
    for a in nodes:
        for b in nodes:
            assert is_balanced(a, b, delta), (a, b)
    monkeypatch.setenv("BRAUER_MAX_DIM", "20000")
    assert hom_dim(HomQuery(10, delta, lam, mu)) == 1


def test_criterion_10_structural_suites():
    # diagram counts
    for n in range(1, 6):
        assert sum(1 for _ in all_diagrams(n)) == double_factorial(2 * n - 1)

    # sampled associativity and the flip anti-automorphism
    rng = random.Random(0)
    pool = list(all_diagrams(4))
    for delta in (-1, 0, 2):
        for _ in range(8):
            a, b, c = (from_diagram(rng.choice(pool), delta)
                       for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert (a * b).flip() == b.flip() * a.flip()

    # braid and tangle relations
    for delta in (0, 2):
        n = 4
        s = {i: transposition_element(n, delta, i) for i in range(1, n)}
        u = {i: from_diagram(u_diagram(n, i), delta) for i in range(1, n)}
        one = identity_element(n, delta)
        for i in range(1, n):
            assert s[i] * s[i] == one
            assert u[i] * u[i] == delta * u[i]
            assert u[i] * s[i] == u[i] == s[i] * u[i]
        for i in range(1, n - 1):
            assert s[i] * s[i + 1] * s[i] == s[i + 1] * s[i] * s[i + 1]
            assert u[i] * u[i + 1] * u[i] == u[i]
        assert s[1] * s[3] == s[3] * s[1]

    # idempotents: arc projectors, the loop-free cut idempotent, and the
    # classical symmetric-group projectors
    for delta in (-2, 1, 3):
        for n, t in [(2, 1), (4, 1), (4, 2), (5, 2)]:
            el = e(n, delta, t)
            assert el * el == el
    for delta in (-2, 0, 1):
        for n in (3, 4, 5):
            eb = e_bar(n, delta)
            assert eb * eb == eb
    for lam in [P(2), P(1, 1), P(3), P(2, 1), P(2, 2)]:
        y = young_symmetrizer(lam, lam.size, 1)
        assert y * y == y

    # conjugating by the cut idempotent leaves the algebra two strands
    # down; multiplying by it leaves the algebra one strand down
    for n in (4, 5):
        pool = list(all_diagrams(n))
        idx = {d: i for i, d in enumerate(pool)}
        for delta in (0, 1, 2):
            eb = e_bar(n, delta)
            corner, column = Echelon(), Echelon()
            for d in pool:
                el = from_diagram(d, delta)
                corner.add(integral_terms(eb * el * eb, idx))
                column.add(integral_terms(el * eb, idx))
            assert corner.rank == double_factorial(2 * (n - 2) - 1)
            assert column.rank == double_factorial(2 * (n - 1) - 1)

    # the balanced relation is transitive: classes built by union-find
    # are balanced through and through
    pool = [p for k in range(13) for p in partitions_of(k)]
    for delta in DELTAS:
        parent = list(range(len(pool)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                if (pool[i].size + pool[j].size) % 2 == 0 and \
                        is_balanced(pool[i], pool[j], delta):
                    parent[find(i)] = find(j)
        groups = {}
        for i in range(len(pool)):
            groups.setdefault(find(i), []).append(i)
        for members in groups.values():
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    assert is_balanced(pool[members[x]], pool[members[y]],
                                       delta), (pool[members[x]],
                                                pool[members[y]], delta)
