import random
from fractions import Fraction
from math import gcd

import pytest

from brauerblocks.linalg import Echelon, rank_of


def fraction_rank_steps(rows, width):
    """Plain Gaussian elimination over Fraction on dense rows: for each
    row in turn, whether it enlarged the span of those before it."""
    basis = []  # (pivot column, row with a 1 there)
    steps = []
    for row in rows:
        vec = [Fraction(row.get(j, 0)) for j in range(width)]
        for p, b in basis:
            if vec[p]:
                c = vec[p]
                vec = [x - c * y for x, y in zip(vec, b)]
        nz = [j for j in range(width) if vec[j]]
        if nz:
            p = nz[0]
            basis.append((p, [x / vec[p] for x in vec]))
        steps.append(bool(nz))
    return steps


def random_rows(rng, count, width):
    """Sparse integer rows with small entries; every third is a
    combination of earlier ones, so some are dependent."""
    rows = []
    for _ in range(count):
        if len(rows) >= 2 and rng.random() < 1 / 3:
            a, b = rng.sample(rows, 2)
            ca, cb = rng.randint(-3, 3), rng.randint(-3, 3)
            row = {}
            for j in a.keys() | b.keys():
                v = ca * a.get(j, 0) + cb * b.get(j, 0)
                if v:
                    row[j] = v
        else:
            row = {}
            for j in rng.sample(range(width), rng.randint(1, width)):
                v = rng.randint(-9, 9)
                if v:
                    row[j] = v
        rows.append(row)
    return rows


def test_echelon_matches_fraction_elimination():
    rng = random.Random(20061)
    for _ in range(300):
        width = rng.randint(1, 8)
        rows = random_rows(rng, rng.randint(1, 10), width)
        ech = Echelon()
        grew = [ech.add(row) for row in rows]
        assert grew == fraction_rank_steps(rows, width), rows
        for pivot, row in ech.rows.items():
            assert all(type(v) is int for v in row.values()), row
            assert min(row) == pivot and row[pivot] > 0
            assert gcd(*row.values()) == 1
            # an installed row lies in the span of the inputs
            assert rank_of(rows + [row]) == ech.rank


def test_echelon_leaves_its_input_alone():
    ech = Echelon()
    first, second = {0: 2, 1: 4}, {0: 2, 2: 3}
    assert ech.add(first) and ech.add(second)
    assert not ech.add({1: 4, 2: -3})  # first - second
    assert first == {0: 2, 1: 4}
    assert second == {0: 2, 2: 3}
    assert ech.rows == {0: {0: 1, 1: 2}, 1: {1: 4, 2: -3}}


def test_echelon_drops_explicit_zeros():
    # a zero entry is never a pivot: the rank counts only nonzero rows,
    # and every stored row's pivot is its least key, with a positive value
    assert rank_of([{0: 0}]) == 0
    assert rank_of([{0: 0, 1: 2}, {0: 0, 1: 3}]) == 1
    ech = Echelon()
    for row in ({0: 0, 1: 2}, {0: 0, 1: 0, 2: -3}, {0: 0, 1: 1, 3: 0}):
        ech.add(row)
    assert ech.rows == {1: {1: 1}, 2: {2: 1}}
    for pivot, row in ech.rows.items():
        assert pivot == min(row) and row[pivot] > 0


def test_echelon_refuses_fractions():
    # Echelon takes integer vectors only: a rational entry that leaks in
    # raises, whether it is the new pivot, meets a stored pivot or rides
    # behind an integer pivot, and the rows stay as they were
    for rows, bad in [([], {0: Fraction(1, 2)}),
                      ([{0: 2, 1: 1}], {0: Fraction(1, 3), 2: 1}),
                      ([], {0: 1, 1: Fraction(2)})]:
        ech = Echelon()
        for row in rows:
            ech.add(row)
        before = dict(ech.rows)
        with pytest.raises(TypeError):
            ech.add(bad)
        assert ech.rows == before
