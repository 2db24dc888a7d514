import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from brauerblocks import blocks
from brauerblocks.blocks import (bias, block_key,
                                 block_partition, block_partition_json, hat,
                                 hat_steps, hom_target, is_balanced,
                                 is_minimal, lattice_predict,
                                 maximal_balanced_sub, minimal_weight, weights)
from brauerblocks.partitions import (EMPTY, Box, Partition, partitions_of,
                                     removable_boxes, subpartitions)
import references
from references import _imax_skew, partition_minus

DELTAS = (-2, -1, 0, 1, 2, 3)

partitions = st.lists(st.integers(1, 6), max_size=5).map(
    lambda ps: Partition(sorted(ps, reverse=True)))
deltas = st.sampled_from(DELTAS)


def P(*parts):
    return Partition(parts)


def brute_minimal(lam, delta):
    for mu in subpartitions(lam):
        if mu == lam:
            continue
        if delta == 0 and mu == EMPTY and lam != EMPTY:
            continue
        if is_balanced(lam, mu, delta):
            return False
    return True


def test_balanced_fixed_pairs():
    assert is_balanced(P(6, 5, 5, 2, 1), P(6, 4, 1), 2)
    assert not is_balanced(P(6, 4, 4, 2, 1), P(5, 2, 2), 1)
    assert not is_balanced(P(5, 4, 4, 4, 4), P(5, 1, 1, 1, 1), 2)
    # sizes 34 and 15 differ by an odd number, so the content multisets
    # of the two difference shapes cannot pair up
    assert not is_balanced(P(7, 6, 6, 5, 4, 4, 2), P(5, 3, 2, 2, 2, 1), 1)
    assert is_balanced(P(2, 2), EMPTY, 1)
    assert not is_balanced(P(1, 1), EMPTY, 2)


@given(partitions, deltas)
def test_balanced_reflexive(lam, delta):
    assert is_balanced(lam, lam, delta)


@given(partitions, partitions, deltas)
def test_balanced_symmetric(lam, mu, delta):
    assert is_balanced(lam, mu, delta) == is_balanced(mu, lam, delta)


@given(partitions, partitions, deltas)
def test_balanced_pairs_have_zero_bias(lam, mu, delta):
    if is_balanced(lam, mu, delta):
        assert bias(lam, mu, delta) == 0


SMALL = [lam for k in range(9) for lam in partitions_of(k)]


def test_balanced_matches_box_sets():
    """The balanced test and bias on row lengths equal their Box-set
    references on every ordered pair of partitions of <= 8 boxes."""
    pairs = balanced = 0
    for lam in SMALL:
        for mu in SMALL:
            for delta in range(-4, 6):
                got = is_balanced(lam, mu, delta)
                assert got == references.is_balanced(lam, mu, delta), (lam, mu, delta)
                if (lam.size + mu.size) % 2 == 0:
                    assert (bias(lam, mu, delta)
                            == references.bias(lam, mu, delta)), (lam, mu, delta)
                pairs += 1
                balanced += got
    assert (pairs, balanced) == (44890, 1026)


def test_bias_fixed_values():
    assert bias(P(3, 1), P(3, 1), 5) == 0
    assert bias(P(6, 5, 5, 2, 1), P(6, 4, 1), 2) == 0
    assert bias(P(2), EMPTY, 2) == 2
    with pytest.raises(ValueError):
        bias(P(1), EMPTY, 0)


def test_weights():
    ws = weights(2, 5)
    assert ws.weights == (P(1, 1), P(2), EMPTY)
    assert EMPTY not in weights(2, 0).weights
    assert all(w.size % 2 == 1 for w in weights(5, 1).weights)
    with pytest.raises(ValueError):
        weights(-1, 1)


def test_block_partition_examples():
    bp = block_partition(2, 5)
    assert all(len(members) == 1 for _, members in bp.classes)

    bp = block_partition(2, 2)
    cls = {min(members): set(members) for _, members in bp.classes}
    assert all(len(c) == 1 for c in cls.values())  # (1,1) and 0 split

    bp = block_partition(4, 1)
    merged = next(set(members) for _, members in bp.classes
                  if EMPTY in members)
    assert P(2, 2) in merged


def test_block_partition_classes_cover_weights():
    for n, delta in [(4, 1), (5, -1), (6, 0)]:
        bp = block_partition(n, delta)
        seen = [w for _, members in bp.classes for w in members]
        assert sorted(seen, key=lambda p: (p.size, p.parts)) == \
            sorted(weights(n, delta).weights, key=lambda p: (p.size, p.parts))
        for minimal, members in bp.classes:
            assert minimal == min(members, key=lambda p: (p.size, p.parts))


def key_matches_balanced(lam, mu, delta):
    """The type-D orbit key and the balanced criterion agree on the pair
    at two ranks exceeding both conjugates' lengths."""
    total = lam.size + mu.size
    return all((block_key(lam, delta, r) == block_key(mu, delta, r))
               == is_balanced(lam, mu, delta)
               for r in (total + 1, 2 * total + 1))


@given(partitions, partitions, st.integers(-3, 4))
def test_block_key_matches_balanced(lam, mu, delta):
    assume((lam.size - mu.size) % 2 == 0)
    assert key_matches_balanced(lam, mu, delta), (lam, mu, delta)


def test_block_key_matches_balanced_exhaustive():
    small = [lam for k in range(10) for lam in partitions_of(k)]
    for i, lam in enumerate(small):
        for mu in small[i:]:
            if (lam.size - mu.size) % 2:
                continue
            for delta in range(-3, 5):
                assert key_matches_balanced(lam, mu, delta), (lam, mu, delta)


def test_block_key_rejects_short_rank():
    with pytest.raises(ValueError):
        block_key(P(3, 1), 1, 3)


def test_block_checks_survive_optimize():
    """Under python -O, a balanced test planted to fail still trips
    block_partition's per-class check."""
    code = ("import brauerblocks.blocks as b\n"
            "if __debug__:\n"
            "    raise SystemExit(2)\n"
            "b.is_balanced = lambda *args: False\n"
            "try:\n"
            "    b.block_partition(4, 1)\n"
            "except b.InvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_block_partition_json_shape():
    doc = block_partition_json(block_partition(4, 1))
    assert doc["n"] == 4 and doc["delta"] == 1
    assert {"minimal": [], "members": [[], [2, 2]]} in doc["blocks"]


def i_maximal_balanced_sub(lam: Partition, mu: Partition, delta: int,
                           seed: Box) -> Partition:
    """The balanced subpartition grown from one removable seed box of
    the difference shape lam/mu."""
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    grown = _imax_skew(lam, mu, delta, seed)
    result = partition_minus(lam, grown)
    assert result is not None, (lam, mu, seed, sorted(grown))
    assert is_balanced(lam, result, delta), (lam, result, delta)
    return result


def test_imax_single_skew_all_seeds():
    lam, mu = P(6, 5, 5, 2, 1), P(6, 4, 1)
    in_skew = {b for b in lam.boxes() if b.col > mu.row(b.row - 1)}
    seeds = [b for b in removable_boxes(lam) if b in in_skew]
    assert len(seeds) == 3
    for seed in seeds:
        assert i_maximal_balanced_sub(lam, mu, 2, seed) == P(6, 4, 3)
    assert maximal_balanced_sub(lam, mu, 2) == P(6, 4, 3)


def test_imax_seed_validation():
    lam, mu = P(6, 5, 5, 2, 1), P(6, 4, 1)
    with pytest.raises(ValueError):
        i_maximal_balanced_sub(lam, mu, 2, Box(1, 6))  # outside the skew
    with pytest.raises(ValueError):
        i_maximal_balanced_sub(lam, mu, 2, Box(2, 3))  # not removable
    with pytest.raises(ValueError):
        i_maximal_balanced_sub(mu, lam, 2, Box(1, 6))  # not contained


def test_maximal_balanced_sub_two_box_skew():
    assert is_balanced(P(3, 2), P(3), 2)
    assert maximal_balanced_sub(P(3, 2), P(3), 2) == P(3)


def test_maximal_balanced_sub_whole_diagram():
    assert maximal_balanced_sub(P(2, 2), EMPTY, 1) == EMPTY


def test_maximal_balanced_sub_postconditions():
    # a descent exists here even though the printed pair itself is not
    # balanced (the sizes differ by an odd number)
    lam = P(7, 6, 4, 4, 4, 4, 1, 1)
    out = maximal_balanced_sub(lam, P(4, 3, 3, 3, 3), 2)
    assert lam.contains(out) and out != lam
    assert is_balanced(lam, out, 2)


def test_maximal_balanced_sub_matches_box_sets():
    """The reflection rule equals the Box-set skew growth on every pair
    mu < lam of <= 8 boxes, except where the skew growth returns a
    partition that does not contain mu: there the rule raises.  The
    descent chain hom_target builds on it equals the reference chain on
    every weight of <= 12 boxes."""
    cases = equal = both_raise = outside_mu = 0
    for lam in SMALL:
        for mu in subpartitions(lam):
            if mu == lam:
                continue
            for delta in range(-4, 6):
                cases += 1
                try:
                    old = references.maximal_balanced_sub(lam, mu, delta)
                except ValueError:
                    old = None
                try:
                    new = maximal_balanced_sub(lam, mu, delta)
                except ValueError:
                    new = None
                if old is not None and not old.contains(mu):
                    assert new is None, (lam, mu, delta, new)
                    assert not is_balanced(lam, mu, delta), (lam, mu, delta)
                    outside_mu += 1
                else:
                    assert new == old, (lam, mu, delta, new, old)
                    equal += new is not None
                    both_raise += new is None
    assert (cases, equal, both_raise, outside_mu) == (7950, 915, 7012, 23)

    cases = non_minimal = 0
    for k in range(13):
        for lam in partitions_of(k):
            for delta in range(-4, 6):
                if delta == 0 and lam == EMPTY:
                    continue
                want = None
                if not is_minimal(lam, delta):
                    want = references.maximal_balanced_sub(
                        lam, minimal_weight(lam, delta), delta)
                    non_minimal += 1
                assert hom_target(lam, delta) == want, (lam, delta)
                cases += 1
    assert (cases, non_minimal) == (2719, 674)


def test_maximal_balanced_sub_fixed_values():
    # the Box-set growth returned the empty partition here, which does
    # not contain (2,1,1); no reflection image lies between the two
    assert references.maximal_balanced_sub(P(2, 2, 2), P(2, 1, 1), 2) == EMPTY
    with pytest.raises(ValueError, match="no reflection image"):
        maximal_balanced_sub(P(2, 2, 2), P(2, 1, 1), 2)
    with pytest.raises(ValueError, match="properly contained"):
        maximal_balanced_sub(P(2, 1), P(2, 1), 1)
    # two inclusion-maximal images, (4,4) and (6,2,2); the removed boxes
    # of (4,4) sort first
    assert hom_target(P(6, 4, 2), -2) == P(4, 4)


def test_hat_stripping_log():
    core, steps = hat_steps(P(7, 7, 6, 5, 4, 2, 1, 1), 1)
    assert steps == [("cols", [1]), ("rows", [1, 2]), ("cols", [2]),
                     ("rows", [3])]
    assert core.boxes == frozenset(
        {Box(4, 3), Box(4, 4), Box(4, 5), Box(5, 3), Box(5, 4)})


def test_hat_steps_matches_box_scan():
    """hat_steps, reading partners off the content runs of the region's
    rows, equals the Box-scanning reference on every partition of <= 12
    boxes."""
    cases = 0
    for k in range(13):
        for lam in partitions_of(k):
            for delta in range(-4, 6):
                assert (hat_steps(lam, delta)
                        == references.hat_steps(lam, delta)), (lam, delta)
                cases += 1
    assert cases == 2720


def test_hat_empty():
    assert hat(EMPTY, 0).boxes == frozenset()
    assert hat(EMPTY, 3).boxes == frozenset()


def test_is_minimal_examples():
    assert is_minimal(EMPTY, 1)
    assert not is_minimal(P(2, 2), 1)
    # a smaller balanced weight exists, so this shape is not minimal
    assert is_balanced(P(7, 6, 6, 5, 2, 2), P(7, 5, 5, 5, 1, 1), 1)
    assert not is_minimal(P(7, 6, 6, 5, 2, 2), 1)


def test_is_minimal_agrees_with_brute_force():
    for size in range(8):
        for lam in partitions_of(size):
            for delta in DELTAS:
                assert is_minimal(lam, delta) == brute_minimal(lam, delta), \
                    (lam, delta)


def test_minimal_weight():
    assert minimal_weight(P(2, 2), 1) == EMPTY
    assert minimal_weight(EMPTY, 1) == EMPTY
    got = minimal_weight(P(6, 5, 5, 2, 1), 2)
    assert is_minimal(got, 2)
    assert is_balanced(P(6, 5, 5, 2, 1), got, 2)
    assert minimal_weight(got, 2) == got


def least_balanced_sub(lam, delta):
    """Definitional minimal weight: the unique least subpartition of lam
    balanced with it, bar the empty one at delta = 0."""
    found = [mu for mu in subpartitions(lam)
             if not (delta == 0 and mu == EMPTY and lam != EMPTY)
             and is_balanced(lam, mu, delta)]
    size = min(m.size for m in found)
    least = [m for m in found if m.size == size]
    assert len(least) == 1, (lam, delta, least)
    return least[0]


def test_minimal_weight_matches_block_partition():
    for n in range(1, 9):
        for delta in DELTAS:
            for minimal, members in block_partition(n, delta).classes:
                for w in members:
                    assert minimal_weight(w, delta) == minimal, (w, n, delta)
                    assert least_balanced_sub(w, delta) == minimal, (w, n, delta)


def test_hom_target():
    assert hom_target(EMPTY, 1) is None
    assert hom_target(P(1), 2) is None
    assert hom_target(P(2, 2), 1) == EMPTY
    assert hom_target(P(7, 6, 6, 5, 4, 4, 2), 1) == P(7, 6, 4, 4, 3, 2, 2)


def test_hom_target_finds_orbit_minimum_once(monkeypatch):
    # one orbit minimum per weight (the check that a proper minimum is its
    # own reads coordinates): 2045 minimal and 674 non-minimal (lam, delta)
    calls = 0
    orbit_min = blocks._orbit_min

    def counting(lam, delta):
        nonlocal calls
        calls += 1
        return orbit_min(lam, delta)

    monkeypatch.setattr(blocks, "_orbit_min", counting)
    asked = moved = 0
    for delta in range(-4, 6):
        for size in range(13):
            for lam in partitions_of(size):
                if delta == 0 and lam == EMPTY:
                    continue
                asked += 1
                moved += hom_target(lam, delta) is not None
    assert (asked, moved, calls) == (2719, 674, 2719)


def test_orbit_minimum_matches_reference():
    # every weight of <= 12 boxes at delta -4..5, against the orbit
    # minimum read off the magnitude counts
    asked = 0
    for delta in range(-4, 6):
        for size in range(13):
            for lam in partitions_of(size):
                if delta == 0 and lam == EMPTY:
                    continue
                asked += 1
                low = references.orbit_min(lam, delta)
                assert minimal_weight(lam, delta) == low, (lam, delta)
                assert is_minimal(lam, delta) == (low == lam), (lam, delta)
                want = None if low == lam else maximal_balanced_sub(lam, low, delta)
                assert hom_target(lam, delta) == want, (lam, delta)
    assert asked == 2719


def test_hom_target_reuses_orbit_coordinates():
    # hom_target reflects on the coordinates its orbit minimum was read
    # from; it must name what maximal_balanced_sub finds from scratch,
    # also where the minimum is (2) at delta = 0
    moved = two = 0
    for delta in range(-2, 4):
        for size in range(13):
            for lam in partitions_of(size):
                if delta == 0 and lam == EMPTY:
                    continue
                low = minimal_weight(lam, delta)
                if low == lam:
                    continue
                moved += 1
                two += delta == 0 and low == P(2)
                assert hom_target(lam, delta) == maximal_balanced_sub(lam, low, delta), \
                    (lam, delta)
    assert (moved, two) == (406, 12)


@given(partitions, deltas)
def test_hom_target_descends(lam, delta):
    out = hom_target(lam, delta)
    if out is None:
        assert is_minimal(lam, delta)
    else:
        assert lam.contains(out) and out != lam
        assert is_balanced(lam, out, delta)


def test_lattice_m0_and_m1():
    lat = lattice_predict(P(3, 1), P(3, 1), 4)
    assert lat.m == 0 and lat.nodes == {frozenset(): P(3, 1)}
    assert lat.covers == ()

    lat = lattice_predict(P(2, 1), P(1), 1)
    assert lat.m == 1
    assert lat.nodes == {frozenset(): P(2, 1), frozenset({1}): P(1)}
    assert lat.covers == ((frozenset(), frozenset({1})),)


def test_lattice_m3_staircase():
    lam, mu = P(6, 5, 4, 3, 2, 1), P(5, 4, 3, 2, 1)
    lat = lattice_predict(lam, mu, 1)
    assert lat.m == 3
    assert len(lat.nodes) == 8 and len(lat.covers) == 12
    for a, b in lat.pairs:
        assert a.content + b.content == 0  # partners sum to 1 - delta
    assert lat.nodes[frozenset({1, 2, 3})] == mu
    for node in lat.nodes.values():
        assert lam.contains(node)
        assert is_balanced(lam, node, 1)
    for x, y in lat.covers:
        assert x < y and len(y - x) == 1


def test_lattice_nodes_match_box_deletion():
    # the row-length nodes against deleting each node's boxes from lam
    lattices = nodes = 0
    for k in range(13):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                for delta in range(-4, 6):
                    try:
                        lat = lattice_predict(lam, mu, delta)
                    except ValueError:
                        continue
                    for x, node in lat.nodes.items():
                        removed = [b for i in x for b in lat.pairs[i - 1]]
                        assert node == partition_minus(lam, removed), (lam, mu, x)
                    lattices += 1
                    nodes += len(lat.nodes)
    assert (lattices, nodes) == (3071, 3430)


def test_lattice_rejects_bad_skews():
    with pytest.raises(ValueError):
        lattice_predict(P(2, 2), EMPTY, 1)  # adjacent boxes
    with pytest.raises(ValueError):
        lattice_predict(P(2), P(1), 1)  # odd box count
    with pytest.raises(ValueError):
        lattice_predict(P(3, 1), P(2), 5)  # no partner at this delta
    with pytest.raises(ValueError):
        lattice_predict(P(1), P(2), 1)  # not contained
