import re
from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brauerblocks.partitions import (EMPTY, Box, Partition,
                                     conjugacy_class_size, content_sum,
                                     mn_character, parse_partition,
                                     partitions_of, removable_boxes,
                                     specht_dim, standard_tableaux,
                                     subpartitions)
from references import (add_box, addable_boxes, intersect, is_even,
                        lr_coefficient, partition_minus, remove_box,
                        shape_contents, skew)

partitions = st.lists(st.integers(1, 7), max_size=6).map(
    lambda ps: Partition(sorted(ps, reverse=True)))

P_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def contents(lam: Partition) -> Counter:
    """Multiset of box contents col - row over the whole diagram."""
    return Counter(b.content for b in lam.boxes())


def unique_rectangle_eta(mu: Partition, lam: Partition) -> Partition | None:
    """For a rectangle lam containing mu, the unique eta with a nonzero
    LR coefficient: the nonzero skew row lengths reversed.  None when the
    skew is empty."""
    if lam.rows and any(p != lam[0] for p in lam.parts):
        raise ValueError(f"{lam} is not a rectangle")
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    if mu.size == lam.size:
        return None
    skew_rows = [lam.row(i) - mu.row(i) for i in range(lam.rows)]
    eta = Partition(sorted((r for r in skew_rows if r), reverse=True))
    # the skew rows, read bottom to top, must already be the parts of eta
    assert [r for r in reversed(skew_rows) if r] == list(eta.parts)
    assert lr_coefficient(mu, eta, lam) == 1
    return eta


def P(*parts):
    return Partition(parts)


def test_box_content():
    assert Box(1, 1).content == 0
    assert Box(2, 5).content == 3
    assert Box(4, 1).content == -3


def test_partition_validation():
    with pytest.raises(ValueError, match=re.escape(
            "parts not weakly decreasing: (1, 2)")):
        Partition((1, 0, 2))
    with pytest.raises(ValueError, match=re.escape("negative part in (2, -1)")):
        Partition((2, 0, -1))
    with pytest.raises(ValueError, match=re.escape(
            "parts not weakly decreasing: (-1, 2)")):
        Partition((-1, 2))
    assert Partition((3, 0, 1, 0)).parts == (3, 1)
    assert Partition(iter([2, 2])).parts == (2, 2)
    # a part that is no integer is refused, not truncated
    for parts in [(2.7, 1), (2.0,), ["3", "1"]]:
        with pytest.raises(TypeError):
            Partition(parts)


def test_size_and_conjugate_match_definitions():
    """size is the sum of the parts and the conjugate counts the parts
    exceeding each column index, on every partition of <= 12 boxes."""
    for k in range(13):
        for lam in partitions_of(k):
            assert lam.size == sum(lam.parts) == k
            assert lam.conjugate().parts == tuple(
                sum(1 for p in lam.parts if p > c) for c in range(lam.row(0)))
            assert lam.columns(lam.row(0) + 2) == [*lam.conjugate().parts, 0, 0]


@given(partitions)
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size == lam.size


@given(partitions, partitions)
def test_conjugate_reverses_containment(lam, mu):
    assert lam.contains(mu) == lam.conjugate().contains(mu.conjugate())


@given(partitions, partitions)
def test_intersect_is_meet(lam, mu):
    cap = intersect(lam, mu)
    assert lam.contains(cap) and mu.contains(cap)
    assert cap == intersect(mu, lam)
    if lam.contains(mu):
        assert cap == mu


@given(partitions)
def test_parse_format_roundtrip(lam):
    assert parse_partition(str(lam)) == lam


def test_parse_empty_is_zero():
    assert parse_partition("0") == EMPTY
    assert str(EMPTY) == "0"


@pytest.mark.parametrize("text", ["", " ", ",", "3,,1", "3,1,", ",2", "1_0",
                                  "+3", "\uff13", "2,\u0661", "3, 1"])
def test_parse_refuses_empty_tokens(text):
    # the empty partition is written "0", never as nothing, and a token
    # is ASCII decimal digits only, though int() also reads "1_0", "+3"
    # and non-ASCII digits
    msg = f"bad partition literal {text.strip()!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        parse_partition(text)


@given(partitions)
def test_contents_conjugate_mirror(lam):
    c = contents(lam)
    cc = contents(lam.conjugate())
    assert all(cc[-k] == v for k, v in c.items())


def test_content_sum_closed_form():
    # the per-row closed form equals the sum over the multiset of contents
    for k in range(13):
        for lam in partitions_of(k):
            assert content_sum(lam) == sum(c * m for c, m in contents(lam).items()), lam


@given(partitions)
def test_addable_removable(lam):
    add = addable_boxes(lam)
    remo = removable_boxes(lam)
    assert len(add) == len(remo) + 1
    for b in add:
        assert remove_box(add_box(lam, b), b) == lam
    for b in remo:
        assert add_box(remove_box(lam, b), b) == lam
    # one box per content, listed in content order
    assert sorted({b.content for b in add}) == [b.content for b in add]


def test_skew_directional():
    lam, mu = P(3, 2), P(2, 2, 1)
    lam_side, mu_side = skew(lam, mu)
    assert lam_side.boxes == frozenset({Box(1, 3)})
    assert mu_side.boxes == frozenset({Box(3, 1)})
    assert dict(shape_contents(lam_side)) == {2: 1}
    assert dict(shape_contents(mu_side)) == {-2: 1}


@given(partitions)
def test_subpartitions_contained_and_distinct(lam):
    subs = list(subpartitions(lam))
    assert len(subs) == len(set(subs))
    assert EMPTY in subs and lam in subs
    for mu in subs:
        assert lam.contains(mu)


@given(partitions)
def test_partition_minus_skew(lam):
    for mu in list(subpartitions(lam))[:20]:
        boxes = [b for b in lam.boxes() if b.col > mu.row(b.row - 1)]
        assert partition_minus(lam, boxes) == mu


def test_partition_minus_invalid():
    assert partition_minus(P(2, 2), [Box(1, 2)]) is None


def test_partitions_of_counts():
    for n, want in enumerate(P_COUNTS):
        parts = [lam.parts for lam in partitions_of(n)]
        assert len(parts) == want
        # lexicographic descent of distinct partitions of n fixes the list
        assert parts == sorted(set(parts), reverse=True)
        assert all(sum(p) == n for p in parts)
    assert [lam.parts for lam in partitions_of(5, 2)] == [(2, 2, 1), (2, 1, 1, 1),
                                                          (1, 1, 1, 1, 1)]


def test_is_even():
    assert is_even(EMPTY)
    assert is_even(P(4, 2, 2))
    assert not is_even(P(4, 3))


def test_lr_trivial_and_pieri():
    assert lr_coefficient(P(2, 1), EMPTY, P(2, 1)) == 1
    assert lr_coefficient(P(2, 1), EMPTY, P(2, 2)) == 0
    # Pieri rule: adding a single row eta=(k) hits each horizontal strip once
    for lam in partitions_of(5):
        for mu in subpartitions(lam):
            k = lam.size - mu.size
            horizontal = all(
                lam.row(i + 1) <= mu.row(i) for i in range(lam.rows))
            want = 1 if horizontal and lam.contains(mu) else 0
            if k > 0:
                assert lr_coefficient(mu, P(k), lam) == want


@given(st.data())
def test_lr_symmetric(data):
    lam = data.draw(st.sampled_from(list(partitions_of(6))))
    mu = data.draw(st.sampled_from(list(subpartitions(lam))))
    eta_size = lam.size - mu.size
    for eta in partitions_of(eta_size):
        assert lr_coefficient(mu, eta, lam) == lr_coefficient(eta, mu, lam)


def test_lr_sum_rule():
    # sum over eta of c^lam_{mu eta} * f^eta = number of skew tableaux;
    # checked through the f-square identity on full shapes instead
    for n in range(7):
        assert sum(specht_dim(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_specht_dims():
    assert specht_dim(EMPTY) == 1
    assert specht_dim(P(2, 1)) == 2
    assert specht_dim(P(3, 2)) == 5
    assert specht_dim(P(2, 2, 1)) == 5
    assert specht_dim(P(3, 2, 1)) == 16
    assert specht_dim(P(4, 3, 2, 1)) == 768


@given(st.sampled_from([p for n in range(6) for p in partitions_of(n)]))
def test_standard_tableaux_count(lam):
    tabs = list(standard_tableaux(lam))
    assert len(tabs) == specht_dim(lam)
    assert len(set(tabs)) == len(tabs)


def test_unique_rectangle_eta():
    assert unique_rectangle_eta(P(1), P(2, 2)) == P(2, 1)
    assert unique_rectangle_eta(P(2, 2), P(2, 2)) is None
    with pytest.raises(ValueError):
        unique_rectangle_eta(P(1), P(2, 1))


def test_character_orthogonality():
    for n in range(2, 6):
        lams = list(partitions_of(n))
        classes = list(partitions_of(n))
        assert sum(conjugacy_class_size(r) for r in classes) == factorial(n)
        for a in lams:
            for b in lams:
                inner = sum(conjugacy_class_size(r) *
                            mn_character(a, r) * mn_character(b, r)
                            for r in classes)
                assert inner == (factorial(n) if a == b else 0)


def test_character_degree_column():
    for n in range(1, 7):
        ones = Partition((1,) * n)
        for lam in partitions_of(n):
            assert mn_character(lam, ones) == specht_dim(lam)
