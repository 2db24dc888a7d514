from fractions import Fraction

import pytest

from brauerblocks.diagrams import (BrauerDiagram, all_diagrams, concat, flip,
                                   format_diagram)
from brauerblocks.partitions import Partition, partitions_of
from references import (AlgebraElement, all_perms, compose, e, e_bar,
                        from_diagram, hook_diagram, identity_diagram,
                        identity_element, perm_diagram, propagating,
                        transposition, transposition_element, u_diagram,
                        young_symmetrizer)


def parse_diagram(text: str) -> BrauerDiagram:
    """Parse "n=4; 1-2 3-1' 4-2' 3'-4'" (primed node = southern).  The
    southern count is n unless "t=" is also given."""
    head, _, body = text.partition(";")
    fields = dict(f.strip().split("=") for f in head.split(",") if "=" in f)
    n = int(fields["n"])
    t = int(fields.get("t", n))
    pairs = []
    for token in body.split():
        a, _, b = token.partition("-")

        def node(s: str) -> int:
            s = s.strip()
            return -int(s[:-1]) if s.endswith("'") else int(s)

        pairs.append((node(a), node(b)))
    return BrauerDiagram(n, t, pairs)


def x_hook(n: int, delta: int, i: int, j: int) -> AlgebraElement:
    return from_diagram(hook_diagram(n, i, j), delta)


def t_element(n: int, delta: int) -> AlgebraElement:
    """Sum of all hooks X_{i,j} over 1 <= i < j <= n."""
    out = AlgebraElement(n, delta)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out + x_hook(n, delta, i, j)
    return out


def central_element(n: int, delta: int) -> AlgebraElement:
    """Sum over i < j of (transposition (i,j) minus hook X_{i,j}); commutes
    with everything in B_n(delta)."""
    out = AlgebraElement(n, delta)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out + from_diagram(perm_diagram(transposition(n, i - 1, j - 1)), delta)
            out = out - x_hook(n, delta, i, j)
    return out


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def test_diagram_counts():
    for n in range(1, 6):
        assert sum(1 for _ in all_diagrams(n)) == double_factorial(2 * n - 1)
    assert sum(1 for _ in all_diagrams(3, 1)) == 3
    assert sum(1 for _ in all_diagrams(4, 0)) == 3
    assert sum(1 for _ in all_diagrams(0, 0)) == 1


def test_diagram_validation():
    with pytest.raises(ValueError):
        BrauerDiagram(2, 1, [(1, 2), (-1, -1)])
    with pytest.raises(ValueError):
        BrauerDiagram(2, 2, [(1, 2), (1, -1), (-1, -2)])
    with pytest.raises(ValueError):
        BrauerDiagram(2, 2, [(1, 2), (-1, -2), (3, -3)])


def test_parse_format_roundtrip():
    for n in range(1, 4):
        for d in all_diagrams(n):
            assert parse_diagram(format_diagram(d)) == d
    for d in all_diagrams(3, 1):
        assert parse_diagram(format_diagram(d)) == d
    d = parse_diagram("n=4; 1-2 3-1' 4-2' 3'-4'")
    assert d.pairs == BrauerDiagram(
        4, 4, [(1, 2), (3, -1), (4, -2), (-3, -4)]).pairs


def test_propagating():
    assert propagating(identity_diagram(4)) == 4
    assert propagating(u_diagram(4, 2)) == 2
    assert propagating(hook_diagram(5, 1, 4)) == 3


def test_concat_loops():
    u = u_diagram(2, 1)
    prod, loops = concat(u, u)
    assert prod == u and loops == 1
    # stacking the two-arc (4,0) state on its flip closes two loops
    cup = BrauerDiagram(4, 0, [(1, 2), (3, 4)])
    prod, loops = concat(flip(cup), cup)
    assert loops == 2 and prod.n == 0 and prod.t == 0


def test_flip_involution():
    for n in range(1, 4):
        for d in all_diagrams(n):
            assert flip(flip(d)) == d
    for d in all_diagrams(3, 1):
        f = flip(d)
        assert (f.n, f.t) == (1, 3)
        assert flip(f) == d


def test_identity_neutral():
    one = identity_element(3, 2)
    for d in all_diagrams(3):
        el = from_diagram(d, 2)
        assert one * el == el
        assert el * one == el


def test_perm_product_convention():
    # diagram stacking reverses the order of the underlying maps
    for a in all_perms(3):
        for b in all_perms(3):
            prod = from_diagram(perm_diagram(a), 1) * from_diagram(perm_diagram(b), 1)
            assert prod == from_diagram(perm_diagram(compose(b, a)), 1)


def test_associativity_sampled(rng):
    pool = list(all_diagrams(4))
    for delta in (-1, 0, 2):
        for _ in range(6):
            a, b, c = (from_diagram(rng.choice(pool), delta) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_flip_antihomomorphism(rng):
    pool = list(all_diagrams(4))
    for delta in (-1, 0, 2):
        for _ in range(6):
            a = from_diagram(rng.choice(pool), delta)
            b = from_diagram(rng.choice(pool), delta)
            assert (a * b).flip() == b.flip() * a.flip()


@pytest.mark.parametrize("delta", [-1, 0, 2])
def test_generator_relations(delta):
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
        assert u[i + 1] * u[i] * u[i + 1] == u[i + 1]
        assert s[i] * u[i + 1] * u[i] == s[i + 1] * u[i]
        assert u[i] * u[i + 1] * s[i] == u[i] * s[i + 1]
    assert s[1] * s[3] == s[3] * s[1]
    assert u[1] * u[3] == u[3] * u[1]


def test_element_arithmetic():
    a = from_diagram(u_diagram(2, 1), 3)
    b = identity_element(2, 3)
    assert (a + b) - a == b
    assert (0 * a).is_zero()
    assert 2 * a == a + a
    with pytest.raises(ValueError):
        a * identity_element(2, 5)
    with pytest.raises(ValueError):
        a + identity_element(3, 3)


def test_t_element_smallest():
    assert t_element(2, 7) == x_hook(2, 7, 1, 2)
    assert len(t_element(4, 1).terms) == 6


@pytest.mark.parametrize("delta", [-2, 1, 3])
def test_arc_idempotent(delta):
    for n, t in [(2, 1), (4, 1), (4, 2), (5, 2)]:
        el = e(n, delta, t)
        assert el * el == el
    assert e(4, delta, 0) == identity_element(4, delta)
    with pytest.raises(ValueError):
        e(4, delta, 3)


def test_arc_idempotent_rejects_delta_zero():
    with pytest.raises(ValueError):
        e(4, 0, 1)


@pytest.mark.parametrize("delta", [-2, 0, 1])
def test_e_bar_idempotent(delta):
    for n in (3, 4, 5):
        el = e_bar(n, delta)
        assert el * el == el
        (d,) = el.terms
        assert propagating(d) == n - 2
    with pytest.raises(ValueError):
        e_bar(2, delta)


@pytest.mark.parametrize("delta", [-1, 0, 2])
def test_young_symmetrizer_idempotent(delta):
    for n in (2, 3):
        for lam in partitions_of(n):
            y = young_symmetrizer(lam, n, delta)
            assert y * y == y
    y = young_symmetrizer(Partition((2, 2)), 4, delta)
    assert y * y == y
    with pytest.raises(ValueError):
        young_symmetrizer(Partition((2, 1)), 4, delta)


def test_young_symmetrizers_orthogonal():
    ya = young_symmetrizer(Partition((3,)), 3, 1)
    yb = young_symmetrizer(Partition((1, 1, 1)), 3, 1)
    assert (ya * yb).is_zero()
    assert (yb * ya).is_zero()


@pytest.mark.parametrize("delta", [0, 2])
def test_central_element_commutes(delta):
    for n in (3, 4):
        z = central_element(n, delta)
        gens = [transposition_element(n, delta, i) for i in range(1, n)]
        gens += [from_diagram(u_diagram(n, i), delta) for i in range(1, n)]
        for g in gens:
            assert z * g == g * z


def test_central_element_coefficients():
    z = central_element(3, 2)
    assert z.terms[perm_diagram(transposition(3, 0, 1))] == Fraction(1)
    assert z.terms[hook_diagram(3, 1, 2)] == Fraction(-1)
    assert len(z.terms) == 6
