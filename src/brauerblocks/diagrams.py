"""Exact arithmetic in the Brauer algebra B_n(delta).

Diagrams are reduced perfect matchings on n northern and t southern
nodes; concatenation returns the reduced diagram together with the
number of closed loops removed, and the caller applies the
delta^loops factor (0^0 = 1, so delta = 0 is handled uniformly).  The
sampled checks of `brauer verify` read these products.  Cell modules are
acted on in closed form (cells), with no diagram built.
"""

from __future__ import annotations

from typing import Iterator

# Node encoding inside a diagram: northern i is +i (1..n), southern j is -j.


class BrauerDiagram:
    """A reduced (n, t) diagram: a perfect matching on n northern and t
    southern nodes.  Equal iff they connect the same pairs."""

    __slots__ = ("n", "t", "pairs")

    def __init__(self, n: int, t: int, pairs):
        norm = frozenset(frozenset(p) for p in pairs)
        if (n + t) % 2 != 0:
            raise ValueError(f"odd node count: n={n}, t={t}")
        nodes = [x for p in norm for x in p]
        expected = set(range(1, n + 1)) | set(-j for j in range(1, t + 1))
        if len(nodes) != n + t or set(nodes) != expected:
            raise ValueError(f"not a perfect matching on {n}+{t} nodes: {pairs}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "pairs", norm)

    def __setattr__(self, name, value):
        raise AttributeError("BrauerDiagram is immutable")

    def __reduce__(self):
        return BrauerDiagram, (self.n, self.t, self.pairs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BrauerDiagram)
                and (self.n, self.t, self.pairs) == (other.n, other.t, other.pairs))

    def __hash__(self) -> int:
        return hash((self.n, self.t, self.pairs))

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(p, reverse=True)) for p in self.pairs)

    def __repr__(self) -> str:
        return f"BrauerDiagram({self.n},{self.t},{self.sorted_pairs()})"

    def __str__(self) -> str:
        return format_diagram(self)


def format_diagram(d: BrauerDiagram) -> str:
    """Northern-anchored pairs first ascending, then southern pairs, the
    lower-numbered end written first: "n=4; 1-2 3-1' 4-2' 3'-4'"."""

    def node(x: int) -> str:
        return f"{-x}'" if x < 0 else str(x)

    def key(x: int) -> tuple[bool, int]:
        return (x < 0, abs(x))

    shown = sorted((sorted(p, key=key) for p in d.pairs),
                   key=lambda q: key(q[0]))
    body = " ".join(f"{node(a)}-{node(b)}" for a, b in shown)
    head = f"n={d.n}" if d.t == d.n else f"n={d.n},t={d.t}"
    return f"{head}; {body}"


def concat(a: BrauerDiagram, b: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Concatenate a above b, returning the reduced diagram and the number
    of closed loops removed.  Callers apply the delta^loops factor."""
    if a.t != b.n:
        raise ValueError(f"size mismatch: ({a.n},{a.t}) over ({b.n},{b.t})")
    # vertices: ('N', i) result-north, ('S', j) result-south, ('M', k) middle
    edges = []
    for p in a.pairs:
        edges.append(tuple(("N", x) if x > 0 else ("M", -x) for x in p))
    for p in b.pairs:
        edges.append(tuple(("M", x) if x > 0 else ("S", -x) for x in p))
    adj: dict = {}
    for eid, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    used = [False] * len(edges)

    def walk(start) -> tuple:
        """Follow unused edges from start until hitting a boundary vertex
        or running out (closed cycle); consumes the edges walked."""
        cur = start
        while True:
            step = next(((nxt, eid) for nxt, eid in adj[cur] if not used[eid]), None)
            if step is None:
                return cur
            cur, eid = step
            used[eid] = True
            if cur[0] != "M":
                return cur

    result_pairs = []
    boundary = ([("N", i) for i in range(1, a.n + 1)]
                + [("S", j) for j in range(1, b.t + 1)])
    for v in boundary:
        if all(used[eid] for _, eid in adj.get(v, [])):
            continue
        end = walk(v)
        x = v[1] if v[0] == "N" else -v[1]
        y = end[1] if end[0] == "N" else -end[1]
        result_pairs.append((x, y))
    loops = 0
    for eid in range(len(edges)):
        if not used[eid]:
            loops += 1
            walk(edges[eid][0])  # consumes the whole cycle
    return BrauerDiagram(a.n, b.t, result_pairs), loops


def flip(d: BrauerDiagram) -> BrauerDiagram:
    """Vertical reflection: swap the northern and southern boundaries."""
    return BrauerDiagram(d.t, d.n, [tuple(-x for x in p) for p in d.pairs])


def all_diagrams(n: int, t: int | None = None) -> Iterator[BrauerDiagram]:
    """All reduced (n, t) diagrams; (2k-1)!! of them for n + t = 2k."""
    if t is None:
        t = n
    nodes = list(range(1, n + 1)) + [-j for j in range(1, t + 1)]

    def matchings(avail: list[int]) -> Iterator[list[tuple[int, int]]]:
        if not avail:
            yield []
            return
        first = avail[0]
        for k in range(1, len(avail)):
            rest = avail[1:k] + avail[k + 1:]
            for m in matchings(rest):
                yield [(first, avail[k])] + m

    for m in matchings(nodes):
        yield BrauerDiagram(n, t, m)
