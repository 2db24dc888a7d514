"""The benchmark's workloads: their inputs, the timed operations and the
checks of every result.

Each workload is run once per fresh interpreter by worker.py, because the
library's module-level caches would turn a second pass into cache hits.

- verify_sweep: verify_blocks(n, delta) for n <= 6 at every delta of the
  test suite, plus n = 7 at the nonzero deltas.  Fixed inputs.  It is the
  only workload that reaches the generic intertwiner route (delta = 0).
- hom_n10: one Hom query into a 10080-dimensional cell module, answered by
  the compressed route.  Fixed inputs.
- blocks_scan: block_partition(14, delta) in bulk, then a seeded stream of
  point queries on partitions of size 15-22, so the two phases never share
  a cached pair.  No calls into cells, specht, linalg or oracle.

"tiny" sizes keep the same shape of work at a fraction of the cost; the
benchmark's self-tests use them.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from time import perf_counter

DELTAS = (-2, -1, 0, 1, 2, 3)
WORKLOADS = ("verify_sweep", "hom_n10", "blocks_scan")
SIZES = ("full", "tiny")

# BRAUER_MAX_DIM per workload.  hom_n10's target module has dimension
# 10080, above the library's default cap of 400; the others keep the default.
MAX_DIM = {"hom_n10": "10080"}

HOM_QUERY = {"full": (10, 1, (4, 3, 2, 1), (3, 2, 1)),
             "tiny": (6, 1, (3, 2, 1), (2, 2))}
BULK = {"full": (14, (-2, 0, 1, 3)), "tiny": (8, (-2, 0, 1, 3))}
# Point queries: count and the range of partition sizes.  Sizes start
# above the bulk n, so no cached pair is shared with the bulk phase.
POINTS = {"full": (1000, 15, 22), "tiny": (60, 9, 12)}
QUERY_KINDS = ("same-block", "minimal", "hat", "hom-target")


# ---------------------------------------------------------------- inputs

def verify_cases(size: str) -> list[tuple[int, int]]:
    top = 6 if size == "full" else 4
    cases = [(n, d) for n in range(1, top + 1) for d in DELTAS]
    return cases + [(top + 1, d) for d in DELTAS if d]


def _conjugate(parts: list[int]) -> list[int]:
    return [sum(1 for p in parts if p > i) for i in range(parts[0])] if parts else []


def _random_partition(rng: random.Random, size: int) -> list[int]:
    parts = []
    left = size
    while left:
        p = rng.randint(1, min(left, 7))
        parts.append(p)
        left -= p
    parts.sort(reverse=True)
    return _conjugate(parts) if rng.random() < 0.5 else parts


def _addable(parts: list[int]) -> list[tuple[int, int]]:
    """Addable boxes as 1-based (row, col)."""
    out = []
    for i in range(len(parts) + 1):
        here = parts[i] if i < len(parts) else 0
        if i == 0 or parts[i - 1] > here:
            out.append((i + 1, here + 1))
    return out


def _add_box(parts: list[int], box: tuple[int, int]) -> list[int]:
    row = box[0] - 1
    return parts[:row] + [box[1]] + parts[row + 1:] if row < len(parts) else parts + [1]


def point_queries(seed: int, size: str) -> list[tuple]:
    """The seeded point-query stream: (kind, delta, lam, mu) with
    partitions as tuples.  Only a same-block query has mu.  Half of those
    take lam as mu plus two boxes, often a mirrored pair, so that some
    answers are True."""
    count, lo, hi = POINTS[size]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind = rng.choice(QUERY_KINDS)
        delta = rng.choice(DELTAS)
        s = rng.randint(lo, hi)
        if kind != "same-block":
            out.append((kind, delta, tuple(_random_partition(rng, s)), None))
        elif rng.random() < 0.5:
            mu = _random_partition(rng, s - 2)
            b1 = rng.choice(_addable(mu))
            mid = _add_box(mu, b1)
            opts = _addable(mid)
            paired = [b for b in opts if b[1] - b[0] == 1 - delta - (b1[1] - b1[0])]
            b2 = rng.choice(paired if paired and rng.random() < 0.5 else opts)
            out.append((kind, delta, tuple(_add_box(mid, b2)), tuple(mu)))
        else:
            s2 = rng.randrange(lo + (s - lo) % 2, hi + 1, 2)
            out.append((kind, delta, tuple(_random_partition(rng, s)),
                        tuple(_random_partition(rng, s2))))
    return out


def prepare(workload: str, size: str, seed: int):
    """Import the library and build the inputs: everything before the
    timed section.  Only blocks_scan depends on the seed."""
    import brauerblocks as bb
    if workload == "verify_sweep":
        return verify_cases(size)
    if workload == "hom_n10":
        n, delta, lam, mu = HOM_QUERY[size]
        return bb.HomQuery(n, delta, bb.Partition(lam), bb.Partition(mu))
    n, deltas = BULK[size]
    points = [(kind, d, bb.Partition(lam), mu and bb.Partition(mu))
              for kind, d, lam, mu in point_queries(seed, size)]
    return (n, deltas), points


# ------------------------------------------------------------ timed runs

def run(workload: str, inputs) -> tuple[list, dict[str, float]]:
    """Run the workload's operations; returns the raw results and the
    phase metrics (seconds, or milliseconds for query latencies).  An
    operation that raises yields its exception as the result."""
    import brauerblocks as bb
    if workload == "verify_sweep":
        results, d0, dnz = [], 0.0, 0.0
        for n, delta in inputs:
            t = perf_counter()
            try:
                results.append(bb.verify_blocks(n, delta))
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
            dt = perf_counter() - t
            if delta:
                dnz += dt
            else:
                d0 += dt
        return results, {"verify_d0_s": d0, "verify_dnz_s": dnz}
    if workload == "hom_n10":
        try:
            return [bb.hom_dim(inputs)], {}
        except Exception as exc:
            return [exc], {}
    (n, deltas), points = inputs
    results = []
    t = perf_counter()
    for delta in deltas:
        try:
            results.append(bb.block_partition(n, delta))
        except Exception as exc:
            results.append(exc)
    partition_s = perf_counter() - t
    calls = {"same-block": lambda d, lam, mu: bb.is_balanced(lam, mu, d),
             "minimal": lambda d, lam, mu: bb.is_minimal(lam, d),
             "hat": lambda d, lam, mu: bb.blocks.hat_steps(lam, d),
             "hom-target": lambda d, lam, mu: bb.hom_target(lam, d)}
    latencies = []
    for kind, delta, lam, mu in points:
        t = perf_counter()
        try:
            results.append(calls[kind](delta, lam, mu))
        except Exception as exc:
            results.append(exc)
        latencies.append((perf_counter() - t) * 1000)
    return results, {"partition_s": partition_s, **latency_summary(latencies)}


def latency_summary(latencies_ms: list[float]) -> dict[str, float]:
    # p99 has at least ten samples beyond it once there are 1000 queries.
    cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    return {"query_p50_ms": statistics.median(latencies_ms),
            "query_p99_ms": cuts[98], "query_count": len(latencies_ms)}


# ---------------------------------------------------------------- checks

def partition_digest(bp) -> str:
    """Digest of a block partition's class structure."""
    classes = [[list(minimal.parts), [list(m.parts) for m in members]]
               for minimal, members in bp.classes]
    return hashlib.sha256(json.dumps(classes).encode()).hexdigest()[:16]


def _boxes(parts) -> set[tuple[int, int]]:
    return {(r + 1, c + 1) for r, p in enumerate(parts) for c in range(p)}


def block_key(parts, delta: int, rank: int):
    """The block invariant of Cox, De Visscher and Martin, independent of
    the library's balanced test: two weights lie in one block exactly when
    their conjugates, padded to `rank` entries and shifted by
    rho = (-delta/2, -delta/2 - 1, ...), lie in one orbit of the type-D
    Weyl group (permutations, and sign changes of an even number of
    entries).  Coordinates are doubled to stay integral.  The orbit is the
    multiset of absolute values, plus the parity of the negative entries
    when no entry is 0.  Compare keys of weights whose sizes have the same
    parity, with one rank at least both sizes."""
    col = _conjugate(list(parts))
    x = [2 * (col[i] if i < len(col) else 0) - delta - 2 * i for i in range(rank)]
    sign = None if 0 in x else sum(v < 0 for v in x) % 2
    return tuple(sorted(map(abs, x))), sign


def _same_block(lam, mu, delta: int) -> bool:
    rank = lam.size + mu.size + 1
    return block_key(lam.parts, delta, rank) == block_key(mu.parts, delta, rank)


def _brute_minimal(bb, lam, delta: int) -> bool:
    """No proper subpartition of lam whose size has lam's parity (bar the
    empty one at delta = 0) lies in lam's block."""
    rank = 2 * lam.size + 1
    key = block_key(lam.parts, delta, rank)
    return not any(block_key(mu.parts, delta, rank) == key
                   for mu in bb.partitions.subpartitions(lam)
                   if mu != lam and (lam.size - mu.size) % 2 == 0
                   and not (delta == 0 and mu.size == 0))


def _hat_consistent(lam, delta: int, result) -> bool:
    """The core is exactly lam minus the stripped rows and columns, and
    each strip continues where the previous one of its kind stopped."""
    core, steps = result
    cut = {"rows": 0, "cols": 0}
    for kind, idx in steps:
        if not idx or idx != list(range(cut[kind] + 1, idx[-1] + 1)):
            return False
        cut[kind] = idx[-1]
    want = {(r, c) for r, c in _boxes(lam.parts)
            if r > cut["rows"] and c > cut["cols"]}
    return {(b.row, b.col) for b in core.boxes} == want


def check(workload: str, inputs, results: list, golden: dict) -> tuple[int, list[str]]:
    """Check every result; returns (operations attempted, failure notes)."""
    import brauerblocks as bb
    failures: list[str] = []
    attempted = 0

    def expect(ok: bool, note: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(note)

    if workload == "verify_sweep":
        for (n, delta), report in zip(inputs, results):
            if isinstance(report, Exception):
                expect(False, f"verify_blocks({n}, {delta}) raised {report!r}")
                continue
            for c in report["checks"]:
                expect(c["status"] == "pass", f"n={n} delta={delta}: {c}")
            edges = [c["params"]["edges"] for c in report["checks"]
                     if c["name"] == "hom-edges-balanced"]
            expect(edges == [golden["verify_edges"][f"{n},{delta}"]],
                   f"n={n} delta={delta}: Hom edge count {edges}")
        return attempted, failures

    if workload == "hom_n10":
        (result,) = results
        expect(result == golden["hom_n10"], f"hom_dim gave {result!r}")
        return attempted, failures

    (n, deltas), points = inputs
    for delta, bp in zip(deltas, results):
        ok = not isinstance(bp, Exception) and partition_digest(bp) == golden["blocks"][f"{n},{delta}"]
        expect(ok, f"block_partition({n}, {delta}) differs from the golden digest")
    minimal: dict = {}
    for (kind, delta, lam, mu), res in zip(points, results[len(deltas):]):
        note = f"{kind} delta={delta} {lam} {mu or ''} -> {res!r}"
        if isinstance(res, Exception):
            expect(False, note)
        elif kind == "same-block":
            expect(res == _same_block(lam, mu, delta), note)
        elif kind == "hat":
            expect(_hat_consistent(lam, delta, res), note)
        else:
            key = (lam, delta)
            if key not in minimal:
                minimal[key] = _brute_minimal(bb, lam, delta)
            if kind == "minimal":
                expect(res == minimal[key], note)
            elif res is None:
                expect(minimal[key], note)
            else:
                expect(not minimal[key] and lam.contains(res) and res != lam
                       and _same_block(lam, res, delta), note)
    return attempted, failures
