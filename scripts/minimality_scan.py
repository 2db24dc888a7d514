#!/usr/bin/env python3
"""Cross-check the minimality classifier and the minimal weight against
brute force.

For every partition up to --max-size and every delta in the range,
is_minimal (whether the weight is its own type-D orbit minimum) is
compared with the definitional search over all balanced proper
subpartitions, and minimal_weight (the orbit minimum) with the least
balanced subpartition found by the same search.  Any divergence is
printed; none is expected.
"""

import argparse
import sys
import time
from pathlib import Path

# run from a checkout: import the package from the src/ beside this script
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from brauerblocks.blocks import is_balanced, is_minimal, minimal_weight
from brauerblocks.partitions import EMPTY, Partition, partitions_of, subpartitions


def balanced_subs(lam: Partition, delta: int) -> list[Partition]:
    """Every subpartition of lam balanced with it, bar the empty one at
    delta = 0 (no weight there) unless lam itself is empty."""
    return [mu for mu in subpartitions(lam)
            if not (delta == 0 and mu == EMPTY and lam != EMPTY)
            and is_balanced(lam, mu, delta)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=10)
    ap.add_argument("--deltas", type=int, nargs="+",
                    default=[-2, -1, 0, 1, 2, 3])
    args = ap.parse_args()
    if args.max_size < 0:
        ap.error(f"--max-size must be at least 0, got {args.max_size}")

    t0 = time.time()
    checked, bad = 0, []
    for k in range(args.max_size + 1):
        for lam in partitions_of(k):
            for delta in args.deltas:
                subs = balanced_subs(lam, delta)
                fast = is_minimal(lam, delta)
                slow = subs == [lam]
                least = min(mu.size for mu in subs)
                least_subs = [mu for mu in subs if mu.size == least]
                orbit_min = minimal_weight(lam, delta)
                checked += 1
                if fast != slow:
                    bad.append((lam, delta, fast, slow))
                    print(f"DIVERGENCE {lam} delta={delta}: "
                          f"classifier {fast}, brute force {slow}")
                if least_subs != [orbit_min]:
                    bad.append((lam, delta, orbit_min, least_subs))
                    print(f"DIVERGENCE {lam} delta={delta}: minimal weight "
                          f"{orbit_min}, least balanced subpartitions {least_subs}")
    print(f"{checked} cases in {time.time() - t0:.1f}s, "
          f"{len(bad)} divergences")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
