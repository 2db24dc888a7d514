#!/usr/bin/env python3
"""Survey block structure across a range of n and delta.

For each (n, delta) prints the block classes with their minimal weights
and, for every non-minimal weight, the homomorphism target it descends
to.  With --verify each prediction is additionally machine-checked by
the linear-algebra oracle (slower; dimensions capped by BRAUER_MAX_DIM).
"""

import argparse
import sys
import time
from pathlib import Path

# run from a checkout: import the package from the src/ beside this script
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from brauerblocks.blocks import block_partition, hom_target, is_minimal
from brauerblocks.oracle import verify_blocks


def survey(n: int, delta: int, verify: bool) -> bool:
    print(f"== B_{n}(delta={delta})")
    bp = block_partition(n, delta)
    for minimal, members in bp.classes:
        print(f"  block of {minimal}: " + " ".join(str(w) for w in members))
        for w in members:
            if not is_minimal(w, delta):
                print(f"    {w} -> {hom_target(w, delta)}")
    if not verify:
        return True
    t0 = time.time()
    report = verify_blocks(n, delta)
    bad = [c for c in report["checks"] if c["status"] != "pass"]
    print(f"  oracle: {len(report['checks'])} checks, "
          f"{len(bad)} failures ({time.time() - t0:.1f}s)")
    for c in bad:
        print(f"    FAIL {c['name']} {c['params']} {c.get('witness')}")
    return not bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--deltas", type=int, nargs="+",
                    default=[-2, -1, 0, 1, 2, 3])
    ap.add_argument("--verify", action="store_true",
                    help="cross-check each sweep with the oracle")
    args = ap.parse_args()
    if args.max_n < 2:
        # the survey starts at n = 2, so a smaller bound would check nothing
        ap.error(f"--max-n must be at least 2, got {args.max_n}")

    ok = True
    for n in range(2, args.max_n + 1):
        for delta in args.deltas:
            ok &= survey(n, delta, args.verify)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
