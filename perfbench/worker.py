"""Run one workload once, in this fresh interpreter, and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--size tiny]
        [--trace] [--setup-only]

run.py starts it with PYTHONPATH, PYTHONHASHSEED and BRAUER_MAX_DIM pinned.
The line holds the monotonic time at which set-up (import and inputs)
ended, the timed section's wall time and phase metrics, peak RSS, and the
outcome of checking every result after the timed section, against the
references in golden.json beside this file where a check needs one.
With --trace it also holds the per-layer metrics and the folded spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inputs = workloads.prepare(args.workload, args.size, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    start = time.perf_counter()
    results, phases = workloads.run(args.workload, inputs)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"ready": ready, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "phases": phases}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.span_records()
        tracer.paused = True

    golden = json.loads((HERE / "golden.json").read_text())[args.size]
    attempted, failures = workloads.check(args.workload, inputs, results, golden)
    out.update(attempted=attempted, failed=len(failures), failures=failures[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
