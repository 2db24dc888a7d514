"""Benchmark entry point: run one workload in fresh interpreters and report it.

    python3 perfbench/run.py --workload {verify_sweep,hom_n10,blocks_scan}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src.  Every measurement happens in a new worker process (worker.py),
one at a time (a closed loop with one client), with PYTHONHASHSEED pinned
and BRAUER_MAX_DIM set for hom_n10 and unset otherwise.

--trace 0: full workers run one after another, at least one, while the
next one (judged by the slowest so far) is expected to end within S
seconds of the start.  Before the first worker and after each one, a
group of set-up-only workers gives set-up samples spread over the run.
The last stdout line reports the medians of setup_s, wall_s and
peak_rss_mb.
--trace 1: one untraced and one traced worker; the last line reports the
per-layer metrics of the traced one, the phase metrics of the untraced
one, and trace.overhead_frac from the two wall times.

Lines before the last give, for reading: provenance (Python, git SHA,
nproc, seed), every metric with its unit, the phase metrics and
fail_rate with its counts.  A check that fails is reported, not raised;
a worker that crashes or a missing ./src makes run.py exit 1 or 2
without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_PROBES = 4  # set-up-only workers per group
WORKER_TIMEOUT_S = 170
TRACE_DIR = ".perfbench"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))
PHASES = (("verify_d0_s", "s"), ("verify_dnz_s", "s"), ("partition_s", "s"),
          ("query_p50_ms", "ms"), ("query_p99_ms", "ms"), ("query_count", "count"))
PER_LAYER = tuple(LAYER_METRICS) + (("trace.overhead_frac", "ratio"),) + PHASES


def worker_env(root: Path, workload: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("BRAUER_MAX_DIM", "PYTHONPATH", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    if workload in workloads.MAX_DIM:
        env["BRAUER_MAX_DIM"] = workloads.MAX_DIM[workload]
    return env


def run_worker(args, env, *flags: str) -> dict:
    """Start one worker, wait for it, and return its report with setup_s
    (spawn to ready) and the elapsed time from spawn to exit."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *flags]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    ended = time.monotonic()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    report["elapsed_s"] = ended - spawned
    return report


def provenance(root: Path, seed: int) -> dict:
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "git_sha": sha,
            "nproc": os.cpu_count(), "seed": seed}


def measure(args, env) -> tuple[dict, list[dict]]:
    start = time.monotonic()

    def probe_group() -> list[float]:
        return [run_worker(args, env, "--setup-only")["setup_s"]
                for _ in range(SETUP_PROBES)]

    setups = probe_group()
    gap = time.monotonic() - start
    reports: list[dict] = []
    while not reports or (time.monotonic() + max(r["elapsed_s"] for r in reports)
                          + gap <= start + args.seconds):
        reports.append(run_worker(args, env))
        setups += probe_group()
    setups += [r["setup_s"] for r in reports]
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(r["wall_s"] for r in reports),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports)}
    return metrics, reports


def measure_traced(args, env, root: Path) -> tuple[dict, list[dict]]:
    plain = run_worker(args, env)
    traced = run_worker(args, env, "--trace")
    metrics = dict.fromkeys((name for name, _ in PHASES), 0.0)
    metrics.update(plain["phases"])
    metrics.update(traced["layers"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    out = root / TRACE_DIR
    out.mkdir(exist_ok=True)
    (out / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
        {"provenance": provenance(root, args.seed), "metrics": metrics,
         "traced_phases": traced["phases"], "spans": traced["spans"]}, indent=1))
    return metrics, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=workloads.SIZES,
                    help="tiny runs a small version of the workload (self-tests)")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "brauerblocks" / "__init__.py").is_file():
        print("run from the root of a brauerblocks checkout (no ./src/brauerblocks)",
              file=sys.stderr)
        return 2
    env = worker_env(root, args.workload)
    if args.trace:
        metrics, reports = measure_traced(args, env, root)
        units = dict(PER_LAYER)
    else:
        metrics, reports = measure(args, env)
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)

    print("provenance " + json.dumps(provenance(root, args.seed)))
    print(f"workload {args.workload}: {len(reports)} worker run(s)")
    if not args.trace:  # the traced run reports the phases as metrics
        for name in reports[0]["phases"]:
            value = statistics.median(r["phases"][name] for r in reports)
            print(f"  {name} = {value:.6g} {dict(PHASES)[name]}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_rate = {failed / attempted:.6g} ({failed} failed of {attempted})")
    for r in reports:
        for note in r["failures"]:
            print(f"  FAIL {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
