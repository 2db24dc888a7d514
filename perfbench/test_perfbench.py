"""Self-tests of the benchmark, on tiny versions of each workload.

    python3 -m pytest perfbench -q

Run from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, trace: int = 0, cwd: Path = ROOT,
          script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(bench(workload))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    return {w: result(bench(w, trace=1))["metrics"] for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_metrics(traced, workload):
    metrics = traced[workload]
    assert {k: v["unit"] for k, v in metrics.items()} == dict(run.PER_LAYER)


def test_blocks_scan_bypasses_the_module_layers(traced):
    metrics = traced["blocks_scan"]
    for mod in ("cells", "specht", "linalg", "oracle"):
        assert metrics[f"{mod}.calls"]["value"] == 0, mod
    assert metrics["blocks.block_partition.calls"]["value"] == len(workloads.BULK["tiny"][1])
    assert metrics["query_count"]["value"] == workloads.POINTS["tiny"][0]


def test_hom_n10_takes_the_compressed_route(traced):
    metrics = traced["hom_n10"]
    assert metrics["oracle.hom_dim.calls.generic"]["value"] == 0
    assert metrics["oracle.hom_dim.calls.compressed"]["value"] == 1
    assert metrics["cells.act_diagram.calls"]["value"] > 0


def test_verify_sweep_reaches_the_generic_route(traced):
    # The Specht route needs two partitions of n with one content sum,
    # first at n = 6, which the tiny sweep leaves out.
    metrics = traced["verify_sweep"]
    for route in ("scalar", "compressed", "generic"):
        assert metrics[f"oracle.hom_dim.calls.{route}"]["value"] > 0, route
    assert metrics["oracle.generic.unknowns_max"]["value"] > 0
    assert 0 < metrics["linalg.Echelon.add.grew_ratio"]["value"] <= 1
    assert metrics["verify_d0_s"]["value"] > 0 and metrics["verify_dnz_s"]["value"] > 0


def _plant(golden: dict, workload: str) -> None:
    tiny = golden["tiny"]
    if workload == "verify_sweep":
        tiny["verify_edges"]["3,1"] += 1
    elif workload == "hom_n10":
        tiny["hom_n10"] += 1
    else:
        key = next(iter(tiny["blocks"]))
        tiny["blocks"][key] = "0" * 16


def _copy_benchmark(tmp_path: Path) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "perfbench"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_planted_wrong_reference_fails(tmp_path, workload):
    copy = _copy_benchmark(tmp_path)
    golden = json.loads((copy / "golden.json").read_text())
    _plant(golden, workload)
    (copy / "golden.json").write_text(json.dumps(golden))
    proc = bench(workload, script=copy / "run.py")
    out = result(proc)
    assert not out["correct"] and out["failed"] >= 1
    assert "fail_rate = 0 " not in proc.stdout


# A wrong answer for each kind of point query, built from the right one.
POINT_FAULTS = {
    "same-block": ("", "is_balanced", lambda real: lambda lam, mu, d: not real(lam, mu, d)),
    "minimal": ("", "is_minimal", lambda real: lambda lam, d: not real(lam, d)),
    "hat": ("blocks", "hat_steps", lambda real: lambda lam, d: (real(lam, d)[0], [])),
    "hom-target": ("", "hom_target", lambda real: lambda lam, d: lam),
}


def _library():
    sys.path.insert(0, str(ROOT / "src"))
    import brauerblocks
    return brauerblocks


@pytest.mark.parametrize("delta", workloads.DELTAS)
def test_block_key_matches_block_partition(delta):
    # The point-query checks rest on workloads.block_key; it must group
    # weights exactly as the library's block partition does.
    bb = _library()
    n = 7
    keys = [{workloads.block_key(w.parts, delta, 2 * n + 1) for w in members}
            for _, members in bb.block_partition(n, delta).classes]
    assert all(len(k) == 1 for k in keys)
    assert len(set().union(*keys)) == len(keys)


@pytest.mark.parametrize("kind", workloads.QUERY_KINDS)
def test_planted_wrong_point_answer_fails(monkeypatch, kind):
    bb = _library()
    inputs = workloads.prepare("blocks_scan", "tiny", 3)
    module, attr, fault = POINT_FAULTS[kind]
    target = getattr(bb, module) if module else bb
    with monkeypatch.context() as m:
        m.setattr(target, attr, fault(getattr(target, attr)))
        results, _ = workloads.run("blocks_scan", inputs)
    golden = json.loads((HERE / "golden.json").read_text())["tiny"]
    _, failures = workloads.check("blocks_scan", inputs, results, golden)
    asked = sum(q[0] == kind for q in inputs[1])
    assert failures and all(note.startswith(kind + " ") for note in failures)
    if kind != "hat":  # an empty strip log is right where nothing is stripped
        assert len(failures) == asked


def test_refuses_to_run_without_the_library(tmp_path):
    copy = _copy_benchmark(tmp_path)
    proc = bench("hom_n10", cwd=tmp_path, script=copy / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
