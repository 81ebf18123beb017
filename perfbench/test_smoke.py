"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs untraced and traced for about a second; the test checks
the result line's shape, that every metric of ``BENCHMARK.json`` is
emitted with its unit, that the output checks pass, and that each
per-layer metric is exercised by at least one workload.
"""

from __future__ import annotations

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that legitimately read 0 at smoke size: no disk
#: cache hits within one daemon, no pruning under the yield metric, no
#: optimizer moves once s27 meets its target, no early stop in s27's
#: tiny cones, and an overhead that can come out either side of zero.
MAY_BE_ZERO = {"serve.disk_hits", "opt.pruned_candidates", "opt.moves",
               "opt.recomputed_gates", "opt.accept_ratio",
               "incremental.skipped_gates", "trace.overhead_s"}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {(w, t): run(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(results: dict, workload: str, trace: int) -> None:
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_layer_metric_exercised(results: dict) -> None:
    seen = {name for (_, trace), result in results.items() if trace
            for name, metric in result["metrics"].items()
            if metric["value"] != 0}
    missing = {m["name"] for m in SPEC["per_layer"]} - seen - MAY_BE_ZERO
    assert not missing


def test_bare_directory_fails() -> None:
    """Without the program's sources the benchmark exits non-zero and
    prints no result."""
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "perfbench"
    bench.mkdir(parents=True)
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "reference.json").write_text(
        (ROOT / "perfbench" / "reference.json").read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
             "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
