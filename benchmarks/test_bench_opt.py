"""Benchmark F3: optimizer loop with incremental vs full re-timing.

Writes ``benchmarks/results/BENCH_opt_loop.json`` — the same
``optimize_spsta`` annealing run (same seed, so bit-exact costs and
therefore identical accept/reject decisions) executed twice per
circuit: once repairing only the touched fan-out cone after each move
(``retime="incremental"``) and once recomputing the whole netlist
after each move (``retime="full"``).  The payload is validated against
``repro.experiments.bench_schema`` before it hits disk.

Measurement protocol matches ``test_bench_scenario.py``: every
(circuit, mode) sample runs in a fresh subprocess so allocator and
page-cache state from one run cannot skew another, and each cell takes
the median of ``REPEATS`` samples.  Only the annealing phase runs: the
greedy phase also prices moves with a variational gradient pass over
the worst endpoint's fan-in cone, which costs O(cone) and the same in
both modes, so it would only dilute the re-timing ratio.  The move
budget shrinks with circuit size to keep the full-pass baseline
affordable.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.conftest import save_artifact
from repro.experiments.bench_schema import (
    OPT_LOOP_VERSION,
    validate_opt_loop,
)

#: (circuit, anneal move budget, clock period) — fewer moves on the big
#: bench keeps the full-pass-per-move baseline affordable; the clock sits
#: just under each bench's critical arrival mean so the (unattainable)
#: yield target keeps the annealer working for the whole budget.
CIRCUITS = (("s1196", 60, 12.0), ("s9234", 16, 17.0))
HEADLINE_CIRCUIT = CIRCUITS[0][0]
SEED = 0
REPEATS = 3
MIN_SPEEDUP = 5.0  # defensive floor; the artifact records the real ratio

_RUNNER = """
import json
import time

import numpy as np

from repro.netlist.benchmarks import benchmark_circuit
from repro.opt import optimize_spsta

circuit, retime, moves = {circuit!r}, {retime!r}, {moves!r}
netlist = benchmark_circuit(circuit)
n_gates = sum(1 for g in netlist.combinational_gates)
t0 = time.perf_counter()
result = optimize_spsta(
    netlist, clock_period={clock!r}, max_iterations=0,
    anneal=True, anneal_moves=moves, max_area=float("inf"),
    target_yield=1.0,
    rng=np.random.default_rng({seed!r}), retime=retime)
seconds = time.perf_counter() - t0
print(json.dumps({{"seconds": seconds, "n_gates": n_gates,
                   "moves": len(result.moves),
                   "recomputed": result.recomputed_gates}}))
"""


def _run_isolated(circuit: str, retime: str, moves: int,
                  clock: float) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH", "")) \
        + env.get("PYTHONPATH", "")
    script = _RUNNER.format(circuit=circuit, retime=retime, moves=moves,
                            clock=clock, seed=SEED)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _median_sample(circuit: str, retime: str, moves: int,
                   clock: float) -> dict:
    samples = [_run_isolated(circuit, retime, moves, clock)
               for _ in range(REPEATS)]
    by_time = sorted(samples, key=lambda s: s["seconds"])
    median = dict(by_time[len(by_time) // 2])
    median["seconds"] = statistics.median(s["seconds"] for s in samples)
    return median


def test_opt_loop_artifact(results_dir):
    points = []
    for circuit, moves, clock in CIRCUITS:
        inc = _median_sample(circuit, "incremental", moves, clock)
        full = _median_sample(circuit, "full", moves, clock)
        assert inc["moves"] == full["moves"], \
            "same seed must produce the same move sequence"
        points.append({
            "circuit": circuit,
            "n_gates": inc["n_gates"],
            "moves": inc["moves"],
            "incremental_seconds": inc["seconds"],
            "full_seconds": full["seconds"],
            "speedup": full["seconds"] / inc["seconds"],
            "recomputed_gates": inc["recomputed"],
            "full_gate_evals": full["recomputed"],
        })
    headline = points[0]
    payload = {
        "report": "spsta-opt-loop",
        "version": OPT_LOOP_VERSION,
        "algebra": "moment",
        "metric": "yield",
        "repeats": REPEATS,
        "headline": {"circuit": HEADLINE_CIRCUIT,
                     "speedup": headline["speedup"]},
        "circuits": points,
    }
    validate_opt_loop(payload)
    save_artifact(results_dir, "BENCH_opt_loop.json",
                  json.dumps(payload, indent=2))
    assert headline["speedup"] >= MIN_SPEEDUP, (
        f"{HEADLINE_CIRCUIT} anneal loop: incremental re-timing only "
        f"{headline['speedup']:.2f}x over full-pass-per-move "
        f"(floor {MIN_SPEEDUP:.0f}x)")
