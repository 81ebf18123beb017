"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload signoff-batch --seed 1 \\
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer``
metrics, taken from a run that alternates untraced and traced rounds.
The line before it is a JSON detail record: the environment, every
workload-specific figure with its unit, sample counts, failures and,
when traced, the total and self time of every span name.  A traced run
also writes its spans to ``.perfbench-out/``.

``--smoke`` shrinks every workload to a few seconds (for the smoke
test); its numbers are not comparable with full-size runs.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import shutil
import sys
import time
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import measure  # noqa: E402
from perfbench.hier_scale import HierScale  # noqa: E402
from perfbench.serve_session import ServeSession  # noqa: E402
from perfbench.signoff import SignoffBatch  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workload import Workload  # noqa: E402

WORKLOADS = {w.name: w for w in (SignoffBatch, ServeSession, HierScale)}

#: Set-ups per run; ``setup_s`` is the median import time plus the
#: median set-up time, in reference seconds.
SETUP_REPEATS = 3

#: Rounds per run at least, so a median can drop one disturbed round; a
#: run then stops once its rounds have used the time budget, or the next
#: one would overrun it by half a round.
MIN_ROUNDS = 3

#: Per-layer values that come from the traced set-up, not the rounds.
SETUP_METRICS = ("netlist.load_s", "netlist.generate_s")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, setup: Dict[str, Tuple[float, float, int]],
                 rounds: List[Tuple[float, float, bool]]
                 ) -> Dict[str, float]:
    """Per-layer metrics: span totals and counters per traced round
    (work outside the rounds, such as serve's cold rebuilds, is spread
    over them), ratios over the whole traced run."""
    traced = [r[0] for r in rounds if r[2]]
    plain = [r[0] for r in rounds if not r[2]]
    n = len(traced)
    totals = tracer.totals()
    values: Dict[str, float] = {}
    for name, (total, _own, _calls) in totals.items():
        values[f"{name}_s"] = total / n
    for name in SETUP_METRICS:
        values[name] = setup.get(name[:-2], (0.0, 0.0, 0))[0]
    c = tracer.counters
    for name, value in c.items():
        values[name] = value / n
    values["serve.self_s"] = totals.get("serve.request",
                                        (0.0, 0.0, 0))[1] / n
    values["hier.self_s"] = totals.get("hier.run", (0.0, 0.0, 0))[1] / n
    values["spsta.weight_table_hit_ratio"] = ratio(
        c.get("spsta.weight_table_hits", 0.0),
        c.get("spsta.weight_table_hits", 0.0)
        + c.get("spsta.weight_table_misses", 0.0))
    values["spsta.kernel_cache_hit_ratio"] = ratio(
        c.get("spsta.kernel_cache_hits", 0.0),
        c.get("spsta.kernel_cache_hits", 0.0)
        + c.get("spsta.kernel_cache_misses", 0.0))
    values["opt.accept_ratio"] = ratio(c.get("opt.accepted_moves", 0.0),
                                       c.get("opt.moves", 0.0))
    values["incremental.useful_ratio"] = ratio(
        c.get("incremental.recomputed_gates", 0.0)
        - c.get("incremental.skipped_gates", 0.0),
        c.get("incremental.cone_gates", 0.0))
    # Run-wide figures read from the program's own status counters.
    for name in ("serve.cache_hit_ratio", "serve.disk_hits"):
        values[name] = c.get(name, 0.0)
    values["trace.overhead_s"] = (measure.median(traced)
                                  - measure.median(plain))
    values["trace.spans"] = len(tracer.spans) / n
    return values


def run(workload: Workload, seconds: float, trace: bool
        ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Set up, run rounds for ``seconds``, check; (metric values, detail).

    With ``trace`` the rounds alternate untraced and traced, starting
    untraced, so ``MIN_ROUNDS`` gives at least one of each.
    """
    clock = workload.clock
    os.sched_setaffinity(0, clock.cpus)
    imports: List[Tuple[float, float]] = []
    for _ in range(SETUP_REPEATS):
        clock.call(measure.import_fresh, workload.modules, SRC,
                   record=lambda *times: imports.append(times))
    tracer = Tracer() if trace else None
    builds: List[Tuple[float, float]] = []
    for i in range(SETUP_REPEATS):
        if tracer is not None and i == SETUP_REPEATS - 1:
            workload.install_trace(tracer)
            tracer.active = True
        clock.call(workload.setup,
                   record=lambda *times: builds.append(times))

    def setup_seconds(ref: int) -> float:
        return (measure.median([t[ref] for t in imports])
                + measure.median([t[ref] for t in builds]))
    setup_totals: Dict[str, Tuple[float, float, int]] = {}
    setup_spans: Dict[str, Any] = {}
    if tracer is not None:
        setup_totals = tracer.totals()
        setup_spans = tracer.to_json()
        tracer.spans = []

    rounds: List[Tuple[float, float, bool]] = []
    start = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    workload.begin()
    while True:
        spent = sum(r[0] for r in rounds)   # the budget covers rounds only
        if len(rounds) >= MIN_ROUNDS \
                and spent + rounds[-1][0] / 2 >= seconds:
            break
        if rounds:
            workload.between(spent / seconds)
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.active = traced
        c0 = measure.cpu_seconds()
        t0 = time.perf_counter()
        workload.round()
        rounds.append((time.perf_counter() - t0,
                       measure.cpu_seconds() - c0, traced))
        if tracer is not None:
            tracer.active = True          # cold phases between rounds
    if tracer is not None:
        tracer.active = False
        workload.finish_trace(tracer)
        tracer.restore()
    timed = time.perf_counter() - start

    checked = time.perf_counter()
    try:
        workload.check()
    except Exception as exc:  # noqa: BLE001 - a crashed check is a failure
        workload.attempted += 1
        workload.fail(f"output check crashed: {type(exc).__name__}: {exc}")
    checked = time.perf_counter() - checked

    values: Dict[str, float] = {
        "setup_s": setup_seconds(1),
        "wall_ref_s": workload.typical_round(),
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    figures = {name: {"value": v, "unit": u}
               for name, (v, u) in workload.figures().items()}
    figures["setup_wall_s"] = {"value": setup_seconds(0), "unit": "s"}
    figures["round_wall_s"] = {"value": workload.typical_round(False),
                               "unit": "s"}
    figures["probe_s"] = {"value": measure.median(clock.probes),
                          "unit": "s"}
    figures["failed_frac"] = {
        "value": workload.failed / max(workload.attempted, 1),
        "unit": "ratio"}
    detail: Dict[str, Any] = {
        "workload": workload.name, "seed": workload.seed,
        "trace": trace, "smoke": workload.smoke,
        "environment": measure.environment(),
        "timed_s": timed, "check_s": checked,
        "import_s": imports, "build_s": builds,
        "rounds": [{"seconds": r[0], "cpu_s": r[1], "traced": r[2]}
                   for r in rounds],
        "figures": figures,
        "ops": {label: {"wall_s": measure.median(times),
                        "ref_s": measure.median(
                            workload.op_ref_seconds[label]),
                        "calls": len(times)}
                for label, times in workload.op_seconds.items()},
        "probes_s": clock.probes,
        "failures": workload.failures,
    }
    if tracer is not None:
        values.update(layer_values(tracer, setup_totals, rounds))
        layers = {name: {"total_s": t, "self_s": s, "calls": n}
                  for name, (t, s, n) in tracer.totals().items()}
        detail["layers"] = layers
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload.name}-{workload.seed}.json"
        path.write_text(json.dumps({"setup": setup_spans,
                                    "timed": tracer.to_json(),
                                    "detail": detail}))
        detail["trace_file"] = str(path.relative_to(ROOT))
    return values, detail


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work_dir = (ROOT / ".perfbench-work"
                / f"{args.workload}-{args.seed}-{os.getpid()}")
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, work_dir)
        values, detail = run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass                      # another run still uses it
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        metrics[name] = {"value": float(values.get(name, 0.0)),
                         "unit": metric["unit"]}
    print(json.dumps(detail))
    print(json.dumps({"correct": workload.failed == 0,
                      "attempted": workload.attempted,
                      "failed": workload.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
