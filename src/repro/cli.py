"""Command-line interface: ``spsta`` (or ``python -m repro``).

Subcommands:

- ``analyze`` — run SPSTA / SSTA / STA / Monte Carlo on a circuit and print
  the critical-endpoint report.
- ``table2`` / ``table3`` — regenerate the paper's tables.
- ``errors`` — print the abstract's error summary.
- ``report`` — per-endpoint slack / miss-probability signoff view.
- ``slack`` — per-net slack and slack histogram.
- ``testability`` — COP measures and optional BDD-miter ATPG.
- ``sweep`` — scenario-batched multi-corner sweep (docs/performance.md).
- ``hier`` — hierarchical partition-parallel analysis with interface-model
  caching (docs/performance.md, "Hierarchical analysis").
- ``verify`` — cross-engine differential conformance sweep (JSON report).
- ``lint`` — static circuit & configuration analysis (docs/linting.md).
- ``bounds`` — certified signal-probability intervals and arrival-time
  bound boxes from one static pass (docs/theory.md, "Interval bounds").
- ``stats`` — structural statistics of a circuit.
- ``generate`` / ``convert`` — synthesize circuits; .bench <-> Verilog.

Circuits are named benchmarks (``s27``, ``s208``, ... — see
``repro.netlist.benchmarks``) or paths to ``.bench`` files.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import sys
from typing import Any, Callable, Collection, Optional, Sequence

import numpy as np

from repro.core.inputs import InputStats
from repro.core.profiling import SpstaProfile
from repro.core.spsta import run_spsta
from repro.core.ssta import run_ssta
from repro.core.sta import run_sta
from repro.diskstore import StoreError
from repro.experiments.errors import error_summary, format_error_summary
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3, run_table3
from repro.netlist.analysis import circuit_stats, critical_endpoint
from repro.netlist.benchmarks import CircuitLoadError, load_circuit
from repro.sim.montecarlo import run_monte_carlo
from repro.sim.parallel import RetryPolicy
from repro.spec import (
    ALGEBRAS,
    CONFIGS,
    DEFAULT_ALGEBRA,
    DEFAULT_CONFIG,
    DEFAULT_GRID,
    AnalysisSpec,
    SpecError,
    decode_spec,
)


def _count_at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=`` for an integer count of at least ``minimum``:
    a value out of range exits 2 with the usage line."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    count.__name__ = "int"     # argparse's "invalid int value" wording
    return count


def _period(text: str) -> float:
    """argparse ``type=`` for a clock period: a value that is not > 0
    exits 2 with the usage line."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


_period.__name__ = "float"     # argparse's "invalid float value" wording


def _read_json_file(path: str, what: str) -> Any:
    """The parsed content of a JSON input file; a file that cannot be
    read or does not parse ends the run with one line naming the file
    and the problem (exit 1)."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read {what} {path}: "
                         f"{exc.strerror or exc}")
    except ValueError as exc:
        raise SystemExit(f"bad {what} {path}: not JSON ({exc})")


def _spec(args: argparse.Namespace,
          algebra: Optional[str] = None) -> AnalysisSpec:
    """The analysis the shared option group names (``--config``, plus
    ``--algebra``/``--grid`` where the subcommand has them)."""
    return decode_spec(args.config, algebra or getattr(args, "algebra", None),
                       getattr(args, "grid", None))


def _write_json(path: str, text: str) -> None:
    """One ``--json PATH|-`` report: stdout for ``-``, else the file
    (announced on stdout); either way it ends in a newline."""
    if path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n")
        print(f"wrote {path}")


def _mc_retry(args: argparse.Namespace) -> Optional[RetryPolicy]:
    """Check the shared MC fault-tolerance flags; the retry policy
    ``--mc-retries`` names, if any.

    The retry/checkpoint/deadline features are stream-mode-only (a
    ``--mc-mode waves`` run is one shard that keeps every wave), so using
    them with the default ``--mc-mode waves`` is a usage error, not a
    silent no-op.
    """
    wanted = {
        "--mc-retries": bool(args.mc_retries),
        "--mc-checkpoint": args.mc_checkpoint is not None,
        "--resume": args.resume,
        "--deadline": args.deadline is not None,
    }
    active = [flag for flag, given in wanted.items() if given]
    if active and args.mc_mode != "stream":
        raise SystemExit(
            f"{', '.join(active)} require(s) --mc-mode stream")
    if args.resume and not args.mc_checkpoint:
        raise SystemExit("--resume requires --mc-checkpoint DIR")
    return (RetryPolicy(max_attempts=args.mc_retries + 1)
            if args.mc_retries else None)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.lint import NetlistError, report_from_error

    config = _spec(args).stats
    try:
        netlist = load_circuit(args.circuit)
    except NetlistError as error:
        print(report_from_error(args.circuit, error).render())
        return 1
    if not args.no_lint:
        from repro.lint import LintConfig, LintFailure, preflight
        try:
            preflight(netlist, LintConfig(
                input_stats=config, trials=args.trials))
        except LintFailure as failure:
            print(failure.report.render(verbose=False))
            print("preflight lint failed; fix the errors above or rerun "
                  "with --no-lint")
            return 1
        from repro.bounds import compute_bounds
        certified = compute_bounds(netlist, stats=config)
        constants = sum(1 for iv in certified.sp.values()
                        if iv.is_point and iv.lo in (0.0, 1.0))
        regimes = certified.regime_counts
        print(f"{netlist.name}: certified bounds — "
              f"{constants} constant nets, regimes "
              f"{regimes['independent']} independent / {regimes['bdd']} "
              f"bdd / {regimes['frechet']} frechet, worst-endpoint "
              f"criticality >= {certified.critical_lower:.2f} "
              f"(k={certified.k_sigma:g})")
    endpoint, depth = critical_endpoint(netlist)
    print(f"{netlist.name}: critical endpoint {endpoint} (depth {depth})")
    sta = run_sta(netlist)
    lo, hi = sta.endpoint_window(endpoint)
    print(f"  STA bounds: [{lo:.2f}, {hi:.2f}]")
    ssta = run_ssta(netlist)
    spsta_profile = SpstaProfile() if args.profile else None
    partitions = args.partition if args.partition else (
        4 if args.hier else 0)
    if partitions:
        if args.engine != "fast":
            raise SystemExit(
                "--partition/--hier run the fast engine per region; "
                "drop --engine naive")
        from repro.hier import run_hier
        hier_run = run_hier(netlist, config, n_regions=partitions,
                            workers=args.spsta_workers,
                            profile=spsta_profile)
        part = hier_run.partition
        print(f"  hierarchical: {part.n_regions} regions in "
              f"{len(part.waves)} waves "
              f"({hier_run.dedup_hits} dedup hits)")
        spsta = hier_run.result
    else:
        spsta = run_spsta(netlist, config, engine=args.engine,
                          profile=spsta_profile)
    mc = None
    if args.trials > 0:
        mc = run_monte_carlo(netlist, config, args.trials,
                             rng=np.random.default_rng(args.seed),
                             mode=args.mc_mode, shards=args.shards,
                             workers=args.workers, retry=_mc_retry(args),
                             deadline=args.deadline,
                             checkpoint=args.mc_checkpoint,
                             resume=args.resume)
    for direction in ("rise", "fall"):
        p, mu, sigma = spsta.report(endpoint, direction)
        pair = getattr(ssta.arrivals[endpoint], direction)
        line = (f"  {direction:>4}: SPSTA P={p:.3f} mu={mu:.2f} "
                f"sd={sigma:.2f} | SSTA mu={pair.mu:.2f} sd={pair.sigma:.2f}")
        if mc is not None:
            m = mc.direction_stats(endpoint, direction)
            line += (f" | MC({args.trials}) P={m.probability:.3f} "
                     f"mu={m.mean:.2f} sd={m.std:.2f}")
        print(line)
    print(f"  SPSTA signal probability at endpoint: "
          f"{spsta.prob4[endpoint].signal_probability:.3f}")
    if mc is not None and args.mc_mode == "stream":
        print(mc.summary())
    if spsta_profile is not None:
        print(spsta_profile.render(indent="  "))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    spec = _spec(args)
    rows = run_table2(spec.stats, n_trials=args.trials, seed=args.seed,
                      mc_mode=args.mc_mode, shards=args.shards,
                      workers=args.workers, retry=_mc_retry(args),
                      deadline=args.deadline,
                      checkpoint_dir=args.mc_checkpoint, resume=args.resume)
    print(format_table2(rows, title=f"Table 2, configuration ({spec.config})"))
    print()
    print(format_error_summary(error_summary(rows)))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    if args.config_sweep:
        from repro.experiments.table3 import (
            format_config_sweep,
            run_config_sweep,
        )
        rows = run_config_sweep(CONFIGS)
        print(format_config_sweep(rows))
        return 0
    stats = _spec(args).stats
    rows = run_table3(stats, n_trials=args.trials, seed=args.seed,
                      mc_mode=args.mc_mode, shards=args.shards,
                      workers=args.workers, engine=args.engine,
                      profile=args.profile, retry=_mc_retry(args),
                      deadline=args.deadline,
                      checkpoint_dir=args.mc_checkpoint, resume=args.resume)
    print(format_table3(rows))
    return 0


def _cmd_errors(args: argparse.Namespace) -> int:
    for label, stats in CONFIGS.items():
        rows = run_table2(stats, n_trials=args.trials,
                          seed=args.seed)
        print(format_error_summary(
            error_summary(rows),
            title=f"Configuration ({label}) — error vs Monte Carlo (%)"))
        print()
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.netlist.bench import write_bench
    from repro.netlist.verilog import (
        VerilogParseError,
        parse_verilog_file,
        write_verilog,
    )

    source = Path(args.source)
    if not source.exists():
        raise SystemExit(f"no such file: {source}")
    if source.suffix == ".bench":
        netlist = load_circuit(args.source)
    elif source.suffix in (".v", ".verilog"):
        try:
            netlist = parse_verilog_file(source)
        except VerilogParseError as exc:
            raise CircuitLoadError(
                f"circuit {args.source!r} does not parse: {exc}") from exc
    else:
        raise SystemExit(f"unknown input format: {source.suffix!r} "
                         f"(expected .bench or .v)")
    target = Path(args.target)
    if target.suffix == ".bench":
        target.write_text(write_bench(netlist))
    elif target.suffix in (".v", ".verilog"):
        target.write_text(write_verilog(netlist))
    else:
        raise SystemExit(f"unknown output format: {target.suffix!r}")
    print(f"wrote {target} ({len(netlist.gates)} gates)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.netlist.bench import write_bench
    from repro.netlist.generator import GeneratorProfile, generate_circuit

    if args.gates < args.depth:
        args.parser.error(f"argument --gates: must be >= --depth "
                          f"({args.depth}), got {args.gates}")
    profile = GeneratorProfile(
        name=args.name, n_inputs=args.inputs, n_outputs=args.outputs,
        n_dffs=args.dffs, n_gates=args.gates, depth=args.depth,
        seed=args.seed, xor_fraction=args.xor_fraction)
    netlist = generate_circuit(profile)
    text = write_bench(netlist)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_slack(args: argparse.Namespace) -> int:
    from repro.core.slack import compute_slacks, slack_histogram

    netlist = load_circuit(args.circuit)
    result = compute_slacks(netlist, clock_period=args.clock)
    print(f"{netlist.name}: worst slack {result.worst_slack:+.3f} "
          f"at clock {args.clock:g}")
    critical = result.critical_nets()
    print(f"critical nets ({len(critical)}): "
          f"{', '.join(critical[:12])}"
          f"{' ...' if len(critical) > 12 else ''}")
    print("slack histogram:")
    for edge, count in slack_histogram(result):
        bar = "#" * min(count, 60)
        print(f"  {edge:>7.1f} | {count:>4} {bar}")
    return 0


def _cmd_testability(args: argparse.Namespace) -> int:
    from repro.testability import (
        compute_cop,
        patterns_for_confidence,
        random_pattern_coverage,
    )

    netlist = load_circuit(args.circuit)
    cop = compute_cop(netlist, args.probability)
    print(f"{netlist.name}: COP testability at launch P(1) = "
          f"{args.probability:g}")
    print(f"hardest faults:")
    for fault, d in cop.hardest_faults(args.top):
        needed = patterns_for_confidence(d, 0.95)
        needed_text = ("inf" if needed == float("inf")
                       else f"{needed:.0f}")
        print(f"  {str(fault):>10}: D={d:.4f}  "
              f"(~{needed_text} patterns for 95%)")
    for n in (16, 64, 256, 1024):
        print(f"expected coverage after {n:>4} random patterns: "
              f"{100 * random_pattern_coverage(cop, n):.1f}%")
    if args.atpg:
        from repro.testability.atpg import generate_test_set
        result = generate_test_set(netlist)
        print(f"deterministic test set: {len(result.vectors)} vectors, "
              f"{len(result.untestable)} untestable faults, "
              f"coverage {100 * result.coverage:.1f}%")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import run_conformance

    report = run_conformance(seed=args.seed, n_random=args.random,
                             benches=tuple(args.benches.split(",")),
                             trials=args.trials, config=_spec(args).stats)
    if args.json != "-":
        print(report.render())
    if args.json:
        _write_json(args.json, report.to_json())
    return 0 if report.passed else 1


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.opt import optimize_spsta

    spec = _spec(args)
    netlist = load_circuit(args.circuit)
    result = optimize_spsta(
        netlist, args.clock_period, metric=args.metric,
        k_sigma=args.k_sigma, target_yield=args.target_yield,
        max_area=args.max_area, size_step=args.size_step,
        max_size=args.max_size, base_delay=args.base_delay,
        delay_sigma=args.delay_sigma, stats=spec.stats,
        algebra=spec.algebra.build(), max_iterations=args.max_iterations,
        anneal=args.anneal, anneal_moves=args.anneal_moves,
        rng=np.random.default_rng(args.seed),
        mc_validate=args.mc_validate, verify_moves=args.verify_moves,
        bounds_pruning=not args.no_bounds_pruning)

    n_gates = len(netlist.combinational_gates)
    applied = sum(2 - m.accepted for m in result.moves)
    target = (f"target {args.target_yield:g}" if result.metric == "yield"
              else f"clock {args.clock_period:g}")
    print(f"{netlist.name}: {result.metric} "
          f"{result.metric_before:.6g} -> {result.metric_after:.6g} "
          f"({'met' if result.met_target else 'missed'} {target})")
    print(f"  area cost {result.area_cost:g} / {args.max_area:g}, "
          f"{len(result.sizes)} gates resized, "
          f"{result.accepted_moves} accepted moves "
          f"({result.iterations} greedy, {result.anneal_moves_run} anneal)")
    print(f"  incremental re-timing: {result.recomputed_gates} gate "
          f"evaluations for {applied} delay edits "
          f"(full-pass-per-move: {applied * n_gates})")
    print(f"  gradient pricing: {result.priced_gates} gate evaluations "
          f"for {result.iterations} greedy iterations "
          f"(whole-netlist: {result.iterations * n_gates})")
    if result.bounds_pruning:
        print(f"  bounds pruning: {result.pruned_candidates} gates and "
              f"{result.pruned_endpoints} endpoints certified "
              f"non-critical over the whole sizing box (result "
              f"bit-identical by construction)")
    if result.verified_moves:
        print(f"  conformance: {result.verified_moves} moves verified "
              f"bit-exact against a full pass")
    if result.mc_validation is not None:
        mc = result.mc_validation
        print(f"  MC oracle: joint yield {mc.joint_yield:.4f} "
              f"over {mc.trials} shared trials")

    if args.json:
        payload = {
            "report": "spsta-optimize",
            "circuit": netlist.name,
            "metric": result.metric,
            "clock_period": args.clock_period,
            "metric_before": result.metric_before,
            "metric_after": result.metric_after,
            "met_target": result.met_target,
            "area_cost": result.area_cost,
            "max_area": args.max_area,
            "sizes": dict(result.sizes),
            "iterations": result.iterations,
            "anneal_moves_run": result.anneal_moves_run,
            "accepted_moves": result.accepted_moves,
            "recomputed_gates": result.recomputed_gates,
            "full_pass_equivalent_gates": applied * n_gates,
            "priced_gates": result.priced_gates,
            "full_pricing_equivalent_gates": result.iterations * n_gates,
            "bounds_pruning": result.bounds_pruning,
            "pruned_candidates": result.pruned_candidates,
            "pruned_endpoints": result.pruned_endpoints,
            "verified_moves": result.verified_moves,
            "mc_validation": (
                None if result.mc_validation is None else
                {"trials": result.mc_validation.trials,
                 "joint_yield": result.mc_validation.joint_yield}),
            "moves": [{"phase": m.phase, "gate": m.gate, "size": m.size,
                       "accepted": m.accepted,
                       "metric_after": m.metric_after,
                       "recomputed": m.recomputed}
                      for m in result.moves],
        }
        _write_json(args.json, json.dumps(payload, indent=2))
    return 0


def _parse_corner_list(spec: str):
    """``name:scale[:sigma_scale],...`` -> tuple of Corners."""
    from repro.core.corners import Corner

    corners = []
    for item in spec.split(","):
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(
                f"--corners expects NAME:SCALE[:SIGMA_SCALE] items, "
                f"got {item!r}")
        try:
            corners.append(Corner(parts[0], float(parts[1]),
                                  float(parts[2]) if len(parts) == 3
                                  else 1.0))
        except ValueError as exc:
            raise SystemExit(f"bad corner {item!r}: {exc}")
    return tuple(corners)


def _parse_derate_spec(spec: str):
    """``START:STOP:COUNT[:SIGMA_SCALE]`` -> tuple of derate Corners."""
    from repro.core.scenario import derate_corners

    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise SystemExit(
            f"--derate-grid expects START:STOP:COUNT[:SIGMA_SCALE], "
            f"got {spec!r}")
    try:
        return derate_corners(float(parts[0]), float(parts[1]),
                              int(parts[2]),
                              float(parts[3]) if len(parts) == 4 else 1.0)
    except ValueError as exc:
        raise SystemExit(f"bad --derate-grid {spec!r}: {exc}")


def _sweep_scenarios(args: argparse.Namespace, stats: InputStats):
    """Scenario list from ``--scenarios FILE`` or the corner flags; a
    spec file's ``config`` key overrides ``--config``."""
    from repro.core.corners import Corner
    from repro.core.scenario import (
        derate_corners,
        scenarios_from_corners,
    )

    if args.scenarios:
        path = args.scenarios
        spec = _read_json_file(path, "scenario spec")
        if not isinstance(spec, dict):
            raise SystemExit(f"bad scenario spec {path}: expected a JSON "
                             f"object, got {type(spec).__name__}")
        if not isinstance(spec.get("corners", []), list):
            raise SystemExit(f"bad scenario spec {path}: 'corners' must "
                             f"be a JSON list")
        if "config" in spec:
            try:
                stats = decode_spec(spec["config"]).stats
            except SpecError as exc:
                raise SystemExit(f"bad scenario spec {path}: {exc}")
        corners = []
        for entry in spec.get("corners", ()):
            try:
                corners.append(Corner(entry["name"],
                                      float(entry["delay_scale"]),
                                      float(entry.get("sigma_scale", 1.0))))
            except (KeyError, TypeError, ValueError) as exc:
                raise SystemExit(
                    f"bad corner entry {entry!r} in {path}: {exc}")
        derate = spec.get("derate")
        if derate:
            if not isinstance(derate, dict):
                raise SystemExit(f"bad derate entry in {path}: expected a "
                                 f"JSON object")
            try:
                corners.extend(derate_corners(
                    float(derate.get("start", 0.8)),
                    float(derate.get("stop", 1.25)),
                    int(derate.get("count", 8)),
                    float(derate.get("sigma_scale", 1.0))))
            except (TypeError, ValueError) as exc:
                raise SystemExit(f"bad derate entry in {path}: {exc}")
        if not corners:
            raise SystemExit(
                f"scenario spec {path} defines no corners "
                f"(need 'corners' and/or 'derate')")
        return scenarios_from_corners(tuple(corners), stats=stats)
    corners = ()
    if args.corners:
        corners += _parse_corner_list(args.corners)
    if args.derate_grid:
        corners += _parse_derate_spec(args.derate_grid)
    if not corners:
        from repro.core.corners import STANDARD_CORNERS
        corners = STANDARD_CORNERS
    return scenarios_from_corners(corners, stats=stats)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from repro.core.scenario import run_scenario_batch, run_scenarios_looped

    spec = _spec(args)
    netlist = load_circuit(args.circuit)
    scenarios = _sweep_scenarios(args, spec.stats)
    sweep = run_scenario_batch(netlist, scenarios, spec.algebra.build(),
                               keep=args.keep)

    report = {
        "circuit": netlist.name,
        "algebra": args.algebra,
        "n_scenarios": len(scenarios),
        "keep": args.keep,
        "compile_seconds": sweep.compile_seconds,
        "execute_seconds": sweep.execute_seconds,
        "scenarios": [],
    }
    grid = spec.algebra.time_grid
    if grid is not None:
        report["grid"] = {"start": grid.start, "stop": grid.stop,
                          "n": grid.n}
    for scenario, result in zip(sweep.scenarios, sweep.results):
        worst = None
        for net in netlist.endpoints:
            for direction in ("rise", "fall"):
                p, mu, sigma = result.report(net, direction)
                if p <= 0.0:
                    continue
                if worst is None or mu > worst["mean"]:
                    worst = {"endpoint": net, "direction": direction,
                             "probability": p, "mean": mu, "std": sigma}
        report["scenarios"].append({"name": scenario.name, "worst": worst})
    if args.compare_looped:
        t0 = time.perf_counter()
        run_scenarios_looped(netlist, scenarios, spec.algebra.build)
        looped = time.perf_counter() - t0
        batched = sweep.compile_seconds + sweep.execute_seconds
        report["looped_seconds"] = looped
        report["speedup"] = looped / batched if batched > 0 else float("inf")

    if args.json:
        _write_json(args.json, json.dumps(report, indent=2))
    if args.json != "-":
        print(f"{netlist.name}: {len(scenarios)} scenarios "
              f"({args.algebra} algebra) compiled in "
              f"{sweep.compile_seconds * 1e3:.1f}ms, executed in "
              f"{sweep.execute_seconds * 1e3:.1f}ms")
        for entry in report["scenarios"]:
            worst = entry["worst"]
            if worst is None:
                print(f"  {entry['name']:>16}: no occurring endpoint "
                      f"transition")
                continue
            print(f"  {entry['name']:>16}: worst {worst['endpoint']} "
                  f"{worst['direction']} P={worst['probability']:.3f} "
                  f"mu={worst['mean']:.3f} sd={worst['std']:.3f}")
        if "speedup" in report:
            print(f"  looped fast engine: {report['looped_seconds']:.2f}s, "
                  f"batched speedup {report['speedup']:.1f}x")
    if args.profile:
        print(sweep.profile.render())
    return 0


def _cmd_hier(args: argparse.Namespace) -> int:
    import time

    from repro.hier import InterfaceModelStore, run_hier

    spec = _spec(args)
    netlist = load_circuit(args.circuit)
    store = InterfaceModelStore(args.cache) if args.cache else None
    retry = (RetryPolicy(max_attempts=args.retries + 1)
             if args.retries else None)
    profile = SpstaProfile() if args.profile else None

    t0 = time.perf_counter()
    run = run_hier(netlist, spec.stats, algebra_spec=spec.algebra,
                   n_regions=args.partitions, workers=args.workers,
                   keep=args.keep, store=store, retry=retry,
                   deadline=args.deadline, profile=profile)
    hier_seconds = time.perf_counter() - t0
    partition = run.partition

    report = {
        "circuit": netlist.name,
        "algebra": args.algebra,
        "partitions": args.partitions,
        "workers": args.workers,
        "keep": args.keep,
        "seconds": hier_seconds,
        "complete": run.complete,
        "deadline_expired": run.deadline_expired,
        "pending_regions": list(run.pending_regions),
        "cache": {"hits": run.cache_hits, "misses": run.cache_misses,
                  "dedup_hits": run.dedup_hits},
        "partition": {
            "n_regions": partition.n_regions,
            "n_edges": len(partition.edges),
            "waves": [list(wave) for wave in partition.waves],
            "max_boundary_width": partition.max_boundary_width,
            "regions": [{"index": r.index, "gates": r.n_gates,
                         "inputs": len(r.inputs),
                         "cut_inputs": len(r.cut_inputs),
                         "outputs": len(r.outputs)}
                        for r in partition.regions]},
        "regions": [{"index": r.index, "gates": r.n_gates,
                     "source": r.source,
                     "seconds": round(r.seconds, 6),
                     "attempts": r.attempts}
                    for r in run.reports],
        "endpoints": [
            {"net": net, "direction": direction,
             "probability": p, "mean": mean, "std": std}
            for net, direction, p, mean, std
            in run.endpoint_rows(netlist)],
    }
    grid = spec.algebra.time_grid
    if grid is not None:
        report["grid"] = {"start": grid.start, "stop": grid.stop,
                          "n": grid.n}
    if args.compare_flat:
        t0 = time.perf_counter()
        flat = run_spsta(netlist, spec.stats, algebra=spec.algebra.build())
        flat_seconds = time.perf_counter() - t0
        worst = {"probability": 0.0, "mean": 0.0, "std": 0.0}
        for net, direction, p, mean, std in run.endpoint_rows(netlist):
            fp, fmean, fstd = flat.report(net, direction)
            worst["probability"] = max(worst["probability"], abs(p - fp))
            if all(map(np.isfinite, (mean, fmean))):
                worst["mean"] = max(worst["mean"], abs(mean - fmean))
                worst["std"] = max(worst["std"], abs(std - fstd))
        report["compare_flat"] = {
            "flat_seconds": flat_seconds,
            "speedup": (flat_seconds / hier_seconds
                        if hier_seconds > 0 else float("inf")),
            "max_endpoint_delta": worst}

    if args.json:
        _write_json(args.json, json.dumps(report, indent=2))
    if args.json != "-":
        print(partition.summary())
        for region_report in run.reports:
            print("  " + region_report.format())
        cache_text = (f", cache {run.cache_hits} hits / "
                      f"{run.cache_misses} misses" if store else "")
        print(f"{netlist.name}: {args.partitions} partitions on "
              f"{args.workers} workers ({args.algebra}) in "
              f"{hier_seconds:.2f}s; {run.dedup_hits} dedup "
              f"hits{cache_text}")
        if not run.complete:
            print(f"  deadline expired: regions "
                  f"{', '.join(map(str, run.pending_regions))} pending "
                  f"(rerun with --cache to resume)")
        for entry in report["endpoints"][:8]:
            print(f"  {entry['net']:>12} {entry['direction']:>4}: "
                  f"P={entry['probability']:.3f} "
                  f"mu={entry['mean']:.3f} sd={entry['std']:.3f}")
        if args.compare_flat:
            cmp = report["compare_flat"]
            deltas = cmp["max_endpoint_delta"]
            print(f"  flat fast engine: {cmp['flat_seconds']:.2f}s "
                  f"(speedup {cmp['speedup']:.2f}x), worst endpoint "
                  f"deltas P={deltas['probability']:.3g} "
                  f"mu={deltas['mean']:.3g} sd={deltas['std']:.3g}")
    if profile is not None:
        print(profile.render())
    return 0 if run.complete else 3


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        LintConfig,
        NetlistError,
        Severity,
        baseline_keys,
        report_from_error,
        run_lint,
        write_baseline,
    )

    try:
        baseline = (baseline_keys(_read_json_file(args.baseline,
                                                  "lint baseline"),
                                  args.baseline)
                    if args.baseline else frozenset())
    except ValueError as exc:
        raise SystemExit(str(exc))
    # lint has --grid (the SP303 coverage prediction) but no --algebra.
    spec = _spec(args, algebra="grid" if args.grid else None)
    try:
        netlist = load_circuit(args.circuit)
    except NetlistError as error:
        report = report_from_error(args.circuit, error, baseline)
    else:
        config = LintConfig(
            input_stats=spec.stats,
            trials=args.trials,
            max_parity_fanin=args.max_parity_fanin,
            n_scenarios=args.scenarios,
            grid=spec.algebra.time_grid,
            n_partitions=args.partitions,
            n_workers=args.lint_workers,
            clock_period=args.clock_period,
            disabled=frozenset(args.disable.split(","))
            if args.disable else frozenset())
        report = run_lint(netlist, config, baseline)
    if args.write_baseline:
        write_baseline(report, args.write_baseline)
        print(f"wrote baseline {args.write_baseline}")
    if args.json:
        _write_json(args.json, report.to_json())
    if args.json != "-":
        print(report.render())
    if args.fail_on == "never":
        return 0
    return 0 if report.passed(Severity.parse(args.fail_on)) else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.bounds import compute_bounds

    stats = _spec(args).stats
    netlist = load_circuit(args.circuit)
    result = compute_bounds(
        netlist, stats=stats, k_sigma=args.k_sigma,
        clock_period=args.clock_period,
        max_cone_inputs=args.max_cone_inputs,
        max_bdd_nodes=args.max_bdd_nodes)

    regimes = result.regime_counts
    widths = [iv.width for iv in result.sp.values()]
    constants = sum(1 for iv in result.sp.values()
                    if iv.is_point and iv.lo in (0.0, 1.0))
    print(f"{netlist.name}: certified bounds over {len(result.sp)} nets "
          f"(k={args.k_sigma:g})")
    print(f"  SP regimes: {regimes['independent']} independent, "
          f"{regimes['bdd']} bdd-exact, {regimes['frechet']} frechet"
          f"{' (node cap hit)' if result.bdd_exhausted else ''}")
    print(f"  SP widths: max {max(widths):.4f}, "
          f"mean {sum(widths) / len(widths):.4f}; "
          f"{constants} certified-constant nets")
    print(f"  worst-endpoint criticality >= {result.critical_lower:.3f}")
    ranked = sorted(result.endpoint_criticality.items(),
                    key=lambda item: -item[1][1])
    for net, (lo, hi) in ranked[:args.endpoints]:
        print(f"  {net:>12}: criticality in [{lo:.3f}, {hi:.3f}]")
    if args.clock_period is not None:
        lo, hi = result.yield_bounds(args.clock_period)
        never = result.never_critical_endpoints(args.clock_period)
        pruned = result.non_critical_gates(args.clock_period)
        print(f"  at clock {args.clock_period:g}: timing yield in "
              f"[{lo:.4f}, {hi:.4f}], {len(never)} endpoints and "
              f"{len(pruned)} gates certified non-critical")
    if args.json:
        _write_json(args.json, json.dumps(result.to_dict(), indent=2))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import generate_report

    stats = _spec(args).stats
    netlist = load_circuit(args.circuit)
    report = generate_report(netlist, clock_period=args.clock,
                             stats=stats,
                             n_paths=args.paths)
    print(report.render(max_endpoints=args.endpoints))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        Server,
        ServeOptions,
        run_canary,
        serve_http,
        serve_stdio,
    )
    from repro.serve.daemon import _SessionLog

    server = Server(ServeOptions(
        fail_on=args.fail_on,
        cache_entries=args.cache_entries,
        cache_dir=args.cache,
        max_request_bytes=args.max_request_bytes,
        default_config=args.config,
        default_algebra=args.algebra,
        default_grid=args.grid))
    if args.canary:
        passed, rendered = run_canary(trials=args.canary_trials)
        print(rendered, file=sys.stderr)
        if not passed:
            print("canary conformance check FAILED; refusing to serve",
                  file=sys.stderr)
            return 1
        print("canary conformance check passed", file=sys.stderr)
    if args.session_log:
        server.session_log = _SessionLog(Path(args.session_log))
    if args.http is not None:
        print(f"spsta serve: HTTP on {args.host}:{args.http}",
              file=sys.stderr)
        return serve_http(server, args.host, args.http)
    return serve_stdio(server)


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = circuit_stats(load_circuit(args.circuit))
    print(f"{stats.name}: {stats.n_inputs} PI, {stats.n_outputs} PO, "
          f"{stats.n_dffs} DFF, {stats.n_gates} gates, "
          f"depth {stats.depth}, max fan-in {stats.max_fanin}")
    for gate_type, count in sorted(stats.gate_histogram.items()):
        print(f"  {gate_type:>5}: {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spsta",
        description="Signal Probability Based Statistical Timing Analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mc_engine_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--mc-mode", choices=("waves", "stream"),
                         default="waves",
                         help="Monte Carlo engine: retain waves, or stream "
                              "per-net statistics (memory-bounded)")
        cmd.add_argument("--shards", type=_count_at_least(1), default=1,
                         help="trial shards for --mc-mode stream")
        cmd.add_argument("--workers", type=_count_at_least(1), default=1,
                         help="processes for --mc-mode stream")
        cmd.add_argument("--mc-retries", type=_count_at_least(0), default=0,
                         help="per-shard retry attempts after the first "
                              "try, with exponential backoff (stream mode; "
                              "see docs/robustness.md)")
        cmd.add_argument("--mc-checkpoint", metavar="DIR",
                         help="persist each completed shard to DIR "
                              "(atomic, run-keyed; stream mode)")
        cmd.add_argument("--resume", action="store_true",
                         help="with --mc-checkpoint: skip shards already "
                              "on disk; the merged result is bit-identical "
                              "to an uninterrupted run")
        cmd.add_argument("--deadline", type=float, metavar="SECONDS",
                         help="stop dispatching new shards after this "
                              "budget and merge what completed (stream "
                              "mode; partial runs report widened errors)")

    def add_spec_args(cmd: argparse.ArgumentParser,
                      algebras: Collection[str] = ()) -> None:
        """The analysis-spec options (repro.spec): --config, plus
        --algebra (and --grid, if grid is among ``algebras``)."""
        cmd.add_argument("--config", default=DEFAULT_CONFIG,
                         help="input statistics configuration: I or II")
        if algebras:
            cmd.add_argument("--algebra", choices=tuple(algebras),
                             default=DEFAULT_ALGEBRA,
                             help="arrival-time algebra")
        if "grid" in algebras:
            cmd.add_argument("--grid", default=DEFAULT_GRID,
                             help="TimeGrid as START:STOP:N for "
                                  "--algebra grid")

    def add_json_arg(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--json", help="write the JSON report to this "
                                        "path ('-' for stdout)")

    def add_spsta_engine_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--engine", choices=("fast", "naive"),
                         default="fast",
                         help="SPSTA propagation engine (fast: levelized "
                              "batched kernels for grid densities, the "
                              "per-gate sweep for closed-form algebras; "
                              "naive: per-gate reference sweep)")
        cmd.add_argument("--profile", action="store_true",
                         help="print SPSTA phase timings and work counters")

    analyze = sub.add_parser("analyze", help="run all analyzers on a circuit")
    analyze.add_argument("circuit", help="benchmark name or .bench path")
    add_spec_args(analyze)
    analyze.add_argument("--trials", type=_count_at_least(0), default=10_000,
                         help="Monte Carlo trials (0 disables MC)")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--no-lint", action="store_true",
                         help="skip the preflight lint (error-level "
                              "diagnostics abort the run)")
    analyze.add_argument("--partition", type=_count_at_least(0), default=0,
                         metavar="N",
                         help="run SPSTA hierarchically over N regions "
                              "(repro.hier; see 'spsta hier' for the "
                              "full control surface)")
    analyze.add_argument("--hier", action="store_true",
                         help="shorthand for --partition 4")
    add_mc_engine_args(analyze)
    add_spsta_engine_args(analyze)
    analyze.add_argument("--spsta-workers", type=_count_at_least(1),
                         default=1,
                         help="process pool size for the --partition/"
                              "--hier region scheduler")
    analyze.set_defaults(func=_cmd_analyze)

    lint = sub.add_parser(
        "lint",
        help="static circuit & configuration analysis (docs/linting.md)")
    lint.add_argument("circuit", help="benchmark name or .bench path")
    add_spec_args(lint)
    lint.add_argument("--trials", type=int, default=10_000,
                      help="Monte Carlo trial count the SP203 cost "
                           "estimate prices")
    lint.add_argument("--max-parity-fanin", type=int, default=10,
                      help="parity 4^k enumeration cap for SP201")
    lint.add_argument("--partitions", type=int, default=1,
                      help="price a hierarchical run with this many "
                           "regions (SP110 boundary width, SP205 "
                           "per-region memory / schedule bound)")
    lint.add_argument("--lint-workers", type=int, default=1,
                      help="worker count the SP205 schedule prediction "
                           "assumes")
    lint.add_argument("--scenarios", type=int, default=1,
                      help="scenario count a batched sweep would run; "
                           "scales the SP203 cost estimate and the SP204 "
                           "memory prediction")
    lint.add_argument("--grid",
                      help="TimeGrid as START:STOP:N (e.g. -8:60:2048); "
                           "enables the SP303 grid-coverage prediction")
    lint.add_argument("--clock-period", type=_period, default=None,
                      help="clock period for the SP404/SP405 bounds "
                           "rules (static yield bounds and the "
                           "non-critical-cone threshold)")
    add_json_arg(lint)
    lint.add_argument("--fail-on", choices=("error", "warning", "never"),
                      default="error",
                      help="exit nonzero at this severity or worse "
                           "(default: error)")
    lint.add_argument("--baseline",
                      help="baseline file of suppressed rule:location "
                           "keys")
    lint.add_argument("--write-baseline",
                      help="write the current findings as a new baseline "
                           "file")
    lint.add_argument("--disable",
                      help="comma-separated rule IDs to disable "
                           "(e.g. SP301,SP109)")
    lint.set_defaults(func=_cmd_lint)

    table2 = sub.add_parser("table2", help="regenerate paper Table 2")
    add_spec_args(table2)
    table2.add_argument("--trials", type=_count_at_least(1), default=10_000)
    table2.add_argument("--seed", type=int, default=0)
    add_mc_engine_args(table2)
    table2.set_defaults(func=_cmd_table2)

    table3 = sub.add_parser("table3", help="regenerate paper Table 3")
    add_spec_args(table3)
    table3.add_argument("--trials", type=_count_at_least(1), default=10_000)
    table3.add_argument("--seed", type=int, default=0)
    table3.add_argument("--config-sweep", action="store_true",
                        help="run the CONFIG I/II sweep through the "
                             "scenario-batched backend (one compile per "
                             "circuit) instead of the per-config tables")
    add_mc_engine_args(table3)
    add_spsta_engine_args(table3)
    table3.set_defaults(func=_cmd_table3)

    errors = sub.add_parser(
        "errors", help="abstract error summary, both configs")
    errors.add_argument("--trials", type=_count_at_least(1), default=10_000)
    errors.add_argument("--seed", type=int, default=0)
    errors.set_defaults(func=_cmd_errors)

    sweep = sub.add_parser(
        "sweep",
        help="scenario-batched multi-corner sweep (compiled backend)")
    sweep.add_argument("circuit", help="benchmark name or .bench path")
    add_spec_args(sweep, ALGEBRAS)
    sweep.add_argument("--corners",
                       help="comma-separated NAME:SCALE[:SIGMA_SCALE] "
                            "corner list (default: standard corners)")
    sweep.add_argument("--derate-grid", metavar="START:STOP:COUNT[:SIGMA]",
                       help="append a linear derate-corner grid")
    sweep.add_argument("--scenarios", metavar="FILE",
                       help="JSON scenario spec file (keys: config, "
                            "corners, derate); overrides the corner flags")
    sweep.add_argument("--keep", choices=("all", "endpoints"),
                       default="endpoints",
                       help="grid algebra: retain all nets or trim "
                            "interior blocks after last use")
    sweep.add_argument("--compare-looped", action="store_true",
                       help="also time the per-scenario looped fast "
                            "engine and report the speedup")
    add_json_arg(sweep)
    sweep.add_argument("--profile", action="store_true",
                       help="print sweep phase timings and work counters")
    sweep.set_defaults(func=_cmd_sweep)

    hier = sub.add_parser(
        "hier",
        help="hierarchical partition-parallel analysis with "
             "interface-model caching")
    hier.add_argument("circuit", help="benchmark name or .bench path")
    add_spec_args(hier, ALGEBRAS)
    hier.add_argument("--partitions", type=_count_at_least(1), default=4,
                      help="target region count (DFF-boundary cut, "
                           "level-band fallback)")
    hier.add_argument("--workers", type=_count_at_least(1), default=1,
                      help="process pool size for independent regions "
                           "of one wave")
    hier.add_argument("--keep", choices=("interface", "all"),
                      default="interface",
                      help="merged nets: boundary/endpoint pins only "
                           "(memory-bounded) or every region net")
    hier.add_argument("--cache", metavar="DIR",
                      help="content-addressed interface-model store; "
                           "reruns and isomorphic regions hit the cache")
    hier.add_argument("--retries", type=_count_at_least(0), default=0,
                      help="per-region retry attempts after the first "
                           "try (docs/robustness.md)")
    hier.add_argument("--deadline", type=float, metavar="SECONDS",
                      help="stop dispatching regions after this budget; "
                           "completed regions merge, the rest report "
                           "pending (exit 3)")
    hier.add_argument("--compare-flat", action="store_true",
                      help="also run the flat fast engine and report "
                           "speedup and worst endpoint deltas")
    add_json_arg(hier)
    hier.add_argument("--profile", action="store_true",
                      help="print merged phase timings and work counters")
    hier.set_defaults(func=_cmd_hier)

    verify = sub.add_parser(
        "verify",
        help="cross-engine conformance sweep (exit 1 on divergence)")
    verify.add_argument("--seed", type=int, default=0,
                        help="root seed for fuzzed circuits and MC draws")
    verify.add_argument("--random", type=_count_at_least(0), default=3,
                        help="number of fuzzed random circuits")
    verify.add_argument("--benches", default="s27,s208",
                        help="comma-separated benchmark names")
    verify.add_argument("--trials", type=_count_at_least(1), default=20_000,
                        help="Monte Carlo oracle trials per circuit")
    add_spec_args(verify)
    add_json_arg(verify)
    verify.set_defaults(func=_cmd_verify)

    optimize = sub.add_parser(
        "optimize",
        help="SPSTA-in-the-loop gate sizing with incremental re-timing "
             "(docs/optimization.md)")
    optimize.add_argument("circuit")
    optimize.add_argument("--clock-period", type=_period, required=True,
                          help="clock period the metric is evaluated at")
    optimize.add_argument("--metric", choices=("yield", "mean-ksigma"),
                          default="yield",
                          help="cost: per-endpoint on-time yield product, "
                               "or worst endpoint mean + k*sigma")
    optimize.add_argument("--k-sigma", type=float, default=3.0,
                          help="k for the mean-ksigma metric and the "
                               "critical-path back-trace")
    optimize.add_argument("--target-yield", type=float, default=0.95,
                          help="stop once the yield metric reaches this")
    optimize.add_argument("--max-area", type=float, default=20.0,
                          help="upsizing budget: sum of (size - 1)")
    optimize.add_argument("--size-step", type=float, default=0.5)
    optimize.add_argument("--max-size", type=float, default=4.0)
    optimize.add_argument("--base-delay", type=float, default=1.0,
                          help="nominal unsized gate delay")
    optimize.add_argument("--delay-sigma", type=float, default=0.1,
                          help="unsized gate delay sigma (scales 1/size)")
    add_spec_args(optimize, ("moments", "mixture"))
    optimize.add_argument("--max-iterations", type=_count_at_least(0),
                          default=60,
                          help="greedy move budget")
    optimize.add_argument("--anneal", action="store_true",
                          help="refine with a simulated-annealing schedule")
    optimize.add_argument("--anneal-moves", type=int, default=120,
                          help="annealing proposal budget")
    optimize.add_argument("--seed", type=int, default=0,
                          help="seed for annealing and MC validation")
    optimize.add_argument("--mc-validate", type=int, default=0,
                          metavar="TRIALS",
                          help="validate the final point with a "
                               "shared-trial Monte Carlo joint yield")
    optimize.add_argument("--no-bounds-pruning", action="store_true",
                          help="disable the certified bounds pruning "
                               "preflight (mean-ksigma metric; the "
                               "result is bit-identical either way)")
    optimize.add_argument("--verify-moves", action="store_true",
                          help="assert every move's incremental state "
                               "bit-exact against a full pass (slow)")
    add_json_arg(optimize)
    optimize.set_defaults(func=_cmd_optimize)

    bounds = sub.add_parser(
        "bounds",
        help="certified SP intervals and arrival bound boxes "
             "(one static pass, no simulation)")
    bounds.add_argument("circuit", help="benchmark name or .bench path")
    add_spec_args(bounds)
    bounds.add_argument("--k-sigma", type=float, default=3.0,
                        help="k for the criticality bounds mu + k*sigma")
    bounds.add_argument("--clock-period", type=_period, default=None,
                        help="also report static yield bounds and the "
                             "certified non-critical set at this clock")
    bounds.add_argument("--max-cone-inputs", type=int, default=10,
                        help="launch-support cap for BDD-exact collapse "
                             "of reconvergent cones")
    bounds.add_argument("--max-bdd-nodes", type=int, default=100_000,
                        help="shared node budget for all cone collapses")
    bounds.add_argument("--endpoints", type=_count_at_least(0), default=5,
                        help="endpoints to list (widest bound first)")
    add_json_arg(bounds)
    bounds.set_defaults(func=_cmd_bounds)

    report = sub.add_parser("report",
                            help="per-endpoint slack/miss-probability report")
    report.add_argument("circuit")
    report.add_argument("--clock", type=_period, required=True,
                        help="clock period")
    add_spec_args(report)
    report.add_argument("--paths", type=_count_at_least(1), default=3,
                        help="number of critical paths to print")
    report.add_argument("--endpoints", type=_count_at_least(0), default=10,
                        help="endpoints to list (worst first)")
    report.set_defaults(func=_cmd_report)

    stats = sub.add_parser("stats", help="structural circuit statistics")
    stats.add_argument("circuit")
    stats.set_defaults(func=_cmd_stats)

    convert = sub.add_parser("convert",
                             help="convert between .bench and .v formats")
    convert.add_argument("source")
    convert.add_argument("target")
    convert.set_defaults(func=_cmd_convert)

    generate = sub.add_parser("generate",
                              help="generate a synthetic benchmark circuit")
    generate.add_argument("--name", default="synthetic")
    generate.add_argument("--inputs", type=_count_at_least(1), default=8)
    generate.add_argument("--outputs", type=_count_at_least(1), default=8)
    generate.add_argument("--dffs", type=int, default=8)
    generate.add_argument("--gates", type=int, default=100)
    generate.add_argument("--depth", type=_count_at_least(1), default=8)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--xor-fraction", type=float, default=0.0)
    generate.add_argument("--output", help=".bench path (default: stdout)")
    generate.set_defaults(func=_cmd_generate, parser=generate)

    testability = sub.add_parser(
        "testability", help="COP testability and optional BDD ATPG")
    testability.add_argument("circuit")
    testability.add_argument("--probability", type=float, default=0.5,
                             help="launch-point P(1)")
    testability.add_argument("--top", type=_count_at_least(0), default=8,
                             help="hardest faults to list")
    testability.add_argument("--atpg", action="store_true",
                             help="also build a deterministic test set")
    testability.set_defaults(func=_cmd_testability)

    slack = sub.add_parser("slack",
                           help="per-net slack and slack histogram")
    slack.add_argument("circuit")
    slack.add_argument("--clock", type=_period, required=True)
    slack.set_defaults(func=_cmd_slack)

    serve = sub.add_parser(
        "serve",
        help="long-lived incremental analysis daemon (JSON over "
             "stdio, or HTTP with --http)")
    # The spec options set the defaults of requests that omit them.
    add_spec_args(serve, ALGEBRAS)
    serve.add_argument("--fail-on", choices=("error", "warning", "never"),
                       default="error",
                       help="lint-preflight severity that rejects a "
                            "circuit (never disables the preflight)")
    serve.add_argument("--cache-entries", type=int, default=256,
                       help="in-memory result-cache LRU capacity")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="on-disk result cache shared across "
                            "restarts and workers")
    serve.add_argument("--max-request-bytes", type=int,
                       default=1 << 20,
                       help="refuse requests larger than this")
    serve.add_argument("--session-log", default=None, metavar="FILE",
                       help="append every request/response pair as "
                            "JSON Lines")
    serve.add_argument("--canary", action="store_true",
                       help="run the conformance harness on s27 before "
                            "serving; refuse to start on divergence")
    serve.add_argument("--canary-trials", type=int, default=4000,
                       help="Monte Carlo trials for the --canary check")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="serve HTTP on PORT instead of stdio")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --http")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand.  A circuit that does not load, a spec option
    that does not decode and a cache directory a store refuses each end
    the run with a one-line message (exit 1)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CircuitLoadError as exc:
        raise SystemExit(str(exc))
    except SpecError as exc:
        raise SystemExit(f"--{exc.field}: {exc}")
    except StoreError as exc:
        raise SystemExit(f"--cache: {exc}")


if __name__ == "__main__":
    sys.exit(main())
