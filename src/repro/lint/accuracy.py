"""SP3xx accuracy rules: where SPSTA's modelling assumptions will bite.

Two static predictors:

- **Reconvergent fanout (SP301/SP302).**  Eq. 11's weighted sum assumes
  gate inputs are statistically independent; a net that fans out and
  reconverges violates that exactly at the reconvergence gate.  The check
  propagates, in one topological sweep, a bitset of "stem" nets (fan-out
  >= 2) through every cone; a stem present on two or more inputs of the
  same gate reconverges there.  The correlation depth — levels between the
  stem and its reconvergence point — measures how much shared history the
  independence approximation discards.

- **Grid coverage (SP303).**  The grid algebra silently loses probability
  mass past the ``TimeGrid`` edge (accounted at runtime by the
  :class:`~repro.stats.grid.MassLedger`).  A longest-path DP over the
  delay model's per-gate (mu, sigma) bounds each endpoint's arrival
  support as ``mu + k·sigma``; a bound past the grid extent predicts the
  ledger's clipping before any density is propagated.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.bounds.stems import StemRecord, find_reconvergence
from repro.lint.diagnostics import Diagnostic, Severity
from repro.stats.normal import norm_cdf

if TYPE_CHECKING:
    from repro.lint.engine import LintConfig
    from repro.netlist.core import Netlist

__all__ = [
    "StemRecord", "find_reconvergence", "accuracy_diagnostics",
    "reconvergence_diagnostics", "endpoint_support_bounds",
    "grid_coverage_diagnostics",
]


def accuracy_diagnostics(netlist: "Netlist",
                         config: "LintConfig") -> List[Diagnostic]:
    diagnostics = reconvergence_diagnostics(netlist, config)
    if config.grid is not None:
        diagnostics.extend(grid_coverage_diagnostics(netlist, config))
    return diagnostics


# -- SP301/SP302: reconvergent fanout ------------------------------------
#
# The bitset stem sweep itself lives in ``repro.bounds.stems``
# (shared with the bounds engine's regime classifier); ``StemRecord`` and
# ``find_reconvergence`` are re-exported above for compatibility.


def reconvergence_diagnostics(netlist: "Netlist",
                              config: "LintConfig") -> List[Diagnostic]:
    records, endpoint_metrics = find_reconvergence(netlist)
    diagnostics: List[Diagnostic] = []
    ranked = sorted(records.values(),
                    key=lambda r: (-r.max_depth, r.stem))
    for record in ranked[:config.max_reports]:
        diagnostics.append(Diagnostic(
            rule="SP301", severity=Severity.WARNING, net=record.stem,
            gate=record.first_gate,
            message=f"reconvergent fanout: net {record.stem} reconverges "
                    f"at gate {record.first_gate} "
                    f"({record.n_gates} reconvergence point"
                    f"{'s' if record.n_gates != 1 else ''}, correlation "
                    f"depth {record.max_depth}); Eq. 11 treats the "
                    f"reconverging cones as independent",
            data={"stem": record.stem,
                  "first_reconvergence_gate": record.first_gate,
                  "reconvergence_gates": record.n_gates,
                  "max_correlation_depth": record.max_depth},
            suggestion="cross-check affected endpoints against Monte "
                       "Carlo (spsta verify) or the correlation-aware "
                       "algebra (repro.core.spsta_canonical)"))
    if len(ranked) > config.max_reports:
        rest = len(ranked) - config.max_reports
        diagnostics.append(Diagnostic(
            rule="SP301", severity=Severity.INFO,
            message=f"{rest} further reconvergent stem"
                    f"{'s' if rest != 1 else ''} suppressed "
                    f"(reporting cap {config.max_reports}; full count in "
                    f"SP302 data)",
            data={"suppressed_stems": rest,
                  "total_stems": len(ranked)}))
    if endpoint_metrics:
        def _rank(e: str) -> Tuple[int, int]:
            m = endpoint_metrics[e]
            return (m["max_correlation_depth"], m["reconvergent_stems"])

        worst = max(endpoint_metrics, key=_rank)
        w = endpoint_metrics[worst]
        diagnostics.append(Diagnostic(
            rule="SP302", severity=Severity.INFO, net=worst,
            message=f"{len(endpoint_metrics)} of {len(netlist.endpoints)} "
                    f"endpoints observe reconverged cones; worst is "
                    f"{worst} ({w['reconvergent_stems']} stems, "
                    f"correlation depth {w['max_correlation_depth']})",
            data={"endpoints": endpoint_metrics,
                  "total_stems": len(records)}))
    return diagnostics


# -- SP303: static grid-coverage prediction ------------------------------


def endpoint_support_bounds(netlist: "Netlist", config: "LintConfig",
                            ) -> Dict[str, Tuple[float, float]]:
    """Per-endpoint (mu_bound, sigma_bound) of the arrival support.

    Longest-path DP: along every path the means add and (independent gate
    delays) the variances add; taking the max of each separately bounds
    any single path's ``mu + k·sigma`` from above.
    """
    stats = config.input_stats
    launch_mu = max(stats.rise_arrival.mu, stats.fall_arrival.mu)
    launch_var = max(stats.rise_arrival.sigma,
                     stats.fall_arrival.sigma) ** 2
    hi_mu: Dict[str, float] = {}
    hi_var: Dict[str, float] = {}
    for net in netlist.launch_points:
        hi_mu[net] = launch_mu
        hi_var[net] = launch_var
    for gate in netlist.combinational_gates:
        delay = config.delay_model.delay(gate)
        hi_mu[gate.name] = max(hi_mu[src] for src in gate.inputs) + delay.mu
        hi_var[gate.name] = (max(hi_var[src] for src in gate.inputs)
                             + delay.sigma ** 2)
    return {net: (hi_mu[net], math.sqrt(hi_var[net]))
            for net in netlist.endpoints}


def grid_coverage_diagnostics(netlist: "Netlist",
                              config: "LintConfig") -> List[Diagnostic]:
    grid = config.grid
    assert grid is not None
    k = config.k_sigma
    diagnostics: List[Diagnostic] = []

    stats = config.input_stats
    launch_lo = min(
        stats.rise_arrival.mu - k * stats.rise_arrival.sigma,
        stats.fall_arrival.mu - k * stats.fall_arrival.sigma)
    if launch_lo < grid.start:
        diagnostics.append(Diagnostic(
            rule="SP303", severity=Severity.WARNING,
            message=f"launch arrival support extends to "
                    f"{launch_lo:.2f} ({k:g} sigma), below the grid "
                    f"start {grid.start:g}; launch densities will clip "
                    f"at the low edge",
            data={"edge": "low", "support_bound": launch_lo,
                  "grid_start": grid.start, "k_sigma": k},
            suggestion=f"extend the TimeGrid start to "
                       f"{math.floor(launch_lo)} or below"))

    overruns: List[Tuple[float, str, float, float]] = []
    for endpoint, (mu, sigma) in \
            endpoint_support_bounds(netlist, config).items():
        bound = mu + k * sigma
        if bound > grid.stop:
            overruns.append((bound - grid.stop, endpoint, mu, sigma))
    overruns.sort(key=lambda item: (-item[0], item[1]))
    for overrun, endpoint, mu, sigma in overruns[:config.max_reports]:
        margin = (grid.stop - mu) / sigma if sigma > 0.0 else math.inf
        tail = float(norm_cdf(-margin)) if margin != math.inf else 0.0
        diagnostics.append(Diagnostic(
            rule="SP303", severity=Severity.WARNING, net=endpoint,
            message=f"predicted grid clipping at endpoint {endpoint}: "
                    f"arrival support reaches {mu + k * sigma:.2f} "
                    f"(mu {mu:.2f} + {k:g} sigma), "
                    f"{overrun:.2f} past the grid stop {grid.stop:g} "
                    f"(per-path tail mass ~{tail:.2e}); the runtime "
                    f"MassLedger will clip this off the grid edge",
            data={"edge": "high", "endpoint": endpoint,
                  "support_bound": mu + k * sigma, "mu_bound": mu,
                  "sigma_bound": sigma, "grid_stop": grid.stop,
                  "overrun": overrun, "k_sigma": k,
                  "predicted_tail_mass": tail},
            suggestion=f"extend the TimeGrid stop to "
                       f"{math.ceil(mu + k * sigma)} or above"))
    if len(overruns) > config.max_reports:
        rest = len(overruns) - config.max_reports
        diagnostics.append(Diagnostic(
            rule="SP303", severity=Severity.INFO,
            message=f"{rest} further endpoint grid-coverage overrun"
                    f"{'s' if rest != 1 else ''} suppressed "
                    f"(reporting cap {config.max_reports})",
            data={"suppressed_endpoints": rest,
                  "total_overruns": len(overruns)}))
    return diagnostics
