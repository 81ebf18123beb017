"""The lint rule engine: configuration, execution, and reporting.

:func:`run_lint` sweeps a validated netlist through every registered rule
family and folds the findings into a :class:`LintReport` with a stable
JSON serialization (schema documented in ``docs/linting.md``) and a
baseline-suppression mechanism: known findings, keyed by
``rule:location``, can be recorded in a baseline file and silenced so a
legacy circuit only fails CI on *new* findings.

Circuits too malformed to construct never reach :func:`run_lint` —
``Netlist.__init__`` raises :class:`~repro.lint.diagnostics.NetlistError`
carrying the same structural diagnostics, and
:func:`report_from_error` folds that into a report so the CLI presents
one format either way.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.bounds.stems import shared_sweeps
from repro.core.delay import DelayModel, UnitDelay
from repro.core.inputs import CONFIG_I, InputStats
from repro.lint.accuracy import accuracy_diagnostics
from repro.lint.bounds_rules import bounds_diagnostics
from repro.lint.cost import cost_diagnostics
from repro.lint.diagnostics import (
    Diagnostic,
    NetlistError,
    Severity,
    max_severity,
)
from repro.lint.hier import hier_diagnostics
from repro.lint.structural import structural_warnings

if TYPE_CHECKING:
    from repro.netlist.core import Netlist

#: JSON schema version of the lint report (bump on breaking changes).
#: v2: the SP4xx bounds family joined the report.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class LintConfig:
    """Analysis configuration the engine-cost and accuracy rules price.

    Mirrors the knobs of an actual run: the parity enumeration cap and
    Monte Carlo trial count (SP2xx), and the input statistics, delay
    model, and time grid (SP303's support bounds).  ``grid=None`` skips
    the grid-coverage prediction.  ``n_scenarios`` is the scenario count
    of a batched sweep (``repro.core.scenario``): the SP203 analytic
    cost scales roughly linearly with it, and SP204 prices the sweep's
    ``n_scenarios × bins × nets`` grid-block footprint against
    ``scenario_memory_budget`` bytes.  ``n_partitions``/``n_workers``
    describe a hierarchical run: when ``n_partitions > 1`` the SP110 /
    SP205 rules partition the netlist exactly as ``repro.hier`` would
    and price boundary width, per-region peak memory (against
    ``hier_memory_budget``), and the wave-schedule speedup bound.
    ``disabled`` switches whole rules off; ``k_sigma`` is the
    support-bound width and matches the Gaussian kernel window of the
    grid engines.

    The SP4xx bounds rules add: ``clock_period`` (enables the SP405
    static yield bounds and anchors the SP404 non-critical threshold),
    ``near_constant_eps`` (SP401's rail distance), and the interval
    engine's cone-collapse budget ``max_cone_inputs`` /
    ``max_bdd_nodes``.
    """

    max_parity_fanin: int = 10
    subset_warn_fanin: int = 12
    subset_term_budget: int = 5_000_000
    trials: int = 10_000
    mc_cost_budget: int = 1_000_000_000
    n_scenarios: int = 1
    scenario_memory_budget: int = 2 * 1024 ** 3
    input_stats: InputStats = CONFIG_I
    delay_model: DelayModel = UnitDelay()
    grid: Optional[object] = None     # repro.stats.grid.TimeGrid
    k_sigma: float = 6.0
    max_reports: int = 20
    n_partitions: int = 1
    n_workers: int = 1
    hier_memory_budget: int = 2 * 1024 ** 3
    boundary_width_ratio: float = 0.5
    clock_period: Optional[float] = None
    near_constant_eps: float = 1e-6
    max_cone_inputs: int = 10
    max_bdd_nodes: int = 100_000
    disabled: FrozenSet[str] = frozenset()


#: Registered rule families, in reporting order.  Extending the linter is
#: adding a callable here (see docs/linting.md, "Adding a rule").
RuleCheck = Callable[["Netlist", LintConfig], Sequence[Diagnostic]]

RULE_FAMILIES: Tuple[Tuple[str, RuleCheck], ...] = (
    ("structural", lambda netlist, config: structural_warnings(netlist)),
    ("cost", cost_diagnostics),
    ("accuracy", accuracy_diagnostics),
    ("hier", hier_diagnostics),
    ("bounds", bounds_diagnostics),
)


@dataclass
class LintReport:
    """All findings of one lint run, ordered most severe first."""

    circuit: str
    diagnostics: Tuple[Diagnostic, ...]
    suppressed: Tuple[Diagnostic, ...] = ()
    constructible: bool = True

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def counts(self) -> Dict[str, int]:
        return {severity.value: self.count(severity)
                for severity in (Severity.ERROR, Severity.WARNING,
                                 Severity.INFO)}

    def passed(self, fail_on: Severity = Severity.ERROR) -> bool:
        worst = max_severity(self.diagnostics)
        return worst is None or worst < fail_on

    def select(self, rule_prefix: str) -> List[Diagnostic]:
        """Findings whose rule ID starts with ``rule_prefix``."""
        return [d for d in self.diagnostics
                if d.rule.startswith(rule_prefix)]

    def render(self, verbose: bool = True) -> str:
        counts = self.counts
        lines = [f"lint {self.circuit}: {counts['error']} errors, "
                 f"{counts['warning']} warnings, {counts['info']} notes"
                 + (f" ({len(self.suppressed)} baseline-suppressed)"
                    if self.suppressed else "")
                 + ("" if self.constructible
                    else " — netlist failed construction")]
        shown = (self.diagnostics if verbose else
                 [d for d in self.diagnostics
                  if d.severity is not Severity.INFO])
        lines.extend("  " + d.render().replace("\n", "\n  ")
                     for d in shown)
        return "\n".join(lines)

    def to_dict(self) -> Mapping[str, object]:
        return {
            "report": "spsta-lint",
            "version": SCHEMA_VERSION,
            "circuit": self.circuit,
            "constructible": self.constructible,
            "counts": self.counts,
            "suppressed": len(self.suppressed),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def _sorted(diagnostics: Sequence[Diagnostic]) -> Tuple[Diagnostic, ...]:
    return tuple(sorted(
        diagnostics,
        key=lambda d: (-d.severity.rank, d.rule, d.location)))


def run_lint(netlist: "Netlist",
             config: Optional[LintConfig] = None,
             baseline: FrozenSet[str] = frozenset()) -> LintReport:
    """Run every registered rule family over a validated netlist.

    The families share one stem sweep (SP301/302 and the SP4xx bounds
    engine both need it).
    """
    if config is None:
        config = LintConfig()
    findings: List[Diagnostic] = []
    with shared_sweeps():
        for _family, check in RULE_FAMILIES:
            findings.extend(d for d in check(netlist, config)
                            if d.rule not in config.disabled)
    kept = [d for d in findings if d.key not in baseline]
    dropped = [d for d in findings if d.key in baseline]
    return LintReport(circuit=netlist.name,
                      diagnostics=_sorted(kept),
                      suppressed=_sorted(dropped))


def report_from_error(circuit: str, error: NetlistError,
                      baseline: FrozenSet[str] = frozenset()) -> LintReport:
    """A report for a netlist that failed construction: the validator's
    structural diagnostics become the findings (same rules, same keys)."""
    kept = [d for d in error.diagnostics if d.key not in baseline]
    dropped = [d for d in error.diagnostics if d.key in baseline]
    return LintReport(circuit=circuit, diagnostics=_sorted(kept),
                      suppressed=_sorted(dropped), constructible=False)


# -- baseline suppression -------------------------------------------------


def load_baseline(path: Union[str, Path]) -> FrozenSet[str]:
    """Read a baseline file: ``{"version": 1, "suppress": ["RULE:loc"]}``."""
    return baseline_keys(json.loads(Path(path).read_text()), path)


def baseline_keys(payload: object, path: Union[str, Path]) -> FrozenSet[str]:
    """The keys a parsed baseline file suppresses (``ValueError`` if
    it has another shape)."""
    if not isinstance(payload, dict) or "suppress" not in payload:
        raise ValueError(
            f"{path}: not a lint baseline (expected a JSON object with a "
            f"'suppress' list)")
    keys = payload["suppress"]
    if (not isinstance(keys, list)
            or not all(isinstance(k, str) for k in keys)):
        raise ValueError(f"{path}: 'suppress' must be a list of strings")
    return frozenset(keys)


def write_baseline(report: LintReport, path: Union[str, Path]) -> None:
    """Write every current finding's key as the new baseline."""
    keys = sorted({d.key for d in report.diagnostics}
                  | {d.key for d in report.suppressed})
    Path(path).write_text(json.dumps(
        {"version": SCHEMA_VERSION, "circuit": report.circuit,
         "suppress": keys}, indent=2) + "\n")


class LintFailure(RuntimeError):
    """A preflight lint found error-level diagnostics.

    Raised by the opt-out preflight in ``analyze``/``repro.verify`` so a
    pathological circuit fails fast with structured diagnostics instead
    of a mid-propagation traceback.
    """

    def __init__(self, report: LintReport,
                 fail_on: Severity = Severity.ERROR) -> None:
        self.report = report
        self.fail_on = fail_on
        super().__init__(
            f"lint found {report.count(Severity.ERROR)} errors / "
            f"{report.count(Severity.WARNING)} warnings in "
            f"{report.circuit} (failing at {fail_on.value} or worse)")


def preflight(netlist: "Netlist",
              config: Optional[LintConfig] = None,
              fail_on: Severity = Severity.ERROR) -> LintReport:
    """Lint and raise :class:`LintFailure` at ``fail_on`` or worse."""
    report = run_lint(netlist, config)
    if not report.passed(fail_on):
        raise LintFailure(report, fail_on)
    return report
