"""``repro.lint`` — static circuit & analysis-configuration linter.

A rule engine over netlists and analysis configurations emitting
structured :class:`~repro.lint.diagnostics.Diagnostic` records in three
families (see ``docs/linting.md`` for the catalog):

- **SP1xx structural** — cycles as explicit paths, undriven/multi-driven
  nets, dead logic, dangling nets, duplicate names;
- **SP2xx engine cost** — the parity ``4^k`` blowup, Eq. 11 subset-table
  widths, Monte Carlo trial-cost estimates;
- **SP3xx accuracy** — reconvergent-fanout correlation metrics and static
  grid-coverage (MassLedger clipping) prediction.

Exposed on the CLI as ``spsta lint``; wired as an opt-out preflight into
``spsta analyze`` and the ``repro.verify`` conformance harness.

The diagnostics submodule is imported eagerly (``repro.netlist.core``
depends on it); the engine — which itself depends on the netlist package
— loads lazily through ``__getattr__`` to keep the import graph acyclic.
"""

from __future__ import annotations

from typing import List

from repro.lint.diagnostics import (
    Diagnostic,
    NetlistError,
    Severity,
    max_severity,
)

_ENGINE_EXPORTS = (
    "LintConfig", "LintFailure", "LintReport", "RULE_FAMILIES",
    "SCHEMA_VERSION", "baseline_keys", "load_baseline", "preflight",
    "report_from_error", "run_lint", "write_baseline",
)

__all__ = [
    "Diagnostic", "NetlistError", "Severity", "max_severity",
    *_ENGINE_EXPORTS,
]


def __getattr__(name: str) -> object:
    if name in _ENGINE_EXPORTS:
        from repro.lint import engine
        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(__all__)
