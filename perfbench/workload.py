"""The shape every benchmark workload has, and its failure accounting."""

from __future__ import annotations

from pathlib import Path
import statistics
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.measure import HostClock, usable_cpus
from perfbench.spans import Tracer


class Workload:
    """One named set of inputs, driven from this process.

    The runner calls :meth:`setup` several times (the last state is
    kept), then :meth:`begin`, then :meth:`round` until the time budget
    is spent, calling :meth:`between` before each round after the
    first, and finally :meth:`check`, outside the timed section.
    Every operation and every output check adds to ``attempted``; a
    raised exception, an error response or a mismatch adds to
    ``failed`` as well.
    """

    name = ""
    #: Modules whose import time counts toward ``setup_s``.
    modules: Tuple[str, ...] = ()
    #: Whether the timed work runs on several CPUs at once.  A serial
    #: workload runs pinned to one CPU, so the clock probes the CPU it
    #: runs on; a parallel one runs on every usable CPU and the clock
    #: probes them all.
    parallel = False

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.tracer: Optional[Tracer] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        cpus = usable_cpus()
        self.clock = HostClock(cpus if self.parallel else cpus[:1])
        #: operation label -> wall time of each call, across rounds
        self.op_seconds: Dict[str, List[float]] = {}
        #: operation label -> reference time of each call, across rounds
        self.op_ref_seconds: Dict[str, List[float]] = {}

    # -- failure accounting -------------------------------------------------

    def fail(self, label: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(label)
        print(f"perfbench: FAILED {label}", file=sys.stderr)

    def op(self, label: str, fn: Callable[..., Any], *args: Any,
           **kwargs: Any) -> Any:
        """Run and time one operation; an exception counts as a failed
        op.  ``label`` names the operation, the same in every round."""
        self.attempted += 1
        try:
            return self.timed(label, fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def timed(self, label: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        """Run ``fn`` on :attr:`clock`, filing its wall and reference
        times under ``label``."""
        def record(seconds: float, ref_seconds: float) -> None:
            self.op_seconds.setdefault(label, []).append(seconds)
            self.op_ref_seconds.setdefault(label, []).append(ref_seconds)
        return self.clock.call(fn, *args, record=record, **kwargs)

    def expect(self, ok: bool, label: str) -> None:
        """One output check."""
        self.attempted += 1
        if not ok:
            self.fail(label)

    # -- phases -------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Work at the start of the timed section that is not a round."""

    def between(self, fraction: float) -> None:
        """Hook before each round after the first; ``fraction`` is the
        share of the time budget already spent."""

    def round(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def typical_round(self, reference: bool = True) -> float:
        """The typical time of one round: the sum over operations of
        each one's median time, in reference seconds (``wall_ref_s``)
        or in wall seconds.  A round runs every operation once, and an
        interference burst on the host that slows one round's
        operation does not move its median."""
        times = self.op_ref_seconds if reference else self.op_seconds
        return sum(statistics.median(t) for t in times.values())

    def install_trace(self, tracer: Tracer) -> None:
        """Patch the layer entry points this workload calls."""
        self.tracer = tracer

    def finish_trace(self, tracer: Tracer) -> None:
        """Harvest end-of-run counters into ``tracer.counters``."""

    def figures(self) -> Dict[str, Tuple[float, str]]:
        """Workload-specific end-to-end figures: name -> (value, unit)."""
        return {}
