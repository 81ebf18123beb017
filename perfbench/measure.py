"""Statistics, environment and resource probes shared by the workloads."""

from __future__ import annotations

import importlib.util
import json
import math
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Percentile levels tried for a tail figure, highest first.
TAIL_LEVELS = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(level, value) of the highest percentile in :data:`TAIL_LEVELS`
    with at least :data:`TAIL_MIN_BEYOND` samples beyond it; the median
    when there are too few samples for any of them."""
    n = len(values)
    for level in TAIL_LEVELS:
        if n * (1.0 - level) >= TAIL_MIN_BEYOND:
            return level, quantile(values, level)
    return 0.5, median(values)


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """Median, tail level, tail value (ms) and sample count."""
    values_ms = [s * 1e3 for s in seconds]
    level, value = tail(values_ms)
    return {"p50_ms": median(values_ms), "tail_level": level,
            "tail_ms": value, "samples": len(values_ms)}


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0          # ru_maxrss is KiB on Linux


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def import_fresh(modules: Sequence[str], src: Path) -> None:
    """Import ``modules`` in a fresh interpreter (one child process,
    waited for)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    code = "; ".join(f"import {m}" for m in modules)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdin=subprocess.DEVNULL, timeout=120)


#: Median :func:`probe` time on the machine this benchmark was written
#: on (a 2-vCPU x86-64 virtual machine, CPython 3), in a quiet phase.
REFERENCE_PROBE_S = 0.003

#: A probe younger than this is reused instead of taken again, so the
#: probe after one timed call is also the probe before the next.
PROBE_REUSE_S = 0.02

_PROBE_SIGNAL = np.linspace(0.0, 1.0, 512)
_PROBE_KERNEL = np.exp(-np.linspace(-3.0, 3.0, 33) ** 2)


def _probe_work() -> None:
    table: Dict[int, float] = {}
    for i in range(12_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    json.loads(json.dumps(table))
    x = _PROBE_SIGNAL
    for _ in range(120):
        x = np.convolve(x, _PROBE_KERNEL, mode="same")
        x = np.maximum(x, _PROBE_SIGNAL) / (x.sum() + 1.0)


def usable_cpus() -> List[int]:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


def _probe_here() -> float:
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


def probe(cpus: Sequence[int]) -> float:
    """The speed of ``cpus`` now: the fastest of three runs of a fixed
    mix of dict, JSON and small-array numpy work, the kinds the program
    does, in seconds (about 3 ms on the reference machine), averaged
    over the CPUs, each probed with this process pinned to it."""
    if len(cpus) == 1:
        return _probe_here()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_here())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


class HostClock:
    """Times calls in reference seconds: wall seconds at the speed the
    reference machine has when quiet.

    The benchmark runs on shared virtual machines whose CPUs switch
    between a quiet and a contended state (about 1.5 times slower, for
    every kind of work alike), each state lasting from a fraction of a
    second to minutes.  The clock takes a :func:`probe` of the CPUs the
    timed work runs on right before and right after each timed call,
    and scales the call's wall time by ``REFERENCE_PROBE_S`` over the
    mean of the two probes.  The program's own speed is all that is
    left: a change that makes the program slower makes its reference
    time slower by the same share.  Probes are not part of the timed
    calls.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.last: Optional[Tuple[float, float]] = None  # (taken at, s)
        self.probes: List[float] = []

    def speed(self) -> float:
        now = time.perf_counter()
        if self.last is not None and now - self.last[0] < PROBE_REUSE_S:
            return self.last[1]
        seconds = probe(self.cpus)
        self.last = (time.perf_counter(), seconds)
        self.probes.append(seconds)
        return seconds

    def call(self, fn: Callable[..., Any], *args: Any,
             record: Callable[[float, float], None], **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, passing its wall seconds and its
        reference seconds to ``record``, also when it raises."""
        before = self.speed()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - t0
            after = self.speed()
            record(seconds, seconds * REFERENCE_PROBE_S
                   * 2.0 / (before + after))


def environment() -> Dict[str, object]:
    """The facts a result depends on besides the code: CPUs, versions,
    and whether ``jsonschema`` is importable (without it serve request
    validation takes the structural fallback, which is faster)."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:                  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.util.find_spec("jsonschema") is not None,
        "machine": platform.machine(),
    }
