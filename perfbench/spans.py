"""In-memory span recorder for the traced benchmark run.

The program itself is not instrumented.  Instead, :class:`Tracer` wraps
the public functions of each layer at the places they are called from
(a module attribute such as ``repro.serve.daemon.validate_request``, a
class method such as ``IncrementalSpsta.set_delay``, or a method of one
object such as a store's ``get``) and records one span per call: name,
start, end, parent span and request id.  Patches are undone by
:meth:`Tracer.restore`; spans stay in memory until the run writes them
out.

A wrapper records nothing while ``tracer.active`` is false, so the
traced run can interleave untraced rounds (for the tracing overhead)
with traced ones without re-patching.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
import functools
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_MISSING = object()


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and named counters around layer calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.active = False
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed interval as a span (no-op when inactive)."""
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter (no-op when inactive)."""
        if self.active:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- patching -----------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], name: str,
             harvest: Optional[Callable[[Any], None]] = None
             ) -> Callable[..., Any]:
        """``fn`` recording a ``name`` span per call; ``harvest`` sees
        each result while the tracer is active."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if harvest is not None:
                harvest(result)
            return result
        return traced

    def patch(self, owner: Any, attr: str, name: str,
              harvest: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until restore."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, harvest))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:      # was a bound method of owner
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[float, float, int]]:
        """Per span name: (total seconds, self seconds, calls).

        Self time is a span's duration minus its children's; children of
        one span run one after another on one thread, so their durations
        do not overlap.
        """
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_seconds[span.parent] += span.seconds
        out: Dict[str, Tuple[float, float, int]] = {}
        for span, children in zip(self.spans, child_seconds):
            total, own, calls = out.get(span.name, (0.0, 0.0, 0))
            out[span.name] = (total + span.seconds,
                              own + span.seconds - children, calls + 1)
        return out

    def to_json(self) -> Dict[str, Any]:
        """Spans and counters as one JSON-ready object."""
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.request]
                      for s in self.spans],
            "span_fields": ["name", "start", "end", "parent", "request"],
            "counters": dict(self.counters),
        }
