"""``serve-session``: one closed-loop client against an in-process daemon.

The client drives a :class:`repro.serve.Server` (default options plus a
disk cache tier in a fresh directory) through ``handle_text``, one
request at a time, over two warm sessions: a small circuit on a grid
and a large one with moments.  A session round is: a delay ``edit`` of
a gate, a ``query`` of each of four watched endpoints, the
``clear`` edit that reverts it, the four queries again, and an
``analyze``.  Reads after the revert hit the result cache; reads after
the edit miss it and compute from the re-timed state.  Each session is
analyzed cold at the start and once more, after an ``invalidate``,
half way through.  The protocol, cache, fingerprint and incremental
layers dominate; the fast-engine kernels stay idle.  The seed drives
the edit values and the watched endpoints.

An edit costs about the size of the gate's fan-out cone, and cone sizes
are heavy-tailed (s9234: median 11 gates, largest 2666), so a few
seeded random picks would make one run's edits far deeper than the
next one's.  Instead every round edits the same :data:`EDITED` gates
per session: with the gates sorted by fan-out cone size and split into
:data:`EDITED` equal groups, the middle gate of each group, from the
shallowest to the deepest group.  Every round then does the same work,
and its typical time (``wall_ref_s``) is the sum, over sessions and
edited gates, of the median session-round time.  The seed draws each
edit's delay (so every edit re-times its cone and misses the result
cache) and the watched endpoints.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import measure
from perfbench.signoff import patch_incremental
from perfbench.spans import Tracer
from perfbench.workload import Workload
from repro import CONFIG_I, benchmark_circuit, run_spsta
from repro.core.delay import UnitDelay
from repro.serve import Server, ServeOptions
import repro.serve.daemon as daemon
from repro.serve.protocol import parse_algebra
from repro.stats.normal import Normal

FULL_SESSIONS = (
    {"circuit": "s1196", "algebra": "grid", "grid": "-8:60:512"},
    {"circuit": "s9234", "algebra": "moments"},
)
SMOKE_SESSIONS = (
    {"circuit": "s27", "algebra": "grid", "grid": "-8:60:512"},
    {"circuit": "s27", "algebra": "moments"},
)
WATCHED = 4
EDITED = 12
#: Range of edited delay means and sigmas.  Sigmas start at 0.02 (the
#: smallest the optimizer's sized delays reach is 0.025): the grid
#: algebra cannot take a sigma far below its pitch, whose Gaussian
#: kernel taps underflow to zero and poison the density with NaN.
EDIT_MU = (1.2, 2.5)
EDIT_SIGMA = (0.02, 0.3)


class EditedDelays:
    """Unit delays with per-gate Normal overrides: the effective delay
    model after a session's delay edits, rebuilt from the edit script."""

    def __init__(self, overrides: Dict[str, Any]) -> None:
        self.base = UnitDelay()
        self.overrides = overrides

    def delay(self, gate: Any) -> Any:
        override = self.overrides.get(gate.name)
        return override if override is not None else self.base.delay(gate)


def fanout_cone_sizes(netlist: Any) -> Dict[str, int]:
    """Combinational gates each edit of a gate can re-time: the gate and
    its transitive fan-out up to the flip-flops."""
    gates = netlist.combinational_gates
    bit = {g.name: 1 << i for i, g in enumerate(gates)}
    cones: Dict[str, int] = {}
    for gate in reversed(gates):
        cone = bit[gate.name]
        for sink in netlist.fanouts(gate.name):
            cone |= cones.get(sink, 0)      # flip-flops end the cone
        cones[gate.name] = cone
    return {name: bin(cone).count("1") for name, cone in cones.items()}


def finite(value: float) -> Optional[float]:
    """The daemon's JSON encoding of a report value (null if not finite)."""
    return float(value) if math.isfinite(value) else None


class Session:
    """Client-side state of one warm session."""

    def __init__(self, spec: Dict[str, str], netlist: Any,
                 rng: random.Random) -> None:
        self.spec = spec
        self.netlist = netlist
        gates = sorted(fanout_cone_sizes(netlist).items(),
                       key=lambda item: (item[1], item[0]))
        self.edited = [gates[(2 * k + 1) * len(gates) // (2 * EDITED)][0]
                       for k in range(EDITED)]
        self.watched = rng.sample(list(netlist.endpoints),
                                  min(WATCHED, len(netlist.endpoints)))
        self.cold: Optional[Dict[str, Any]] = None
        self.analyses = 0
        self.analyses_equal = 0
        self.samples: List[Tuple[str, float, float, List[Any]]] = []

    @property
    def label(self) -> str:
        return f"{self.spec['circuit']}/{self.spec['algebra']}"


class ServeSession(Workload):
    name = "serve-session"
    modules = ("repro.serve",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.load = benchmark_circuit
        self.clear_load_cache = benchmark_circuit.cache_clear
        self.specs = SMOKE_SESSIONS if self.smoke else FULL_SESSIONS
        self.setups = 0
        self.query_seconds: Dict[bool, List[float]] = {True: [], False: []}
        self.edit_seconds: List[float] = []
        self.cold_seconds: List[float] = []

    def setup(self) -> None:
        self.setups += 1
        cache_dir = self.work_dir / f"serve-cache-{self.setups}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.server = Server(ServeOptions(cache_dir=str(cache_dir)))
        self.handle = self.server.handle_text
        self.rng = random.Random(self.seed)
        self.clear_load_cache()          # set-up pays for a cold load
        loaded: Dict[str, Any] = {}
        self.sessions = []
        for spec in self.specs:
            circuit = spec["circuit"]
            if circuit not in loaded:
                loaded[circuit] = self.load(circuit)
            self.sessions.append(Session(spec, loaded[circuit], self.rng))
        self.rounds = 0
        self.rebuilt = False
        self.next_id = 0
        if self.tracer is not None:
            self.tracer.patch(self.server.cache, "get", "serve.cache_get")
            self.tracer.patch(self.server.cache, "put", "serve.cache_put")
            self.handle = self.tracer.wrap(self.server.handle_text,
                                           "serve.request")

    def request(self, session: Session, op: str,
                **fields: Any) -> Tuple[Dict[str, Any], float]:
        """One request/response exchange; an error response fails.
        Returns the result payload and the latency; query latencies are
        also filed by whether the result cache answered."""
        self.next_id += 1
        payload = {"v": 1, "id": self.next_id, "op": op, **session.spec,
                   **fields}
        text = json.dumps(payload)
        if self.tracer is not None:
            self.tracer.request = self.next_id
        t0 = time.perf_counter()
        response = self.handle(text)
        seconds = time.perf_counter() - t0
        self.attempted += 1
        if not response.get("ok"):
            self.fail(f"{session.label} {op}: {response.get('error')}")
            return {}, seconds
        if op == "query":
            self.query_seconds[response["cached"]].append(seconds)
        return response["result"], seconds

    def cold_analyze(self, session: Session) -> None:
        # The daemon loads the circuit itself, as it would in its own
        # process, not from the client's in-process load cache.
        self.clear_load_cache()
        result, seconds = self.request(session, "analyze")
        self.cold_seconds.append(seconds)
        if session.cold is None:
            session.cold = result
        else:
            self.expect(result == session.cold,
                        f"{session.label}: rebuilt analyze differs from "
                        f"the first cold one")

    def begin(self) -> None:
        for session in self.sessions:
            self.cold_analyze(session)

    def between(self, fraction: float) -> None:
        if fraction < 0.5 or self.rebuilt:
            return
        self.rebuilt = True
        for session in self.sessions:
            self.request(session, "invalidate")
            self.cold_analyze(session)

    def round(self) -> None:
        for index in range(EDITED):
            for session in self.sessions:
                self.timed(f"{session.label} gate {index}",
                           self.session_round, session, index)
        self.rounds += 1

    def session_round(self, session: Session, index: int) -> None:
        gate = session.edited[index]
        mu = round(self.rng.uniform(*EDIT_MU), 3)
        sigma = round(self.rng.uniform(*EDIT_SIGMA), 3)
        _, seconds = self.request(session, "edit", gate=gate, mu=mu,
                                  sigma=sigma)
        self.edit_seconds.append(seconds)
        answers = []
        for net in session.watched:
            result, _ = self.request(session, "query", net=net)
            answers.append(result.get("reports"))
        # Re-derive the shallowest and the deepest edit of the first
        # round with the naive engine in the output check.
        if self.rounds == 0 and index in (0, EDITED - 1):
            session.samples.append((gate, mu, sigma, answers))
        _, seconds = self.request(session, "edit", gate=gate, clear=True)
        self.edit_seconds.append(seconds)
        for net in session.watched:
            self.request(session, "query", net=net)
        result, _ = self.request(session, "analyze")
        session.analyses += 1
        session.analyses_equal += result == session.cold

    def check(self) -> None:
        for session in self.sessions:
            self.expect(session.analyses_equal == session.analyses,
                        f"{session.label}: "
                        f"{session.analyses - session.analyses_equal} of "
                        f"{session.analyses} post-revert analyses differ "
                        f"from the cold one")
            spec = parse_algebra(session.spec["algebra"],
                                 session.spec.get("grid"))
            for gate, mu, sigma, answers in session.samples:
                delays = EditedDelays({gate: Normal(mu, sigma)})
                fresh = run_spsta(session.netlist, CONFIG_I, delays,
                                  spec.build(), engine="naive")
                expected = [[{"net": net, "direction": d,
                              **dict(zip(("probability", "mean", "std"),
                                         map(finite, fresh.report(net, d))))}
                             for d in ("rise", "fall")]
                            for net in session.watched]
                self.expect(answers == expected,
                            f"{session.label}: answers after editing "
                            f"{gate} to N({mu}, {sigma}) differ from a "
                            f"fresh naive run")

    def install_trace(self, tracer: Tracer) -> None:
        super().install_trace(tracer)
        tracer.patch(daemon, "validate_request", "serve.validate")
        for fn in ("circuit_fingerprint", "delay_fingerprint",
                   "stats_fingerprint", "value_fingerprint"):
            tracer.patch(daemon, fn, "serve.fingerprint")
        tracer.patch(daemon, "run_lint", "lint.run")
        tracer.patch(daemon, "IncrementalSpsta", "incremental.build")
        patch_incremental(tracer)
        self.load = tracer.wrap(self.load, "netlist.load")

    def finish_trace(self, tracer: Tracer) -> None:
        cache = self.server.handle({"v": 1, "op": "status"})["result"][
            "cache"]
        gets = cache["hits"] + cache["misses"]
        tracer.counters["serve.cache_hit_ratio"] = (
            cache["hits"] / gets if gets else 0.0)
        tracer.counters["serve.disk_hits"] = cache["disk_hits"]

    def figures(self) -> Dict[str, Tuple[float, str]]:
        queries = measure.latency_summary(self.query_seconds[True]
                                          + self.query_seconds[False])
        edits = measure.latency_summary(self.edit_seconds)
        hits = measure.latency_summary(self.query_seconds[True])
        misses = measure.latency_summary(self.query_seconds[False])
        return {
            "query_p50_ms": (queries["p50_ms"], "ms"),
            "query_tail_ms": (queries["tail_ms"], "ms"),
            "query_tail_level": (queries["tail_level"], "quantile"),
            "query_samples": (queries["samples"], "count"),
            "query_hit_p50_ms": (hits["p50_ms"], "ms"),
            "query_miss_p50_ms": (misses["p50_ms"], "ms"),
            "edit_p50_ms": (edits["p50_ms"], "ms"),
            "edit_tail_ms": (edits["tail_ms"], "ms"),
            "edit_tail_level": (edits["tail_level"], "quantile"),
            "edit_samples": (edits["samples"], "count"),
            "cold_analyze_s": (measure.median(self.cold_seconds), "s"),
            "cold_analyze_samples": (len(self.cold_seconds), "count"),
        }
