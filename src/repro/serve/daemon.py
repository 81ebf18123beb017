"""The ``spsta serve`` long-lived incremental analysis daemon.

The production-traffic story (ROADMAP): a process that loads netlists
once, keeps per-circuit warm state — the parsed netlist, its
topological levelization, and a :class:`~repro.core.incremental_spsta.
IncrementalSpsta` instance holding every net's four-value probabilities
and TOP functions — and answers repeated timing queries without
re-paying full-analysis cost:

- each request's config/algebra/grid/delay fields decode once into a
  :class:`~repro.spec.AnalysisSpec`; a warm session is keyed by
  ``(circuit, spec fingerprint)``, so requests that spell one analysis
  differently share it;
- a repeated ``analyze``/``query`` is answered from a result cache
  keyed by the **canonical fingerprints** of
  :mod:`repro.fingerprint` (circuit structure, analysis spec,
  effective delay model, request shape), so identical queries return
  bit-identical payloads without touching the engines;
- a delay ``edit`` re-times only the dirty fan-out cone via the
  worklist engine (:class:`IncrementalSpsta` — provably bit-exact
  against a fresh full pass), after which new queries compute against
  the edited state and *old* cached results remain valid under their
  own delay fingerprint; an edit that reverts the previous one restores
  the recorded TOPs without re-timing anything;
- a structural ``edit`` (new ``.bench`` source) falls back to a full
  rebuild of that circuit's state — structure changes invalidate
  everything the fingerprints say they invalidate, and nothing more.

Request validation is the existing ``spsta lint`` preflight: a circuit
whose lint findings reach the daemon's ``--fail-on`` severity is
refused with the structured report (code ``lint-rejected``).  Startup
can run the PR 3 conformance harness as a deploy-time canary
(``--canary``): the daemon refuses to serve if any engine pair
diverges on the canary circuit.

The daemon is transport-agnostic: :meth:`Server.handle` maps one
request object to one response object; stdio (JSON Lines) and HTTP
(``http.server``) loops wrap it.  See :mod:`repro.serve.protocol` for
the envelope schema and docs/serving.md for the operations guide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import json
from pathlib import Path
import sys
import threading
import time
from typing import IO, Any, Dict, Mapping, Optional, Tuple

from repro.core.incremental_spsta import IncrementalSpsta
from repro.fingerprint import (
    circuit_fingerprint,
    delay_fingerprint,
    stats_fingerprint,
    value_fingerprint,
)
from repro.lint import LintConfig, NetlistError, Severity, run_lint
from repro.netlist.bench import BenchParseError, parse_bench
from repro.netlist.benchmarks import CircuitLoadError, load_circuit
from repro.netlist.core import Netlist
from repro.serve.cache import ResultCache
from repro.serve.protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    RequestError,
    error_response,
    ok_response,
    validate_request,
)
from repro.spec import (
    DEFAULT_ALGEBRA,
    DEFAULT_CONFIG,
    DEFAULT_GRID,
    AnalysisSpec,
    SpecError,
    decode_spec,
)
from repro.stats.normal import Normal

#: Result-payload schema version (inside the ``result`` object).
RESULT_VERSION = 1


@dataclass
class ServeOptions:
    """Daemon configuration (the ``spsta serve`` flags)."""

    fail_on: str = "error"          # lint preflight severity, or "never"
    cache_entries: int = 256        # in-memory LRU cap
    cache_dir: Optional[str] = None  # on-disk result cache (shared)
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES
    default_config: str = DEFAULT_CONFIG
    default_algebra: str = DEFAULT_ALGEBRA
    default_grid: str = DEFAULT_GRID


@dataclass
class CircuitSession:
    """One circuit's warm state under a fixed :class:`AnalysisSpec`
    (config, algebra, base delay) — the unit the daemon keeps resident
    between requests, keyed by ``(circuit, spec_hash)``."""

    circuit: str
    netlist: Netlist
    spec: AnalysisSpec
    spec_hash: str
    inc: IncrementalSpsta
    circuit_hash: str
    stats_hash: str
    edits: int = 0
    rebuilds: int = 0
    build_seconds: float = 0.0
    recomputed_gates: int = 0
    _delay_hash: Tuple[int, str] = field(default=(-1, ""), init=False,
                                         repr=False)

    def delay_hash(self) -> str:
        """Fingerprint of the *effective* delay state (base + edits),
        computed once per value of ``edits`` (a failed edit changes
        nothing, see :meth:`IncrementalSpsta.set_delay`)."""
        if self._delay_hash[0] != self.edits:
            self._delay_hash = (self.edits, delay_fingerprint(
                self.inc.effective_delay_model()))
        return self._delay_hash[1]


@dataclass
class _SessionLog:
    """Optional JSON-Lines transcript of every request/response pair."""

    path: Path
    _handle: Optional[IO[str]] = field(default=None, repr=False)

    def record(self, request: object, response: Mapping[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(json.dumps({"request": request,
                                       "response": response}) + "\n")
        self._handle.flush()


class Server:
    """The daemon core: one request object in, one response object out.

    Thread-safe via a single big lock (the engines share mutable warm
    state; requests serialize).  Transports call :meth:`handle_text`
    (framing + size cap) or :meth:`handle` (parsed objects).
    """

    def __init__(self, options: Optional[ServeOptions] = None) -> None:
        self.options = options or ServeOptions()
        if self.options.fail_on not in ("error", "warning", "never"):
            raise ValueError(
                f"fail_on must be error|warning|never, "
                f"got {self.options.fail_on!r}")
        # A malformed default is the daemon's own fault: refuse it here
        # (SpecError names the field), not in every request that omits
        # it.  The default grid also serves algebra=grid requests.
        options = self.options
        decode_spec(options.default_config, options.default_algebra)
        decode_spec(algebra="grid", grid=options.default_grid)
        self.cache = ResultCache(self.options.cache_entries,
                                 self.options.cache_dir)
        self._sessions: Dict[Tuple[str, str], CircuitSession] = {}
        self._netlists: Dict[str, Netlist] = {}
        self._lint_passed: Dict[Tuple[str, str], bool] = {}
        #: canonical spec-field text -> (decoded spec, its fingerprint)
        self._specs: Dict[str, Tuple[AnalysisSpec, str]] = {}
        self.requests_served = 0
        self.shutdown_requested = False
        self.session_log: Optional[_SessionLog] = None
        self._lock = threading.Lock()
        self._started = time.monotonic()

    # -- transport entry points ---------------------------------------------

    def handle_text(self, line: str) -> Dict[str, Any]:
        """One serialized request -> one response object (framing layer)."""
        if len(line.encode("utf-8", errors="replace")) \
                > self.options.max_request_bytes:
            return self._log(None, error_response(
                None, "oversized-request",
                f"request exceeds --max-request-bytes "
                f"({self.options.max_request_bytes})"))
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            return self._log(line[:256], error_response(
                None, "bad-request", f"request is not JSON: {exc}"))
        return self.handle(payload)

    def handle(self, payload: object) -> Dict[str, Any]:
        """One request object -> one response object."""
        with self._lock:
            self.requests_served += 1
            request_id = (payload.get("id")
                          if isinstance(payload, dict) else None)
            try:
                request = validate_request(payload)
            except RequestError as exc:
                return self._log(payload, error_response(
                    request_id, exc.code, str(exc)))
            try:
                response = self._dispatch(request)
            except RequestError as exc:
                detail = getattr(exc, "detail", None)
                response = error_response(request_id, exc.code, str(exc),
                                          detail)
            except Exception as exc:  # noqa: BLE001 - daemon must survive
                response = error_response(
                    request_id, "internal",
                    f"{type(exc).__name__}: {exc}")
            return self._log(payload, response)

    def _log(self, request: object,
             response: Dict[str, Any]) -> Dict[str, Any]:
        if self.session_log is not None:
            self.session_log.record(request, response)
        return response

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        request_id = request.get("id")
        t0 = time.perf_counter()
        if op == "status":
            return ok_response(request_id, self._op_status(),
                               cached=False,
                               seconds=time.perf_counter() - t0)
        if op == "shutdown":
            self.shutdown_requested = True
            return ok_response(request_id, {"shutting_down": True},
                               cached=False,
                               seconds=time.perf_counter() - t0)
        if op == "invalidate":
            return ok_response(request_id, self._op_invalidate(request),
                               cached=False,
                               seconds=time.perf_counter() - t0)
        if op == "edit":
            return ok_response(request_id, self._op_edit(request),
                               cached=False,
                               seconds=time.perf_counter() - t0)
        # analyze / query: cacheable reads
        session = self._session_for(request)
        extra: Tuple[Any, ...]
        if op == "query":
            net = request.get("net")
            if not net:
                raise RequestError("query needs a 'net'")
            directions = ((request["direction"],)
                          if request.get("direction") else ("rise", "fall"))
            extra = ("query", net, directions)
        else:
            extra = ("analyze",)
        key = self._cache_key(session, extra)
        cached = self.cache.get(key, session.circuit)
        if cached is not None:
            return ok_response(request_id, cached, cached=True,
                               seconds=time.perf_counter() - t0)
        if op == "query":
            result = self._op_query(session, net, directions)
        else:
            result = self._op_analyze(session)
        self.cache.put(key, result, circuit=session.circuit)
        return ok_response(request_id, result, cached=False,
                           seconds=time.perf_counter() - t0)

    # -- operations ----------------------------------------------------------

    def _read_result(self, session: CircuitSession, report: str,
                     **body: Any) -> Dict[str, Any]:
        """An analyze/query payload: the session's spec and fingerprints,
        then ``body``."""
        return {"report": report, "version": RESULT_VERSION,
                "circuit": session.circuit, "config": session.spec.config,
                "algebra": session.spec.algebra.token(),
                "fingerprints": self._fingerprints(session), **body}

    def _op_analyze(self, session: CircuitSession) -> Dict[str, Any]:
        result = session.inc.result()
        return self._read_result(
            session, "spsta-serve-analyze",
            n_gates=len(session.netlist.gates),
            endpoints=[_report_row(result, net, direction)
                       for net in session.netlist.endpoints
                       for direction in ("rise", "fall")])

    def _op_query(self, session: CircuitSession, net: str,
                  directions: Tuple[str, ...]) -> Dict[str, Any]:
        if net not in session.inc.tops:
            raise RequestError(f"no net {net!r} in {session.circuit}",
                               "unknown-gate")
        result = session.inc.result()
        return self._read_result(
            session, "spsta-serve-query",
            reports=[_report_row(result, net, direction)
                     for direction in directions])

    def _op_edit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        bench = request.get("bench")
        if bench is not None:
            return self._structural_edit(request, bench)
        session = self._session_for(request)
        gate = request.get("gate")
        if not gate:
            raise RequestError(
                "edit needs a 'gate' (delay edit) or 'bench' "
                "(structural edit)")
        if not session.inc.has_gate(gate):
            raise RequestError(
                f"no combinational gate {gate!r} in {session.circuit}",
                "unknown-gate")
        t0 = time.perf_counter()
        if request.get("clear"):
            stats = session.inc.clear_delay(gate)
            applied: Dict[str, Any] = {"gate": gate, "cleared": True}
        else:
            mu = request.get("mu")
            if mu is None:
                raise RequestError("edit needs 'mu' (or 'clear': true)")
            sigma = float(request.get("sigma", 0.0))
            stats = session.inc.set_delay(gate, Normal(float(mu), sigma))
            applied = {"gate": gate, "mu": float(mu), "sigma": sigma}
        seconds = time.perf_counter() - t0
        session.edits += 1
        session.recomputed_gates += stats.recomputed
        return {
            "report": "spsta-serve-edit",
            "version": RESULT_VERSION,
            "circuit": session.circuit,
            "applied": applied,
            "retime": {"mode": "incremental",
                       "recomputed": stats.recomputed,
                       "skipped": stats.skipped,
                       "restored": stats.restored,
                       "cone_size": stats.cone_size,
                       "total_gates":
                           len(session.netlist.combinational_gates),
                       "seconds": seconds},
            "fingerprints": self._fingerprints(session),
        }

    def _structural_edit(self, request: Dict[str, Any],
                         bench: str) -> Dict[str, Any]:
        circuit = request.get("circuit")
        if not circuit:
            raise RequestError("structural edit needs a 'circuit' name")
        try:
            netlist = parse_bench(bench, name=circuit)
        except (BenchParseError, NetlistError) as exc:
            raise RequestError(
                f"bench source does not parse: {exc}") from exc
        # Full rebuild: drop every warm session of this circuit, then
        # register the new structure and rebuild the requesting view.
        dropped = self._drop_sessions(circuit)
        self._netlists[circuit] = netlist
        self._lint_passed = {k: v for k, v in self._lint_passed.items()
                             if k[0] != circuit}
        t0 = time.perf_counter()
        session = self._session_for(request)
        seconds = time.perf_counter() - t0
        session.rebuilds += 1
        return {
            "report": "spsta-serve-edit",
            "version": RESULT_VERSION,
            "circuit": circuit,
            "applied": {"structural": True,
                        "gates": len(netlist.gates),
                        "sessions_dropped": dropped},
            "retime": {"mode": "full-rebuild",
                       "recomputed":
                           len(netlist.combinational_gates),
                       "seconds": seconds},
            "fingerprints": self._fingerprints(session),
        }

    def _op_invalidate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        circuit = request.get("circuit")
        if not circuit:
            raise RequestError("invalidate needs a 'circuit' name")
        dropped = self._drop_sessions(circuit)
        purged = self.cache.invalidate_circuit(circuit)
        self._netlists.pop(circuit, None)
        self._lint_passed = {k: v for k, v in self._lint_passed.items()
                             if k[0] != circuit}
        return {
            "report": "spsta-serve-invalidate",
            "version": RESULT_VERSION,
            "circuit": circuit,
            "sessions_dropped": dropped,
            "cache_entries_purged": purged,
        }

    def _op_status(self) -> Dict[str, Any]:
        return {
            "report": "spsta-serve-status",
            "version": RESULT_VERSION,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self._started,
            "requests_served": self.requests_served,
            "sessions": [
                {"circuit": s.circuit, "config": s.spec.config,
                 "algebra": s.spec.algebra.token(),
                 "gates": len(s.netlist.gates),
                 "edits": s.edits, "rebuilds": s.rebuilds,
                 "recomputed_gates": s.recomputed_gates,
                 "build_seconds": s.build_seconds,
                 "delay_fingerprint": s.delay_hash()}
                for s in self._sessions.values()],
            "cache": {"entries": len(self.cache),
                      "max_entries": self.cache.max_entries,
                      "hits": self.cache.hits,
                      "misses": self.cache.misses,
                      "evictions": self.cache.evictions,
                      "disk_entries": self.cache.disk_entries,
                      "disk_hits": self.cache.disk_hits,
                      "disk": self.options.cache_dir},
            "lint_fail_on": self.options.fail_on,
        }

    # -- session management --------------------------------------------------

    def _session_for(self, request: Dict[str, Any]) -> CircuitSession:
        """The warm session a request addresses, building it on miss."""
        circuit = request.get("circuit")
        if not circuit:
            raise RequestError(f"{request['op']} needs a 'circuit'")
        spec, spec_hash = self._spec_for(request)
        session = self._sessions.get((circuit, spec_hash))
        if session is not None:
            return session
        netlist = self._load_netlist(circuit)
        self._lint_preflight(circuit, netlist, spec)
        t0 = time.perf_counter()
        inc = IncrementalSpsta(netlist, spec.stats, spec.delay,
                               spec.algebra.build())
        session = CircuitSession(
            circuit=circuit, netlist=netlist, spec=spec,
            spec_hash=spec_hash, inc=inc,
            circuit_hash=circuit_fingerprint(netlist),
            stats_hash=stats_fingerprint(spec.stats),
            build_seconds=time.perf_counter() - t0)
        self._sessions[(circuit, spec_hash)] = session
        return session

    def _spec_for(self, request: Mapping[str, Any]
                  ) -> Tuple[AnalysisSpec, str]:
        """The analysis a request names and its fingerprint, decoded
        once per distinct spelling of the spec fields."""
        fields = (request.get("config"), request.get("algebra"),
                  request.get("grid"), request.get("delay"))
        text = json.dumps(fields, sort_keys=True)
        memo = self._specs.get(text)
        if memo is None:
            config, algebra, grid, delay = fields
            options = self.options
            try:
                spec = decode_spec(
                    options.default_config if config is None else config,
                    options.default_algebra if algebra is None else algebra,
                    options.default_grid if grid is None else grid, delay)
            except SpecError as exc:
                raise RequestError(str(exc)) from exc
            memo = self._specs[text] = (spec, spec.fingerprint())
        return memo

    def _load_netlist(self, circuit: str) -> Netlist:
        cached = self._netlists.get(circuit)
        if cached is not None:
            return cached
        try:
            netlist = load_circuit(circuit)
        except CircuitLoadError as exc:
            raise RequestError(str(exc), "unknown-circuit") from exc
        except NetlistError as exc:
            raise RequestError(
                f"circuit {circuit!r} does not parse: {exc}",
                "unknown-circuit") from exc
        self._netlists[circuit] = netlist
        return netlist

    def _lint_preflight(self, circuit: str, netlist: Netlist,
                        spec: AnalysisSpec) -> None:
        """``spsta lint`` as request validation (the PR 4 preflight)."""
        if self.options.fail_on == "never":
            return
        lint_key = (circuit, spec.config)
        if self._lint_passed.get(lint_key):
            return
        report = run_lint(netlist, LintConfig(input_stats=spec.stats))
        threshold = Severity.parse(self.options.fail_on)
        if not report.passed(threshold):
            error = RequestError(
                f"circuit {circuit!r} rejected by lint preflight at "
                f"--fail-on {self.options.fail_on} "
                f"({report.counts['error']} errors, "
                f"{report.counts['warning']} warnings)",
                "lint-rejected")
            error.detail = dict(report.to_dict())  # type: ignore[attr-defined]
            raise error
        self._lint_passed[lint_key] = True

    def _drop_sessions(self, circuit: str) -> int:
        victims = [key for key in self._sessions if key[0] == circuit]
        for key in victims:
            del self._sessions[key]
        return len(victims)

    # -- cache keys ----------------------------------------------------------

    def _cache_key(self, session: CircuitSession,
                   extra: Tuple[Any, ...]) -> str:
        """The fingerprint key identical queries collide on.

        Components are the circuit structure, the session's analysis
        spec, the *effective* delay state and the request shape — so a
        key hit is a semantic hit, requests that spell one spec
        differently share keys, and an edited session keys differently
        until the edit is reverted.
        """
        return value_fingerprint((
            ("protocol", PROTOCOL_VERSION),
            ("circuit", session.circuit_hash),
            ("spec", session.spec_hash),
            ("delay", session.delay_hash()),
            ("request", extra),
        ))

    def _fingerprints(self, session: CircuitSession) -> Dict[str, str]:
        return {"circuit": session.circuit_hash,
                "stats": session.stats_hash,
                "delay": session.delay_hash(),
                "algebra": session.spec.algebra.token()}


def _report_row(result: Any, net: str, direction: str) -> Dict[str, Any]:
    p, mean, std = result.report(net, direction)
    return {"net": net, "direction": direction, "probability": _finite(p),
            "mean": _finite(mean), "std": _finite(std)}


def _finite(value: float) -> Optional[float]:
    """JSON-safe float: non-finite (never-occurring transition moments)
    map to null so strict parsers round-trip the payload."""
    return float(value) if value == value and abs(value) != float("inf") \
        else None


# -- canary -------------------------------------------------------------------


def run_canary(benches: Tuple[str, ...] = ("s27",),
               trials: int = 4000, seed: int = 0) -> Tuple[bool, str]:
    """The PR 3 conformance harness as a deploy-time self-check.

    Runs the full engine-pair sweep on small canary circuits; a daemon
    started with ``--canary`` refuses to serve if any pair diverges.
    Returns (passed, rendered report).
    """
    from repro.verify import run_conformance

    report = run_conformance(seed=seed, n_random=0, benches=benches,
                             trials=trials)
    return report.passed, report.render()


# -- transports ---------------------------------------------------------------


def serve_stdio(server: Server,
                stdin: Optional[IO[str]] = None,
                stdout: Optional[IO[str]] = None) -> int:
    """JSON-Lines loop: one request per line, one response per line.

    Blank lines are ignored; EOF or a ``shutdown`` request ends the
    loop.  Responses are single-line JSON, flushed per request so a
    pipe-driving client can interleave.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        response = server.handle_text(line)
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
        if server.shutdown_requested:
            break
    return 0


class _HttpHandler(BaseHTTPRequestHandler):
    """``POST /`` with a request-envelope body -> response envelope."""

    server_version = "spsta-serve/" + str(PROTOCOL_VERSION)
    daemon: Server  # injected by serve_http

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        if length > self.daemon.options.max_request_bytes:
            body = json.dumps(error_response(
                None, "oversized-request",
                f"request exceeds --max-request-bytes "
                f"({self.daemon.options.max_request_bytes})")).encode()
            self._reply(413, body)
            return
        raw = self.rfile.read(length).decode("utf-8", errors="replace")
        response = self.daemon.handle_text(raw)
        self._reply(200 if response.get("ok") else 400,
                    json.dumps(response).encode())
        if self.daemon.shutdown_requested:
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        pass  # request logging goes through the session log, not stderr


def serve_http(server: Server, host: str, port: int) -> int:
    """Blocking HTTP loop (``http.server``; one Server, many requests).

    Handler threads serialize on the Server's internal lock, so the
    warm state stays consistent under concurrent clients.
    """
    handler = type("BoundHandler", (_HttpHandler,), {"daemon": server})
    httpd = ThreadingHTTPServer((host, port), handler)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        httpd.server_close()
    return 0
