"""Long-lived incremental SPSTA analysis daemon (``spsta serve``).

Layers:

- :mod:`repro.serve.protocol` — versioned request/response JSON schema,
  validation (dependency-free, :class:`repro.schema.CompiledSchema`),
  envelopes; request fields decode into one
  :class:`repro.spec.AnalysisSpec`;
- :mod:`repro.serve.cache` — LRU result cache with an optional shared
  on-disk tier, keyed by canonical fingerprints;
- :mod:`repro.serve.daemon` — the :class:`Server` core (sessions, lint
  preflight, incremental edits, canary) and the stdio/HTTP transports.

See docs/serving.md for the protocol guide.
"""

from repro.serve.cache import ResultCache, ServeCacheError
from repro.serve.daemon import (
    CircuitSession,
    RESULT_VERSION,
    Server,
    ServeOptions,
    run_canary,
    serve_http,
    serve_stdio,
)
from repro.serve.protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    REQUEST_SCHEMA,
    RequestError,
    error_response,
    ok_response,
    response_summary,
    validate_request,
)

__all__ = [
    "CircuitSession",
    "DEFAULT_MAX_REQUEST_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_SCHEMA",
    "RESULT_VERSION",
    "RequestError",
    "ResultCache",
    "Server",
    "ServeCacheError",
    "ServeOptions",
    "error_response",
    "ok_response",
    "response_summary",
    "run_canary",
    "serve_http",
    "serve_stdio",
    "validate_request",
]
