"""Request/response protocol of the ``spsta serve`` daemon (schema v1).

One request and one response are each a single JSON object.  Over stdio
the framing is JSON Lines (one object per line); over HTTP the request
is a ``POST /`` body and the response the reply body — the *payloads*
are identical, so a session transcript replays against either transport.

Request envelope::

    {"v": 1, "id": <any JSON scalar, echoed back>, "op": <operation>,
     ...operation fields...}

Operations (see docs/serving.md for the full field tables):

- ``analyze``  — full endpoint report of a circuit under (config,
  algebra, delay model).  Cached by fingerprint key.
- ``query``    — one net/direction report from the same warm state.
- ``edit``     — a delay edit (incremental cone re-timing) or a
  structural edit (``bench`` source: full state rebuild).
- ``invalidate`` — drop a circuit's warm state and cached results.
- ``status``   — daemon counters: sessions, cache, uptime queries.
- ``shutdown`` — stop the serving loop after responding.

Response envelope::

    {"v": 1, "id": ..., "ok": true,  "cached": bool, "seconds": float,
     "result": {...}}
    {"v": 1, "id": ..., "ok": false, "error": {"code": ..., "message":
     ..., ...}}

Error codes: ``bad-request`` (malformed or schema-invalid),
``oversized-request``, ``lint-rejected`` (the ``spsta lint`` preflight
found diagnostics at or above the daemon's ``--fail-on`` severity; the
error carries the structured report), ``unknown-circuit``,
``unknown-gate``, ``internal``.

Validation mirrors :mod:`repro.experiments.bench_schema`: a JSON-Schema
document (:data:`REQUEST_SCHEMA`) is the normative format, and the
package's dependency-free validator, :class:`repro.schema.CompiledSchema`,
checks every request against it with ``jsonschema``'s messages.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.schema import CompiledSchema, SchemaError
from repro.spec import ALGEBRAS, CONFIGS, DELAY_KINDS, decode_algebra

#: Bump on breaking protocol changes (mirrors the lint-report convention).
PROTOCOL_VERSION = 1

#: Hard per-request size cap (bytes of the serialized request); requests
#: past the daemon's limit are refused with ``oversized-request``.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

OPERATIONS = ("analyze", "query", "edit", "invalidate", "status",
              "shutdown")

#: JSON-Schema (draft 7 subset) of one request envelope.
REQUEST_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["v", "op"],
    "properties": {
        "v": {"const": PROTOCOL_VERSION},
        "id": {"type": ["string", "number", "null"]},
        "op": {"enum": list(OPERATIONS)},
        "circuit": {"type": "string", "minLength": 1},
        "config": {"enum": list(CONFIGS)},
        "algebra": {"enum": list(ALGEBRAS)},
        "grid": {"type": "string", "pattern": r"^[^:]+:[^:]+:\d+$"},
        "delay": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(DELAY_KINDS)},
                "value": {"type": "number"},
                "mu": {"type": "number"},
                "sigma": {"type": "number", "minimum": 0},
                "base": {"type": "number"},
                "speedup": {"type": "number"},
                "floor": {"type": "number"},
                "spread": {"type": "number"},
                "relative_sigma": {"type": "number", "minimum": 0},
                "delays": {"type": "object",
                           "additionalProperties": {"type": "number"}},
            },
        },
        # edit fields
        "gate": {"type": "string", "minLength": 1},
        "mu": {"type": "number"},
        "sigma": {"type": "number", "minimum": 0},
        "clear": {"type": "boolean"},
        "bench": {"type": "string", "minLength": 1},
        # query fields
        "net": {"type": "string", "minLength": 1},
        "direction": {"enum": ["rise", "fall"]},
    },
}

_REQUEST_VALIDATOR = CompiledSchema(REQUEST_SCHEMA)

#: The ``algebra``/``grid`` field decoder under its protocol name.
parse_algebra = decode_algebra


class RequestError(ValueError):
    """A request that must be refused, carrying its protocol error code."""

    def __init__(self, message: str, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


def validate_request(payload: object) -> Dict[str, Any]:
    """Check one request envelope against :data:`REQUEST_SCHEMA`.

    Returns the payload (typed) on success; raises :class:`RequestError`
    with code ``bad-request`` otherwise.  Operation-specific *semantic*
    requirements (an ``analyze`` without ``circuit``, an ``edit``
    without a target) are enforced by the daemon, which knows its
    defaults.
    """
    if not isinstance(payload, dict):
        raise RequestError(
            f"request must be a JSON object, got "
            f"{type(payload).__name__}")
    try:
        _REQUEST_VALIDATOR.validate(payload)
    except SchemaError as exc:
        raise RequestError(f"schema violation: {exc.message}") from exc
    return payload


# -- response envelopes ------------------------------------------------------


def ok_response(request_id: object, result: Mapping[str, Any], *,
                cached: bool, seconds: float) -> Dict[str, Any]:
    """A success envelope; ``result`` is the cache-stable payload."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
            "cached": cached, "seconds": seconds, "result": dict(result)}


def error_response(request_id: object, code: str, message: str,
                   detail: Optional[Mapping[str, Any]] = None
                   ) -> Dict[str, Any]:
    """An error envelope with a machine-readable code."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if detail is not None:
        error["detail"] = dict(detail)
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False,
            "error": error}


def response_summary(response: Mapping[str, Any]) -> Tuple[bool, str]:
    """(ok, one-line summary) of a response — session-log convenience."""
    if response.get("ok"):
        cached = "hit" if response.get("cached") else "miss"
        return True, f"ok ({cached}, {response.get('seconds', 0):.4f}s)"
    error = response.get("error", {})
    return False, f"{error.get('code')}: {error.get('message')}"
