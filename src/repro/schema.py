"""JSON-Schema validation with the schema compiled once.

``jsonschema.validate(payload, schema)`` checks the *schema* against its
metaschema on every call, which for the small request and artifact
schemas of this package costs far more than checking the payload.
:class:`CompiledSchema` runs that check once, on first use, and keeps
the validator instance.  It raises the same error ``jsonschema.validate``
raises (the ``best_match`` of the payload's errors), so every message is
unchanged.

``jsonschema`` is optional: callers test for it and keep their own
structural fallback, as :mod:`repro.serve.protocol` and
:mod:`repro.experiments.bench_schema` do.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

try:                                        # pragma: no cover - optional
    import jsonschema                       # type: ignore[import-untyped]
except ImportError:                         # pragma: no cover
    jsonschema = None


class CompiledSchema:
    """A JSON-Schema document whose validator is built lazily, once."""

    __slots__ = ("schema", "_validator")

    def __init__(self, schema: Dict[str, Any]) -> None:
        self.schema = schema
        self._validator: Optional[Any] = None

    def validate(self, payload: object) -> None:
        """Raise ``jsonschema.ValidationError`` if ``payload`` violates
        the schema (``jsonschema`` must be importable)."""
        validator = self._validator
        if validator is None:
            cls = jsonschema.validators.validator_for(self.schema)
            cls.check_schema(self.schema)
            validator = self._validator = cls(self.schema)
        error = jsonschema.exceptions.best_match(
            validator.iter_errors(payload))
        if error is not None:
            raise error
