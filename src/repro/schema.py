"""Dependency-free validation for the JSON-Schema documents of this package.

The serve request schema and the four benchmark-artifact schemas are
draft-07 documents built from 13 keywords: ``type``, ``required``,
``properties``, ``additionalProperties``, ``items``, ``const``, ``enum``,
``pattern``, ``minimum``, ``exclusiveMinimum``, ``minLength``,
``minItems`` and ``$schema`` (ignored).  :class:`CompiledSchema`
interprets exactly that subset.  Construction walks the schema once,
compiles its ``pattern`` regexes (``re.error`` if one is malformed) and
raises ``ValueError`` on any other keyword, so a schema edit past the
subset fails loudly instead of being ignored.

:meth:`CompiledSchema.validate` raises the error ``jsonschema.validate``
raises: draft-07 value rules (``bool`` is neither ``integer`` nor
``number``, ``1.0`` is an ``integer``, ``True != 1`` for ``const`` and
``enum``), ``jsonschema``'s message for each keyword, and, of several
violations, the one ``jsonschema.exceptions.best_match`` picks.
``tests/test_schema.py`` cross-checks all three against ``jsonschema``.
"""

from __future__ import annotations

import numbers
import re
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: Keys and indices from the payload root down to a value.
Path = Tuple[Union[str, int], ...]

#: One violation: (path, message, whether the value has its schema's type).
_Error = Tuple[Path, str, bool]

_KEYWORDS = frozenset((
    "type", "required", "properties", "additionalProperties", "items",
    "const", "enum", "pattern", "minimum", "exclusiveMinimum", "minLength",
    "minItems"))


class SchemaError(ValueError):
    """A payload that violates its schema: ``message`` is ``jsonschema``'s
    text for the failing keyword, ``path`` leads to the offending value."""

    def __init__(self, message: str, path: Path) -> None:
        super().__init__(message)
        self.message = message
        self.path = path


def _is_integer(value: object) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


_TYPES: Dict[str, Callable[[object], bool]] = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "integer": _is_integer,
    "number": _is_number,
}


def _equal(a: object, b: object) -> bool:
    """JSON equality: ``==``, except that a boolean equals only itself."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(
            key in b and _equal(value, b[key]) for key, value in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _leaf_error(keyword: str, value: Any, instance: Any) -> Optional[str]:
    """The message if ``instance`` fails a value keyword (not ``type``)."""
    if keyword == "const":
        if not _equal(instance, value):
            return f"{value!r} was expected"
    elif keyword == "enum":
        if not any(_equal(each, instance) for each in value):
            return f"{instance!r} is not one of {value!r}"
    elif keyword == "pattern":
        text, regex = value
        if isinstance(instance, str) and not regex.search(instance):
            return f"{instance!r} does not match {text!r}"
    elif keyword == "minimum":
        if _is_number(instance) and instance < value:
            return f"{instance!r} is less than the minimum of {value!r}"
    elif keyword == "exclusiveMinimum":
        if _is_number(instance) and instance <= value:
            return (f"{instance!r} is less than or equal to "
                    f"the minimum of {value!r}")
    else:                                   # minLength, minItems
        sized = str if keyword == "minLength" else list
        if isinstance(instance, sized) and len(instance) < value:
            short = "should be non-empty" if value == 1 else "is too short"
            return f"{instance!r} {short}"
    return None


class _Node:
    """One (sub)schema, its keywords compiled and kept in schema order."""

    __slots__ = ("keywords", "types")

    def __init__(self, schema: object) -> None:
        if not isinstance(schema, dict):
            raise ValueError(f"schema must be an object, got {schema!r}")
        self.types: Optional[Tuple[str, ...]] = None
        self.keywords: List[Tuple[str, Any]] = []
        for keyword, value in schema.items():
            if keyword == "$schema":
                continue
            if keyword not in _KEYWORDS:
                raise ValueError(f"unsupported schema keyword {keyword!r}")
            if keyword == "type":
                value = (value,) if isinstance(value, str) else tuple(value)
                if not value or not all(name in _TYPES for name in value):
                    raise ValueError(f"unsupported type {value!r}")
                self.types = value
            elif keyword == "pattern":
                value = value, re.compile(value)
            elif keyword == "properties":
                value = tuple((name, _Node(sub))
                              for name, sub in value.items())
            elif keyword == "additionalProperties":
                value = frozenset(schema.get("properties", ())), _Node(value)
            elif keyword == "items":
                value = _Node(value)
            self.keywords.append((keyword, value))

    def collect(self, instance: Any, path: Path,
                errors: List[_Error]) -> None:
        """Append every violation under this node to ``errors``, in
        ``jsonschema``'s order: keywords in schema order, ``properties``
        in schema order, ``additionalProperties`` and ``items`` in
        instance order, ``required`` in list order."""
        for keyword, value in self.keywords:
            if keyword == "properties":
                if isinstance(instance, dict):
                    for name, node in value:
                        if name in instance:
                            node.collect(instance[name], path + (name,),
                                         errors)
            elif keyword == "additionalProperties":
                if isinstance(instance, dict):
                    known, node = value
                    for name, item in instance.items():
                        if name not in known:
                            node.collect(item, path + (name,), errors)
            elif keyword == "items":
                if isinstance(instance, list):
                    for index, item in enumerate(instance):
                        value.collect(item, path + (index,), errors)
            elif keyword == "type":
                if not self._matches(instance):
                    names = ", ".join(map(repr, value))
                    errors.append(
                        (path, f"{instance!r} is not of type {names}", False))
            elif keyword == "required":
                if isinstance(instance, dict):
                    errors.extend(
                        (path, f"{name!r} is a required property",
                         self._matches(instance))
                        for name in value if name not in instance)
            else:
                message = _leaf_error(keyword, value, instance)
                if message is not None:
                    errors.append((path, message, self._matches(instance)))

    def _matches(self, instance: Any) -> bool:
        return self.types is not None and any(
            _TYPES[name](instance) for name in self.types)


def _relevance(error: _Error) -> Tuple[int, Path, bool]:
    """``jsonschema.exceptions.relevance`` on this subset: the shallowest
    error wins, then the greatest path, then a value of the wrong type."""
    path, _, matches_type = error
    return -len(path), path, not matches_type


class CompiledSchema:
    """A JSON-Schema document compiled once into a validator."""

    __slots__ = ("_root",)

    def __init__(self, schema: Dict[str, Any]) -> None:
        self._root = _Node(schema)

    def validate(self, payload: object) -> None:
        """Raise :class:`SchemaError` if ``payload`` violates the schema.

        Of several violations the first most relevant one is raised,
        as ``jsonschema.exceptions.best_match`` does.
        """
        errors: List[_Error] = []
        self._root.collect(payload, (), errors)
        if errors:
            path, message, _ = max(errors, key=_relevance)
            raise SchemaError(message, path)
