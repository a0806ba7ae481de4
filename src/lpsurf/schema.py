"""The JSON file format: its schema version and the field checker every loader uses.

A field's shape is ``int`` (never a bool), ``bool`` or ``str``, or
``[shape]`` for a list of such values.
"""

from __future__ import annotations

from typing import Any, Mapping

from .poly import PolyError

SCHEMA_VERSION = 1

REQUIRED = object()

_NAMES = {int: "integer", bool: "boolean", str: "string"}


def _matches(value: Any, shape: Any) -> bool:
    """Whether a decoded JSON value has ``shape``."""
    if shape is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(shape, list):
        return isinstance(value, list) and all(_matches(v, shape[0]) for v in value)
    return isinstance(value, shape)


def _describe(shape: Any) -> str:
    if isinstance(shape, list):
        return f"list of {_describe(shape[0])}s"
    return _NAMES[shape]


def fields(data: Any, kind: str, spec: Mapping[str, tuple], error: type = PolyError) -> list:
    """Values of the fields of a ``kind`` JSON object, in ``spec`` order.

    ``spec`` maps each field name to ``(shape, default)``; a field whose
    default is ``REQUIRED`` must be present.  Other fields are ignored.  Raises
    ``error`` with a one-line message when ``data`` is not an object, its
    ``schema`` is not 1, or a field is missing or has the wrong shape.
    """
    if not isinstance(data, dict):
        raise error(f"{kind} JSON must be an object")
    if not (_matches(data.get("schema"), int) and data["schema"] == SCHEMA_VERSION):
        raise error(f'{kind} JSON needs "schema": {SCHEMA_VERSION}')
    out = []
    for name, (shape, default) in spec.items():
        if name not in data and default is REQUIRED:
            raise error(f"{kind} JSON needs field {name!r}")
        if name in data and not _matches(data[name], shape):
            raise error(f"{kind} field {name!r} must be a JSON {_describe(shape)}")
        out.append(data.get(name, default))
    return out
