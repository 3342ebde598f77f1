"""The one JSON mapping shared by every result and configuration class."""

from __future__ import annotations

from dataclasses import fields, is_dataclass

NOT_SERIALIZED = {"serialize": False}


def to_dict(obj) -> dict:
    """JSON-ready dict of a dataclass instance: its fields in declaration order.

    A class-level ``_json_tag = (key, value)`` pair, when present, comes
    first; fields declared with ``field(metadata=NOT_SERIALIZED)`` are left out.
    Tuples become lists and nested dataclasses are converted recursively.
    """
    doc = dict([obj._json_tag]) if hasattr(obj, "_json_tag") else {}
    for f in fields(obj):
        if f.metadata.get("serialize", True):
            doc[f.name] = _jsonable(getattr(obj, f.name))
    return doc


def _jsonable(value):
    if is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value
