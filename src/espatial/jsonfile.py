"""The JSON file boundary: one reader and one writer for every file format,
and the typed field readers every ``from_dict`` goes through."""

from __future__ import annotations

import json
import math
import reprlib
from contextlib import suppress
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin

from .errors import ParseError

REQUIRED = object()  # the default of a field that must be present

_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false",
             str: "a string", dict: "a JSON object", list: "a JSON list"}


def require(value, kind):
    """Check one JSON value against ``kind`` and return it; a mismatch is a
    ParseError.

    ``kind`` is ``int``, ``float``, ``bool``, ``str``, ``dict``, ``list``,
    ``object`` (any value), an ``Enum`` class (returns the member),
    ``list[k]`` or ``dict[str, k]`` (each element checked against ``k``; a
    list comes back as a tuple, and an error names the element, e.g.
    ``nodes[0].bbox``), or a reader function, which is given a JSON object.
    A bool is never a number. ``float`` accepts any finite JSON number,
    integers included, and returns a float.
    """
    if kind is object:
        return value
    origin = get_origin(kind)
    if origin is list:
        return tuple(_element(i, item, get_args(kind)[0]) for i, item in enumerate(require(value, list)))
    if origin is dict:
        return {k: _element(k, item, get_args(kind)[1]) for k, item in require(value, dict).items()}
    if isinstance(kind, type) and issubclass(kind, Enum):
        with suppress(ValueError):
            return kind(value)
        members = ", ".join(repr(m.value) for m in kind)
        raise ParseError(f"expected one of {members}, got {reprlib.repr(value)}")
    if kind not in _EXPECTED:  # a reader function
        return kind(require(value, dict))
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            with suppress(OverflowError):  # an integer beyond the float range
                if math.isfinite(value):
                    return float(value)
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ParseError(f"expected {_EXPECTED[kind]}, got {reprlib.repr(value)}")


def _element(key: int | str, item, kind):
    try:
        return require(item, kind)
    except ParseError as e:
        raise e.within(f"[{key}]" if isinstance(key, int) else key) from e


def get(data: dict, key: str, kind, default=REQUIRED, length: int | None = None):
    """Read the field ``data[key]`` as ``kind`` (see :func:`require`); an
    error names the field. An absent field, or a null one whose default is
    None, reads as ``default``; without a default it is an error. With
    ``length``, the field is a list of exactly that many ``kind`` values,
    read as a tuple."""
    if key not in data or (data[key] is None and default is None):
        if default is REQUIRED:
            raise ParseError(f"missing {key!r}", field=key)
        return default
    value = data[key]
    try:
        if length is None:
            return require(value, kind)
        values = require(value, list[kind])
        if len(values) != length:
            raise ParseError(f"expected a list of {length}, got {reprlib.repr(value)}")
        return values
    except ParseError as e:
        raise e.within(key) from e


def known_keys(data: dict, cls):
    """Reject a key of ``data`` that is not a field of the dataclass ``cls``."""
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ParseError("unknown key", field=key)


def read_json_object(path: str | Path) -> dict:
    """Parse a file that must hold one JSON object; any failure is a
    ParseError, with the line for malformed JSON."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON in {path}: {e.msg}", line=e.lineno) from e
    try:
        return require(data, dict)
    except ParseError as e:
        raise ParseError(f"{e.message} in {path}") from e


def write_json(path: str | Path, data: dict):
    """Write ``data`` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
