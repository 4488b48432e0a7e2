"""The JSON file boundary: one reader and one writer for every file format."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError


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
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object in {path}")
    return data


def parse_list(data: dict, key: str, parse) -> tuple:
    """Parse the JSON list ``data[key]`` item by item; an error names the
    item's field path, e.g. ``nodes[0].bbox``."""
    items = data[key]
    if not isinstance(items, list):
        raise ParseError(f"expected a JSON list, got {items!r}", field=key)
    parsed = []
    for i, item in enumerate(items):
        try:
            parsed.append(parse(item))
        except ParseError as e:
            raise e.within(f"{key}[{i}]") from e
    return tuple(parsed)


def write_json(path: str | Path, data: dict):
    """Write ``data`` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
