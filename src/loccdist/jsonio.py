"""Canonical JSON emission shared by every file format in the package.

Emission is byte-stable: dict keys keep insertion order, floats are printed
with 17 significant digits (enough to round-trip IEEE doubles exactly), and
no whitespace depends on content.  Parsing is plain ``json`` wrapped so that
malformed or too deeply nested text surfaces as
:class:`~loccdist.errors.ParseError`.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError

__all__ = ["canonical_dumps", "format_float", "parse_json"]


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits.

    Negative zero collapses to "0" so that re-parsing and re-emitting a
    document cannot flip a sign nobody can observe numerically.
    """
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float cannot be serialized")
    if x == 0.0:
        return "0"
    return format(float(x), ".17g")


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _write(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_dumps(obj: Any) -> str:
    """Serialize nested dicts/lists/scalars to a canonical JSON string."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def parse_json(text: str) -> Any:
    """Parse JSON text, raising ParseError on malformed input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise ParseError("malformed JSON: nested too deeply") from None
