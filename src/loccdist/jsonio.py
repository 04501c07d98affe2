"""Canonical JSON emission and the complex-number codec of every file format.

Emission is byte-stable: dict keys keep insertion order, floats are printed
with 17 significant digits (enough to round-trip IEEE doubles exactly), and
no whitespace depends on content.  Parsing is plain ``json`` wrapped so that
malformed, too deeply nested or out-of-range text surfaces as
:class:`~loccdist.errors.ParseError`.

Every complex number in every format is an ``[re, im]`` pair of JSON
numbers.  :func:`complex_from_json` and :func:`complex_to_json` are the only
code that converts between such lists of pairs and complex arrays.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from .errors import ParseError, SchemaError

__all__ = ["canonical_dumps", "complex_from_json", "complex_to_json", "format_float", "parse_json"]


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
    except RecursionError:
        raise ParseError("malformed JSON: nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise ParseError(f"malformed JSON: {exc}") from None


def _is_finite_number(part: object) -> bool:
    try:
        return isinstance(part, (int, float)) and not isinstance(part, bool) and math.isfinite(part)
    except OverflowError:  # an int too large for a double
        return False


# Lists at least this long are first checked in whole-list passes; below it
# the fixed cost of those passes exceeds the per-entry loop's.
_BULK_PAIRS = 16


def _bulk_pairs(data: list) -> np.ndarray | None:
    """The flattened pairs as floats, or None unless every entry is valid.

    Exact types are checked, so a bool or a tuple fails as it does in the
    per-entry loop; that loop, not this check, reports what is wrong.
    """
    if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
        return None
    if not set(map(type, itertools.chain.from_iterable(data))) <= {float, int}:
        return None
    try:
        flat = _flatten(data)
    except OverflowError:  # an int too large for a double
        return None
    return flat if np.isfinite(flat).all() else None


def _flatten(data: list) -> np.ndarray:
    return np.fromiter(itertools.chain.from_iterable(data), dtype=np.float64, count=2 * len(data))


def complex_from_json(data: object, where: str) -> np.ndarray:
    """Convert a non-empty list of ``[re, im]`` number pairs to a 1-D complex array.

    Booleans are not numbers here, and neither are non-finite values or
    integers too large for a double: each raises SchemaError, with ``where``
    prefixed to the message.
    """
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{where}: expected a non-empty list of [re, im] pairs")
    flat = _bulk_pairs(data) if len(data) >= _BULK_PAIRS else None
    if flat is None:
        for i, pair in enumerate(data):
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and _is_finite_number(pair[0])
                and _is_finite_number(pair[1])
            ):
                raise SchemaError(f"{where}: entry {i} must be a [re, im] pair of finite numbers")
        flat = _flatten(data)
    return flat.view(np.complex128)


def complex_to_json(arr: np.ndarray) -> list:
    """Complex entries, flattened row-major, as a list of ``[re, im]`` float pairs."""
    flat = np.ascontiguousarray(arr, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()
