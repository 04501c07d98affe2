"""Canonical JSON emission and the complex-number codec of every file format.

Emission is byte-stable: dict keys keep insertion order, floats are printed
with 17 significant digits (enough to round-trip IEEE doubles exactly), and
no whitespace depends on content.  Parsing is plain ``json`` wrapped so that
malformed, too deeply nested or out-of-range text surfaces as
:class:`~loccdist.errors.ParseError`.

Every complex number in every format is an ``[re, im]`` pair of JSON
numbers.  :func:`complex_from_json`, :func:`complex_rows_from_json` and
:func:`complex_to_json` are the only code that converts between such lists
of pairs and complex arrays.
"""

from __future__ import annotations

import itertools
import json
import math
from json.encoder import encode_basestring
from typing import Any, Callable

import numpy as np

from .errors import ParseError, SchemaError

__all__ = [
    "canonical_dumps",
    "complex_from_json",
    "complex_rows_from_json",
    "complex_to_json",
    "format_float",
    "parse_json",
]


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits.

    Negative zero collapses to "0" so that re-parsing and re-emitting a
    document cannot flip a sign nobody can observe numerically.
    """
    if not math.isfinite(x):
        raise ValueError("non-finite float cannot be serialized")
    if x == 0.0:
        return "0"
    return format(float(x), ".17g")


# The types JSON writes, in the order a subclass is matched against them.
_KINDS = (str, int, float, list, tuple, dict)


def _write(obj: Any, out: list[str]) -> None:
    # Dispatch on the exact type; a subclass such as np.float64 is written as
    # its base.  encode_basestring is what json.dumps(s, ensure_ascii=False)
    # calls, without building an encoder per string.
    t = type(obj)
    if t not in _KINDS:
        if obj is None or t is bool:
            out.append("null" if obj is None else "true" if obj else "false")
            return
        t = next((kind for kind in _KINDS if isinstance(obj, kind)), None)
        if t is None:
            raise TypeError(f"cannot serialize {type(obj).__name__} canonically")
    if t is float:
        out.append(format_float(obj))
    elif t is list or t is tuple:
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _write(item, out)
        out.append("]")
    elif t is str:
        out.append(encode_basestring(obj))
    elif t is dict:
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            out.append(encode_basestring(key))
            out.append(": ")
            _write(value, out)
        out.append("}")
    else:
        out.append(str(obj))


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

    :func:`complex_rows_from_json` on the one vector, with ``where`` naming it.
    """
    return complex_rows_from_json([data], lambda _: where)


def complex_rows_from_json(rows: list, where: Callable[[int], str]) -> np.ndarray:
    """Decode a list of vectors, each a non-empty list of ``[re, im]`` number pairs.

    Returns all entries, concatenated in order, as one 1-D complex array.
    Every list is type-checked and converted in whole-list passes.  Only
    when those fail does a per-entry loop look for the first bad entry of
    the first bad vector.  Booleans are not numbers here, and neither are
    non-finite values or integers too large for a double: each raises
    SchemaError, with ``where(j)`` naming vector j.
    """
    for j, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{where(j)}: expected a non-empty list of [re, im] pairs")
    pairs = list(itertools.chain.from_iterable(rows))
    flat = _bulk_pairs(pairs)
    if flat is None:
        for j, row in enumerate(rows):
            for i, pair in enumerate(row):
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(map(_is_finite_number, pair))):
                    at = f"{where(j)}: entry {i}"
                    raise SchemaError(f"{at} must be a [re, im] pair of finite numbers")
        # a list subclass or a numpy float passes the loop but not the exact types
        flat = _flatten(pairs)
    return flat.view(np.complex128)


def complex_to_json(arr: np.ndarray) -> list:
    """Complex entries as ``[re, im]`` float pairs, nested in the array's shape."""
    a = np.ascontiguousarray(arr, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()
