"""Canonical JSON emission and the complex-number codec of every file format.

Emission is byte-stable: dict keys keep insertion order, floats are printed
with 17 significant digits (enough to round-trip IEEE doubles exactly), and
no whitespace depends on content.  Parsing is plain ``json`` wrapped so that
malformed, too deeply nested or out-of-range text surfaces as
:class:`~loccdist.errors.ParseError`.

Every complex number in every format is an ``[re, im]`` pair of JSON
numbers.  :func:`complex_from_json`, :func:`complex_rows_from_json` and
:func:`complex_to_json` are the only code that converts between such pairs
and complex arrays.  :func:`complex_to_json` gives a read-only float64
``(..., 2)`` view, not lists: :func:`canonical_dumps` writes each such
array from a ``%.17g`` template cached by shape, each float as one
``%.17g``, and fills every float of a document with one ``%`` at the end.
"""

from __future__ import annotations

import functools
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
    "parse_json",
]


# The types JSON writes, in the order a subclass is matched against them.
_KINDS = (str, int, float, list, tuple, dict, np.ndarray)


@functools.lru_cache(maxsize=256)
def _template(shape: tuple[int, ...]) -> str:
    """The text of a float64 array of ``shape``, one ``%.17g`` per entry."""
    if not shape:
        return "%.17g"
    return "[" + ", ".join([_template(shape[1:])] * shape[0]) + "]"


def _write(obj: Any, out: list[str], floats: list[float | np.ndarray]) -> None:
    # Dispatch on the exact type; a subclass such as np.float64 is written as
    # its base.  encode_basestring is what json.dumps(s, ensure_ascii=False)
    # calls, without building an encoder per string.  A float or a float64
    # array is written as its template and kept in ``floats``; every "%" of
    # a string is doubled, so that canonical_dumps fills the text with one "%".
    t = type(obj)
    if t not in _KINDS:
        if obj is None or t is bool:
            out.append("null" if obj is None else "true" if obj else "false")
            return
        t = next((kind for kind in _KINDS if isinstance(obj, kind)), None)
        if t is None:
            raise TypeError(f"cannot serialize {type(obj).__name__} canonically")
    if t is str:
        out.append(encode_basestring(obj).replace("%", "%%"))
    elif t is float:
        out.append("%.17g")
        floats.append(obj)
    elif t is list or t is tuple:
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _write(item, out, floats)
        out.append("]")
    elif t is np.ndarray:
        if obj.dtype != np.float64:
            raise TypeError(f"cannot serialize an array of {obj.dtype} canonically")
        out.append(_template(obj.shape))
        floats.append(obj)
    elif t is dict:
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            out.append(encode_basestring(key).replace("%", "%%"))
            out.append(": ")
            _write(value, out, floats)
        out.append("}")
    else:
        out.append(str(obj))


def canonical_dumps(obj: Any) -> str:
    """Serialize nested dicts/lists/scalars and float64 arrays to canonical JSON.

    An array is written as its ``.tolist()`` would be.  The walk writes each
    float as ``%.17g`` and each array as its cached template, and one ``%``
    over all their floats, in order, fills the text; ``+ 0.0`` writes -0.0
    as ``0``, and a NaN or an infinity raises ValueError.
    """
    out: list[str] = []
    floats: list[float | np.ndarray] = []
    _write(obj, out, floats)
    text = "".join(out)
    if not floats:
        return text % () if "%" in text else text
    flat = np.concatenate(floats, axis=None) + 0.0
    if not np.isfinite(flat).all():
        raise ValueError("non-finite float cannot be serialized")
    return text % tuple(memoryview(flat))


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


# a complex128 viewed as this dtype is an array of shape (..., 2)
_PAIR = np.dtype((np.float64, (2,)))


def complex_to_json(arr: np.ndarray) -> np.ndarray:
    """Complex entries as ``[re, im]`` float pairs: a read-only float64 ``(..., 2)`` view.

    Only :func:`canonical_dumps` writes it, as the nested lists of pairs
    that its ``.tolist()`` would be.
    """
    pairs = np.ascontiguousarray(arr, dtype=np.complex128).view(_PAIR)
    pairs.flags.writeable = False
    return pairs
