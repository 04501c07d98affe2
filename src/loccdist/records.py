"""The base of every immutable record the package builds and returns.

Verdicts, trace nodes, certificates, reports, operators and ensembles are
plain classes: each has an explicit ``__init__`` that checks its arguments
and writes its fields straight into ``self.__dict__``, so constructing one
runs no generic code and importing the package generates none.
:class:`Record` gives them, from the field tuple each class declares,
immutability, equality and a readable ``repr``.  A field may be left out
of ``__dict__`` and made on first read, as a verdict's trace is: equality,
hashing and ``repr`` read such a field through the attribute.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """An immutable record: fields are written once, by ``__init__``, into ``__dict__``.

    A subclass declares its fields as class annotations, in positional
    order; they make its field tuple.  Assigning or deleting an attribute
    raises AttributeError; ``__dict__`` stays, for
    ``functools.cached_property``.  With the class keyword ``eq=True`` two
    records of the same class are equal when their field tuples are, and a
    record hashes as its field tuple, unless the class sets ``__hash__``
    itself (``None`` makes it unhashable); otherwise equality is identity.
    ``repr`` shows every field not named in the class keyword ``hidden``.
    A field missing from ``__dict__`` is read through the attribute, which
    builds it.
    """

    __slots__ = ()

    def __init_subclass__(cls, *, eq: bool = False, hidden: tuple[str, ...] = ()) -> None:
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__annotations__)
        cls._shown = tuple(f for f in fields if f not in hidden)
        if eq:
            cls.__eq__ = _value_eq  # type: ignore[method-assign]
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = _value_hash  # type: ignore[method-assign]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = self._shown  # type: ignore[attr-defined]
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{type(self).__qualname__}({shown})"


def _values(r: Record) -> tuple:
    d, fields = r.__dict__, r._fields  # type: ignore[attr-defined]
    return tuple([d[f] if f in d else getattr(r, f) for f in fields])


def _value_eq(self: Record, other: object) -> bool:
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)  # type: ignore[arg-type]
    return NotImplemented


def _value_hash(self: Record) -> int:
    return hash(_values(self))
