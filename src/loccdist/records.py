"""The base of every immutable record the package builds and returns.

Verdicts, trace nodes, certificates, reports, operators and ensembles are
plain classes, so importing the package generates no code.  Eight records
check or convert their arguments in their own ``__init__``: MeasurementStep,
StuckCertificate, TraceSplit, ProductState, Ensemble, LocalOperator,
Instrument and SimNode.  Each then stores its fields through
:class:`Record`'s one constructor, as every other record does; only
``Ensemble._set``, which also keeps an index and a memo, and ``decide``,
which leaves a verdict's trace to be built on first read, write ``__dict__``
themselves.  :class:`Record` also gives, from the field tuple each class
declares, immutability, equality, hashing and a readable ``repr``.  A field
may be left out of ``__dict__`` and made on first read, as a verdict's trace
is: equality, hashing and ``repr`` read such a field through the attribute.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Record"]


class Record:
    """An immutable record: fields are written once, by ``__init__``, into ``__dict__``.

    A subclass declares its fields as class annotations, in positional order;
    they make its field tuple.  ``__init__`` binds arguments to the fields by
    position and by name, and raises TypeError for a missing, unknown or
    repeated one; the fields named in the class keyword ``optional`` default to
    None, without a class attribute, which would hide a field made on first
    read.  Assigning or deleting an attribute raises AttributeError;
    ``__dict__`` stays, for ``functools.cached_property``.  With the class
    keyword ``eq=True`` two records of the same class are equal when their
    field tuples are, and a record hashes as its field tuple, unless the class
    sets ``__hash__`` itself (``None`` makes it unhashable); otherwise equality
    is identity.  A field that holds an ``np.ndarray`` compares and hashes by
    its shape and its complex128 bytes after ``+ 0.0``: for finite entries,
    equal exactly when ``np.array_equal`` says so, so -0.0 equals 0.0 and a
    real array equals its complex copy.  ``repr`` shows every field not named
    in the class keyword ``hidden``.  A field missing from ``__dict__`` is read
    through the attribute, which builds it.
    """

    __slots__ = ()

    def __init_subclass__(cls, *, eq: bool = False, hidden=(), optional=()) -> None:
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__annotations__)
        cls._optional = optional
        cls._shown = tuple(f for f in fields if f not in hidden)
        if eq:
            cls.__eq__ = _value_eq  # type: ignore[method-assign]
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = _value_hash  # type: ignore[method-assign]

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, d = self._fields, self.__dict__  # type: ignore[attr-defined]
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}: {len(fields)} fields, {len(args)} given")
        d.update(zip(fields, args))
        if kwargs:
            for key in kwargs:
                if key not in fields or key in d:
                    raise TypeError(f"{type(self).__qualname__}: unknown or repeated field {key!r}")
            d.update(kwargs)
        if len(d) < len(fields):
            for f in fields:
                if f not in d:
                    if f not in self._optional:  # type: ignore[attr-defined]
                        raise TypeError(f"{type(self).__qualname__}: missing field {f!r}")
                    d[f] = None

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
    values = [d[f] if f in d else getattr(r, f) for f in fields]
    # + 0.0 turns -0.0 into 0.0, which np.array_equal finds equal to it
    return tuple([(v.shape, (v + 0.0).astype(np.complex128, copy=False).tobytes())
                  if isinstance(v, np.ndarray) else v for v in values])


def _value_eq(self: Record, other: object) -> bool:
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)  # type: ignore[arg-type]
    return NotImplemented


def _value_hash(self: Record) -> int:
    return hash(_values(self))
