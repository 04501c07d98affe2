"""Records store, compare and hash their fields only through ``Record``.

``Record.__init__`` binds fields by position and by name; a record writes
its own ``__init__`` only to check or convert its arguments, and then
passes the fields to ``super().__init__``.  ``Record`` also gives value
equality and hashing, array fields included, so no record writes its own
``__eq__`` or ``__hash__``: ``OverlapGraph``, which compares its derived
edges, is the one exception, and ``__hash__ = None`` only declares a
record unhashable.  These checks need only the standard ``ast`` module.
An ``__init__`` of a class whose bases name ``Record`` only stores when
every statement of its body is a docstring, ``d = self.__dict__``, an
assignment into that dict (or ``self.__dict__`` itself) of parameters and
constants, or an ``update`` call on it or a ``super().__init__`` call with
such values.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "loccdist"


def _is_self_dict(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _plain(node: ast.expr) -> bool:
    """A value made of names and constants only: nothing is computed or checked."""
    return all(isinstance(n, (ast.Name, ast.Constant, ast.Tuple, ast.Load))
               for n in ast.walk(node))


def _stores(stmt: ast.stmt, aliases: set[str]) -> bool:
    """Whether ``stmt`` only writes plain values into the instance dict (or names it)."""
    def is_dict(node: ast.expr) -> bool:
        return _is_self_dict(node) or (isinstance(node, ast.Name) and node.id in aliases)

    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return True  # the docstring
    if isinstance(stmt, ast.Assign) and _is_self_dict(stmt.value):
        if all(isinstance(t, ast.Name) for t in stmt.targets):
            aliases.update(t.id for t in stmt.targets)  # type: ignore[attr-defined]
            return True
        return False
    if isinstance(stmt, ast.Assign):
        targets = [n for t in stmt.targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])]
        return _plain(stmt.value) and all(
            isinstance(t, ast.Subscript) and is_dict(t.value) for t in targets
        )
    if isinstance(stmt, ast.Expr) and isinstance(call := stmt.value, ast.Call):
        f = call.func
        forwards = (isinstance(f, ast.Attribute) and f.attr == "__init__"
                    and isinstance(f.value, ast.Call) and isinstance(f.value.func, ast.Name)
                    and f.value.func.id == "super")
        return (isinstance(f, ast.Attribute) and (forwards or f.attr == "update" and is_dict(f.value))
                and all(_plain(a) for a in [*call.args, *(k.value for k in call.keywords)]))
    return False


def _records(source: str) -> list[ast.ClassDef]:
    """Each class of ``source`` whose bases name ``Record``."""
    return [cls for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef) and any(
        (isinstance(b, ast.Name) and b.id == "Record")
        or (isinstance(b, ast.Attribute) and b.attr == "Record")
        for b in cls.bases
    )]


def storing_inits(source: str) -> list[tuple[int, str]]:
    """``(line, class)`` of each ``Record`` subclass whose ``__init__`` only stores fields."""
    hits = []
    for cls in _records(source):
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                aliases: set[str] = set()
                if all(_stores(stmt, aliases) for stmt in fn.body):
                    hits.append((fn.lineno, cls.name))
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_record_spells_out_a_constructor_that_only_stores(path):
    assert storing_inits(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_storing_constructor_and_spares_a_checking_one():
    source = "\n".join([
        "class Plain: ...",
        "class Stores(Record, eq=True):",
        "    def __init__(self, a, b):",
        "        '''Only stores.'''",
        "        d = self.__dict__",
        "        d['a'], d['b'] = a, b",
        "class Updates(records.Record):",
        "    def __init__(self, a):",
        "        self.__dict__.update(a=a, b=None)",
        "class Checks(Record):",
        "    def __init__(self, a):",
        "        if a < 0:",
        "            raise ValueError(a)",
        "        self.__dict__['a'] = a",
        "class Converts(Record):",
        "    def __init__(self, a):",
        "        self.__dict__['a'] = tuple(a)",
        "class NotARecord:",
        "    def __init__(self, a):",
        "        self.__dict__['a'] = a",
    ])
    assert storing_inits(source) == [(3, "Stores"), (8, "Updates")]


def test_the_check_finds_a_constructor_that_only_forwards_its_fields():
    source = "\n".join([
        "class Forwards(Record):",
        "    def __init__(self, a, b=None):",
        "        super().__init__(a, b)",
        "class Converts(Record):",
        "    def __init__(self, a):",
        "        super().__init__(tuple(a))",
    ])
    assert storing_inits(source) == [(2, "Forwards")]


def hand_written(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` of each equality, hash or field store a ``Record`` subclass writes itself.

    That is an ``__eq__`` or ``__hash__`` method or assignment, other than
    ``OverlapGraph``'s and ``__hash__ = None``, and an ``__init__`` that
    reads or writes ``self.__dict__``.
    """
    hits = []
    for cls in _records(source):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if isinstance(node.value, ast.Constant) and node.value.value is None:
                    names = [n for n in names if n != "__hash__"]
            else:
                continue
            for name in names:
                if name in ("__eq__", "__hash__") and cls.name != "OverlapGraph":
                    hits.append((node.lineno, f"{cls.name}.{name}"))
                elif name == "__init__" and any(_is_self_dict(n) for n in ast.walk(node)):
                    hits.append((node.lineno, f"{cls.name}.__init__"))
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_records_store_compare_and_hash_only_through_record(path):
    assert hand_written(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_hand_written_equality_and_stores():
    source = "\n".join([
        "class Compares(Record):",
        "    def __eq__(self, other): return True",
        "    def __hash__(self): return 0",
        "class Unhashable(Record, eq=True):",
        "    __hash__ = None",
        "class Rehashes(records.Record):",
        "    __hash__ = object.__hash__",
        "class OverlapGraph(Record):",
        "    def __eq__(self, other): return True",
        "class Stores(Record):",
        "    def __init__(self, a):",
        "        if a < 0:",
        "            raise ValueError(a)",
        "        self.__dict__['a'] = a",
        "class Passes(Record):",
        "    def __init__(self, a):",
        "        super().__init__(tuple(a))",
        "    def _set(self, a):",
        "        self.__dict__['a'] = a",
        "class NotARecord:",
        "    def __eq__(self, other): return True",
        "    def __init__(self, a):",
        "        self.__dict__['a'] = a",
    ])
    assert hand_written(source) == [(2, "Compares.__eq__"), (3, "Compares.__hash__"),
                                    (7, "Rehashes.__hash__"), (11, "Stores.__init__")]
