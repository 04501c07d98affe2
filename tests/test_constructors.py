"""No record of the package spells out a constructor that only stores its fields.

``Record.__init__`` binds fields by position and by name; a record writes
its own ``__init__`` only to check or convert its arguments.  This check
needs only the standard ``ast`` module: an ``__init__`` of a class whose
bases name ``Record`` only stores when every statement of its body is a
docstring, ``d = self.__dict__``, an assignment into that dict (or
``self.__dict__`` itself) of parameters and constants, or an ``update``
call on it with such values.
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
        return (isinstance(call.func, ast.Attribute) and call.func.attr == "update"
                and is_dict(call.func.value)
                and all(_plain(a) for a in [*call.args, *(k.value for k in call.keywords)]))
    return False


def storing_inits(source: str) -> list[tuple[int, str]]:
    """``(line, class)`` of each ``Record`` subclass whose ``__init__`` only stores fields."""
    hits = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or not any(
            (isinstance(b, ast.Name) and b.id == "Record")
            or (isinstance(b, ast.Attribute) and b.attr == "Record")
            for b in cls.bases
        ):
            continue
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
