"""Every name a module of the package imports is used there.

A deletion can leave an import behind that nothing reads any more.  This
check needs only the standard ``ast`` module: a name counts as used when
the module reads it anywhere, names it in ``__all__``, or imports it on a
line marked ``# noqa: F401`` (a name kept for a re-export or for code that
wraps it there).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "loccdist"


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import statement binds, with its line, unless that line is marked."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            if isinstance(node, ast.Import) and alias.asname is None:
                name = name.split(".")[0]  # "import a.b" binds "a"
            names[name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each import that ``source`` never uses, in line order."""
    tree = ast.parse(source)
    imported = _imported(tree, source.splitlines())
    used = _exported(tree) | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import_and_spares_a_used_one():
    source = "\n".join([
        "from __future__ import annotations",
        "import os.path",
        "import numpy as np",
        "from .a import kept  # noqa: F401  (wrapped here)",
        "from .b import Kind, exported, read, unread",
        "__all__ = ['exported']",
        "def f(x: Kind) -> None:",
        "    return read(np.zeros(1))",
    ])
    assert unused_imports(source) == [(2, "os"), (5, "unread")]
