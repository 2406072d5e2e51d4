"""Every name a library module imports is used in it.

`__init__` is left out: it imports names to export them.  A name counts as
used where the module reads it, in code or in a quoted annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "l2int"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)  # a quoted annotation
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((n, line) for n, line in _imported(tree).items() if n not in used)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


def test_unused_imports_finds_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .syntax import And, Or as Either, Var\n"
        "def f(x: 'Var') -> None:\n"
        "    return os.path.join(And)\n"
    )
    assert unused_imports(source) == [("Either", 4), ("json", 2)]
