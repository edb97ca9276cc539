"""Every name a package module imports is used there, or marked as a deliberate re-export."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "decoy_fsa"
EXEMPT = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    """Imported names that ``source`` never reads, in import order.

    A name is read when it occurs as a name anywhere in the module or as a
    string in ``__all__``.  An import on a line marked ``# noqa: F401`` is exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if EXEMPT not in lines[alias.lineno - 1]
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import (\n"
        "    Callable,\n"
        "    Sequence,\n"
        ")\n"
        "from math import inf  # noqa: F401 -- re-exported\n"
        "from math import nan as missing\n"
        "__all__ = ['Sequence']\n"
        "def f(x: Callable) -> None: ...\n"
    )
    assert unused_imports(source) == ["os", "missing"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_package_module_has_no_unused_import(module):
    assert unused_imports(module.read_text()) == []
