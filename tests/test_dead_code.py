"""No private definition goes unused, and no import goes unread.

Both checks read the package's sources with :mod:`ast`, so they see what
the source says, not what happens to be imported at run time.
"""

from __future__ import annotations

import ast
from pathlib import Path

import snakeq

SOURCES = sorted(Path(snakeq.__file__).resolve().parent.glob("*.py"))


def _trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in SOURCES
    }


def _references(tree: ast.AST) -> set[str]:
    """Every name read as a bare name or as an attribute."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The strings of the module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_private_definition_is_referenced():
    trees = _trees()
    referenced = set().union(*map(_references, trees.values()))
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in referenced
    ]
    assert unused == []


def test_every_import_is_used():
    unused = set()
    for name, tree in _trees().items():
        used = _references(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.add((name, bound))
    assert unused == set()
