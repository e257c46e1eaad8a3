"""No class of the package is generated at import.

Every call of the command is a new process that imports the package again,
often with no bytecode cache written, so the import is a fixed cost of each
call.  A class built through ``typing.NamedTuple`` compiles a ``ForwardRef``
for every field, and ``dataclasses`` compiles the methods it generates; the
records are ``collections.namedtuple`` subclasses or small slotted classes
instead.  The check reads the sources with :mod:`ast`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import snakeq

SOURCES = sorted(Path(snakeq.__file__).resolve().parent.glob("*.py"))

# names that build a class through typing.NamedTuple or dataclasses
GENERATORS = {"NamedTuple", "dataclasses", "dataclass", "make_dataclass"}


def _names(node: ast.AST) -> list[str]:
    """The module and names an import binds, or the name a node reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] + [alias.name for alias in node.names]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def test_no_class_is_built_through_namedtuple_or_dataclasses():
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _names(node)
        if name in GENERATORS
    ]
    assert found == []
