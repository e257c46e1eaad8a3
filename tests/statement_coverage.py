"""Every statement of the package runs under tier-1, or is allow-listed.

Run it from anywhere with ``python tests/statement_coverage.py``; extra
arguments go to pytest.  It runs the tier-1 suite in this process under a
line tracer limited to the package's own sources, then lists each statement
that never ran.  Docstrings, ``def``, ``class`` and imports are not counted.
The run fails when pytest fails, when a statement outside ``ALLOWED`` never
ran, or when an ``ALLOWED`` entry ran or is gone, so the list cannot outlive
what it excuses.  Its name does not start with ``test_``, so pytest does
not collect it, and it writes no file of its own.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snakeq"

# statements that only a subprocess reaches, by file and source text: the
# module entry point, and the exit after the reader closes the output pipe
ALLOWED = {
    ("__main__.py", "sys.exit(main())"),
    ("cli.py", "devnull = os.open(os.devnull, os.O_WRONLY)"),
    ("cli.py", "os.dup2(devnull, sys.stdout.fileno())"),
    ("cli.py", "os.close(devnull)"),
    ("cli.py", "return 141"),
}

UNCOUNTED = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
)


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that hold none of its nested statements."""
    end = node.end_lineno
    for field in ("body", "orelse", "finalbody", "handlers"):
        block = getattr(node, field, None)
        if block:
            end = min(end, block[0].lineno - 1)
    return range(node.lineno, max(node.lineno, end) + 1)


def _statements(tree: ast.Module) -> list[ast.stmt]:
    """The counted statements: no docstring, definition or import."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
        and not isinstance(node, UNCOUNTED)
        and not (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        )
    ]


def _ran(node: ast.stmt, lines: set[int]) -> bool:
    """Whether a line of the statement ran; a ``try`` runs with its body."""
    if isinstance(node, ast.Try):
        return any(_ran(child, lines) for child in node.body)
    return not lines.isdisjoint(_own_lines(node))


def _trace(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines that ran in each package file."""
    ran: dict[str, set[int]] = {}  # by resolved path of a package file
    # each code file name's set in ``ran``, or None outside the package
    seen: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            path = Path(name).resolve()
            inside = path.parent == PACKAGE
            seen[name] = ran.setdefault(str(path), set()) if inside else None
        return None if seen[name] is None else local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, seen = _trace(
        [
            str(ROOT / "tests"),
            "-q",
            "-p",
            "no:cacheprovider",
            "--continue-on-collection-errors",
            *argv,
        ]
    )
    if code:
        print(f"statement coverage: pytest exited {code}")
        return 1
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = seen.get(str(path), set())
        for node in _statements(ast.parse(source, str(path))):
            if not _ran(node, lines):
                text = ast.get_source_segment(source, node)
                missed.append((path.name, node.lineno, text))
    missed.sort()
    unexpected = [m for m in missed if m[::2] not in ALLOWED]
    stale = ALLOWED - {m[::2] for m in missed}
    for name, line, text in missed:
        print(f"never ran: {name}:{line}: {text.splitlines()[0]}")
    for name, text in sorted(stale):
        print(f"allow-listed but ran or gone: {name}: {text}")
    if unexpected or stale:
        return 1
    print(f"statement coverage: {len(missed)} allow-listed statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
