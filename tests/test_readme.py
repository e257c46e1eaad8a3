"""README's Library example runs as documented."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_library_example_runs():
    code = _library_example()
    # the record fields and the report flag the example documents
    assert "record.bits" in code and "report.ok" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    # the expansion, then one audit row per matching of the golden arc
    assert lines[0].startswith("X^(")
    assert len(lines) == 1 + 13
    assert all(re.fullmatch(r"[01]+ \(.*\) -?\d+", line) for line in lines[1:])
