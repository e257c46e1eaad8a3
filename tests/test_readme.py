"""README's Library example and CLI examples run as documented."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from snakeq.cli import main

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


def _input_file(text: str, heading: str) -> str:
    """The first JSON block after README's bold ``heading``."""
    section = text.split(f"**{heading}**", 1)[1]
    match = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert match, f"README's {heading} input has no json block"
    return match.group(1)


def test_cli_examples_print_as_documented(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    # the examples name annulus.json, arc.json and seed.json; write README's
    # own surface, arc and seed under those names
    for name, heading in (
        ("annulus.json", "Surface"),
        ("arc.json", "Arc"),
        ("seed.json", "Seed"),
    ):
        (tmp_path / name).write_text(_input_file(text, heading), encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def run(argv: list[str]) -> str:
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        return out

    # the transcript: a `$ snakeq ...` line, then its output
    match = re.search(r"```\n\$ snakeq (.*?)\n(.*?)```", text, re.DOTALL)
    assert match, "README's CLI section has no transcript"
    argv = shlex.split(match.group(1))
    assert argv[0] == "expand" and "--quantum" in argv
    quantum = run(argv)
    assert quantum == match.group(2)
    # the machine record and the term it is documented to stand for
    match = re.search(r"so `([^`]+)` is the term\s+`([^`]+)`", text)
    assert match, "README's machine-readable section has no example record"
    record, term = match.groups()
    assert record in run([*argv, "--machine"]).splitlines()
    assert term in quantum
    # check-seed's line, on the seed file alone and against the surface
    match = re.search(r"\(`(ok: [^`]+)`\)", text)
    assert match, "README's check-seed entry has no example line"
    line = match.group(1) + "\n"
    assert line == "ok: m=4 n=2 d=1\n"
    assert run(["check-seed", "--seed", "seed.json"]) == line
    assert run(["check-seed", "--seed", "seed.json", "--surface", "annulus.json"]) == line
