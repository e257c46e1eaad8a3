"""Fuzzing of the command line's JSON input boundary.

Each example takes a valid surface, arc and seed (an annulus bridge or a
chord of a fan), mangles one to three places in one of the three files, and
runs one subcommand in process.  Whatever the input, the command must exit
with 0, 1 or 2, and an exit 2 must be a single ``error:`` line, never a
traceback.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import annulus, annulus_bridge, hexagon, polygon_chords
from snakeq import principal_seed, signed_adjacency
from snakeq.cli import main


def _inputs() -> dict[str, dict]:
    out = {}
    for name, t, arc, plan in (
        ("annulus", annulus(), *annulus_bridge(4)),
        ("fan", hexagon(), *polygon_chords(3)[0][1:]),
    ):
        out[name] = {
            "surface": t.to_dict(),
            "arc": arc.to_dict(),
            "seed": principal_seed(signed_adjacency(t)).to_dict(),
            "flips": ",".join(str(k) for k in plan),
        }
    return out


INPUTS = _inputs()

COMMANDS = (
    ("expand",),
    ("expand", "--quantum"),
    ("expand", "--quantum", "--audit"),
    ("matchings",),
    ("valuation",),
    ("verify",),
    ("check-seed",),
)

# values another JSON type can be swapped for
STRANGERS = (None, "x", 1.5, True, False, [], {}, [0], {"a": 1})


def _places(value, path=()):
    """Every (path, value) pair inside a JSON value, the root included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _places(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _places(item, path + (i,))


_DROP = object()


def _replace(value, path, new):
    """``value`` with the item at ``path`` replaced; ``_DROP`` deletes it."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    out = dict(value) if isinstance(value, dict) else list(value)
    if rest or new is not _DROP:
        out[head] = _replace(value[head], rest, new)
    else:
        del out[head]
    return out


@st.composite
def _mangled(draw, value):
    """One mutation of a JSON value at a drawn place.

    A dropped place removes a key or a list item; a list may also grow by
    its last item or be emptied.
    """
    path, item = draw(st.sampled_from(list(_places(value))))
    options = [st.sampled_from(STRANGERS)]
    if path:
        options.append(st.just(_DROP))
    if type(item) is int:
        options.append(
            st.sampled_from(
                (float(item), item + 0.5, bool(item), str(item), item - 1, item + 1)
            )
        )
    if isinstance(item, list):
        options.append(st.sampled_from((item + item[-1:], [])))
    return _replace(value, path, draw(st.one_of(options)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mangled_inputs_exit_cleanly(workdir, data):
    base = INPUTS[data.draw(st.sampled_from(sorted(INPUTS)))]
    payloads = {key: base[key] for key in ("surface", "arc", "seed")}
    target = data.draw(st.sampled_from(sorted(payloads)))
    for _ in range(data.draw(st.integers(1, 3))):
        payloads[target] = data.draw(_mangled(payloads[target]))
    paths = {}
    for key, payload in payloads.items():
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(json.dumps(payload), encoding="utf-8")

    command = data.draw(st.sampled_from(COMMANDS))
    argv = [*command, "--surface", str(paths["surface"])]
    argv += ["--seed", str(paths["seed"])]
    if command[0] != "check-seed":
        argv += ["--arc", str(paths["arc"])]
    if command[0] == "verify":
        argv += ["--flips", base["flips"]]

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
