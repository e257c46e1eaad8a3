"""Command-line interface tests.

Most cases call main() in process and capture stdout; a few go through a
real subprocess to check the installed module entry point and argparse
behavior.  Frozen strings pin the output byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import (
    annulus,
    annulus_bridge,
    doubled_lambda,
    golden_arc,
    ladder_arc,
    ladder_surface,
    pentagon,
    valuation_corpus,
)
import snakeq.cli
import snakeq.expansion
from snakeq import (
    ExactDivisionError,
    QuantumLaurent,
    Seed,
    SnakeGraph,
    Triangulation,
    commutative_expand,
    principal_seed,
    quantum_expand,
    signed_adjacency,
)
from snakeq.cli import main
from snakeq.valuation import TwistTable, compute_valuation

GOLDEN_COMMUTATIVE = (
    "x^(1,-2,0,0) + 2·x^(-1,0,1,1) + 2·x^(-1,-2,0,1) + x^(-3,4,3,2)"
    " + 3·x^(-3,2,2,2) + 3·x^(-3,0,1,2) + x^(-3,-2,0,2)"
)
GOLDEN_QUANTUM = (
    "X^(1,-2,0,0) + (q^(-1/2) + q^(1/2))·X^(-1,0,1,1)"
    " + (q^(-1/2) + q^(1/2))·X^(-1,-2,0,1) + X^(-3,4,3,2)"
    " + (q^-1 + 1 + q)·X^(-3,2,2,2) + (q^-1 + 1 + q)·X^(-3,0,1,2)"
    " + X^(-3,-2,0,2)"
)

MACHINE_RECORD = re.compile(r"^-?\d+(,-?\d+)*\|-?\d+(,-?\d+)*$")


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    t = annulus()
    seed = principal_seed(signed_adjacency(t))
    return {
        "annulus": write("annulus.json", t.to_dict()),
        "pentagon": write("pentagon.json", pentagon().to_dict()),
        "golden_arc": write("golden_arc.json", golden_arc().to_dict()),
        "initial_arc": write("initial_arc.json", {"arc": 1}),
        "pentagon_arc": write(
            "pentagon_arc.json",
            {"crossings": [0], "start_triangle": 0, "end_triangle": 1},
        ),
        "seed": write("seed.json", seed.to_dict()),
        "write": write,
    }


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# expand

def test_expand_commutative_golden(capsys, files):
    code, out, err = run_main(
        capsys, "expand", "--surface", files["annulus"], "--arc", files["golden_arc"]
    )
    assert code == 0
    assert err == ""
    assert out == GOLDEN_COMMUTATIVE + "\n"


def test_expand_quantum_golden(capsys, files):
    code, out, _ = run_main(
        capsys,
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--quantum",
    )
    assert code == 0
    assert out == GOLDEN_QUANTUM + "\n"


def test_expand_quantum_machine_records(capsys, files):
    code, out, _ = run_main(
        capsys,
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--quantum",
        "--machine",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(MACHINE_RECORD.match(line) for line in lines)
    assert lines[0] == "1,-2,0,0|0,1"
    assert "-1,0,1,1|-1,1,1,1" in lines
    assert "-3,2,2,2|-2,1,0,1,2,1" in lines

    # the records rebuild the quantum expansion exactly
    rebuilt = QuantumLaurent.zero(4)
    for line in lines:
        exp_csv, pairs_csv = line.split("|")
        exponent = tuple(int(v) for v in exp_csv.split(","))
        flat = [int(v) for v in pairs_csv.split(",")]
        for s_exp, coeff in zip(flat[0::2], flat[1::2]):
            rebuilt = rebuilt + QuantumLaurent.monomial(
                exponent, s_exp
            ).scaled(coefficient=coeff)
    t = annulus()
    expected = quantum_expand(
        t, golden_arc(), principal_seed(signed_adjacency(t))
    )
    assert rebuilt == expected


def test_expand_commutative_machine_records(capsys, files):
    code, out, _ = run_main(
        capsys,
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--machine",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(MACHINE_RECORD.match(line) for line in lines)
    t = annulus()
    value = commutative_expand(
        t, golden_arc(), principal_seed(signed_adjacency(t)).btilde
    )
    expected = [
        f"{','.join(str(v) for v in vec)}|0,{c}"
        for vec, c in sorted(value.specialize_q1().items(), reverse=True)
    ]
    assert lines == expected


def test_expand_audit_rows(capsys, files):
    code, out, _ = run_main(
        capsys,
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--audit",
    )
    assert code == 0
    lines = out.splitlines()
    audit = [line for line in lines if line.startswith("# matching ")]
    assert len(audit) == 13
    assert audit[0] == "# matching 0100101000101010 a=(1,-2,0,0) v=0"
    assert lines[-1] == GOLDEN_COMMUTATIVE


def test_expand_audit_machine_with_quantum(capsys, files):
    code, out, _ = run_main(
        capsys,
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--audit",
        "--quantum",
        "--machine",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13 + 7
    assert all(line.count("|") == 2 for line in lines[:13])
    assert lines[0] == "0100101000101010|1,-2,0,0|0"
    assert all(line.count("|") == 1 for line in lines[13:])


def test_expand_initial_arc(capsys, files):
    code, out, _ = run_main(
        capsys,
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["initial_arc"],
        "--quantum",
    )
    assert code == 0
    assert out == "X^(0,1,0,0)\n"


def test_expand_accepts_an_explicit_seed(capsys, files):
    code, out, _ = run_main(
        capsys,
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--seed",
        files["seed"],
        "--quantum",
    )
    assert code == 0
    assert out == GOLDEN_QUANTUM + "\n"


def test_output_is_byte_stable(capsys, files):
    argv = (
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--quantum",
        "--audit",
        "--machine",
    )
    first = run_main(capsys, *argv)
    second = run_main(capsys, *argv)
    assert first == second
    argv = ("matchings", "--surface", files["annulus"], "--arc", files["golden_arc"])
    assert run_main(capsys, *argv) == run_main(capsys, *argv)


def test_main_calls_share_one_parser(capsys, files):
    inputs = ("--surface", files["annulus"], "--arc", files["golden_arc"])
    calls = [("expand", "--quantum", "--audit", *inputs), ("expand", *inputs)]
    fresh = []
    for argv in calls:
        snakeq.cli._build_parser.cache_clear()
        fresh.append(run_main(capsys, *argv))
    snakeq.cli._build_parser.cache_clear()
    shared = [run_main(capsys, *argv) for argv in calls]
    assert snakeq.cli._build_parser.cache_info().misses == 1
    assert shared == fresh
    assert fresh[0][1] != fresh[1][1]


# the subcommands that read a surface, an arc and a seed, each with what
# else it needs to run
INPUT_COMMANDS = {
    "expand": [],
    "verify": ["--flips", "0"],
    "matchings": [],
    "valuation": [],
}


@pytest.mark.parametrize("command", sorted(INPUT_COMMANDS))
def test_input_options_share_their_help(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for option, text in (
        ("--surface", "triangulation JSON file"),
        ("--arc", "arc JSON file"),
        ("--seed", "seed JSON file (default: principal)"),
    ):
        metavar = option[2:].upper()
        assert re.search(
            rf"^  {option} {metavar} +{re.escape(text)}$", out, re.MULTILINE
        )


def test_every_option_says_what_it_wants():
    parser = snakeq.cli._build_parser()
    (commands,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    bare = [
        (name, option.option_strings[0])
        for name, command in commands.choices.items()
        for option in command._actions
        if option.option_strings and not (option.help or "").strip()
    ]
    assert bare == []


@pytest.mark.parametrize("command", sorted(INPUT_COMMANDS))
def test_inputs_load_surface_then_arc_then_seed(
    capsys, files, tmp_path, command
):
    # with several malformed inputs, the one error line names the first
    good = files["annulus"]
    surface, arc, seed = (
        tmp_path / f"bad_{name}.json" for name in ("surface", "arc", "seed")
    )
    for path in (surface, arc, seed):
        path.write_text("{", encoding="utf-8")
    for paths, named in (((surface, arc, seed), surface), ((good, arc, seed), arc)):
        argv = [command, *INPUT_COMMANDS[command]]
        for option, path in zip(("--surface", "--arc", "--seed"), paths):
            argv += [option, str(path)]
        code, out, err = run_main(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {named} is not valid JSON: ")
        assert err.count("\n") == 1


# ----------------------------------------------------------------------
# matchings and valuation listings

def test_matchings_listing(capsys, files):
    code, out, _ = run_main(
        capsys,
        "matchings",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert lines[0] == "0100101000101010 labels=0,0,0,0,2,3 h=0,0 v=0"
    bits = [line.split()[0] for line in lines]
    assert len(set(bits)) == 13
    assert all(len(b) == 16 for b in bits)


def test_valuation_listing(capsys, files):
    code, out, _ = run_main(
        capsys,
        "valuation",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert lines[0] == "0100101000101010 v=0 twists=[2:+1,4:-1]"
    assert all(" v=" in line and "twists=[" in line for line in lines)


@pytest.mark.parametrize(
    "arc, doubled", [(golden_arc(), False), (annulus_bridge(5)[0], True)]
)
def test_valuation_listing_increments_are_value_differences(
    capsys, files, arc, doubled
):
    # every printed p:±Ω is v(m) - v(twist of m at p), read off the listing
    t = annulus()
    b = signed_adjacency(t)
    seed = Seed(principal_seed(b).btilde, doubled_lambda(b)) if doubled else None
    argv = ["valuation", "--surface", files["annulus"]]
    argv += ["--arc", files["write"]("arc.json", arc.to_dict())]
    if seed is not None:
        assert seed.d == 2
        argv += ["--seed", files["write"]("doubled.json", seed.to_dict())]
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    g = SnakeGraph(t, arc)
    row = re.compile(r"(\d+) v=(-?\d+) twists=\[(.*)\]")
    rows = [row.fullmatch(line).groups() for line in out.splitlines()]
    values = {bits: int(v) for bits, v, _ in rows}
    assert len(rows) == len(g.matchings())
    checked = 0
    for m, (bits, _, twists) in zip(g.matchings(), rows):
        assert bits == g.matching_bits(m)
        for entry in filter(None, twists.split(",")):
            p, step = entry.split(":")
            twisted = g.matching_bits(g.twist(m, int(p)))
            assert int(step) == values[bits] - values[twisted]
            checked += 1
    assert checked == len(g.twist_graph()[1]) * 2


@pytest.mark.parametrize(
    "arc, doubled", [(golden_arc(), False), (annulus_bridge(5)[0], True)]
)
def test_matchings_listing_rows_match_the_edge_sets(capsys, files, arc, doubled):
    # the listing reads masks only; each row's labels and value must be those
    # of the edge set that SnakeGraph.matchings() builds for it
    t = annulus()
    b = signed_adjacency(t)
    argv = ["matchings", "--surface", files["annulus"]]
    argv += ["--arc", files["write"]("arc.json", arc.to_dict())]
    d = 1
    if doubled:
        seed = Seed(principal_seed(b).btilde, doubled_lambda(b))
        d = seed.d
        assert d == 2
        argv += ["--seed", files["write"]("doubled.json", seed.to_dict())]
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    g = SnakeGraph(t, arc)
    values = compute_valuation(g, d)
    row = re.compile(r"(\d+) labels=([\d,]+) h=[\d,]+ v=(-?\d+)")
    rows = [row.fullmatch(line).groups() for line in out.splitlines()]
    assert len(rows) == len(g.matchings())
    for m, (bits, labels, v) in zip(g.matchings(), rows):
        assert bits == g.matching_bits(m)
        assert labels == ",".join(map(str, sorted(g.edge_label(r) for r in m)))
        assert int(v) == values[m]
    assert len(set(values.values())) > 1


LISTING_COMMANDS = {
    "audit": ["expand", "--quantum", "--audit"],
    "commutative-audit": ["expand", "--audit"],
    "matchings": ["matchings"],
    "valuation": ["valuation"],
}


@pytest.mark.parametrize("command", sorted(LISTING_COMMANDS))
def test_listings_read_the_rows_of_one_fence_walk(
    capsys, files, monkeypatch, command
):
    # bits, masks and heights come from the graph's listing: no per-matching
    # reference method runs, no edge set is built, and the walk runs once for
    # the one graph; both audits total their own rows, so no transfer runs
    # beside the walk
    calls = {
        "height_vector": 0,
        "mask": 0,
        "matching_bits": 0,
        "_fence_walk": 0,
        "_matching": 0,
    }
    for method in calls:
        original = getattr(SnakeGraph, method)

        def counted(graph, *args, _method=method, _original=original):
            calls[_method] += 1
            return _original(graph, *args)

        monkeypatch.setattr(SnakeGraph, method, counted)
    transfer = snakeq.expansion._transfer

    def counted_transfer(*args):
        calls["_transfer"] += 1
        return transfer(*args)

    calls["_transfer"] = 0
    monkeypatch.setattr(snakeq.expansion, "_transfer", counted_transfer)
    arc = files["write"]("arc.json", annulus_bridge(6)[0].to_dict())
    argv = LISTING_COMMANDS[command] + ["--surface", files["annulus"], "--arc", arc]
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) >= 89
    assert calls == {
        "height_vector": 0,
        "mask": 0,
        "matching_bits": 0,
        "_fence_walk": 1,
        "_matching": 0,
        "_transfer": 0,
    }


def test_expand_renders_each_distinct_value_once(capsys, files, monkeypatch):
    # the 89 audit rows share 16 exponents, one per height, and the total
    # has one line per exponent: each exponent is memoized once, not 105
    # times, each distinct coefficient once, and each distinct int goes
    # through str() once
    missed = []
    missing = snakeq.cli._Texts.__missing__

    def counted(texts, key):
        missed.append(key)
        return missing(texts, key)

    monkeypatch.setattr(snakeq.cli._Texts, "__missing__", counted)
    arc = files["write"]("arc.json", annulus_bridge(6)[0].to_dict())
    code, out, _ = run_main(
        capsys,
        "expand", "--quantum", "--audit", "--machine",
        "--surface", files["annulus"], "--arc", arc,
    )
    assert code == 0
    lines = out.splitlines()
    rows, total = lines[:89], lines[89:]
    assert len(total) == 16
    exponents = [key for key in missed if type(key) is tuple]
    assert len(exponents) == len(set(exponents)) == 16
    coeffs = [key for key in missed if type(key) is frozenset]
    assert len(coeffs) == len({line.split("|")[1] for line in total})
    ints = [key for key in missed if type(key) is int]
    assert len(ints) == len(set(ints)) == len(missed) - 16 - len(coeffs)
    fields = [row.split("|", 1)[1] for row in rows] + total
    assert set(ints) == {int(x) for f in fields for x in re.split("[|,]", f)}


def test_machine_expand_renders_coefficients_once_and_joins_exponents_once(
    capsys, files, monkeypatch
):
    # the 22 terms of the bridge w = 7 have fewer distinct coefficients:
    # each distinct coefficient's pair text is rendered once, and each
    # exponent is joined once, reading each of its entries once, with no memo
    missed = []
    read = []
    missing = snakeq.cli._Texts.__missing__
    csv_texts = snakeq.cli._csv_texts

    def counted(texts, key):
        missed.append(key)
        return missing(texts, key)

    def counted_texts():
        digits, exponents, pairs = csv_texts()

        def counted_digits(n):
            read.append(n)
            return digits(n)

        return counted_digits, exponents, pairs

    monkeypatch.setattr(snakeq.cli._Texts, "__missing__", counted)
    monkeypatch.setattr(snakeq.cli, "_csv_texts", counted_texts)
    arc = files["write"]("arc.json", annulus_bridge(7)[0].to_dict())
    code, out, _ = run_main(
        capsys,
        "expand", "--quantum", "--machine",
        "--surface", files["annulus"], "--arc", arc,
    )
    assert code == 0
    lines = [line.split("|") for line in out.splitlines()]
    assert len(lines) == 22
    coeffs = [key for key in missed if type(key) is frozenset]
    texts = {text for _, text in lines}
    assert len(coeffs) == len(set(coeffs)) == len(texts) < len(lines)
    assert not [key for key in missed if type(key) is tuple]
    assert ",".join(map(str, read)) == ",".join(exponent for exponent, _ in lines)


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -(2**64)),
)


@given(
    st.lists(st.lists(_ENTRIES, min_size=1, max_size=6), min_size=1, max_size=5),
    st.dictionaries(_ENTRIES, _ENTRIES.filter(bool), max_size=4),
)
def test_expand_renders_values_as_str_does(exponents, coeff):
    # one memo for the call: exponents met again, and ints shared between
    # exponents and coefficients, read texts made earlier
    digits, texts, pairs = snakeq.cli._csv_texts()
    for _ in range(2):
        for exponent in map(tuple, exponents):
            assert texts[exponent] == ",".join(map(str, exponent))
        text = ",".join(f"{e},{coeff[e]}" for e in sorted(coeff))
        assert pairs[frozenset(coeff.items())] == text
        for n in coeff.values():
            assert digits(n) == str(n)


GRAPH_COMMANDS = {
    "expand": ["expand"],
    "audit": ["expand", "--audit"],
    "verify": ["verify", "--flips", "0"],
    "matchings": ["matchings"],
    "valuation": ["valuation"],
}


@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
def test_each_command_lays_out_one_snake_graph(
    capsys, files, monkeypatch, command
):
    # the tiles, edges, fence and extremal masks come from one layout walk
    # of the one graph a command builds
    calls = {"__init__": 0, "_layout": 0}
    for method in calls:
        original = getattr(SnakeGraph, method)

        def counted(graph, *args, _method=method, _original=original):
            calls[_method] += 1
            return _original(graph, *args)

        monkeypatch.setattr(SnakeGraph, method, counted)
    arc = files["write"]("bridge2.json", annulus_bridge(2)[0].to_dict())
    argv = GRAPH_COMMANDS[command] + ["--surface", files["annulus"], "--arc", arc]
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    assert out
    assert calls == {"__init__": 1, "_layout": 1}


@pytest.mark.parametrize(
    "command", [LISTING_COMMANDS[c] for c in ("audit", "matchings", "valuation")],
    ids=["audit", "matchings", "valuation"],
)
def test_listings_keep_the_exhaustive_twist_cycle_check(
    capsys, files, monkeypatch, command
):
    # one wrong increment, as in test_valuation.py: only a search that checks
    # each twist from both ends sees the broken cycle
    g = SnakeGraph(annulus(), golden_arc())
    target = g.mask(g.minimal_matching())
    twists = TwistTable.twists

    def shifted(table, mask, d_scale):
        return [
            (p, twisted, step + int(mask == target and p == 2))
            for p, twisted, step in twists(table, mask, d_scale)
        ]

    monkeypatch.setattr(TwistTable, "twists", shifted)
    argv = command + ["--surface", files["annulus"], "--arc", files["golden_arc"]]
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(
        "error: valuation ill-defined: twist cycle assigns both "
    )
    assert err.count("\n") == 1


# ----------------------------------------------------------------------
# verify

def test_verify_annulus_bridge(capsys, files):
    arc = files["write"](
        "bridge2.json",
        {"crossings": [0], "start_triangle": 0, "end_triangle": 1},
    )
    code, out, _ = run_main(
        capsys,
        "verify",
        "--surface",
        files["annulus"],
        "--arc",
        arc,
        "--flips",
        "0",
    )
    assert code == 0
    assert out.splitlines()[0] == "ok: slot 0 matches"


def test_verify_pentagon_cycle_slot(capsys, files):
    arc = files["write"]("initial0.json", {"arc": 1})
    code, out, _ = run_main(
        capsys,
        "verify",
        "--surface",
        files["pentagon"],
        "--arc",
        arc,
        "--flips",
        "0,1,0,1,0",
        "--slot",
        "0",
    )
    assert code == 0
    assert out.splitlines()[0] == "ok: slot 0 matches"
    assert out.splitlines()[1] == "X^(0,1,0,0)"


def test_verify_mismatch_exits_one(capsys, files):
    code, out, _ = run_main(
        capsys,
        "verify",
        "--surface",
        files["pentagon"],
        "--arc",
        files["pentagon_arc"],
        "--flips",
        "1",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("mismatch in slot 1:")
    assert any(line.startswith("expansion: ") for line in lines)
    assert any(line.startswith("oracle:    ") for line in lines)
    assert any(line.startswith("at X^(") for line in lines)


def test_verify_reports_a_flip_that_disagrees_with_matrix_mutation(
    capsys, files, monkeypatch
):
    # a surface that ignores its flips no longer matches the mutated matrix
    monkeypatch.setattr(snakeq.expansion, "flip", lambda surface, k: surface)
    code, out, err = run_main(
        capsys,
        "verify",
        "--surface",
        files["pentagon"],
        "--arc",
        files["pentagon_arc"],
        "--flips",
        "0,1,0,1,0",
        "--slot",
        "0",
    )
    assert code == 1
    assert err == ""
    assert out == (
        "mismatch in slot 0: flip at 0 disagrees with matrix mutation\n"
        "expansion: X^(-1,1,1,0) + X^(-1,0,0,0)\n"
        "oracle:    0\n"
        "at X^(-1,1,1,0): expansion has 1, oracle has 0\n"
    )


@pytest.mark.parametrize("flips", ["5", "0,5"])
def test_verify_names_a_flip_the_surface_refuses(capsys, files, flips):
    code, out, err = run_main(
        capsys,
        "verify",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--flips",
        flips,
    )
    assert code == 2
    assert out == ""
    assert err == "error: arc 5 is not internal, it bounds no quadrilateral\n"


def test_verify_requires_flips(capsys, files):
    code, out, err = run_main(
        capsys,
        "verify",
        "--surface",
        files["pentagon"],
        "--arc",
        files["pentagon_arc"],
        "--flips",
        "",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --flips must name at least one direction\n"


def test_failed_division_names_its_flip(capsys, files, monkeypatch):
    divide = snakeq.expansion.exact_right_divide
    calls = []

    def fail_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ExactDivisionError("no exact quotient: injected")
        return divide(*args)

    monkeypatch.setattr(snakeq.expansion, "exact_right_divide", fail_second)
    code, out, err = run_main(
        capsys,
        "verify",
        "--surface",
        files["pentagon"],
        "--arc",
        files["pentagon_arc"],
        "--flips",
        "0,1,0,1,0",
        "--slot",
        "0",
    )
    # flips 1 and 2 invert initial variables, so the second division is flip 4
    assert code == 2
    assert out == ""
    assert err == (
        "error: flip 4 of 5 (direction 1): no exact quotient: injected\n"
    )
    assert "Traceback" not in err


@pytest.mark.parametrize("slot", ["0", "1"])
def test_a_failed_last_division_names_the_last_flip(
    capsys, files, monkeypatch, slot
):
    # flips 1 and 2 invert initial variables and flips 3 and 4 divide; slot 1
    # is not the last flip's direction, so the last exchange is divided too,
    # and with slot 0 the arc's expansion fails the product check
    divide = snakeq.expansion.exact_right_divide
    calls = []

    def fail_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ExactDivisionError("no exact quotient: injected")
        return divide(*args)

    monkeypatch.setattr(snakeq.expansion, "exact_right_divide", fail_third)
    code, out, err = run_main(
        capsys,
        "verify",
        "--surface",
        files["pentagon"],
        "--arc",
        files["pentagon_arc"],
        "--flips",
        "0,1,0,1,0",
        "--slot",
        slot,
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: flip 5 of 5 (direction 0): no exact quotient: injected\n"
    )


@pytest.mark.parametrize("slot", ["9", "-1"])
def test_verify_rejects_out_of_range_slots(capsys, files, slot):
    code, out, err = run_main(
        capsys,
        "verify",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--flips",
        "0,1,0",
        "--slot",
        slot,
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: slot {slot} is out of range: the seed has 4 cluster "
        "variables\n"
    )


@pytest.mark.parametrize("slot", ["2", "3"])
def test_verify_rejects_a_frozen_slot(capsys, files, slot):
    # the annulus's principal seed has 2 mutable and 2 frozen directions
    arc = files["write"]("bridge2.json", annulus_bridge(2)[0].to_dict())
    code, out, err = run_main(
        capsys,
        "verify",
        "--surface",
        files["annulus"],
        "--arc",
        arc,
        "--flips",
        "0",
        "--slot",
        slot,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: slot {slot} is frozen: no arc expands to X_{slot}\n"


# ----------------------------------------------------------------------
# flip and check-seed

def test_flip_prints_the_new_triangulation(capsys, files):
    code, out, _ = run_main(
        capsys, "flip", "--surface", files["annulus"], "--flips", "0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["n_internal"] == 2
    assert data["n_boundary"] == 2
    assert data["triangles"] == [[2, 1, 0], [3, 1, 0]]


def test_flip_twice_returns_to_the_start(capsys, files):
    code, out, _ = run_main(
        capsys, "flip", "--surface", files["annulus"], "--flips", "0,0"
    )
    assert code == 0
    assert Triangulation.from_dict(json.loads(out)) == annulus()


def test_flip_rejects_bad_directions(capsys, files):
    code, out, err = run_main(
        capsys, "flip", "--surface", files["annulus"], "--flips", "5"
    )
    assert code == 2
    assert err.startswith("error: ")
    code, out, err = run_main(
        capsys, "flip", "--surface", files["annulus"], "--flips", "a,b"
    )
    assert code == 2
    assert "comma list of integers" in err


@pytest.mark.parametrize("command", ["flip", "verify"])
@pytest.mark.parametrize("flips", ["0,,1", "0,1,", ",0", ",", "0, ,1"])
def test_flips_refuse_empty_entries(capsys, files, command, flips):
    argv = [command, "--surface", files["annulus"], "--flips", flips]
    if command == "verify":
        argv += ["--arc", files["golden_arc"]]
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --flips must be a comma list of integers: {flips!r}\n"


@pytest.mark.parametrize("flips", ["", "  "])
def test_blank_flips_name_no_flips(capsys, files, flips):
    code, out, _ = run_main(
        capsys, "flip", "--surface", files["annulus"], "--flips", flips
    )
    assert code == 0
    assert Triangulation.from_dict(json.loads(out)) == annulus()
    code, out, err = run_main(
        capsys,
        "verify",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--flips",
        flips,
    )
    assert code == 2
    assert out == ""
    assert err == "error: --flips must name at least one direction\n"


def test_check_seed(capsys, files):
    code, out, _ = run_main(capsys, "check-seed", "--seed", files["seed"])
    assert code == 0
    assert out == "ok: m=4 n=2 d=1\n"
    code, out, _ = run_main(
        capsys, "check-seed", "--seed", files["seed"], "--surface", files["annulus"]
    )
    assert code == 0
    code, out, err = run_main(
        capsys, "check-seed", "--seed", files["seed"], "--surface", files["pentagon"]
    )
    assert code == 2
    assert "is not the signed adjacency matrix" in err


# ----------------------------------------------------------------------
# input errors

def test_missing_surface_key(capsys, files):
    bad = files["write"]("bad_surface.json", {"n_internal": 2, "triangles": []})
    code, out, err = run_main(
        capsys, "expand", "--surface", bad, "--arc", files["golden_arc"]
    )
    assert code == 2
    assert err == "error: surface description lacks key 'n_boundary'\n"


def test_corrupt_lambda_is_reported(capsys, files):
    t = annulus()
    seed = principal_seed(signed_adjacency(t)).to_dict()
    seed["Lambda"][0][1] = 1
    bad = files["write"]("bad_seed.json", seed)
    code, out, err = run_main(
        capsys,
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--seed",
        bad,
        "--quantum",
    )
    assert code == 2
    assert err == "error: the form matrix is not skew-symmetric at (0, 1)\n"


def test_unreadable_and_malformed_files(capsys, files, tmp_path):
    code, _, err = run_main(
        capsys,
        "expand",
        "--surface",
        str(tmp_path / "missing.json"),
        "--arc",
        files["golden_arc"],
    )
    assert code == 2
    assert "cannot read" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    code, _, err = run_main(
        capsys, "expand", "--surface", str(broken), "--arc", files["golden_arc"]
    )
    assert code == 2
    assert "not valid JSON" in err


def _int_digit_limit() -> int:
    """The interpreter's limit on integer digits, 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"[" * 100_000, id="nested-past-the-recursion-limit"),
        pytest.param(b"\xff\xfe{", id="not-utf-8"),
        pytest.param(
            b'{"n_internal": ' + b"1" * (_int_digit_limit() + 1) + b"}",
            id="integer-past-the-digit-limit",
            marks=pytest.mark.skipif(
                _int_digit_limit() == 0,
                reason="this interpreter has no integer digit limit",
            ),
        ),
    ],
)
def test_malformed_json_is_one_error_line(capsys, files, tmp_path, content):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    code, out, err = run_main(
        capsys, "expand", "--surface", str(path), "--arc", files["golden_arc"]
    )
    assert code == 2
    assert out == ""
    assert re.fullmatch(
        f"error: {re.escape(str(path))} is not valid JSON: [^\n]+\n", err
    )


@pytest.mark.parametrize(
    "arc, message",
    [
        (
            {"crossings": ["a"], "start_triangle": 0, "end_triangle": 1},
            "arc description: each crossing must be an integer, not 'a'",
        ),
        (
            {"crossings": [0], "start_triangle": None, "end_triangle": 1},
            "arc description: start_triangle must be an integer, not None",
        ),
        ({"arc": "x"}, "arc description: arc must be an integer, not 'x'"),
        (
            {"crossings": [0, 1, 0, 1, 0], "start_triangle": 9, "end_triangle": 1},
            "unknown start triangle 9",
        ),
        (
            {"crossings": [0, 1, 0, 1, 0], "start_triangle": 0, "end_triangle": -1},
            "unknown end triangle -1",
        ),
    ],
    ids=[
        "string-crossing",
        "null-start-triangle",
        "string-index",
        "unknown-start-triangle",
        "negative-end-triangle",
    ],
)
def test_malformed_arc_fields_are_input_errors(capsys, files, arc, message):
    bad = files["write"]("bad_arc.json", arc)
    code, out, err = run_main(
        capsys, "expand", "--surface", files["annulus"], "--arc", bad
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, option, path, value, message",
    [
        (
            "expand",
            "--seed",
            (),
            {"Btilde": [[]], "Lambda": [[0]]},
            "the exchange matrix has no mutable columns",
        ),
        (
            "expand",
            "--seed",
            ("Btilde", 1, 0),
            2.9,
            "each Btilde entry must be an integer, not 2.9",
        ),
        (
            "expand",
            "--seed",
            ("Btilde", 2, 0),
            True,
            "each Btilde entry must be an integer, not True",
        ),
        (
            "expand",
            "--surface",
            ("n_boundary",),
            2.5,
            "n_boundary must be an integer, not 2.5",
        ),
        (
            "expand",
            "--surface",
            ("triangles", 0, 2),
            2.2,
            "each side must be an integer, not 2.2",
        ),
        (
            "expand",
            "--surface",
            ("n_boundary",),
            10**12,
            "boundary arcs need 1000000000004",
        ),
        (
            "expand",
            "--surface",
            ("n_boundary",),
            -1,
            "arc counts must be non-negative",
        ),
        (
            "check-seed",
            "--seed",
            (),
            {"Btilde": [[0, 0, 0]], "Lambda": [[0]]},
            "more mutable columns (3) than rows (1)",
        ),
        (
            "check-seed",
            "--seed",
            (),
            {"Btilde": [[0, 1], [-1, 0]], "Lambda": [[0] * 3] * 3},
            "form rank 3 does not match the 2 exchange rows",
        ),
        (
            "expand",
            "--seed",
            (),
            {"Btilde": [[0, 1], [-1, 0]], "Lambda": [[0] * 3] * 3},
            "form rank 3 does not match the 2 exchange rows",
        ),
    ],
    ids=[
        "zero-column-seed",
        "float-in-btilde",
        "bool-in-btilde",
        "float-boundary-count",
        "float-side",
        "huge-boundary-count",
        "negative-boundary-count",
        "more-columns-than-rows",
        "form-rank-off-the-rows-check-seed",
        "form-rank-off-the-rows",
    ],
)
def test_malformed_surfaces_and_seeds_are_input_errors(
    capsys, files, command, option, path, value, message
):
    t = annulus()
    payload = {
        "--surface": t.to_dict(),
        "--seed": principal_seed(signed_adjacency(t)).to_dict(),
    }[option]
    if path:
        *parents, last = path
        entry = payload
        for key in parents:
            entry = entry[key]
        entry[last] = value
    else:
        payload = value
    inputs = {
        "--surface": files["annulus"],
        "--arc": files["golden_arc"],
        "--seed": files["seed"],
        option: files["write"]("bad.json", payload),
    }
    if command == "check-seed":
        argv = [command, "--seed", inputs["--seed"]]
    else:
        argv = [command, "--quantum"]
        for key, name in inputs.items():
            argv += [key, name]
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "option, key, value, message",
    [
        (
            "--seed",
            "Btilde",
            [1, 2],
            "malformed seed description: each Btilde row must be a list, not 1",
        ),
        (
            "--seed",
            "Lambda",
            [1],
            "malformed seed description: each Lambda row must be a list, not 1",
        ),
        (
            "--seed",
            "Btilde",
            "ab",
            "malformed seed description: Btilde must be a list, not 'ab'",
        ),
        (
            "--seed",
            "Lambda",
            {"a": 1},
            "malformed seed description: Lambda must be a list, not {'a': 1}",
        ),
        (
            "--seed",
            "Btilde",
            ["ab"],
            "malformed seed description: each Btilde row must be a list, "
            "not 'ab'",
        ),
        (
            "--surface",
            "triangles",
            [1, 2],
            "malformed surface description: each triangle must be a list, "
            "not 1",
        ),
        (
            "--surface",
            "triangles",
            "ab",
            "malformed surface description: triangles must be a list, not 'ab'",
        ),
    ],
    ids=[
        "int-btilde-rows",
        "int-lambda-row",
        "string-btilde",
        "object-lambda",
        "string-btilde-row",
        "int-triangles",
        "string-triangles",
    ],
)
def test_json_shapes_are_rejected_with_exact_messages(
    capsys, files, option, key, value, message
):
    t = annulus()
    payload = {
        "--surface": t.to_dict(),
        "--seed": principal_seed(signed_adjacency(t)).to_dict(),
    }[option]
    payload[key] = value
    inputs = {
        "--surface": files["annulus"],
        "--arc": files["golden_arc"],
        "--seed": files["seed"],
        option: files["write"]("bad.json", payload),
    }
    argv = ["expand"]
    for name, path in inputs.items():
        argv += [name, path]
    assert run_main(capsys, *argv) == (2, "", f"error: {message}\n")
    if option == "--seed":
        code, out, err = run_main(capsys, "check-seed", "--seed", inputs["--seed"])
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["matchings", "valuation"])
@pytest.mark.parametrize(
    "surface, message",
    [
        (
            ladder_surface(10),
            "extended matrix has 10 columns, expected 2 mutable directions",
        ),
        (
            pentagon(),
            "the top block of the extended matrix is not the signed adjacency",
        ),
    ],
    ids=["ladder-d10-seed", "pentagon-seed"],
)
def test_listings_reject_a_seed_that_does_not_fit_the_surface(
    capsys, files, command, surface, message
):
    seed = principal_seed(signed_adjacency(surface))
    code, out, err = run_main(
        capsys,
        command,
        "--surface",
        files["annulus"],
        "--arc",
        files["write"]("bridge.json", annulus_bridge(6)[0].to_dict()),
        "--seed",
        files["write"]("other.json", seed.to_dict()),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "surface", [ladder_surface(10), pentagon()], ids=["ladder-d10-seed", "pentagon-seed"]
)
def test_check_seed_and_expand_reject_a_seed_alike(capsys, files, surface):
    seed = files["write"](
        "other.json", principal_seed(signed_adjacency(surface)).to_dict()
    )
    errors = []
    for argv in (
        ["check-seed", "--seed", seed, "--surface", files["annulus"]],
        [
            "expand",
            "--surface",
            files["annulus"],
            "--arc",
            files["golden_arc"],
            "--seed",
            seed,
        ],
    ):
        code, out, err = run_main(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1]


def test_valuation_twists_each_matching_once(capsys, files, monkeypatch):
    twists = TwistTable.twists
    calls = []

    def counted(table, mask, d_scale, rows=None):
        calls.append(mask)
        return twists(table, mask, d_scale, rows)

    monkeypatch.setattr(TwistTable, "twists", counted)
    code, out, _ = run_main(
        capsys,
        "valuation",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
    )
    assert code == 0
    graph = SnakeGraph(annulus(), golden_arc())
    masks = [mask for _, mask, _ in graph._listed()]
    assert sorted(calls) == sorted(masks)
    assert len(out.splitlines()) == len(masks)


def test_ill_defined_valuation_is_an_input_error(capsys, files, monkeypatch):
    twists = TwistTable.twists
    monkeypatch.setattr(
        TwistTable,
        "twists",
        lambda *args: [(p, m, step + 1) for p, m, step in twists(*args)],
    )
    code, out, err = run_main(
        capsys,
        "expand",
        "--surface",
        files["annulus"],
        "--arc",
        files["golden_arc"],
        "--quantum",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: valuation ill-defined: ")
    assert err.count("\n") == 1


# ----------------------------------------------------------------------
# installed entry point

def test_module_entry_point(files):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "snakeq",
            "expand",
            "--surface",
            files["annulus"],
            "--arc",
            files["golden_arc"],
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_COMMUTATIVE + "\n"


def close_the_pipe_early(files, command):
    """Run ``command`` on a long audit and close its stdout after 10 bytes.

    The audit of a 14-crossing ladder prints 176 KB, more than a pipe holds,
    so the command is still writing when the reader goes away.  Returns the
    bytes read, the exit code and stderr.
    """
    surface = files["write"]("ladder.json", ladder_surface(14).to_dict())
    arc = files["write"]("ladder_arc.json", ladder_arc(14).to_dict())
    proc = subprocess.Popen(
        [
            *command, "expand",
            "--surface", surface, "--arc", arc, "--audit", "--machine",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    return head, code, err


def test_a_closed_output_pipe_exits_141_without_a_traceback(files):
    head, code, err = close_the_pipe_early(files, [sys.executable, "-m", "snakeq"])
    assert len(head) == 10
    assert code == 141
    assert b"Traceback" not in err


def test_import_loads_no_code_generating_modules():
    # every call is a new process, so the import is paid on each; the
    # records are built without dataclasses, and nothing pulls in inspect
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import snakeq.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_unknown_subcommand_is_a_usage_error(files):
    proc = subprocess.run(
        [sys.executable, "-m", "snakeq", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


# ----------------------------------------------------------------------
# the collector pause

def test_every_exit_of_main_gives_back_the_callers_collector(
    capsys, files, monkeypatch
):
    # main pauses the cyclic collector for the call; however the call ends,
    # the caller finds the collector as it left it, on or off
    def unexpected(t, k):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(snakeq.cli, "flip", unexpected)
    inputs = ["--surface", files["pentagon"], "--arc", files["pentagon_arc"]]
    missing = files["pentagon"] + ".missing"
    exits = [
        (["expand", *inputs], 0),
        (["verify", *inputs, "--flips", "1"], 1),
        (["expand", "--surface", missing, "--arc", files["pentagon_arc"]], 2),
        (["expand", "--surface", files["pentagon"]], ("SystemExit", (2,))),
        (
            ["flip", "--surface", files["pentagon"], "--flips", "0"],
            ("RuntimeError", ("unexpected",)),
        ),
    ]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            for argv, outcome in exits:
                (gc.enable if enabled else gc.disable)()
                try:
                    result = main(argv)
                except (SystemExit, RuntimeError) as exc:
                    result = (type(exc).__name__, exc.args)
                capsys.readouterr()
                assert result == outcome, argv
                assert gc.isenabled() is enabled, (argv, enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()


PIPE_CALLER = (
    "import gc, sys\n"
    "from snakeq.cli import main\n"
    "if sys.argv[1] == 'off':\n"
    "    gc.disable()\n"
    "code = main(sys.argv[2:])\n"
    "sys.stderr.write(f'{code} {gc.isenabled()}')\n"
)


@pytest.mark.parametrize("collector", ["on", "off"])
def test_a_closed_output_pipe_gives_back_the_callers_collector(files, collector):
    command = [sys.executable, "-c", PIPE_CALLER, collector]
    _, code, err = close_the_pipe_early(files, command)
    assert code == 0, err
    assert err == f"141 {collector == 'on'}".encode()


def test_no_call_leaves_cyclic_garbage(capsys, files):
    # main runs with the collector paused, which is safe only because no
    # call, on any exit, leaves a reference cycle of its own to free
    write = files["write"]
    arcs = {name: (t, arc) for name, t, arc in valuation_corpus()}
    cases = [
        ("annulus bridge 3", *arcs["annulus bridge 3"], annulus_bridge(3)[1]),
        ("ladder 10", ladder_surface(10), ladder_arc(10), list(range(10))),
    ]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run_main(capsys, "check-seed", "--seed", files["seed"])  # the parser
        gc.collect()
        for name, t, arc, plan in cases:
            surface = write("surface.json", t.to_dict())
            inputs = ["--surface", surface, "--arc", write("arc.json", arc.to_dict())]
            seed = principal_seed(signed_adjacency(t)).to_dict()
            seed_file = write("case_seed.json", seed)
            seed["Btilde"][0][0] = 1.5
            bad_seed = write("bad_seed.json", seed)
            flips = ",".join(map(str, plan))
            calls = [
                (["expand", *inputs], 0),
                (["expand", *inputs, "--quantum"], 0),
                (["expand", *inputs, "--machine"], 0),
                (["expand", *inputs, "--quantum", "--audit", "--machine"], 0),
                (["verify", *inputs, "--flips", flips], 0),
                (["verify", *inputs, "--flips", str(plan[0])], 1),
                (["matchings", *inputs], 0),
                (["valuation", *inputs], 0),
                (["flip", "--surface", surface, "--flips", flips], 0),
                (["check-seed", "--seed", seed_file, "--surface", surface], 0),
                (["expand", "--surface", surface + ".missing", *inputs[2:]], 2),
                (["expand", *inputs, "--seed", bad_seed], 2),
            ]
            for argv, code in calls:
                result, out, _ = run_main(capsys, *argv)
                assert result == code, (name, argv)
                garbage = gc.collect()
                if argv[0] == "flip":
                    # the standard library's indented JSON encoder leaves
                    # its pure-Python closures in a cycle; flip may leave
                    # nothing beyond that
                    json.dumps(json.loads(out), sort_keys=True, indent=2)
                    garbage -= gc.collect()
                assert garbage == 0, (name, argv)
    finally:
        if was_enabled:
            gc.enable()
