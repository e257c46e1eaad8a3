"""Command-line front end.

Subcommands load a triangulated surface, an arc, and optionally a seed from
JSON files, run the library, and print canonical text.  All ordering is
deterministic, so output is byte-stable across runs.  Exit codes: 0 on
success, 1 when a verification finds a mismatch, 2 on any input or
validation error, 141 when the reader closes the output pipe.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Sequence

from .expansion import (
    ExpansionError,
    _audit_rows,
    _check_top_block,
    commutative_expand,
    quantum_expand,
    verify_against_oracle,
)
from .qalgebra import (
    Coeff,
    ExactDivisionError,
    QuantumLaurent,
    Vector,
    _value,
    coeff_to_string,
)
from .seeds import Seed, SeedError, principal_seed
from .snakegraph import SnakeGraph
from .surface import Arc, SurfaceError, Triangulation, flip, signed_adjacency
from .valuation import ValuationError, _valued_masks

__all__ = ["main"]


class CliInputError(ValueError):
    """Raised for unreadable or malformed input files and options."""


_INPUT_ERRORS = (
    CliInputError,
    ExactDivisionError,
    ExpansionError,
    SeedError,
    SurfaceError,
    ValuationError,
)


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a syntax error, bytes that are not UTF-8, an integer past the
        # interpreter's digit limit, or nesting past its recursion limit
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


def _load_surface(path: str) -> Triangulation:
    return Triangulation.from_dict(_load_json(path))


def _load_inputs(args: argparse.Namespace) -> tuple[Triangulation, Arc, Seed]:
    """The surface, the arc and the seed, loaded in that order.

    Without ``--seed`` the seed is the principal one of the surface.
    """
    t = _load_surface(args.surface)
    arc = Arc.from_dict(_load_json(args.arc))
    if args.seed is None:
        return t, arc, principal_seed(signed_adjacency(t))
    return t, arc, Seed.from_dict(_load_json(args.seed))


def _parse_flips(text: str) -> list[int]:
    """The comma list as integers; an empty or blank list names none."""
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliInputError(
            f"--flips must be a comma list of integers: {text!r}"
        ) from exc


def _exponent_csv(exponent: Sequence[int]) -> str:
    return ",".join(map(str, exponent))


class _Texts(dict):
    """Each key's text, rendered by ``render`` on its first lookup only."""

    def __init__(self, render: Callable[[Any], str]) -> None:
        self.render = render

    def __missing__(self, key: Any) -> str:
        text = self[key] = self.render(key)
        return text


def _csv_texts() -> tuple[Callable[[int], str], _Texts, _Texts]:
    """The int texts, exponent texts and coefficient-pair texts of one call.

    All three read one memo of int texts, so each distinct int goes through
    ``str()`` once; each distinct exponent, or coefficient (looked up by the
    frozenset of its items), is rendered once.
    """
    digits = _Texts(str).__getitem__
    exponents = _Texts(lambda a: ",".join(map(digits, a)))
    pairs = _Texts(lambda c: ",".join(map(digits, chain.from_iterable(sorted(c)))))
    return digits, exponents, pairs


def cmd_expand(args: argparse.Namespace) -> int:
    t, arc, seed = _load_inputs(args)
    write = sys.stdout.write
    digits, exponents, pairs = _csv_texts()
    if args.audit:
        _check_top_block(t, seed.btilde)
        # the total counts each row at s^v (s^0 without --quantum): each count
        # is +1, so nothing cancels; exponents are the library's own int tuples
        terms: dict[Vector, Coeff] = {}
        row = "{}|{}|{}\n" if args.machine else "# matching {} a=({}) v={}\n"
        for bits, exponent, valuation in _audit_rows(SnakeGraph(t, arc), seed):
            write(row.format(bits, exponents[exponent], digits(valuation)))
            coeff = terms.setdefault(exponent, {})
            s_exp = valuation if args.quantum else 0
            coeff[s_exp] = coeff.get(s_exp, 0) + 1
        value = _value(seed.m, terms)
    elif args.quantum:
        value = quantum_expand(t, arc, seed)
    else:
        value = commutative_expand(t, arc, seed.btilde)
    if args.machine:
        # keyed by exponent: comparing (exponent, coeff) pairs walks it twice
        for a, c in sorted(value._terms.items(), key=itemgetter(0), reverse=True):
            write(f"{','.join(map(digits, a))}|{pairs[frozenset(c.items())]}\n")
    else:
        write(value.to_string("X" if args.quantum else "x") + "\n")
    return 0


def _first_difference(
    expected: QuantumLaurent, actual: QuantumLaurent
) -> str:
    exponent = max(
        e
        for e in expected.support() | actual.support()
        if expected.coefficient(e) != actual.coefficient(e)
    )
    return (
        f"at X^({_exponent_csv(exponent)}): expansion has "
        f"{coeff_to_string(expected.coefficient(exponent))}, oracle has "
        f"{coeff_to_string(actual.coefficient(exponent))}"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    t, arc, seed = _load_inputs(args)
    flips = _parse_flips(args.flips)
    if not flips:
        raise CliInputError("--flips must name at least one direction")
    report = verify_against_oracle(t, seed, flips, arc, args.slot)
    if report.ok:
        print(f"ok: slot {report.slot} matches")
        print(report.expected.to_string("X"))
        return 0
    # a mismatch means the two values differ, so some exponent tells them apart
    print(f"mismatch in slot {report.slot}: {report.detail}")
    print(f"expansion: {report.expected.to_string('X')}")
    print(f"oracle:    {report.actual.to_string('X')}")
    print(_first_difference(report.expected, report.actual))
    return 1


def _load_graph(args: argparse.Namespace) -> tuple[SnakeGraph, int]:
    """The arc's snake graph and the seed's scalar d."""
    t, arc, seed = _load_inputs(args)
    _check_top_block(t, seed.btilde)
    return SnakeGraph(t, arc), seed.d


def cmd_matchings(args: argparse.Namespace) -> int:
    graph, d = _load_graph(args)
    values = _valued_masks(graph, d)
    heights = [0] * graph.triangulation.n_internal  # uncrossed labels stay 0
    for bits, mask, height in graph._listed():
        labels = sorted(map(graph.edge_label, graph._refs(bits)))
        for label, count in zip(
            graph.crossed_labels, graph._unpack_height(height)
        ):
            heights[label] = count
        print(
            f"{bits} "
            f"labels={_exponent_csv(labels)} "
            f"h={_exponent_csv(heights)} "
            f"v={values[mask]}"
        )
    return 0


def cmd_valuation(args: argparse.Namespace) -> int:
    graph, d = _load_graph(args)
    # the search's own twist lists, so no mask is twisted twice
    twists: dict[int, list[tuple[int, int, int]]] = {}
    values = _valued_masks(graph, d, twists)
    for bits, mask, _ in graph._listed():
        steps = ",".join(f"{p}:{step:+d}" for p, _, step in twists[mask])
        print(f"{bits} v={values[mask]} twists=[{steps}]")
    return 0


def cmd_flip(args: argparse.Namespace) -> int:
    t = _load_surface(args.surface)
    for k in _parse_flips(args.flips):
        t = flip(t, k)
    print(json.dumps(t.to_dict(), sort_keys=True, indent=2))
    return 0


def cmd_check_seed(args: argparse.Namespace) -> int:
    seed = Seed.from_dict(_load_json(args.seed))
    if args.surface is not None:
        _check_top_block(_load_surface(args.surface), seed.btilde)
    print(f"ok: m={seed.m} n={seed.n} d={seed.d}")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared.

    It is built lazily rather than at import, so importing the package stays
    cheap; every later :func:`main` call in the process reuses it.
    """
    parser = argparse.ArgumentParser(
        prog="snakeq",
        description=(
            "Laurent expansions of arcs on triangulated surfaces via snake "
            "graph matchings, with a quantum mutation oracle"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the input options of the subcommands that read an arc
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--surface", required=True, help="triangulation JSON file")
    inputs.add_argument("--arc", required=True, help="arc JSON file")
    inputs.add_argument("--seed", help="seed JSON file (default: principal)")

    expand = sub.add_parser(
        "expand", parents=[inputs], help="print the Laurent expansion of an arc"
    )
    expand.add_argument(
        "--quantum", action="store_true", help="expand in the quantum torus"
    )
    expand.add_argument(
        "--audit", action="store_true", help="print one row per perfect matching"
    )
    expand.add_argument(
        "--machine", action="store_true", help="machine-readable records"
    )
    expand.set_defaults(func=cmd_expand)

    verify = sub.add_parser(
        "verify",
        parents=[inputs],
        help="check an expansion against the mutation oracle",
    )
    verify.add_argument(
        "--flips", required=True, help="comma list of flip directions"
    )
    verify.add_argument(
        "--slot",
        type=int,
        help="cluster slot to compare (default: last flipped direction)",
    )
    verify.set_defaults(func=cmd_verify)

    matchings = sub.add_parser(
        "matchings",
        parents=[inputs],
        help="list the perfect matchings of an arc's snake graph",
    )
    matchings.set_defaults(func=cmd_matchings)

    valuation = sub.add_parser(
        "valuation",
        parents=[inputs],
        help="print matching valuations and twist increments",
    )
    valuation.set_defaults(func=cmd_valuation)

    flip_cmd = sub.add_parser("flip", help="flip internal arcs of a triangulation")
    flip_cmd.add_argument("--surface", required=True, help="triangulation JSON file")
    flip_cmd.add_argument(
        "--flips", required=True, help="comma list of arcs to flip in order"
    )
    flip_cmd.set_defaults(func=cmd_flip)

    check_seed = sub.add_parser(
        "check-seed", help="validate a seed file and print its compatibility scalar"
    )
    check_seed.add_argument("--seed", required=True, help="seed JSON file")
    check_seed.add_argument(
        "--surface", help="also check the seed against this surface"
    )
    check_seed.set_defaults(func=cmd_check_seed)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one ``snakeq`` command line and return its exit code.

    0 on success, 1 when ``verify`` finds a mismatch, 2 on an input or
    validation error, 141 when the reader closes the output pipe; a usage
    error raises argparse's ``SystemExit(2)``.  The cyclic garbage collector
    is paused for the whole call, since no call leaves a reference cycle of
    its own, and the caller's setting is restored on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe: what is left goes to the null device,
        # so the interpreter's last flush cannot raise again, and the exit
        # code is the shell's for a process ended by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if enabled:
            gc.enable()

