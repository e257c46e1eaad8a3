"""Command-line front end.

Subcommands load a triangulated surface, an arc, and optionally a seed from
JSON files, run the library, and print canonical text.  All ordering is
deterministic, so output is byte-stable across runs.  Exit codes: 0 on
success, 1 when a verification finds a mismatch, 2 on any input or
validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from .expansion import (
    ExpansionError,
    _check_top_block,
    commutative_expand,
    matching_records,
    quantum_expand,
    verify_against_oracle,
)
from .qalgebra import (
    Coeff,
    ExactDivisionError,
    QuantumLaurent,
    _canonical_terms,
    _value,
    coeff_to_string,
)
from .seeds import Seed, SeedError, principal_seed
from .snakegraph import SnakeGraph
from .surface import Arc, SurfaceError, Triangulation, flip, signed_adjacency
from .valuation import ValuationError, _valued_masks, compute_valuation

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


def _load_arc(path: str) -> Arc:
    return Arc.from_dict(_load_json(path))


def _load_seed(path: str | None, t: Triangulation) -> Seed:
    if path is None:
        return principal_seed(signed_adjacency(t))
    return Seed.from_dict(_load_json(path))


def _parse_flips(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise CliInputError(
            f"--flips must be a comma list of integers: {text!r}"
        ) from exc


def _exponent_csv(exponent: Sequence[int]) -> str:
    return ",".join(map(str, exponent))


def _coeff_pairs_csv(coeff: Coeff) -> str:
    parts: list[str] = []
    for s_exp in sorted(coeff):
        parts.append(str(s_exp))
        parts.append(str(coeff[s_exp]))
    return ",".join(parts)


def cmd_expand(args: argparse.Namespace) -> int:
    t = _load_surface(args.surface)
    arc = _load_arc(args.arc)
    seed = _load_seed(args.seed, t)

    if args.audit:
        records = matching_records(t, arc, seed)
        for record in records:
            if args.machine:
                print(
                    f"{record.bits}|{_exponent_csv(record.exponent)}|"
                    f"{record.valuation}"
                )
            else:
                print(
                    f"# matching {record.bits} "
                    f"a=({_exponent_csv(record.exponent)}) "
                    f"v={record.valuation}"
                )
    if args.audit and args.quantum:
        # the rows are the library's own exact ints: summed, not converted
        value = _value(
            seed.m,
            _canonical_terms((r.exponent, {r.valuation: 1}) for r in records),
        )
    elif args.quantum:
        value = quantum_expand(t, arc, seed)
    else:
        value = commutative_expand(t, arc, seed.btilde)
    if args.machine:
        for exponent, coeff in value.terms_lex_descending():
            print(f"{_exponent_csv(exponent)}|{_coeff_pairs_csv(coeff)}")
    else:
        print(value.to_string("X" if args.quantum else "x"))
    return 0


def _first_difference(
    expected: QuantumLaurent, actual: QuantumLaurent
) -> str:
    exponent = max(
        e
        for e in expected.support() | actual.support()
        if expected.coefficient(e) != actual.coefficient(e)
    )
    left = expected.coefficient(exponent)
    right = actual.coefficient(exponent)
    return (
        f"at X^({_exponent_csv(exponent)}): expansion has "
        f"{coeff_to_string(left) if left else '0'}, oracle has "
        f"{coeff_to_string(right) if right else '0'}"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    t = _load_surface(args.surface)
    arc = _load_arc(args.arc)
    seed = _load_seed(args.seed, t)
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
    t = _load_surface(args.surface)
    arc = _load_arc(args.arc)
    seed = _load_seed(args.seed, t)
    _check_top_block(t, seed.btilde)
    return SnakeGraph(t, arc), seed.d


def cmd_matchings(args: argparse.Namespace) -> int:
    graph, d = _load_graph(args)
    values = compute_valuation(graph, d)
    heights = [0] * graph.triangulation.n_internal  # uncrossed labels stay 0
    for (bits, _, height), matching in zip(graph._listed(), graph.matchings()):
        labels = sorted(graph.edge_label(ref) for ref in matching)
        for label, count in zip(
            graph.crossed_labels, graph._unpack_height(height)
        ):
            heights[label] = count
        print(
            f"{bits} "
            f"labels={_exponent_csv(labels)} "
            f"h={_exponent_csv(heights)} "
            f"v={values[matching]}"
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

    expand = sub.add_parser("expand", help="print the Laurent expansion of an arc")
    expand.add_argument("--surface", required=True, help="triangulation JSON file")
    expand.add_argument("--arc", required=True, help="arc JSON file")
    expand.add_argument("--seed", help="seed JSON file (default: principal)")
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
        "verify", help="check an expansion against the mutation oracle"
    )
    verify.add_argument("--surface", required=True)
    verify.add_argument("--arc", required=True)
    verify.add_argument("--seed", help="seed JSON file (default: principal)")
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
        "matchings", help="list the perfect matchings of an arc's snake graph"
    )
    matchings.add_argument("--surface", required=True)
    matchings.add_argument("--arc", required=True)
    matchings.add_argument("--seed", help="seed JSON file (default: principal)")
    matchings.set_defaults(func=cmd_matchings)

    valuation = sub.add_parser(
        "valuation", help="print matching valuations and twist increments"
    )
    valuation.add_argument("--surface", required=True)
    valuation.add_argument("--arc", required=True)
    valuation.add_argument("--seed", help="seed JSON file (default: principal)")
    valuation.set_defaults(func=cmd_valuation)

    flip_cmd = sub.add_parser("flip", help="flip internal arcs of a triangulation")
    flip_cmd.add_argument("--surface", required=True)
    flip_cmd.add_argument(
        "--flips", required=True, help="comma list of arcs to flip in order"
    )
    flip_cmd.set_defaults(func=cmd_flip)

    check_seed = sub.add_parser(
        "check-seed", help="validate a seed file and print its compatibility scalar"
    )
    check_seed.add_argument("--seed", required=True)
    check_seed.add_argument(
        "--surface", help="also check the seed against this surface"
    )
    check_seed.set_defaults(func=cmd_check_seed)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
