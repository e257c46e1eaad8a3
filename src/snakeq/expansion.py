"""Laurent expansions of arcs and the mutation oracle that checks them.

The expansion of an arc collects one term per perfect matching of its snake
graph.  The cluster part of the exponent is the matched weight minus the
crossing total, the coefficient part is the bottom rows of the extended
exchange matrix applied to the height vector and normalized tropically
(componentwise minimum over all matchings), and in the quantum case each term
additionally carries q to half the matching's valuation.

The oracle takes the same initial seed and computes cluster variables the
long way around, by mutating seeds and dividing binomials exactly in the
initial quantum torus.  Agreement between the two paths is the strongest
correctness check in the package and is exercised by the verification entry
point below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .qalgebra import (
    Coeff,
    LambdaForm,
    QuantumLaurent,
    Vector,
    exact_right_divide,
    qmul,
)
from .seeds import Seed, SeedError, mutate_B, mutate_seed
from .snakegraph import Matching, SnakeGraph
from .surface import Arc, Triangulation, flip, signed_adjacency
from .valuation import compute_valuation

__all__ = [
    "CommTerm",
    "ExpansionError",
    "MatchingRecord",
    "OracleRun",
    "QuantumExpansion",
    "VerifyReport",
    "commutative_expand",
    "commutative_to_string",
    "exponent_vector",
    "oracle_mutate_variables",
    "quantum_expand",
    "verify_against_oracle",
]


class ExpansionError(ValueError):
    """Raised when expansion inputs do not fit together."""


@dataclass(frozen=True)
class CommTerm:
    """One commutative Laurent term."""

    exponent: Vector
    coefficient: int


@dataclass(frozen=True)
class MatchingRecord:
    """Audit row: one perfect matching and its contribution."""

    bits: str
    matching: Matching
    exponent: Vector
    valuation: int


@dataclass(frozen=True)
class QuantumExpansion:
    value: QuantumLaurent
    graph: SnakeGraph
    records: tuple[MatchingRecord, ...]


def _check_top_block(t: Triangulation, btilde: Sequence[Sequence[int]]) -> None:
    """Raise unless ``btilde`` has the surface's signed adjacency on top.

    Only the top block is read; the rows are compared as they are given.
    """
    n = t.n_internal
    if not btilde or len(btilde[0]) != n:
        raise ExpansionError(
            f"extended matrix has {len(btilde[0]) if btilde else 0} columns, "
            f"expected {n} mutable directions"
        )
    if len(btilde) < n:
        raise ExpansionError("extended matrix has fewer rows than columns")
    if [list(row) for row in btilde[:n]] != signed_adjacency(t):
        raise ExpansionError(
            "the top block of the extended matrix is not the signed adjacency "
            "matrix of the triangulation"
        )


def _normalized_exponents(
    graph: SnakeGraph, btilde: Sequence[Sequence[int]]
) -> dict[Matching, Vector]:
    """Cluster part plus tropically normalized coefficient part per matching.

    The coefficient part is the bottom block applied to the height vector,
    shifted by the componentwise minimum over all matchings.
    """
    n = graph.triangulation.n_internal
    m = len(btilde)
    crossing = graph.crossing_vector()
    # nonzero entries of each column of the bottom block, so that a
    # matching costs its height support rather than the full block
    columns = [
        [(i - n, btilde[i][k]) for i in range(n, m) if btilde[i][k]]
        for k in range(n)
    ]
    raw: dict[Matching, Vector] = {}
    for p in graph.matchings():
        weight = graph.weight_vector(p)
        height = graph.height_vector(p)
        cluster = tuple(weight[i] - crossing[i] for i in range(n))
        frozen = [0] * (m - n)
        for k, h in enumerate(height):
            if h:
                for i, b in columns[k]:
                    frozen[i] += b * h
        raw[p] = cluster + tuple(frozen)
    if not raw:
        return raw
    mins = [
        min(vec[i] for vec in raw.values()) for i in range(n, m)
    ]
    return {
        p: vec[:n] + tuple(vec[n + j] - mins[j] for j in range(m - n))
        for p, vec in raw.items()
    }


def exponent_vector(
    graph: SnakeGraph, matching: Matching, btilde: Sequence[Sequence[int]]
) -> Vector:
    """Full exponent of one matching, tropically normalized over the graph."""
    _check_top_block(graph.triangulation, btilde)
    return _normalized_exponents(graph, btilde)[matching]


def commutative_expand(
    t: Triangulation, arc: Arc, btilde: Sequence[Sequence[int]]
) -> list[CommTerm]:
    """Laurent expansion at q = 1, as terms in lex-descending exponent order."""
    _check_top_block(t, btilde)
    graph = SnakeGraph(t, arc)
    totals: dict[Vector, int] = {}
    for vec in _normalized_exponents(graph, btilde).values():
        totals[vec] = totals.get(vec, 0) + 1
    return [
        CommTerm(vec, totals[vec]) for vec in sorted(totals, reverse=True)
    ]


def commutative_to_string(terms: Iterable[CommTerm], symbol: str = "x") -> str:
    rendered = []
    for term in terms:
        body = f"{symbol}^({','.join(str(v) for v in term.exponent)})"
        if term.coefficient == 1:
            rendered.append(body)
        else:
            rendered.append(f"{term.coefficient}·{body}")
    return " + ".join(rendered) if rendered else "0"


def quantum_expand(t: Triangulation, arc: Arc, seed: Seed) -> QuantumExpansion:
    """Quantum Laurent expansion of an arc in the seed's quantum torus."""
    _check_top_block(t, seed.btilde)
    graph = SnakeGraph(t, arc)
    exponents = _normalized_exponents(graph, seed.btilde)
    values = compute_valuation(graph, seed.d)
    records = []
    terms: dict[Vector, Coeff] = {}
    for p in graph.matchings():
        record = MatchingRecord(
            graph.matching_bits(p), p, exponents[p], values[p]
        )
        records.append(record)
        coeff = terms.setdefault(record.exponent, {})
        coeff[record.valuation] = coeff.get(record.valuation, 0) + 1
    return QuantumExpansion(
        QuantumLaurent(seed.m, terms), graph, tuple(records)
    )


@dataclass(frozen=True)
class OracleRun:
    """Cluster variables after a flip sequence, plus the final seed."""

    variables: tuple[QuantumLaurent, ...]
    seed: Seed


def _ordered_power_product(
    variables: Sequence[QuantumLaurent],
    powers: Sequence[int],
    form: LambdaForm,
) -> QuantumLaurent:
    width = variables[0].width
    out = QuantumLaurent.one(width)
    for var, power in zip(variables, powers):
        for _ in range(power):
            out = qmul(out, var, form)
    return out


def oracle_mutate_variables(seed: Seed, flips: Sequence[int]) -> OracleRun:
    """Mutate the initial quantum cluster along the given directions.

    Variables are carried as elements of the initial quantum torus.  At each
    step the exchange binomial is assembled from the current seed, normalized
    with the current skew form, and divided on the right by the outgoing
    variable; exactness of that division is part of the Laurent phenomenon
    and any failure raises immediately.
    """
    m = seed.m
    form0 = seed.lam
    variables: list[QuantumLaurent] = [
        QuantumLaurent.monomial(tuple(1 if i == j else 0 for j in range(m)))
        for i in range(m)
    ]
    current = seed
    for k in flips:
        if not 0 <= k < current.n:
            raise SeedError(f"flip direction {k} out of range")
        b = current.btilde
        lam_now = current.lam
        e_k = tuple(1 if i == k else 0 for i in range(m))
        binomial = QuantumLaurent.zero(m)
        for sign in (1, -1):
            powers = [max(sign * b[i][k], 0) for i in range(m)]
            target = tuple(p - (1 if i == k else 0) for i, p in enumerate(powers))
            product = _ordered_power_product(variables, powers, form0)
            s_exp = lam_now.eval(target, e_k) - lam_now.ordered_product_twist(
                powers
            )
            binomial = binomial + product.scaled(s_exp=s_exp)
        variables[k] = exact_right_divide(binomial, variables[k], form0)
        current = mutate_seed(current, k)
    return OracleRun(tuple(variables), current)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    slot: int
    expected: QuantumLaurent
    actual: QuantumLaurent
    detail: str


def verify_against_oracle(
    t: Triangulation,
    seed: Seed,
    flips: Sequence[int],
    arc: Arc,
    slot: int | None = None,
) -> VerifyReport:
    """Compare the snake-graph expansion of an arc with the mutation oracle.

    The flip sequence is applied both to the triangulation and to the seed;
    the report compares the expansion of ``arc`` against the oracle variable
    in ``slot`` (by default the last flipped direction) and also insists that
    the flipped surface and the mutated matrix still agree.
    """
    if slot is None:
        if not flips:
            raise ExpansionError("a slot is required when no flips are given")
        slot = flips[-1]
    elif not 0 <= slot < seed.m:
        raise ExpansionError(
            f"slot {slot} is out of range: the seed has {seed.m} cluster "
            "variables"
        )
    expansion = quantum_expand(t, arc, seed).value

    surface = t
    matrix = seed.btilde
    for k in flips:
        surface = flip(surface, k)
        matrix = mutate_B(matrix, k)
        adjacency = tuple(tuple(row) for row in signed_adjacency(surface))
        if tuple(matrix[: surface.n_internal]) != adjacency:
            return VerifyReport(
                False,
                slot,
                expansion,
                QuantumLaurent.zero(seed.m),
                f"flip at {k} disagrees with matrix mutation",
            )

    run = oracle_mutate_variables(seed, flips)
    actual = run.variables[slot]
    if actual == expansion:
        return VerifyReport(True, slot, expansion, actual, "match")
    return VerifyReport(
        False,
        slot,
        expansion,
        actual,
        "expansion and oracle variable differ",
    )
