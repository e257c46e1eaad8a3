"""Laurent expansions of arcs and the mutation oracle that checks them.

The expansion of an arc sums one term per perfect matching of its snake
graph.  The cluster part of the exponent is the matched weight minus the
crossing total, the coefficient part is the bottom rows of the extended
exchange matrix applied to the height vector and normalized tropically
(componentwise minimum over all matchings), and in the quantum case each term
additionally carries q to half the matching's valuation.  Both expansions
compute that sum by one transfer over the tiles whose cost follows the
distinct (last bit, height) states, not the matchings, and both return a
:class:`~snakeq.qalgebra.QuantumLaurent`: the commutative one is the transfer
with a zero twist, so every coefficient sits at s^0 and
:meth:`~snakeq.qalgebra.QuantumLaurent.specialize_q1` reads its values.  Only
the audit rows enumerate the matchings one by one: :func:`_audit_rows` gives
each matching's bit string, exponent and valuation from the graph's listing,
valued by edge mask, and :func:`matching_records` adds each matching's edge
set to its row.

The oracle takes the same initial seed and computes cluster variables the
long way around, by mutating seeds and dividing binomials exactly in the
initial quantum torus; each power in a binomial is taken by squaring.
Agreement between the two paths is the strongest correctness check in the
package and is exercised by the verification entry point below.  It walks
the flip plan once, and each step flips the surface and takes the oracle's
own exchange step.  The compared exchange is checked with one product: the
torus has no zero divisors, so expansion·x_k equals the exchange binomial
exactly when the last division would return the expansion.  Only when that
fails, or when another slot is compared, does the last step divide.
The audit records, oracle runs and verification reports are ``NamedTuple``
records.
"""

from __future__ import annotations

from itertools import compress
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .qalgebra import (
    Coeff,
    ExactDivisionError,
    LambdaForm,
    QuantumLaurent,
    Vector,
    _canonical_terms,
    _qsquare,
    _value,
    exact_right_divide,
    qmul,
)
from .seeds import Seed, SeedError, mutate_seed
from .snakegraph import Matching, SnakeGraph
from .surface import Arc, Triangulation, flip, signed_adjacency
# compute_valuation is the public form of the search _audit_rows runs; it
# stays a name of this module, where perfbench/tracing.py looks it up
from .valuation import _valued_masks, compute_valuation, twist_chain

__all__ = [
    "ExpansionError",
    "MatchingRecord",
    "OracleRun",
    "VerifyReport",
    "commutative_expand",
    "matching_records",
    "oracle_mutate_variables",
    "quantum_expand",
    "verify_against_oracle",
]


class ExpansionError(ValueError):
    """Raised when expansion inputs do not fit together."""


class MatchingRecord(NamedTuple):
    """Audit row: one perfect matching and its contribution."""

    bits: str
    matching: Matching
    exponent: Vector
    valuation: int


def _top_block_matches(t: Triangulation, rows: Sequence[Sequence[int]]) -> bool:
    """Whether the first rows of ``rows`` are the surface's signed adjacency."""
    return [list(row) for row in rows[: t.n_internal]] == signed_adjacency(t)


def _check_top_block(t: Triangulation, btilde: Sequence[Sequence[int]]) -> None:
    """Raise unless ``btilde`` has the surface's signed adjacency on top.

    Every row must have one entry per mutable direction, and only the top
    block's entries are read; its rows are compared as they are given.
    """
    n = t.n_internal
    if not btilde or len(btilde[0]) != n:
        raise ExpansionError(
            f"extended matrix has {len(btilde[0]) if btilde else 0} columns, "
            f"expected {n} mutable directions"
        )
    for i, row in enumerate(btilde):
        if len(row) != n:
            raise ExpansionError(
                f"row {i} of the extended matrix has length {len(row)}, expected {n}"
            )
    if len(btilde) < n:
        raise ExpansionError("extended matrix has fewer rows than columns")
    if not _top_block_matches(t, btilde):
        raise ExpansionError(
            "the top block of the extended matrix is not the signed adjacency "
            "matrix of the triangulation"
        )


def _offset(graph: SnakeGraph, m: int) -> list[int]:
    """g: the minimal matching's weight minus the crossings on top, 0 below.

    The weight is read off the minimal matching's mask, with no edge set.
    """
    minimal = graph._bits(graph._minimal)
    weight = graph.weight_vector(graph._refs(minimal))
    crossing = graph.crossing_vector()
    return list(map(sub, weight, crossing)) + [0] * (m - len(weight))


def _exponents(
    g: Sequence[int],
    btilde: Sequence[Sequence[int]],
    labels: Sequence[int],
    heights: Iterable[Sequence[int]],
) -> list[Vector]:
    """g + Btilde·h for each height h, normalized tropically below.

    Each height lists one count per entry of ``labels``.  The bottom entries
    are shifted by their componentwise minimum over all the heights.  Each
    row is read at the labels by index at C speed and only its nonzeros take
    a Python step, so building the columns follows the nonzeros of Btilde.
    Every nonzero read must be an ``int`` (not a float, not a bool), or
    :class:`ExpansionError` names its row and column.
    """
    n = len(btilde[0])
    columns: list[list[tuple[int, int]]] = [[] for _ in labels]
    for i, row in enumerate(btilde):
        picked = tuple(map(row.__getitem__, labels))
        for k in compress(range(len(picked)), picked):
            b = picked[k]
            if type(b) is not int:
                raise ExpansionError(
                    f"extended matrix entry ({i}, {labels[k]}) is {b!r}, "
                    "not an integer"
                )
            columns[k].append((i, b))
    vectors = []
    for h in heights:
        vec = list(g)
        for column, count in zip(columns, h):
            if count:
                for i, b in column:
                    vec[i] += b * count
        vectors.append(vec)
    mins = [min(entries) for entries in zip(*(vec[n:] for vec in vectors))]
    return [
        tuple(vec[:n]) + tuple(map(sub, vec[n:], mins)) for vec in vectors
    ]


def _tile_constants(
    graph: SnakeGraph,
    pairing: Sequence[Sequence[tuple[int, int]]],
    d_scale: int,
) -> list[int]:
    """The linear coefficient c_p of the valuation for each tile p, in order.

    The valuation is v(P) = sum of c_p·t_p + sum over q < p of
    d·B[tau_q][tau_p]·t_q·t_p.  Along the chain of :func:`twist_chain`,
    raising t_p changes v by the chain's step and the quadratic part by
    d·B[tau_q][tau_p] for each raised tile q before p and
    d·B[tau_p][tau_q] = -d·B[tau_q][tau_p] for each raised tile q after it;
    c_p is the difference.  Raised tiles are kept as one bit mask per label,
    indexed like ``pairing`` by the graph's slot of the label.
    """
    constants = [0] * graph.d
    raised = [0] * len(graph._slot)
    for p, step in twist_chain(graph, d_scale):
        k = graph._slot[graph.tiles[p - 1].diagonal]
        below = (1 << p) - 1
        for i, db in pairing[k]:
            before = (raised[i] & below).bit_count()
            step -= db * (2 * before - raised[i].bit_count())
        constants[p - 1] = step
        raised[k] |= 1 << p
    return constants


def _transfer(
    graph: SnakeGraph, btilde: Sequence[Sequence[int]], d_scale: int
) -> list[tuple[Vector, Coeff]]:
    """Normalized exponents and s-exponent counts, summed over all matchings.

    A matching P is its tile bits t_1..t_d (:attr:`SnakeGraph.fence`) and its
    height h is their sum by label.  Its exponent is g + Btilde·h, with
    g the minimal matching's weight minus the crossings on top and 0 below
    (x = X^g F(y-hat)), normalized tropically below.  Its valuation is a
    quadratic form in the tile bits,
    v(P) = sum of c_p·t_p + sum over q < p of d·B[tau_q][tau_p]·t_q·t_p,
    with tau_p tile p's label and c_p from :func:`_tile_constants`, so
    raising t_p on top of the earlier bits adds c_p plus d·B[i][tau_p] for
    each count of label i in the height so far.

    The sum runs tile by tile over states (t_p, h), each holding a dict from
    s-exponent to count, so the cost follows the distinct states and not the
    matchings; :attr:`SnakeGraph.fence` decides which bits may follow which.
    With ``d_scale`` 0 every s-exponent is 0: that is the commutative
    expansion.  Layers merge through
    :func:`~snakeq.qalgebra._canonical_terms`.  A coefficient-free seed can
    give two heights one exponent, so the pairs returned may repeat one; the
    callers add them up with the same routine.  The bottom rows of
    ``btilde`` are read by index only.
    """
    labels = graph.crossed_labels
    # a height is packed as in the graph's listing (see SnakeGraph._layout)
    bits = graph._height_bits
    low = (1 << bits) - 1
    # d·B[i][tau] for crossed labels i, per crossed label tau
    pairing = [
        [(graph._slot[i], d_scale * btilde[i][tau]) for i in labels if btilde[i][tau]]
        for tau in labels
    ]
    constants = _tile_constants(graph, pairing, d_scale)

    # heights of the states whose last bit is 0 and 1; the empty prefix
    # counts as a 0, which lets tile 1 take either bit
    zero: dict[int, Coeff] = {0: {0: 1}}
    one: dict[int, Coeff] = {}
    for tile, base, rising in zip(graph.tiles, constants, (True, *graph.fence)):
        k = graph._slot[tile.diagonal]
        unit = 1 << (bits * k)
        shifts = [(bits * i, db) for i, db in pairing[k] if db]
        lifted: dict[int, Coeff] = {}
        for states in (zero, one) if rising else (one,):
            for h, coeff in states.items():
                s = base
                for shift, db in shifts:
                    s += db * ((h >> shift) & low)
                target = lifted.setdefault(h + unit, {})
                for e, c in coeff.items():
                    target[e + s] = target.get(e + s, 0) + c
        if not rising:
            zero = _canonical_terms(one.items(), zero)
        one = lifted

    finals = _canonical_terms(one.items(), zero)
    heights = map(graph._unpack_height, finals)
    g = _offset(graph, len(btilde))
    return list(zip(_exponents(g, btilde, labels, heights), finals.values()))


def commutative_expand(
    t: Triangulation, arc: Arc, btilde: Sequence[Sequence[int]]
) -> QuantumLaurent:
    """Laurent expansion at q = 1: every coefficient sits at s^0.

    ``btilde`` is read as integer rows, such as a :class:`Seed`'s matrix:
    a nonzero entry the expansion reads that is not an ``int`` raises
    :class:`ExpansionError`, and nothing is converted.
    """
    _check_top_block(t, btilde)
    terms = _transfer(SnakeGraph(t, arc), btilde, 0)
    return _value(len(btilde), _canonical_terms(terms))


def quantum_expand(t: Triangulation, arc: Arc, seed: Seed) -> QuantumLaurent:
    """Quantum Laurent expansion of an arc in the seed's quantum torus."""
    _check_top_block(t, seed.btilde)
    terms = _transfer(SnakeGraph(t, arc), seed.btilde, seed.d)
    return _value(seed.m, _canonical_terms(terms))


def _audit_rows(graph: SnakeGraph, seed: Seed) -> list[tuple[str, Vector, int]]:
    """Bit string, exponent and valuation of every matching, in bit order.

    The rows follow the graph's listing (:meth:`SnakeGraph._listed`), and
    no edge set is built.  The exponent of each distinct height is computed
    once, over the crossed labels only.  The valuation is looked up by mask
    from the exhaustive search (:func:`~snakeq.valuation._valued_masks`),
    which checks every twist from both ends.
    """
    listing = graph._listed()
    # matchings of one height share an exponent, computed once
    heights = dict.fromkeys(h for _, _, h in listing)
    exponents = _exponents(
        _offset(graph, seed.m),
        seed.btilde,
        graph.crossed_labels,
        map(graph._unpack_height, heights),
    )
    by_height = dict(zip(heights, exponents))
    values = _valued_masks(graph, seed.d)
    return [(bits, by_height[h], values[mask]) for bits, mask, h in listing]


def matching_records(
    t: Triangulation, arc: Arc, seed: Seed
) -> tuple[MatchingRecord, ...]:
    """One audit row per perfect matching, in bit-string order.

    The rows of :func:`_audit_rows`, each with its matching's edge set from
    :meth:`SnakeGraph.matchings`; the valuation is the exhaustive one of
    :func:`compute_valuation`, which checks every twist from both ends.  The
    sum of ``X^exponent`` times ``s^valuation`` over the rows is
    :func:`quantum_expand`'s value.
    """
    _check_top_block(t, seed.btilde)
    graph = SnakeGraph(t, arc)
    return tuple(
        MatchingRecord(bits, matching, exponent, value)
        for (bits, exponent, value), matching in zip(
            _audit_rows(graph, seed), graph.matchings()
        )
    )


class OracleRun(NamedTuple):
    """Cluster variables after a flip sequence, plus the final seed."""

    variables: tuple[QuantumLaurent, ...]
    seed: Seed


def _ordered_power_product(
    variables: Sequence[QuantumLaurent],
    powers: Sequence[int],
    form: LambdaForm,
) -> QuantumLaurent:
    """The product of variables[i]^powers[i] in index order.

    Each power is taken by squaring (:func:`~snakeq.qalgebra._qsquare`),
    and the powers are multiplied in index order; an empty product is one.
    """
    out: QuantumLaurent | None = None
    for var, power in zip(variables, powers):
        factor = None
        while power:
            if power & 1:
                factor = var if factor is None else qmul(factor, var, form)
            power >>= 1
            if power:
                var = _qsquare(var, form)
        if factor is not None:
            out = factor if out is None else qmul(out, factor, form)
    return QuantumLaurent.one(variables[0].width) if out is None else out


def _initial_variables(m: int) -> list[QuantumLaurent]:
    """The initial cluster X_1, ..., X_m as elements of its quantum torus."""
    return [
        _value(m, {(0,) * i + (1,) + (0,) * (m - i - 1): {0: 1}})
        for i in range(m)
    ]


def _exchange(
    variables: list[QuantumLaurent],
    current: Seed,
    k: int,
    form0: LambdaForm,
    position: int,
    total: int,
    quotient: QuantumLaurent | None = None,
) -> Seed:
    """Exchange ``variables[k]`` in place; return the seed mutated at k.

    The exchange binomial is built in the initial quantum torus: its two
    ordered power products, each normalized with the current skew form, are
    merged in one pass.  A given ``quotient`` is taken without dividing when
    quotient·x_k is the binomial: the torus has no zero divisors, so that
    holds exactly when the division would return it.  Otherwise the binomial
    is divided on the right by x_k, and a failed division names flip
    ``position`` of ``total``.
    """
    if not 0 <= k < current.n:
        raise SeedError(f"flip direction {k} out of range")
    lam = current.lam
    pairs: list[tuple[Vector, Coeff]] = []
    for sign in (1, -1):
        powers = [max(sign * row[k], 0) for row in current.btilde]
        target = list(powers)
        target[k] -= 1
        product = _ordered_power_product(variables, powers, form0)
        # Λ is skew, so -(Λ·target)_k is Λ(target, e_k)
        s_exp = -lam.pair(target)[k] - lam.ordered_product_twist(powers)
        pairs += [
            (v, {e + s_exp: n for e, n in c.items()})
            for v, c in product._terms.items()
        ]
    binomial = _value(current.m, _canonical_terms(pairs))
    if quotient is None or qmul(quotient, variables[k], form0) != binomial:
        try:
            quotient = exact_right_divide(binomial, variables[k], form0)
        except ExactDivisionError as exc:
            raise ExactDivisionError(
                f"flip {position} of {total} (direction {k}): {exc}"
            ) from exc
    variables[k] = quotient
    return mutate_seed(current, k)


def oracle_mutate_variables(seed: Seed, flips: Sequence[int]) -> OracleRun:
    """Mutate the initial quantum cluster along the given directions.

    Variables are carried as elements of the initial quantum torus.  At each
    step the exchange binomial is assembled from the current seed, normalized
    with the current skew form, and divided on the right by the outgoing
    variable; exactness of that division is part of the Laurent phenomenon
    and any failure raises immediately, naming the flip that failed.
    """
    form0 = seed.lam
    variables = _initial_variables(seed.m)
    current = seed
    for position, k in enumerate(flips, start=1):
        current = _exchange(variables, current, k, form0, position, len(flips))
    return OracleRun(tuple(variables), current)


class VerifyReport(NamedTuple):
    """The outcome of :func:`verify_against_oracle`: both values and a verdict."""

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

    The flip plan is walked once.  Each step flips the surface, exchanges
    one oracle variable by the oracle's own step and insists that the
    flipped surface still has the mutated matrix on top.  The report
    compares the expansion of ``arc`` against the oracle variable in
    ``slot``, a mutable direction (by default the last flipped one).  When
    ``slot`` is the last flip's direction, that exchange is checked with one
    product, the expansion times the outgoing variable against the exchange
    binomial; it divides only if they differ, so a mismatch reports the
    oracle's own variable.
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
    elif slot >= seed.n:
        raise ExpansionError(f"slot {slot} is frozen: no arc expands to X_{slot}")
    expansion = quantum_expand(t, arc, seed)

    variables = _initial_variables(seed.m)
    surface = t
    current = seed
    total = len(flips)
    for position, k in enumerate(flips, start=1):
        surface = flip(surface, k)
        compared = expansion if position == total and k == slot else None
        current = _exchange(
            variables, current, k, seed.lam, position, total, compared
        )
        if not _top_block_matches(surface, current.btilde):
            return VerifyReport(
                False,
                slot,
                expansion,
                QuantumLaurent.zero(seed.m),
                f"flip at {k} disagrees with matrix mutation",
            )
    actual = variables[slot]
    ok = actual == expansion
    detail = "match" if ok else "expansion and oracle variable differ"
    return VerifyReport(ok, slot, expansion, actual, detail)
