"""Laurent expansions of arcs and the mutation oracle that checks them.

The expansion of an arc sums one term per perfect matching of its snake
graph.  The cluster part of the exponent is the matched weight minus the
crossing total, the coefficient part is the bottom rows of the extended
exchange matrix applied to the height vector and normalized tropically
(componentwise minimum over all matchings), and in the quantum case each term
additionally carries q to half the matching's valuation.  Both expansions
compute that sum by one transfer over the maximal runs of the fence: a run
of r tiles costs (states entering it) × r lifts, so the cost follows the
distinct (last bit, height) states, not the matchings, and the exponents
follow the height slots that change from one height to the next.  States
merge only through :func:`~snakeq.qalgebra._merged`, by height and then by
exponent.  Both return a :class:`~snakeq.qalgebra.QuantumLaurent`: the
commutative one is the transfer with a zero twist, so every coefficient sits
at s^0 and :meth:`~snakeq.qalgebra.QuantumLaurent.specialize_q1` reads its
values.  Only the audit rows enumerate the matchings one by one:
:func:`_audit_rows` gives each matching's bit string, exponent and valuation
from the graph's listing, valued by edge mask, and :func:`matching_records`
adds each matching's edge set to its row.

The oracle takes the same initial seed and computes cluster variables the
long way around, by mutating seeds and dividing binomials exactly in the
associative initial quantum torus: powers are taken by squaring, adjacent
one-term factors are multiplied together before a long one meets them, an
initial variable is built only when read, each of the two power products,
ending in x_k^(-1) when x_k is a unit (one term ±s^e·X^w, inverted, not
divided by), is shifted by s^σ read off row k of the current form, and each
mutated seed is checked for compatibility where its changed rows reach.
Agreement of the two paths is the package's strongest check; the
verification entry point below walks the flip plan once, and each step flips
the surface, takes the oracle's exchange step and compares the flip's change
to the signed adjacency with the mutation's change to the top block.  The
compared exchange is checked with one product: the torus has no zero
divisors, so expansion·x_k equals the exchange binomial exactly when the last
division would return the expansion; an inverted unit's quotient is compared
as it is.  Only when that fails, or another slot is compared, does the last
step divide.  Records are :func:`~collections.namedtuple` classes.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress, groupby
from operator import countOf, is_not, itemgetter, neg, sub
from typing import Iterable, Mapping, Sequence

from .qalgebra import (
    Coeff,
    ExactDivisionError,
    LambdaForm,
    QuantumLaurent,
    Vector,
    _canonical_terms,
    _dot,
    _merged,
    _qsquare,
    _value,
    exact_right_divide,
    qmul,
)
from .seeds import Matrix, Seed, SeedError, mutate_seed
from .snakegraph import SnakeGraph
from .surface import Arc, Triangulation, _add_adjacency, flip, signed_adjacency
from .valuation import _tile_constants, _valued_masks

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


class MatchingRecord(
    namedtuple("MatchingRecord", "bits matching exponent valuation")
):
    """Audit row: one perfect matching and its contribution.

    ``bits`` is the matching's bit string, ``matching`` its edge set,
    ``exponent`` its exponent vector and ``valuation`` an int.
    """

    __slots__ = ()


def _top_block_matches(t: Triangulation, rows: Sequence[Sequence[int]]) -> bool:
    """Whether the first rows of ``rows`` are the surface's signed adjacency."""
    # list copies: on 3.11 lists compare entries faster than tuples do
    return [list(row) for row in rows[: t.n_internal]] == signed_adjacency(t)


def _flip_matches(
    parent: Triangulation, surface: Triangulation, rows: Matrix, mutated: Matrix
) -> bool:
    """Whether ``mutated`` has ``surface``'s signed adjacency on top.

    ``rows`` has ``parent``'s, so only changes are compared: the adjacency's,
    by each triangle that is not the parent's object (old part subtracted,
    new part added), and the top block's, in each row that is not the
    parent's object.  They agree exactly when :func:`_top_block_matches` would.
    """
    n, old, new = surface.n_internal, parent.triangles, surface.triangles
    moved = list(compress(range(len(old)), map(is_not, old, new)))
    # a triangle past the end of the other list counts as moved
    gone = [*map(old.__getitem__, moved), *old[len(new) :]]
    came = [*map(new.__getitem__, moved), *new[len(old) :]]
    sides = chain.from_iterable(tri.sides for tri in gone + came)
    touched = {*compress(range(n), map(is_not, rows, mutated)), *sides}
    expected = {i: list(rows[i]) for i in touched if i < n}
    _add_adjacency(expected, gone, n, -1)
    _add_adjacency(expected, came, n, 1)
    return all(list(mutated[i]) == row for i, row in expected.items())


def _check_top_block(t: Triangulation, btilde: Sequence[Sequence[int]]) -> None:
    """Raise unless ``btilde`` has the surface's signed adjacency on top.

    Every row must have one entry per mutable direction, counted at C
    speed; only the top block's entries are read.
    """
    n = t.n_internal
    if not btilde or len(btilde[0]) != n:
        raise ExpansionError(
            f"extended matrix has {len(btilde[0]) if btilde else 0} columns, "
            f"expected {n} mutable directions"
        )
    if countOf(map(len, btilde), n) != len(btilde):
        i = next(i for i, row in enumerate(btilde) if len(row) != n)
        raise ExpansionError(
            f"row {i} of the extended matrix has length {len(btilde[i])}, "
            f"expected {n}"
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


def _columns(
    btilde: Sequence[Sequence[int]], labels: Sequence[int]
) -> list[list[tuple[int, int]]]:
    """The nonzeros ``(i, Btilde[i][tau])`` of each column tau in ``labels``.

    This is the one read of ``btilde``.  Each crossed column is read row by
    row by index at C speed, with no pass over a row; ``compress`` picks its
    nonzero rows, and only they make a pair.  Every nonzero read must be an
    ``int`` (not a float, not a bool), or :class:`ExpansionError` names the
    first offender in row order by its row and column.
    """
    columns: list[list[tuple[int, int]]] = []
    indices = range(len(btilde))
    for tau in labels:
        column = tuple(map(itemgetter(tau), btilde))
        nonzero = list(compress(indices, column))
        columns.append(list(zip(nonzero, map(column.__getitem__, nonzero))))
    bad = [
        (i, k, b)
        for k, column in enumerate(columns)
        for i, b in column
        if type(b) is not int
    ]
    if bad:
        i, k, b = min(bad)
        raise ExpansionError(
            f"extended matrix entry ({i}, {labels[k]}) is {b!r}, not an integer"
        )
    return columns


def _exponents(
    graph: SnakeGraph,
    columns: Sequence[Sequence[tuple[int, int]]],
    m: int,
    heights: Iterable[int],
) -> dict[int, Vector]:
    """g + Btilde·h for each packed height h, normalized tropically below.

    ``columns`` holds the nonzeros of Btilde's crossed columns
    (:func:`_columns`), one per slot of the packed heights.  The heights are
    walked in sorted order, each from the vector of the one before: only the
    slots where the two differ, the fields that their XOR touches, update it
    by their column's nonzeros, and the vector is then copied at C speed.
    The bottom entries are shifted by their minimum, which is 0 (heights are
    counts, height 0 included) unless a crossed column is negative below.
    """
    n = graph.triangulation.n_internal
    bits = graph._height_bits
    low = (1 << bits) - 1
    vec = _offset(graph, m)
    vectors: dict[int, tuple[int, ...]] = {}
    previous = 0
    for h in sorted(heights):
        changed = h ^ previous
        while changed:
            # the highest slot left that the two heights differ in
            k = (changed.bit_length() - 1) // bits
            shift = bits * k
            delta = ((h >> shift) & low) - ((previous >> shift) & low)
            for i, b in columns[k]:
                vec[i] += b * delta
            changed &= (1 << shift) - 1
        vectors[h] = tuple(vec)
        previous = h
    if all(b > 0 for column in columns for i, b in column if i >= n):
        return vectors
    mins = [min(entries) for entries in zip(*(vec[n:] for vec in vectors.values()))]
    return {
        h: vec[:n] + tuple(map(sub, vec[n:], mins)) for h, vec in vectors.items()
    }


def _transfer(
    graph: SnakeGraph, btilde: Sequence[Sequence[int]], d_scale: int
) -> dict[Vector, Coeff]:
    """Normalized exponents and s-exponent counts, summed over all matchings.

    A matching P is its tile bits t_1..t_d (:attr:`SnakeGraph.fence`) and its
    height h is their sum by label.  Its exponent is g + Btilde·h, with
    g the minimal matching's weight minus the crossings on top and 0 below
    (x = X^g F(y-hat)), normalized tropically below (:func:`_exponents`).
    Its valuation is a quadratic form in the tile bits,
    v(P) = sum of c_p·t_p + sum over q < p of d·B[tau_q][tau_p]·t_q·t_p,
    with tau_p tile p's label and c_p from
    :func:`~snakeq.valuation._tile_constants`, one twist chain in fence order.

    The sum runs over states (last bit, h), each holding a dict from
    s-exponent to count, and walks the fence's maximal runs, not single
    tiles.  In a rising run (t_a <= ... <= t_b, r tiles) a state ending in 0
    continues as 0^i 1^(r-i) for each i: one sweep from right to left grows
    the raised suffix, and adding tile x on its left adds
    c_x + sum of d·B[i][tau_x]·h_i - sum of d·B[i][tau_x]·suffix_i (B is
    skew), whose last sum is the same for every state and is taken once per
    run.  A state ending in 1 is raised through the whole run at once.  A
    falling run is the mirror image: a state ending in 1 grows a raised
    prefix from left to right, with + in place of -, and a state ending in 0
    stays.  A run thus costs (states entering it) × (run length) lifts, so
    the cost follows the distinct states, not the matchings.

    With ``d_scale`` 0 every s-exponent is 0: that is the commutative
    expansion.  The bottom rows of ``btilde`` are read by index only.  States
    merge only through :func:`~snakeq.qalgebra._merged`: a falling run's
    states ending in 1 into those ending in 0, the final states by height,
    and then the heights by exponent, so each exponent is hashed once per
    distinct height.  Counts are numbers of matchings (positivity), so no
    merge scans for a zero.
    """
    labels = graph.crossed_labels
    slot = graph._slot
    # a height is packed as in the graph's listing (see SnakeGraph._layout)
    bits = graph._height_bits
    low = (1 << bits) - 1
    columns = _columns(btilde, labels)
    # d·B[i][tau] for crossed labels i, per crossed label tau
    pairing = [
        [(slot[i], d_scale * b) for i, b in column if d_scale and i in slot]
        for column in columns
    ]
    constants = _tile_constants(graph, pairing, d_scale)
    # per slot: one count of packed height, and the pairing read at the height
    units = [1 << (bits * k) for k in range(len(labels))]
    shifts = [[(bits * i, db) for i, db in row] for row in pairing]
    slots = [slot[tile.diagonal] for tile in graph.tiles]

    # heights of the states whose last bit is 0 and 1; the empty prefix
    # counts as a 0, which lets tile 1 take either bit
    zero: dict[int, Coeff] = {0: {0: 1}}
    one: dict[int, Coeff] = {}
    fence = zip((True, *graph.fence), slots, constants)
    for rising, run in groupby(fence, itemgetter(0)):
        lifted: dict[int, Coeff] = {}
        # (raised height, step of s, pairing, target) as the raised suffix
        # grows leftwards (rising) or the raised prefix rightwards (falling)
        steps = []
        raised = whole_step = 0
        whole_pairs: list[tuple[int, int]] = []
        for _, k, c in reversed(list(run)) if rising else run:
            pairs = shifts[k]
            paired = 0
            if raised:
                for shift, db in pairs:
                    paired += db * ((raised >> shift) & low)
            raised += units[k]
            step = c - paired if rising else c + paired
            whole_step += step
            whole_pairs += pairs
            steps.append((raised, step, pairs, lifted if rising else zero))
        if rising:
            # a state ending in 1 takes the whole run as one step
            whole = (raised, whole_step, whole_pairs, lifted)
            walks = ((zero, steps), (one, [whole]))
        else:
            # 1^i 0^(r-i) ends in 0 for 0 < i < r and in 1 for i = r
            steps[-1] = (raised, step, pairs, lifted)
            walks = ((one, steps),)
        for states, walk in walks:
            for h, coeff in states.items():
                s = 0
                for height, step, pairs, into in walk:
                    s += step
                    for shift, db in pairs:
                        s += db * ((h >> shift) & low)
                    target = into.setdefault(h + height, {})
                    for e, c in coeff.items():
                        target[e + s] = target.get(e + s, 0) + c
        if not rising:
            # 1^0 0^r: each state ending in 1 passes into ``zero`` as it is
            zero = _merged(chain(zero.items(), one.items()))
        one = lifted

    # every state dict is the transfer's own and sits in one of the two
    states = _merged(chain(zero.items(), one.items()))
    exponents = _exponents(graph, columns, len(btilde), states)
    return _merged((exponents[h], coeff) for h, coeff in states.items())


def commutative_expand(
    t: Triangulation, arc: Arc, btilde: Sequence[Sequence[int]]
) -> QuantumLaurent:
    """Laurent expansion at q = 1: every coefficient sits at s^0.

    ``btilde`` is read as integer rows, such as a :class:`Seed`'s matrix:
    a nonzero entry the expansion reads that is not an ``int`` raises
    :class:`ExpansionError`, and nothing is converted.
    """
    _check_top_block(t, btilde)
    return _value(len(btilde), _transfer(SnakeGraph(t, arc), btilde, 0))


def quantum_expand(t: Triangulation, arc: Arc, seed: Seed) -> QuantumLaurent:
    """Quantum Laurent expansion of an arc in the seed's quantum torus."""
    _check_top_block(t, seed.btilde)
    return _value(seed.m, _transfer(SnakeGraph(t, arc), seed.btilde, seed.d))


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
    by_height = _exponents(
        graph,
        _columns(seed.btilde, graph.crossed_labels),
        seed.m,
        {h for _, _, h in listing},
    )
    values = _valued_masks(graph, seed.d)
    return [(bits, by_height[h], values[mask]) for bits, mask, h in listing]


def matching_records(
    t: Triangulation, arc: Arc, seed: Seed
) -> tuple[MatchingRecord, ...]:
    """One audit row per perfect matching, in bit-string order.

    The rows of :func:`_audit_rows`, each with its matching's edge set from
    :meth:`SnakeGraph.matchings`; the valuation is the exhaustive one of
    :func:`~snakeq.valuation.compute_valuation`, which checks every twist
    from both ends.  The sum of ``X^exponent`` times ``s^valuation`` over
    the rows is :func:`quantum_expand`'s value.
    """
    _check_top_block(t, seed.btilde)
    graph = SnakeGraph(t, arc)
    return tuple(
        MatchingRecord(bits, matching, exponent, value)
        for (bits, exponent, value), matching in zip(
            _audit_rows(graph, seed), graph.matchings()
        )
    )


class OracleRun(namedtuple("OracleRun", "variables seed")):
    """Cluster variables after a flip sequence, plus the final seed.

    ``variables`` is a tuple of :class:`~snakeq.qalgebra.QuantumLaurent`.
    """

    __slots__ = ()


def _ordered_power_product(
    variables: Mapping[int, QuantumLaurent] | Sequence[QuantumLaurent],
    powers: Sequence[int],
    form: LambdaForm,
    last: QuantumLaurent | None = None,
) -> QuantumLaurent:
    """The product of variables[i]^powers[i] in index order, then ``last``.

    An empty product is 1.  Only the variables with a nonzero power are read,
    and each power is taken by squaring (:func:`~snakeq.qalgebra._qsquare`).
    The torus is associative, so adjacent one-term factors, the one-term
    ``last`` among them, are multiplied together first, and a longer value
    meets their product once, not each of them.
    """
    factors: list[QuantumLaurent] = []
    # a zero power is skipped, so every factor below has a bit set
    raised = [(variables[i], powers[i]) for i in compress(range(len(powers)), powers)]
    for var, power in chain(raised, () if last is None else [(last, 1)]):
        factor = None
        while power:
            if power & 1:
                factor = var if factor is None else qmul(factor, var, form)
            power >>= 1
            if power:
                var = _qsquare(var, form)
        if len(factor._terms) == 1 and factors and len(factors[-1]._terms) == 1:
            factor = qmul(factors.pop(), factor, form)
        factors.append(factor)
    out = factors[0] if factors else _value(form.size, {(0,) * form.size: {0: 1}})
    for factor in factors[1:]:
        out = qmul(out, factor, form)
    return out


class _Cluster(dict):
    """The initial cluster: X_i of the quantum torus, built on first lookup."""

    def __init__(self, m: int) -> None:
        self.m = m

    def __missing__(self, i: int) -> QuantumLaurent:
        m = self.m
        x = self[i] = _value(m, {(0,) * i + (1,) + (0,) * (m - i - 1): {0: 1}})
        return x


def _exchange(
    variables: dict[int, QuantumLaurent],
    current: Seed,
    k: int,
    form0: LambdaForm,
    position: int,
    total: int,
    quotient: QuantumLaurent | None = None,
) -> Seed:
    """Exchange ``variables[k]`` in place; return the seed mutated at k.

    x_k' is the exchange binomial divided on the right by x_k in the initial
    quantum torus.  Each of its two ordered power products p, ending in
    x_k^(-1) = ±s^-e·X^-w when x_k is a unit ±s^e·X^w (Λ is skew), is
    normalized with the current skew form by a shift s^σ, σ = -Λ_k·p -
    twist(p), read off row k of Λ with one dot product, and the two are
    merged once.  At a unit that merge is x_k', with no division.  Otherwise
    it is the binomial, and a given ``quotient`` is taken when quotient·x_k
    is the binomial: the torus has no zero divisors, so that holds exactly
    when the division would return it.  Else the binomial is divided, and a
    failed division names flip ``position`` of ``total``.
    """
    if not 0 <= k < current.n:
        raise SeedError(f"flip direction {k} out of range")
    lam, outgoing = current.lam, variables[k]
    # x_k is a unit exactly when it is one term ±s^e·X^w
    ((w, coeff),) = outgoing._terms.items() if len(outgoing) == 1 else [((), {})]
    ((e, sign),) = coeff.items() if len(coeff) == 1 else [(0, 0)]
    unit = sign in (1, -1)
    # a unit's inverse ±s^-e·X^-w (Λ is skew) ends both products
    inverse = _value(current.m, {tuple(map(neg, w)): {-e: sign}}) if unit else None
    pairs: list[tuple[Vector, Coeff]] = []
    column = list(map(itemgetter(k), current.btilde))
    rising = [x if x > 0 else 0 for x in column]
    falling = [-x if x < 0 else 0 for x in column]
    row = lam.rows[k]
    for powers in (rising, falling):
        # σ = Λ(p - e_k, e_k) - twist(p); Λ is skew, so Λ(p - e_k, e_k) = -Λ_k·p
        shift = -_dot(row, powers) - lam.ordered_product_twist(powers)
        product = _ordered_power_product(variables, powers, form0, inverse)
        # new dicts even at σ = 0: the merge adds into them, and a product
        # may be a stored variable or the inverse both products share
        pairs += [
            (v, {s + shift: n for s, n in c.items()})
            for v, c in product._terms.items()
        ]
    merged = _value(current.m, _canonical_terms(pairs))
    if unit:
        quotient = merged
    elif quotient is None or qmul(quotient, outgoing, form0) != merged:
        try:
            quotient = exact_right_divide(merged, outgoing, form0)
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
    variable (a unit by multiplying by its inverse); exactness of that
    division is part of the Laurent phenomenon and any failure raises
    immediately, naming the flip that failed.
    """
    variables, current = _Cluster(seed.m), seed
    for position, k in enumerate(flips, start=1):
        current = _exchange(variables, current, k, seed.lam, position, len(flips))
    return OracleRun(tuple(map(variables.__getitem__, range(seed.m))), current)


class VerifyReport(
    namedtuple("VerifyReport", "ok slot expected actual detail")
):
    """The outcome of :func:`verify_against_oracle`: both values and a verdict.

    ``ok`` is a bool, ``slot`` the compared slot, ``expected`` and
    ``actual`` the expansion and the oracle's variable, and ``detail`` a
    one-line verdict.
    """

    __slots__ = ()


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
    flipped surface still has the mutated matrix on top, reading only the
    rows and triangles that changed (:func:`_flip_matches`, exact by
    induction from the full check at load).  The report compares the
    expansion of ``arc`` against the oracle variable in ``slot``, a mutable
    direction (by default the last flipped one).  When ``slot`` is the last
    flip's direction, an outgoing unit is inverted and the quotient
    compared; any other exchange is checked with one product, the expansion
    times the outgoing variable against the exchange binomial, and divides
    only if they differ.  Either way a mismatch reports the oracle's own
    variable.  Each mutated seed is checked for compatibility over the rows
    its changed rows reach, exact by induction from the full check at load:
    the run-time guard on :func:`~snakeq.seeds.mutate_seed`.
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

    variables = _Cluster(seed.m)
    surface, current, total = t, seed, len(flips)
    for position, k in enumerate(flips, start=1):
        parent, surface = surface, flip(surface, k)
        compared = expansion if position == total and k == slot else None
        rows = current.btilde
        current = _exchange(variables, current, k, seed.lam, position, total, compared)
        if not _flip_matches(parent, surface, rows, current.btilde):
            detail = f"flip at {k} disagrees with matrix mutation"
            zero = QuantumLaurent.zero(seed.m)
            return VerifyReport(False, slot, expansion, zero, detail)
    actual = variables[slot]
    ok = actual == expansion
    detail = "match" if ok else "expansion and oracle variable differ"
    return VerifyReport(ok, slot, expansion, actual, detail)
