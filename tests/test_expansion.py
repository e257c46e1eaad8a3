"""Laurent expansion and mutation-oracle tests.

Commutative goldens are hand-checked small cases; quantum goldens come from
the worked five-tile annulus example; everything else is cross-checked
against the independent mutation oracle or stated as a structural property.
"""

from __future__ import annotations

import random
from collections import Counter
from operator import sub

import pytest

from conftest import (
    FIBONACCI_COUNTS,
    GOLDEN_QUANTUM_TERMS,
    annulus,
    annulus_bridge,
    golden_arc,
    initial_arc,
    ladder_arc,
    ladder_surface,
    oracle_corpus,
    pentagon,
    perturbed_lambda,
    polygon_chords,
    polygon_fan,
    reference_exponents,
    reference_matchings,
    seed_choices,
    sheared_seed,
    square,
    transfer_corpus,
    valuation_corpus,
)
import snakeq.expansion
from snakeq import (
    Arc,
    ExactDivisionError,
    ExpansionError,
    LambdaForm,
    QuantumLaurent,
    Seed,
    SeedError,
    SnakeGraph,
    SurfaceError,
    Triangle,
    Triangulation,
    commutative_expand,
    compute_valuation,
    exact_right_divide,
    flip,
    matching_records,
    mutate_seed,
    oracle_mutate_variables,
    principal_seed,
    quantum_expand,
    signed_adjacency,
    verify_against_oracle,
)
from snakeq.expansion import (
    _columns,
    _exchange,
    _exponents,
    _flip_matches,
    _offset,
    _ordered_power_product,
    _top_block_matches,
    _transfer,
)
from snakeq.qalgebra import qmul


def principal_btilde(t):
    return principal_seed(signed_adjacency(t)).btilde


def exponent_vectors(g, btilde):
    """Reference: the full exponent of every matching, tropically normalized.

    Matched weight minus crossings on top, the bottom block applied to the
    height vector below, shifted by the componentwise minimum over every
    matching of the graph.
    """
    n = g.triangulation.n_internal
    crossing = g.crossing_vector()

    def raw(p):
        weight = g.weight_vector(p)
        height = g.height_vector(p)
        return [weight[i] - crossing[i] for i in range(n)] + [
            sum(row[k] * height[k] for k in range(n)) for row in btilde[n:]
        ]

    raws = {p: raw(p) for p in g.matchings()}
    mins = [min(column) for column in zip(*raws.values())]
    return {
        p: tuple(own[:n]) + tuple(v - low for v, low in zip(own[n:], mins[n:]))
        for p, own in raws.items()
    }


def exponent_vector(g, matching, btilde):
    """Reference: the full exponent of one matching (see exponent_vectors)."""
    return exponent_vectors(g, btilde)[matching]


def q1_terms(value):
    """(exponent, coefficient) pairs in lex-descending order.

    Every coefficient of a commutative expansion must sit at s^0.
    """
    out = []
    for vec, coeff in value.terms_lex_descending():
        assert list(coeff) == [0], (vec, coeff)
        out.append((vec, coeff[0]))
    return out


# ----------------------------------------------------------------------
# commutative expansions, hand-checked

def test_square_diagonal_flip_is_a_binomial():
    t = square()
    terms = commutative_expand(t, Arc((0,), 0, 1), principal_btilde(t))
    assert q1_terms(terms) == [((-1, 1), 1), ((-1, 0), 1)]


def test_pentagon_chord_expansions():
    t = pentagon()
    b = principal_btilde(t)
    expected = {
        (1, 3): [((-1, 1, 1, 0), 1), ((-1, 0, 0, 0), 1)],
        (1, 4): [
            ((0, -1, 0, 0), 1),
            ((-1, 0, 1, 1), 1),
            ((-1, -1, 0, 1), 1),
        ],
        (2, 4): [((1, -1, 0, 0), 1), ((0, -1, 0, 1), 1)],
    }
    for pair, arc, _ in polygon_chords(2):
        assert q1_terms(commutative_expand(t, arc, b)) == expected[pair]


def test_initial_arc_expands_to_one_monomial():
    for t in (pentagon(), annulus()):
        b = principal_btilde(t)
        for i in range(t.n_internal):
            unit = tuple(
                1 if j == i else 0 for j in range(2 * t.n_internal)
            )
            value = commutative_expand(t, initial_arc(i), b)
            assert q1_terms(value) == [(unit, 1)]
            seed = principal_seed(signed_adjacency(t))
            exp = quantum_expand(t, initial_arc(i), seed)
            assert exp == QuantumLaurent.monomial(unit)
            records = matching_records(t, initial_arc(i), seed)
            assert [r.valuation for r in records] == [0]


def test_golden_commutative_string():
    t = annulus()
    terms = commutative_expand(t, golden_arc(), principal_btilde(t))
    assert terms.to_string("x") == (
        "x^(1,-2,0,0) + 2·x^(-1,0,1,1) + 2·x^(-1,-2,0,1) + x^(-3,4,3,2)"
        " + 3·x^(-3,2,2,2) + 3·x^(-3,0,1,2) + x^(-3,-2,0,2)"
    )
    assert sorted(c for _, c in q1_terms(terms)) == [1, 1, 1, 2, 2, 3, 3]


def test_ladder_expansions_are_multiplicity_free():
    for d, count in FIBONACCI_COUNTS.items():
        if d > 6:
            continue
        t = ladder_surface(d)
        terms = commutative_expand(t, ladder_arc(d), principal_btilde(t))
        assert len(terms) == count
        assert all(c == 1 for _, c in q1_terms(terms))


def test_coefficient_free_ladders_add_matchings_of_equal_exponent():
    # with Btilde = B and m = n no coefficient row tells heights apart, and
    # an odd ladder's B is singular, so no quantization exists; matchings of
    # distinct heights that share an exponent add up
    for d in (3, 5, 7):
        t = ladder_surface(d)
        g = SnakeGraph(t, ladder_arc(d))
        crossing = g.crossing_vector()
        matchings = reference_matchings(g)
        counts = Counter(
            tuple(map(sub, g.weight_vector(p), crossing)) for p in matchings
        )
        assert len(matchings) == FIBONACCI_COUNTS[d]
        assert len({g.height_vector(p) for p in matchings}) == len(matchings)
        value = commutative_expand(t, ladder_arc(d), signed_adjacency(t))
        assert value.width == d
        assert q1_terms(value) == sorted(counts.items(), reverse=True), d
        assert len(value) < len(matchings), d
    t = ladder_surface(3)
    assert commutative_expand(t, ladder_arc(3), signed_adjacency(t)).to_string(
        "x"
    ) == "x^(0,-1,0) + x^(-1,1,-1) + 2·x^(-1,0,-1) + x^(-1,-1,-1)"


# ----------------------------------------------------------------------
# quantum expansion goldens and audit records

def test_golden_quantum_terms():
    t = annulus()
    exp = quantum_expand(t, golden_arc(), principal_seed(signed_adjacency(t)))
    assert {vec: dict(c) for vec, c in exp.items()} == GOLDEN_QUANTUM_TERMS


def test_golden_records_are_the_matchings():
    t = annulus()
    seed = principal_seed(signed_adjacency(t))
    exp = quantum_expand(t, golden_arc(), seed)
    records = matching_records(t, golden_arc(), seed)
    g = SnakeGraph(t, golden_arc())
    assert len(records) == len(g.matchings()) == 13
    assert len({r.bits for r in records}) == 13
    values = compute_valuation(g, seed.d)
    total = QuantumLaurent.zero(seed.m)
    for record in records:
        assert record.valuation == values[record.matching]
        assert record.exponent == exponent_vector(g, record.matching, seed.btilde)
        total = total + QuantumLaurent.monomial(record.exponent, record.valuation)
    assert total == exp


def test_specializing_q_recovers_the_commutative_expansion():
    for name, t, arc in valuation_corpus():
        seed = principal_seed(signed_adjacency(t))
        terms = commutative_expand(t, arc, seed.btilde)
        exp = quantum_expand(t, arc, seed)
        assert exp.specialize_q1() == dict(q1_terms(terms)), name


def test_quantum_expansion_is_the_sum_of_its_matching_monomials():
    # reference: one monomial per enumerated matching, merged by the
    # constructor, with its enumerated exponent and its valuation from the
    # exhaustive twist search; the sheared seed's exponents need the
    # tropical minimum, and each record's exponent must be the reference's,
    # since the records and the transfer share one exponent routine
    for name, t, arc in transfer_corpus():
        for seed in (*seed_choices(t), sheared_seed(t)):
            exp = quantum_expand(t, arc, seed)
            records = matching_records(t, arc, seed)
            total = QuantumLaurent(
                seed.m, [(r.exponent, {r.valuation: 1}) for r in records]
            )
            assert exp == total, name
            assert exp.width == seed.m
            reference = exponent_vectors(SnakeGraph(t, arc), seed.btilde)
            for record in records:
                assert record.exponent == reference[record.matching], name
            counts: dict = {}
            for record in records:
                counts[record.exponent] = counts.get(record.exponent, 0) + 1
            assert q1_terms(commutative_expand(t, arc, seed.btilde)) == [
                (vec, counts[vec]) for vec in sorted(counts, reverse=True)
            ], name


def test_an_arc_and_its_reverse_have_one_expansion():
    # the reversed walk numbers the tiles from the other end, so the fence
    # and the tile order of the valuation are read backwards; the cluster
    # variable must not change
    for name, t, arc in transfer_corpus():
        if not arc.crossings:
            continue
        start, end = arc.start_triangle, arc.end_triangle
        back = Arc(tuple(reversed(arc.crossings)), end, start)
        for seed in (*seed_choices(t), sheared_seed(t)):
            assert quantum_expand(t, back, seed) == quantum_expand(t, arc, seed), name
            assert commutative_expand(t, back, seed.btilde) == commutative_expand(
                t, arc, seed.btilde
            ), name


def test_the_exponent_walk_matches_the_per_height_reference():
    # _exponents walks the packed heights in sorted order and updates only
    # the slots that change; the reference adds every count of every height
    # to g, anew for each height.  The sheared seed needs the tropical
    # minimum, and an odd ladder's coefficient-free seed gives two heights
    # one exponent
    cases = [
        (name, SnakeGraph(t, arc), seed.btilde)
        for name, t, arc in transfer_corpus()
        for seed in (principal_seed(signed_adjacency(t)), sheared_seed(t))
    ]
    for d in (3, 5, 7):
        t = ladder_surface(d)
        name = f"coefficient-free ladder {d}"
        cases.append((name, SnakeGraph(t, ladder_arc(d)), signed_adjacency(t)))
    shared = []
    for name, g, btilde in cases:
        heights = sorted({h for _, _, h in g._listed()})
        labels = g.crossed_labels
        walked = _exponents(g, _columns(btilde, labels), len(btilde), heights)
        reference = reference_exponents(
            _offset(g, len(btilde)),
            btilde,
            labels,
            map(g._unpack_height, heights),
        )
        assert [walked[h] for h in heights] == reference, name
        if len(set(reference)) < len(reference):
            shared.append(name)
    assert shared == [f"coefficient-free ladder {d}" for d in (3, 5, 7)]


def test_every_transfer_count_is_a_positive_int():
    # positivity, which the paper proves combinatorially: every coefficient
    # of the expansion counts perfect matchings of the snake graph, so no sum
    # of the transfer cancels.  Every count it returns is a positive int, no
    # coefficient is empty, and the counts add up to the matchings: this is
    # why its merge scans for no zero.  Coefficient-free ladders, whose
    # heights share exponents, merge states under one exponent
    cases = []
    for name, t, arc in transfer_corpus():
        seeds = (*seed_choices(t), sheared_seed(t))
        runs = [(s.btilde, s.d) for s in seeds] + [
            (s.btilde, 0) for s in (seeds[0], seeds[-1])
        ]
        cases.append((name, SnakeGraph(t, arc), runs))
    for d in (3, 5, 7):
        t = ladder_surface(d)
        b, graph = signed_adjacency(t), SnakeGraph(t, ladder_arc(d))
        cases.append((f"coefficient-free ladder {d}", graph, [(b, 1), (b, 0)]))
    for name, g, runs in cases:
        matchings = len(g._listed())
        for btilde, d_scale in runs:
            terms = _transfer(g, btilde, d_scale)
            counts = [n for coeff in terms.values() for n in coeff.values()]
            assert all(terms.values()), name
            assert all(type(n) is int and n > 0 for n in counts), name
            assert sum(counts) == matchings, name


@pytest.mark.parametrize(
    "arc",
    [Arc((0.0, 1.0, 0.0, 1.0, 0.0), 0, 1), Arc((0, 1, 0.5), 0, 1)],
    ids=["float-crossings", "half-crossing"],
)
def test_an_arc_of_floats_is_an_input_error(arc):
    # the public Arc record converts nothing, so the trace refuses a value
    # that is not an int before any expansion reads it
    t = annulus()
    seed = sheared_seed(t)
    for expand in (
        lambda: quantum_expand(t, arc, seed),
        lambda: commutative_expand(t, arc, seed.btilde),
        lambda: matching_records(t, arc, seed),
    ):
        with pytest.raises(SurfaceError, match="^arc description: each crossing"):
            expand()


def test_expansions_never_enumerate_matchings(monkeypatch):
    def refuse(graph):
        raise AssertionError("the expansion enumerated the matchings")

    monkeypatch.setattr(SnakeGraph, "matchings", refuse)
    for name, t, arc in valuation_corpus():
        seed = principal_seed(signed_adjacency(t))
        quantum_expand(t, arc, seed)
        commutative_expand(t, arc, seed.btilde)
    for name, t, arc, plan in oracle_corpus()[:3]:
        assert verify_against_oracle(t, seed_choices(t)[2], plan, arc).ok, name


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_bridges_past_enumeration_expand_under_every_quantization():
    # about 6·10^7 and 1.7·10^8 matchings, out of reach for enumeration
    t = annulus()
    for w in (20, -20):
        arc, _ = annulus_bridge(w)
        for seed in seed_choices(t):
            value = quantum_expand(t, arc, seed)
            total = sum(value.specialize_q1().values())
            assert total == fibonacci(len(arc.crossings) + 2), (w, seed.d)
            for vec, coeff in value.items():
                for s, c in coeff.items():
                    assert c > 0, (w, vec)
                    assert coeff.get(-s) == c, (w, vec)


def test_quantum_coefficients_are_positive_and_bar_symmetric():
    for name, t, arc in valuation_corpus():
        seed = principal_seed(signed_adjacency(t))
        exp = quantum_expand(t, arc, seed)
        for vec, coeff in exp.items():
            for s, c in coeff.items():
                assert c > 0, (name, vec)
                assert coeff.get(-s) == c, (name, vec)


# ----------------------------------------------------------------------
# input validation

def test_wrong_top_block_is_rejected():
    t = square()
    arc = Arc((0,), 0, 1)
    with pytest.raises(ExpansionError, match="signed adjacency"):
        commutative_expand(t, arc, [[1], [1]])
    with pytest.raises(ExpansionError, match="columns"):
        commutative_expand(t, arc, [[0, 0]])
    with pytest.raises(ExpansionError, match="fewer rows"):
        commutative_expand(pentagon(), polygon_chords(2)[0][1], [[0, -1]])
    # a ragged extended matrix is named by its first short or long row
    with pytest.raises(ExpansionError, match="row 2 .* has length 1, expected 2"):
        commutative_expand(annulus(), golden_arc(), [[0, -2], [2, 0], [1]])
    with pytest.raises(ExpansionError, match="row 2 .* has length 3, expected 2"):
        commutative_expand(annulus(), golden_arc(), [[0, -2], [2, 0], [1, 0, 5]])
    # the row lengths are counted at once; a failed count walks the rows
    with pytest.raises(ExpansionError) as info:
        commutative_expand(annulus(), golden_arc(), [[0, -2], [2, 0], [1], [0, 1, 5]])
    assert str(info.value) == "row 2 of the extended matrix has length 1, expected 2"


@pytest.mark.parametrize(
    "row, column, entry, later",
    [
        (2, 0, 1.0, ()),
        (3, 1, 1.5, ()),
        (2, 0, True, ()),
        (0, 1, -2.0, ()),
        # (3, 0) comes first by columns, (2, 1) by rows
        (2, 1, 0.5, ((3, 0, 2.5),)),
    ],
    ids=[
        "integral-float-below",
        "float-below",
        "bool-below",
        "float-on-top",
        "first-in-row-order",
    ],
)
def test_non_integer_matrix_entries_are_named(row, column, entry, later):
    # -2.0 on top equals the signed adjacency, so only the column read,
    # which reads every nonzero entry at a crossed column, can reject it
    t = annulus()
    rows = [list(r) for r in principal_btilde(t)]
    for i, j, value in ((row, column, entry), *later):
        rows[i][j] = value
    with pytest.raises(
        ExpansionError,
        match=rf"entry \({row}, {column}\) is {entry!r}, not an integer",
    ):
        commutative_expand(t, golden_arc(), rows)


# ----------------------------------------------------------------------
# mutation oracle

def test_oracle_with_no_flips_returns_the_initial_torus():
    seed = principal_seed(signed_adjacency(pentagon()))
    run = oracle_mutate_variables(seed, [])
    assert run.seed == seed
    for i, var in enumerate(run.variables):
        unit = tuple(1 if j == i else 0 for j in range(seed.m))
        assert var == QuantumLaurent.monomial(unit)


def test_oracle_initial_variables_are_the_public_monomials():
    seed = principal_seed(signed_adjacency(annulus()))
    run = oracle_mutate_variables(seed, [])
    assert run.variables == tuple(
        QuantumLaurent.monomial([int(i == j) for j in range(seed.m)])
        for i in range(seed.m)
    )


def left_to_right_product(variables, powers, form):
    """The ordered product by one multiplication per factor, as a reference."""
    expected = QuantumLaurent.one(form.size)
    for var, power in zip(variables, powers):
        for _ in range(power):
            expected = qmul(expected, var, form)
    return expected


def test_ordered_power_products_equal_the_left_to_right_product():
    t = annulus()
    seed = seed_choices(t)[2]
    arc, plan = annulus_bridge(3)
    variables = oracle_mutate_variables(seed, plan).variables
    for powers in ((0, 0, 0, 0), (1, 0, 2, 0), (2, 3, 0, 1), (3, 1, 1, 3)):
        expected = left_to_right_product(variables, powers, seed.lam)
        assert _ordered_power_product(variables, powers, seed.lam) == expected

    # long factors before, between and after runs of one-term factors, some
    # raised above 1; the one-term runs are multiplied out first
    t = ladder_surface(4)
    seed = seed_choices(t)[1]
    run = oracle_mutate_variables(seed, [0, 1, 2, 3])
    longs = [var for var in run.variables if len(var) > 1][:3]
    assert [len(var) for var in longs] == [2, 3, 5]
    m = seed.m
    rng = random.Random(29)

    def one_term():
        exponent = [rng.randint(-2, 2) for _ in range(m)]
        s_exp, coefficient = rng.randint(-3, 3), rng.choice((1, -2))
        return QuantumLaurent.monomial(exponent, s_exp, coefficient)

    layouts = [
        "LoooLooLoL",
        "ooLoooLLoo",
        "oooooooooL",
        "Looooooooo",
        "oLoLoLoLoL",
    ]
    for layout in layouts:
        for _ in range(3):
            variables = [rng.choice(longs) if c == "L" else one_term() for c in layout]
            # a long factor is raised to at most 2, a one-term one to at most 3
            powers = [
                rng.randint(1, 2) if c == "L" else rng.randint(0, 3) for c in layout
            ]
            expected = left_to_right_product(variables, powers, seed.lam)
            assert _ordered_power_product(variables, powers, seed.lam) == expected


def kernel_seed(rng, t):
    """The principal seed with its form scaled and perturbed in the kernel.

    As in the benchmark's quantization: d·Λ for d in {1, 2}, plus one to
    three terms c·(w_a w_b^T - w_b w_a^T) with w_a = (e_a, B e_a) and c in
    {±1, ±2}, which keep the pair compatible with the scalar d.
    """
    b = signed_adjacency(t)
    n = len(b)
    base = principal_seed(b)
    d = rng.choice((1, 2))
    rows = [[d * v for v in row] for row in base.lam.rows]
    for _ in range(rng.randint(1, 3)):
        a, c = rng.sample(range(n), 2)
        scale = rng.choice((-2, -1, 1, 2))
        wa = [int(i == a) for i in range(n)] + [b[i][a] for i in range(n)]
        wc = [int(i == c) for i in range(n)] + [b[i][c] for i in range(n)]
        rows = [
            [x + scale * (wa[u] * wc[v] - wc[u] * wa[v]) for v, x in enumerate(row)]
            for u, row in enumerate(rows)
        ]
    return Seed(base.btilde, LambdaForm(rows))


def initial_cluster(m):
    return [QuantumLaurent.monomial([int(i == j) for j in range(m)]) for i in range(m)]


def dividing_oracle(seed, flips, variables=None):
    """The oracle's variables, with the binomial divided at every step."""
    m = seed.m
    variables = list(variables or initial_cluster(m))
    current = seed
    for k in flips:
        lam = current.lam
        column = [row[k] for row in current.btilde]
        binomial = QuantumLaurent.zero(m)
        for powers in ([max(x, 0) for x in column], [max(-x, 0) for x in column]):
            target = list(powers)
            target[k] -= 1
            shift = -lam.pair(target)[k] - lam.ordered_product_twist(powers)
            product = left_to_right_product(variables, powers, seed.lam)
            binomial = binomial + product.scaled(shift)
        variables[k] = exact_right_divide(binomial, variables[k], seed.lam)
        current = mutate_seed(current, k)
    return tuple(variables)


def test_inverting_units_gives_the_dividing_oracles_variables():
    rng = random.Random(30)
    scales = Counter()
    for t in (polygon_fan(4), ladder_surface(5), annulus()):
        seeds = [principal_seed(signed_adjacency(t))]
        seeds += [kernel_seed(rng, t) for _ in range(3)]
        for seed in seeds:
            scales[seed.d] += 1
            for _ in range(6):
                plan = [rng.randrange(t.n_internal) for _ in range(rng.randint(1, 7))]
                run = oracle_mutate_variables(seed, plan)
                assert run.variables == dividing_oracle(seed, plan), plan
    assert scales[1] > 3 and scales[2] > 0


def test_a_unit_with_a_sign_and_a_power_of_s_is_inverted():
    t = ladder_surface(4)
    seed = kernel_seed(random.Random(7), t)
    for k in range(t.n_internal):
        for s_exp, sign in ((3, -1), (-2, 1)):
            start = initial_cluster(seed.m)
            start[k] = start[k].scaled(s_exp, sign)
            variables = list(start)
            _exchange(variables, seed, k, seed.lam, 1, 1)
            assert variables == list(dividing_oracle(seed, [k], start))
        # 2·X_k is one term but no unit, so the binomial is divided, and the
        # division fails on the binomial's odd coefficients
        start[k] = initial_cluster(seed.m)[k].scaled(coefficient=2)
        with pytest.raises(ExactDivisionError, match=f"flip 1 of 1 .direction {k}."):
            _exchange(start, seed, k, seed.lam, 1, 1)


def test_a_long_factor_meets_each_one_term_run_once(monkeypatch):
    # on a ladder plan a step's product is one long variable followed by up to
    # three frozen or unexchanged monomials and the outgoing variable's
    # inverse: one product takes the long value
    products = []
    ordered = snakeq.expansion._ordered_power_product
    multiply = snakeq.expansion.qmul

    def recorded(variables, powers, form, last=None):
        sizes = [len(variables[i]) for i, power in enumerate(powers) if power]
        if last is not None:
            sizes.append(len(last))
        products.append((sizes, []))
        return ordered(variables, powers, form, last)

    def counted(a, b, form):
        products[-1][1].append((len(a), len(b)))
        return multiply(a, b, form)

    monkeypatch.setattr(snakeq.expansion, "_ordered_power_product", recorded)
    monkeypatch.setattr(snakeq.expansion, "qmul", counted)
    t = ladder_surface(10)
    oracle_mutate_variables(seed_choices(t)[0], list(range(10)))
    assert len(products) == 2 * 10
    grouped = ungrouped = 0
    for sizes, calls in products:
        long = [size for size in sizes if size > 1]
        assert len(long) <= 1
        taking_long = [pair for pair in calls if max(pair) > 1]
        if long and len(sizes) > 1:
            assert taking_long == [(long[0], 1)], (sizes, calls)
            grouped += 1
            ungrouped += len(sizes) - 1
        else:
            assert taking_long == []
    # every step inverts a unit, so each product ends in a one-term factor:
    # 17 products take the long value once each, where one multiplication
    # per one-term factor would take it 37 times
    assert (grouped, ungrouped) == (17, 37)


def counting(monkeypatch, name):
    """Count the calls of one of the oracle's module-global helpers."""
    calls = []
    original = getattr(snakeq.expansion, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(snakeq.expansion, name, counted)
    return calls


def exchanged_again(plan):
    """The flips before the last whose outgoing variable was exchanged before."""
    return sum(k in plan[:i] for i, k in enumerate(plan[:-1]))


def test_a_passing_verify_checks_its_last_exchange_by_one_product(monkeypatch):
    # a unit is inverted, and the last exchange is checked, not divided, so
    # only a step by an exchanged variable before the last one divides
    divisions = counting(monkeypatch, "exact_right_divide")
    mutations = counting(monkeypatch, "mutate_seed")
    for name, t, arc, plan in oracle_corpus():
        divisions.clear()
        mutations.clear()
        seed = principal_seed(signed_adjacency(t))
        assert verify_against_oracle(t, seed, plan, arc).ok, name
        assert len(divisions) == exchanged_again(plan), name
        assert len(mutations) == len(plan), name


def test_a_verify_divides_only_by_exchanged_variables(monkeypatch):
    divisions = counting(monkeypatch, "exact_right_divide")
    t = ladder_surface(10)
    seed = seed_choices(t)[2]
    assert verify_against_oracle(t, seed, list(range(10)), ladder_arc(10)).ok
    fan = polygon_fan(12)
    _, arc, plan = next(c for c in polygon_chords(12) if c[0] == (1, 14))
    assert len(plan) == 12
    assert verify_against_oracle(fan, seed_choices(fan)[1], plan, arc).ok
    assert divisions == []
    for w in (5, 6, -4, -5):
        arc, plan = annulus_bridge(w)
        for seed in seed_choices(annulus()):
            divisions.clear()
            assert verify_against_oracle(annulus(), seed, plan, arc).ok
            # the bridge plan alternates 0 and 1: flips 3 to len - 1 divide
            assert len(divisions) == exchanged_again(plan) == len(plan) - 3


def test_a_mismatch_reports_the_oracles_own_variable():
    t = pentagon()
    seed = principal_seed(signed_adjacency(t))
    (_, other, _), (_, arc, plan) = polygon_chords(2)[:2]
    # two flips; the wrong arcs fail the product check, slot 0 is not final
    for wrong_arc, slot in ((other, None), (initial_arc(1), 1), (arc, 0)):
        report = verify_against_oracle(t, seed, plan, wrong_arc, slot)
        assert not report.ok
        run = oracle_mutate_variables(seed, plan)
        assert report.actual == run.variables[report.slot]


def test_oracle_rejects_out_of_range_directions():
    seed = principal_seed(signed_adjacency(pentagon()))
    with pytest.raises(SeedError, match="out of range"):
        oracle_mutate_variables(seed, [7])
    with pytest.raises(SeedError, match="out of range"):
        oracle_mutate_variables(seed, [0, -1])


def test_verify_requires_a_slot_when_nothing_is_flipped():
    t = pentagon()
    seed = principal_seed(signed_adjacency(t))
    with pytest.raises(ExpansionError, match="slot"):
        verify_against_oracle(t, seed, [], initial_arc(0))


def test_verify_initial_arcs_with_zero_flips(monkeypatch):
    divisions = counting(monkeypatch, "exact_right_divide")
    mutations = counting(monkeypatch, "mutate_seed")
    t = pentagon()
    seed = principal_seed(signed_adjacency(t))
    for i in range(t.n_internal):
        report = verify_against_oracle(t, seed, [], initial_arc(i), slot=i)
        assert report.ok
        assert report.slot == i
        assert report.expected == report.actual
    assert divisions == []
    assert mutations == []


def test_a_verify_checks_its_loaded_inputs_once_and_no_flip_again(monkeypatch):
    # each flip derives its surface and form from the last one; rebuilding
    # either would cost O(m^2) per flip on this width-120 seed
    fan = polygon_fan(60)
    b = signed_adjacency(fan)
    seed = Seed(principal_seed(b).btilde, perturbed_lambda(b))
    _, arc, plan = next(c for c in polygon_chords(60) if c[0] == (1, 5))
    assert plan == [0, 1, 2]
    calls = Counter()
    for cls, name in ((Triangulation, "_validate"), (LambdaForm, "_set_rows")):

        def counted(self, *args, original=getattr(cls, name), name=name):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    compatible = snakeq.seeds.check_compatible
    mutate_lambda = snakeq.seeds.mutate_Lambda
    mutated_d = snakeq.seeds._mutated_d
    pair = LambdaForm.pair
    paired = []

    def counted_check(*args):
        calls["check_compatible"] += 1
        return compatible(*args)

    def counted_mutate_lambda(*args):
        calls["mutate_Lambda"] += 1
        return mutate_lambda(*args)

    def counted_pair(self, v):
        calls["pair"] += 1
        return pair(self, v)

    def counted_mutated_d(*args):
        before = calls["pair"]
        d = mutated_d(*args)
        paired.append(calls["pair"] - before)
        return d

    # the full compatibility check runs once, at load; each flip pairs only
    # the rows of the product that its changed rows reach, 3-5 of the 60,
    # and mutates the form through mutate_Lambda, the one path for it
    monkeypatch.setattr(snakeq.seeds, "check_compatible", counted_check)
    monkeypatch.setattr(snakeq.seeds, "mutate_Lambda", counted_mutate_lambda)
    monkeypatch.setattr(snakeq.seeds, "_mutated_d", counted_mutated_d)
    monkeypatch.setattr(LambdaForm, "pair", counted_pair)
    surface = Triangulation.from_dict(fan.to_dict())
    loaded = Seed.from_dict(seed.to_dict())
    assert verify_against_oracle(surface, loaded, plan, arc).ok
    del calls["pair"]
    assert calls == {
        "_validate": 1,
        "_set_rows": 1,
        "check_compatible": 1,
        "mutate_Lambda": 3,
    }
    assert paired == [3, 4, 5]


def test_a_verify_builds_only_the_initial_variables_it_touches(monkeypatch):
    # the oracle reads X_i only where an exchange column is nonzero, at the
    # flipped slots and at the compared one: a few of the 120 on the fan seed
    fan = polygon_fan(60)
    b = signed_adjacency(fan)
    seed = Seed(principal_seed(b).btilde, perturbed_lambda(b))
    _, arc, plan = next(c for c in polygon_chords(60) if c[0] == (1, 5))
    built = []
    missing = snakeq.expansion._Cluster.__missing__

    def counted(cluster, i):
        built.append(i)
        return missing(cluster, i)

    monkeypatch.setattr(snakeq.expansion._Cluster, "__missing__", counted)
    assert verify_against_oracle(fan, seed, plan, arc).ok
    touched = set()
    current = seed
    for k in plan:
        touched |= {k} | {i for i, row in enumerate(current.btilde) if row[k]}
        current = mutate_seed(current, k)
    assert sorted(built) == sorted(touched)
    assert len(built) == 7


def test_a_flip_that_disagrees_with_matrix_mutation_is_reported(monkeypatch):
    # a surface that ignores its flips no longer matches the mutated matrix
    monkeypatch.setattr(snakeq.expansion, "flip", lambda surface, k: surface)
    t = pentagon()
    seed = principal_seed(signed_adjacency(t))
    (_, arc, plan) = polygon_chords(2)[0]
    report = verify_against_oracle(t, seed, plan, arc)
    assert not report.ok
    assert report.detail == f"flip at {plan[0]} disagrees with matrix mutation"
    assert report.expected == quantum_expand(t, arc, seed)
    assert report.actual == QuantumLaurent.zero(seed.m)


def with_triangles(t, triangles):
    """``t`` with its triangle list replaced, unchecked, as a flip builds it."""
    out = object.__new__(Triangulation)
    out.n_internal, out.n_boundary = t.n_internal, t.n_boundary
    out.triangles = tuple(triangles)
    out._incidence = t._incidence
    return out


def with_entry(rows, i, j, change):
    """``rows`` with ``change`` added to entry (i, j): row i is a new tuple."""
    row = list(rows[i])
    row[j] += change
    return (*rows[:i], tuple(row), *rows[i + 1 :])


def test_the_changed_rows_check_gives_the_full_checks_verdict():
    # seeded random flips; every flipped surface and mutated matrix, intact
    # and corrupted, gets the same verdict from the check over what the flip
    # and the mutation changed as from the full rebuild
    rng = random.Random(29)
    verdicts = Counter()
    for t in (polygon_fan(7), annulus(), ladder_surface(6)):
        n = t.n_internal
        seed = principal_seed(signed_adjacency(t))
        surface, rows = t, seed.btilde
        for _ in range(12):
            k = rng.randrange(n)
            try:
                child = flip(surface, k)
            except SurfaceError:
                continue
            seed = mutate_seed(seed, k)
            mutated = seed.btilde
            triangles = child.triangles
            near = [k] + [j for j in range(n) if mutated[k][j]]
            far = [j for j in range(n) if j not in near]
            cases = {"intact": (child, mutated)}
            i, j = rng.choice(near), rng.choice(near)
            changed = with_entry(mutated, i, j, rng.choice((-1, 1)))
            cases["near entry"] = (child, changed)
            if far:
                i, j = rng.choice(far), rng.randrange(n)
                cases["far entry"] = (child, with_entry(mutated, i, j, 1))
            # the triangles the flip kept are the parent's own objects
            kept = [p for p, tri in enumerate(triangles) if tri is surface.triangles[p]]
            if kept:
                p = rng.choice(kept)
                swapped = list(triangles)
                swapped[p] = Triangle(triangles[p].sides[::-1])
                reversed_far = with_triangles(child, swapped)
                cases["far triangle reversed"] = (reversed_far, mutated)
            cases["triangle dropped"] = (with_triangles(child, triangles[:-1]), mutated)
            extra = Triangle(rng.choice(triangles).sides)
            added = with_triangles(child, (*triangles, extra))
            cases["triangle added"] = (added, mutated)
            for name, (corrupt, matrix) in cases.items():
                full = _top_block_matches(corrupt, matrix)
                assert _flip_matches(surface, corrupt, rows, matrix) == full, name
                verdicts[name, full] += 1
            surface, rows = child, mutated
    # a changed entry always fails; a changed triangle fails unless it has at
    # most one internal side, and both verdicts occur
    assert verdicts["intact", False] == 0 < verdicts["intact", True]
    for name in ("near entry", "far entry"):
        assert verdicts[name, True] == 0 < verdicts[name, False]
    for name in ("far triangle reversed", "triangle dropped", "triangle added"):
        assert verdicts[name, True] > 0 < verdicts[name, False]


def test_a_failed_oracle_division_names_its_flip(monkeypatch):
    divide = snakeq.expansion.exact_right_divide
    calls = []

    def fail_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ExactDivisionError("no exact quotient: injected")
        return divide(*args)

    monkeypatch.setattr(snakeq.expansion, "exact_right_divide", fail_second)
    seed = principal_seed(signed_adjacency(pentagon()))
    # flips 1 and 2 invert initial variables, so the second division is flip 4
    with pytest.raises(ExactDivisionError) as caught:
        oracle_mutate_variables(seed, [0, 1, 0, 1, 0])
    assert str(caught.value) == (
        "flip 4 of 5 (direction 1): no exact quotient: injected"
    )


def test_verify_reports_a_wrong_slot_as_a_mismatch():
    t = pentagon()
    seed = principal_seed(signed_adjacency(t))
    _, arc, plan = polygon_chords(2)[0]
    report = verify_against_oracle(t, seed, plan, arc, slot=1)
    assert not report.ok
    assert report.detail == "expansion and oracle variable differ"
    assert report.expected != report.actual


def test_verify_oracle_corpus_under_three_quantizations():
    for name, t, arc, plan in oracle_corpus():
        for seed in seed_choices(t):
            report = verify_against_oracle(t, seed, plan, arc)
            assert report.ok, (name, report.detail)


def test_verify_oracle_corpus_with_a_sheared_coefficient_block():
    for name, t, arc, plan in oracle_corpus():
        report = verify_against_oracle(t, sheared_seed(t), plan, arc)
        assert report.ok, (name, report.detail)


def test_verify_rank_two_oracle_corpus_with_no_coefficients():
    # Btilde = B: no frozen rows, so the exponents have nothing to normalize.
    # Lambda = [[0, -1], [1, 0]] and its double give d = 1, 2 on the pentagon
    # and d = 2, 4 on the annulus
    scalars = Counter()
    for name, t, arc, plan in oracle_corpus():
        b = signed_adjacency(t)
        if len(b) != 2:
            continue
        for k in (1, 2):
            seed = Seed(b, LambdaForm([[0, -k], [k, 0]]))
            report = verify_against_oracle(t, seed, plan, arc)
            assert report.ok, (name, k, report.detail)
            scalars[name.split()[0], seed.d] += 1
    assert scalars == {
        ("pentagon", 1): 3,
        ("pentagon", 2): 3,
        ("annulus", 2): 6,
        ("annulus", 4): 6,
    }


def test_pentagon_flip_cycle_swaps_the_first_two_variables():
    # five flips around the pentagon exchange the two initial variables
    t = pentagon()
    seed = principal_seed(signed_adjacency(t))
    run = oracle_mutate_variables(seed, [0, 1, 0, 1, 0])
    e0 = (1, 0, 0, 0)
    e1 = (0, 1, 0, 0)
    assert run.variables[0] == QuantumLaurent.monomial(e1)
    assert run.variables[1] == QuantumLaurent.monomial(e0)
    report = verify_against_oracle(t, seed, [0, 1, 0, 1, 0], initial_arc(1), slot=0)
    assert report.ok
    report = verify_against_oracle(t, seed, [0, 1, 0, 1, 0], initial_arc(0), slot=1)
    assert report.ok


def test_oracle_variables_stay_bar_symmetric_positive():
    t = annulus()
    seed = principal_seed(signed_adjacency(t))
    arc, plan = annulus_bridge(4)
    run = oracle_mutate_variables(seed, plan)
    for var in run.variables:
        for vec, coeff in var.items():
            for s, c in coeff.items():
                assert c > 0
                assert coeff.get(-s) == c


def test_deep_annulus_bridge_against_the_oracle():
    t = annulus()
    seed = principal_seed(signed_adjacency(t))
    for w in (5, -4):
        arc, plan = annulus_bridge(w)
        report = verify_against_oracle(t, seed, plan, arc)
        assert report.ok, report.detail
