"""Laurent expansion and mutation-oracle tests.

Commutative goldens are hand-checked small cases; quantum goldens come from
the worked five-tile annulus example; everything else is cross-checked
against the independent mutation oracle or stated as a structural property.
"""

from __future__ import annotations

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
    polygon_chords,
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
    commutative_expand,
    compute_valuation,
    matching_records,
    oracle_mutate_variables,
    principal_seed,
    quantum_expand,
    signed_adjacency,
    verify_against_oracle,
)
from snakeq.expansion import _columns, _exponents, _offset, _ordered_power_product
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


def test_ordered_power_products_equal_the_left_to_right_product():
    t = annulus()
    seed = seed_choices(t)[2]
    arc, plan = annulus_bridge(3)
    variables = oracle_mutate_variables(seed, plan).variables
    for powers in ((0, 0, 0, 0), (1, 0, 2, 0), (2, 3, 0, 1), (3, 1, 1, 3)):
        expected = QuantumLaurent.one(seed.m)
        for var, power in zip(variables, powers):
            for _ in range(power):
                expected = qmul(expected, var, seed.lam)
        assert _ordered_power_product(variables, powers, seed.lam) == expected


def counting(monkeypatch, name):
    """Count the calls of one of the oracle's module-global helpers."""
    calls = []
    original = getattr(snakeq.expansion, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(snakeq.expansion, name, counted)
    return calls


def test_a_passing_verify_checks_its_last_exchange_by_one_product(monkeypatch):
    divisions = counting(monkeypatch, "exact_right_divide")
    mutations = counting(monkeypatch, "mutate_seed")
    for name, t, arc, plan in oracle_corpus():
        divisions.clear()
        mutations.clear()
        seed = principal_seed(signed_adjacency(t))
        assert verify_against_oracle(t, seed, plan, arc).ok, name
        assert len(divisions) == len(plan) - 1, name
        assert len(mutations) == len(plan), name


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
    with pytest.raises(ExactDivisionError) as caught:
        oracle_mutate_variables(seed, [0, 1, 0, 1, 0])
    assert str(caught.value) == (
        "flip 2 of 5 (direction 1): no exact quotient: injected"
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
