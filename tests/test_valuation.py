"""Tests for twist increments and the matching valuation."""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import deque

import pytest

from conftest import (
    GOLDEN_VALUATIONS,
    annulus,
    annulus_bridge,
    golden_arc,
    heptagon,
    hexagon,
    initial_arc,
    pentagon,
    polygon_chords,
    seed_choices,
    sheared_seed,
    tile_bits,
    valuation_corpus,
)
from snakeq import (
    SnakeGraph,
    ValuationError,
    commutative_expand,
    compute_valuation,
    omega,
    principal_seed,
    quantum_expand,
    signed_adjacency,
)
from snakeq.snakegraph import POSITION_ORDER
from snakeq.valuation import TwistTable, _tile_constants, _valued_masks


def golden_graph() -> SnakeGraph:
    return SnakeGraph(annulus(), golden_arc())


def reference_increments(graph, matching, tiles, d_scale):
    """The increment at each twistable tile, by sorting and bisection.

    The matched edges are sorted by tile, then south, west, east, north; the
    two matched sides of tile p must be adjacent in that list, and the
    increment counts matched edges of the diagonal's label strictly after
    minus strictly before them, corrected by the occurrences of that label
    among later minus earlier crossings, signed by which pair of sides is
    matched, and scaled by the compatibility scalar.
    """

    def label_positions(labels):
        out = {}
        for i, label in enumerate(labels):
            out.setdefault(label, []).append(i)
        return out

    def outside(positions, lo, hi):
        return (
            bisect_left(positions, lo),
            len(positions) - bisect_right(positions, hi),
        )

    position_rank = {pos: i for i, pos in enumerate(POSITION_ORDER)}
    ordered = sorted(
        matching, key=lambda ref: (ref[0], position_rank.get(ref[1], -1))
    )
    rank = {ref: i for i, ref in enumerate(ordered)}
    matched = label_positions(graph.edge_label(ref) for ref in ordered)
    crossings = label_positions(graph.arc.crossings)
    out = []
    for p in tiles:
        tile_refs = graph.tile_edge_refs(p)
        lo, hi = sorted(rank[ref] for ref in tile_refs if ref in rank)
        assert hi == lo + 1
        tau = graph.tiles[p - 1].diagonal
        n_before, n_after = outside(matched.get(tau, []), lo, hi)
        m_before, m_after = outside(crossings[tau], p - 1, p - 1)
        south, west, east, north = tile_refs
        pair = {ordered[lo], ordered[hi]}
        assert pair in ({south, north}, {west, east})
        positive = (pair == {south, north}) == (p % 2 == 1)
        magnitude = (n_after - m_after - n_before + m_before) * d_scale
        out.append(magnitude if positive else -magnitude)
    return out


def reference_valuation(graph, d_scale):
    """The potential of the reference increments, from the maximal matching."""
    maximal = graph.maximal_matching()
    values = {maximal: 0}
    queue = deque([maximal])
    while queue:
        current = queue.popleft()
        tiles = graph.twistable_tiles(current)
        steps = reference_increments(graph, current, tiles, d_scale)
        for p, step in zip(tiles, steps):
            neighbor = graph.twist(current, p)
            if neighbor not in values:
                values[neighbor] = values[current] - step
                queue.append(neighbor)
    return values


def corpus_graphs() -> list[SnakeGraph]:
    graphs = []
    for k in (2, 3, 4):
        t = {2: pentagon, 3: hexagon, 4: heptagon}[k]()
        for _, arc, _ in polygon_chords(k):
            graphs.append(SnakeGraph(t, arc))
    t = annulus()
    for w in (2, 3, 4, 5, -1, -2, -3):
        graphs.append(SnakeGraph(t, annulus_bridge(w)[0]))
    return graphs


# ----------------------------------------------------------------------
# the twist increment

def test_golden_increments_at_the_minimal_matching():
    g = golden_graph()
    minimal = g.minimal_matching()
    assert omega(g, minimal, 2) == 1
    assert omega(g, minimal, 4) == -1


def test_increment_scales_with_the_compatibility_scalar():
    g = golden_graph()
    for m in g.matchings():
        for p in g.twistable_tiles(m):
            assert omega(g, m, p, d_scale=3) == 3 * omega(g, m, p)


def test_increment_is_antisymmetric_under_the_twist():
    for g in corpus_graphs():
        for m in g.matchings():
            for p in g.twistable_tiles(m):
                assert omega(g, g.twist(m, p), p) == -omega(g, m, p)


def test_distant_increments_close_the_square():
    # around the four-cycle made by two distant twists the increments sum
    # to zero, which is what makes the valuation path-independent
    for g in corpus_graphs():
        for m in g.matchings():
            tiles = g.twistable_tiles(m)
            for s, t in itertools.combinations(tiles, 2):
                if abs(s - t) <= 1:
                    continue
                forward = omega(g, m, s) + omega(g, g.twist(m, s), t)
                other = omega(g, m, t) + omega(g, g.twist(m, t), s)
                assert forward == other


# ----------------------------------------------------------------------
# the valuation

def test_golden_valuation_multiset():
    g = golden_graph()
    values = compute_valuation(g)
    assert sorted(values.values()) == GOLDEN_VALUATIONS


def test_extremal_matchings_sit_at_level_zero():
    for g in corpus_graphs():
        values = compute_valuation(g)
        assert values[g.minimal_matching()] == 0
        assert values[g.maximal_matching()] == 0


def test_valuation_steps_match_the_increments():
    # v(P) - v(twist of P at p) is the increment at p, for every twist edge
    for g in corpus_graphs():
        values = compute_valuation(g)
        ms, moves = g.twist_graph()
        for i, j, p in moves:
            assert values[ms[i]] - values[ms[j]] == omega(g, ms[i], p)


def test_omega_equals_the_sort_and_bisect_reference():
    for name, t, arc in valuation_corpus():
        g = SnakeGraph(t, arc)
        for d_scale in (1, 2, 3):
            for m in g.matchings():
                tiles = g.twistable_tiles(m)
                single = [omega(g, m, p, d_scale) for p in tiles]
                assert single == reference_increments(g, m, tiles, d_scale), name


def test_valuation_equals_the_potential_of_the_reference_increments():
    for name, t, arc in valuation_corpus():
        g = SnakeGraph(t, arc)
        for d_scale in (1, 2, 3):
            expected = reference_valuation(g, d_scale)
            assert compute_valuation(g, d_scale) == expected, name


def test_valuation_builds_one_table_and_no_twisted_frozensets(monkeypatch):
    counts = {"tile_edge_refs": 0, "twist": 0, "can_twist": 0}
    for method in counts:
        original = getattr(SnakeGraph, method)

        def counted(graph, *args, _method=method, _original=original):
            counts[_method] += 1
            return _original(graph, *args)

        monkeypatch.setattr(SnakeGraph, method, counted)
    g = SnakeGraph(annulus(), annulus_bridge(6)[0])
    assert len(g.matchings()) == 89
    compute_valuation(g, 2)
    assert counts["tile_edge_refs"] <= g.d
    assert counts["twist"] == counts["can_twist"] == 0


def test_valued_masks_build_no_edge_set(monkeypatch):
    # the search runs on the listing's masks alone
    g = SnakeGraph(annulus(), annulus_bridge(6)[0])
    built = []
    original = SnakeGraph._matching

    def counted(graph, bits):
        built.append(bits)
        return original(graph, bits)

    monkeypatch.setattr(SnakeGraph, "_matching", counted)
    values = _valued_masks(g, 2)
    assert len(values) == 89
    assert built == []


def test_valuation_scales_with_the_compatibility_scalar():
    g = golden_graph()
    single = compute_valuation(g, 1)
    double = compute_valuation(g, 2)
    for m, v in single.items():
        assert double[m] == 2 * v


def test_multiplicity_free_arcs_have_zero_valuation():
    # when no internal arc is crossed twice, every matching sits at level 0
    for k in (2, 3, 4):
        t = {2: pentagon, 3: hexagon, 4: heptagon}[k]()
        for _, arc, _ in polygon_chords(k):
            g = SnakeGraph(t, arc)
            assert set(compute_valuation(g).values()) == {0}


def test_degenerate_graph_valuation():
    g = SnakeGraph(annulus(), initial_arc(0))
    values = compute_valuation(g)
    assert list(values.values()) == [0]


def test_omega_refuses_a_tile_without_a_twist():
    g = golden_graph()
    minimal = g.minimal_matching()
    assert not g.can_twist(minimal, 1)
    with pytest.raises(ValueError, match="matching has no twist at tile 1"):
        omega(g, minimal, 1)


def test_valuation_is_deterministic():
    g = golden_graph()
    assert compute_valuation(g) == compute_valuation(g)


# ----------------------------------------------------------------------
# the well-definedness checks, reached with corrupted increments

def corrupt_increments(monkeypatch, shift):
    """Add ``shift(mask, p, twisted)`` to every increment the search uses."""
    twists = TwistTable.twists

    def shifted(table, mask, d_scale):
        return [
            (p, twisted, step + shift(mask, p, twisted))
            for p, twisted, step in twists(table, mask, d_scale)
        ]

    monkeypatch.setattr(TwistTable, "twists", shifted)


def minimal_mask(g: SnakeGraph) -> int:
    return g.mask(g.minimal_matching())


def test_one_wrong_increment_breaks_a_twist_cycle(monkeypatch):
    g = golden_graph()
    target = minimal_mask(g)
    corrupt_increments(
        monkeypatch, lambda mask, p, twisted: int(mask == target and p == 2)
    )
    with pytest.raises(ValuationError, match="twist cycle assigns both"):
        compute_valuation(g)


def test_consistent_increments_must_put_the_minimal_matching_at_zero(
    monkeypatch,
):
    # shifting by the coboundary g(u) - g(v) of the minimal matching's
    # indicator g keeps every twist cycle closed but moves v(minimal) to 1
    g = golden_graph()
    minimal = minimal_mask(g)
    corrupt_increments(
        monkeypatch,
        lambda mask, p, twisted: int(mask == minimal) - int(twisted == minimal),
    )
    with pytest.raises(ValuationError, match="the minimal matching has value 1"):
        compute_valuation(g)


def test_twists_must_reach_every_matching(monkeypatch):
    g = golden_graph()
    monkeypatch.setattr(TwistTable, "twists", lambda table, mask, d_scale: [])
    with pytest.raises(ValuationError, match="do not connect all matchings"):
        compute_valuation(g)


def test_a_matching_meets_a_tile_twice_on_an_adjacent_opposite_pair():
    # the lemmas TwistTable.twists reads a twist from: where a perfect
    # matching meets tile p in two sides, they are south and north or west
    # and east, and no matched edge lies strictly between them in edge
    # order; twists reports exactly those tiles
    graphs = [golden_graph()]
    graphs += [SnakeGraph(t, arc) for _, t, arc in valuation_corpus()]
    met_twice = 0
    for g in graphs:
        table = TwistTable(g)
        for _, mask, _ in g._listed():
            twisting = []
            for tile, (south, west, east, north) in zip(g.tiles, g.tile_sides):
                matched = mask & (south | west | east | north)
                if matched.bit_count() != 2:
                    continue
                assert matched in (south | north, west | east)
                low = matched & -matched
                # high - 2 * low has exactly the bits strictly between them
                assert mask & ((matched ^ low) - (low << 1)) == 0
                twisting.append(tile.index)
            assert [p for p, _, _ in table.twists(mask, 1)] == twisting
            met_twice += len(twisting)
    assert met_twice > 0


# ----------------------------------------------------------------------
# the twist chain of the expansion

def test_valuation_is_a_quadratic_form_in_the_tile_bits():
    # v(P) = sum of c_p t_p + sum over q < p of d B[tau_q][tau_p] t_q t_p,
    # with c from _tile_constants and the pairing _transfer builds: d B[i][tau]
    # for crossed labels i, per crossed label tau
    for name, t, arc in valuation_corpus():
        g = SnakeGraph(t, arc)
        taus = [tile.diagonal for tile in g.tiles]
        labels = g.crossed_labels
        for seed in (*seed_choices(t), sheared_seed(t)):
            b, d = seed.btilde, seed.d
            pairing = [
                [(g._slot[i], d * b[i][tau]) for i in labels if b[i][tau]]
                for tau in labels
            ]
            c = _tile_constants(g, pairing, d)
            assert len(c) == g.d, name
            for matching, value in compute_valuation(g, d).items():
                bits = tile_bits(g, matching)
                linear = sum(cp * tp for cp, tp in zip(c, bits))
                quadratic = sum(
                    d * b[taus[q]][taus[p]] * bits[q] * bits[p]
                    for p in range(g.d)
                    for q in range(p)
                )
                assert value == linear + quadratic, (name, seed.d, bits)


@pytest.mark.parametrize(
    "expand",
    [quantum_expand, lambda t, arc, seed: commutative_expand(t, arc, seed.btilde)],
    ids=["quantum_expand", "commutative_expand"],
)
def test_a_wrong_chain_increment_makes_the_expansion_ill_defined(
    monkeypatch, expand
):
    # the commutative expansion runs the same chain with d = 0
    t = annulus()
    seed = principal_seed(signed_adjacency(t))
    twists = TwistTable.twists
    monkeypatch.setattr(
        TwistTable,
        "twists",
        lambda *args: [(p, m, step + (p == 3)) for p, m, step in twists(*args)],
    )
    with pytest.raises(ValuationError, match="the twist chain .* ends at value"):
        expand(t, golden_arc(), seed)
