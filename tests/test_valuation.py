"""Tests for twist increments and the matching valuation."""

from __future__ import annotations

import itertools

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
    valuation_corpus,
)
from snakeq import SnakeGraph, ValuationError, compute_valuation, omega, valuation
from snakeq.valuation import _label_positions, _twist_increments


def golden_graph() -> SnakeGraph:
    return SnakeGraph(annulus(), golden_arc())


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


def test_propagation_increments_equal_the_public_omega():
    # the propagation computes all increments of a matching in one pass;
    # each must equal the single-twist omega
    for name, t, arc in valuation_corpus():
        g = SnakeGraph(t, arc)
        crossings = _label_positions(arc.crossings)
        for d_scale in (1, 2):
            for m in g.matchings():
                tiles = g.twistable_tiles(m)
                batch = _twist_increments(g, m, tiles, d_scale, crossings)
                single = [omega(g, m, p, d_scale) for p in tiles]
                assert batch == single, name


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


def test_valuation_is_deterministic():
    g = golden_graph()
    assert compute_valuation(g) == compute_valuation(g)


# ----------------------------------------------------------------------
# the well-definedness checks, reached with corrupted increments

def corrupt_increments(monkeypatch, shift):
    """Add ``shift(graph, matching, p)`` to every increment the search uses."""

    def shifted(graph, matching, tiles, d_scale, crossings):
        steps = _twist_increments(graph, matching, tiles, d_scale, crossings)
        return [step + shift(graph, matching, p) for p, step in zip(tiles, steps)]

    monkeypatch.setattr(valuation, "_twist_increments", shifted)


def test_one_wrong_increment_breaks_a_twist_cycle(monkeypatch):
    g = golden_graph()
    target = g.minimal_matching()
    corrupt_increments(
        monkeypatch, lambda graph, m, p: int(m == target and p == 2)
    )
    with pytest.raises(ValuationError, match="twist cycle assigns both"):
        compute_valuation(g)


def test_consistent_increments_must_put_the_minimal_matching_at_zero(
    monkeypatch,
):
    # shifting by the coboundary g(u) - g(v) of the minimal matching's
    # indicator g keeps every twist cycle closed but moves v(minimal) to 1
    g = golden_graph()
    minimal = g.minimal_matching()
    corrupt_increments(
        monkeypatch,
        lambda graph, m, p: int(m == minimal) - int(graph.twist(m, p) == minimal),
    )
    with pytest.raises(ValuationError, match="the minimal matching has value 1"):
        compute_valuation(g)


def test_twists_must_reach_every_matching(monkeypatch):
    g = golden_graph()
    monkeypatch.setattr(g, "twistable_tiles", lambda matching: ())
    with pytest.raises(ValuationError, match="do not connect all matchings"):
        compute_valuation(g)
