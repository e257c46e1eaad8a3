"""Tests for snake graph construction, matchings, and local structure."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import (
    FIBONACCI_COUNTS,
    GOLDEN_GLUE,
    GOLDEN_MAXIMAL,
    GOLDEN_MINIMAL,
    GOLDEN_TAU_CLASSES,
    GOLDEN_TILES,
    annulus,
    annulus_bridge,
    edge_vertices,
    glue_edges,
    golden_arc,
    heptagon,
    hexagon,
    initial_arc,
    ladder_arc,
    ladder_surface,
    pentagon,
    polygon_chords,
    polygon_fan,
    reference_matchings,
    side_vertices,
    square,
    tile_bits,
    transfer_corpus,
)
from snakeq import Arc, SnakeGraph, SurfaceError, compute_valuation
from snakeq.snakegraph import POSITION_ORDER


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
# construction

def test_golden_tile_layout():
    g = golden_graph()
    assert g.glue == GOLDEN_GLUE
    seen = [
        (t.index, t.diagonal, (t.west, t.north, t.east, t.south), (t.x, t.y))
        for t in g.tiles
    ]
    assert seen == [
        (i, diag, wnes, xy) for i, diag, wnes, xy in GOLDEN_TILES
    ]


def test_hexagon_long_chord_turns_once():
    g = SnakeGraph(hexagon(), Arc((0, 1, 2), 0, 3))
    assert g.glue == ("R", "U")
    assert [t.diagonal for t in g.tiles] == [0, 1, 2]
    assert [(t.x, t.y) for t in g.tiles] == [(0, 0), (1, 0), (1, 1)]


def test_single_tile_graph():
    g = SnakeGraph(pentagon(), Arc((0,), 0, 1))
    assert g.d == 1
    assert [t.diagonal for t in g.tiles] == [0]
    tile = g.tiles[0]
    assert (tile.west, tile.north, tile.east, tile.south) == (2, 1, 4, 3)


def test_degenerate_graph_for_an_existing_arc():
    g = SnakeGraph(annulus(), initial_arc(1))
    assert g.d == 0
    assert g.degenerate_label == 1
    assert g.matchings() == (frozenset({(0, "G")}),)
    assert g.minimal_matching() == g.maximal_matching() == g.matchings()[0]


def test_a_degenerate_graph_has_no_tile_to_twist():
    g = SnakeGraph(annulus(), initial_arc(0))
    assert g.can_twist(g.matchings()[0], 1) is False
    with pytest.raises(ValueError, match="tile index 0 out of range"):
        golden_graph().tile_edge_refs(0)


def test_graph_rejects_invalid_arcs():
    with pytest.raises(SurfaceError):
        SnakeGraph(annulus(), Arc((0, 0), 0, 1))


def lemma_graphs() -> list[SnakeGraph]:
    """The transfer corpus, annulus bridges with |w| <= 12, ladders with
    d <= 20 and every chord of the 3-, 4-, 5-, 10- and 60-fan."""
    graphs = [SnakeGraph(t, arc) for _, t, arc in transfer_corpus()]
    t = annulus()
    for w in (*range(2, 13), *range(-12, 0)):
        graphs.append(SnakeGraph(t, annulus_bridge(w)[0]))
    for d in range(1, 21):
        graphs.append(SnakeGraph(ladder_surface(d), ladder_arc(d)))
    for k in (3, 4, 5, 10, 60):
        t = polygon_fan(k)
        graphs += [SnakeGraph(t, arc) for _, arc, _ in polygon_chords(k)]
    return graphs


def test_glue_and_tau_flanks_follow_from_the_triangles():
    # the two facts the construction takes from the triangles instead of
    # checking them: tile j has the connector of tiles j and j + 1 as its
    # east side before an R and its north side before a U, and tile j + 1
    # receives it as its west or south side; every edge that a tau class
    # puts beside a tile with diagonal tau is labeled tau
    flanks = 0
    for g in lemma_graphs():
        assert len(g.glue) == len(g.trace.connectors) == max(g.d - 1, 0)
        for tile, following, glue, connector in zip(
            g.tiles, g.tiles[1:], g.glue, g.trace.connectors
        ):
            if glue == "R":
                assert (tile.east, following.west) == (connector, connector)
            else:
                assert (tile.north, following.south) == (connector, connector)
        for tau in set(g.arc.crossings):
            for c in g.tau_classes(tau):
                if c.kind != "IV":
                    for e in c.edges:
                        assert g.edge_label(e) == tau
                    flanks += len(c.edges)
    assert flanks > 0


def test_tile_sides_are_the_drawn_sides_with_their_labels():
    # each of tile p's four references, the glued-in one included, is the
    # side drawn at that position, carries that side's label and has the
    # bit of tile_sides; together they are every edge but a degenerate one
    for g in lemma_graphs():
        refs = set()
        for tile, sides in zip(g.tiles, g.tile_sides):
            row = g.tile_edge_refs(tile.index)
            own = (tile.south, tile.west, tile.east, tile.north)
            for pos, ref, label in zip(POSITION_ORDER, row, own):
                assert edge_vertices(g, ref) == side_vertices(tile, pos)
                assert g.edge_label(ref) == label
            assert sides == tuple(g.bit[ref] for ref in row)
            refs.update(row)
        assert refs == set(g.edge_refs) - {(0, "G")}


# ----------------------------------------------------------------------
# matchings

def test_golden_graph_has_thirteen_matchings():
    assert len(golden_graph().matchings()) == 13


def test_single_tile_has_two_matchings():
    g = SnakeGraph(pentagon(), Arc((0,), 0, 1))
    ms = g.matchings()
    assert len(ms) == 2
    assert frozenset({(1, "S"), (1, "N")}) in ms
    assert frozenset({(1, "W"), (1, "E")}) in ms


def test_every_matching_is_perfect():
    for g in corpus_graphs():
        vertices = set()
        for ref in g.edge_refs:
            vertices |= edge_vertices(g, ref)
        for m in g.matchings():
            covered: set = set()
            for ref in m:
                vs = edge_vertices(g, ref)
                assert not (vs & covered)
                covered |= vs
            assert covered == vertices


def test_matchings_are_listed_in_bit_order():
    for g in corpus_graphs():
        bits = [g.matching_bits(m) for m in g.matchings()]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)


def test_ladder_counts_follow_fibonacci():
    for d, expected in FIBONACCI_COUNTS.items():
        g = SnakeGraph(ladder_surface(d), ladder_arc(d))
        assert g.glue == tuple("R" * (d - 1))
        assert len(g.matchings()) == expected


def test_small_ladder_counts_against_full_subset_enumeration():
    for d in (1, 2, 3, 4):
        g = SnakeGraph(ladder_surface(d), ladder_arc(d))
        refs = g.edge_refs
        vertices = set()
        for ref in refs:
            vertices |= edge_vertices(g, ref)
        count = 0
        for subset in itertools.combinations(refs, len(vertices) // 2):
            covered: set = set()
            ok = True
            for ref in subset:
                vs = edge_vertices(g, ref)
                if vs & covered:
                    ok = False
                    break
                covered |= vs
            if ok and covered == vertices:
                count += 1
        assert count == len(g.matchings())


def test_long_fan_chord_enumerates_past_the_recursion_limit():
    g = SnakeGraph(polygon_fan(1300), Arc(tuple(range(1200)), 0, 1200))
    assert len(g.matchings()) == 1201


# ----------------------------------------------------------------------
# extremal matchings

def test_golden_extremal_matchings():
    g = golden_graph()
    assert g.minimal_matching() == GOLDEN_MINIMAL
    assert g.maximal_matching() == GOLDEN_MAXIMAL


def boundary_matchings(g: SnakeGraph) -> tuple:
    """Reference: the matchings that use no glue edge, by enumeration."""
    glue = set(glue_edges(g))
    return tuple(p for p in g.matchings() if not (p & glue))


def transfer_graphs(max_d: int) -> list[SnakeGraph]:
    return [
        SnakeGraph(t, arc)
        for _, t, arc in transfer_corpus()
        if len(arc.crossings) <= max_d
    ]


def fan60_chords() -> list[SnakeGraph]:
    """The 60-fan's chords with d = 3, 30 and 60 crossings."""
    t = polygon_fan(60)
    chords = {pair: arc for pair, arc, _ in polygon_chords(60)}
    return [SnakeGraph(t, chords[1, d + 2]) for d in (3, 30, 60)]


def test_exactly_two_all_boundary_matchings():
    # the boundary chains against the boundary scan
    for g in corpus_graphs() + transfer_graphs(15) + fan60_chords():
        if g.degenerate_label is not None:
            continue
        boundary = boundary_matchings(g)
        assert len(boundary) == 2
        low = g.minimal_matching()
        high = g.maximal_matching()
        assert low in boundary
        assert high in boundary
        assert low != high
        assert (1, "W") in low
        assert (1, "W") not in high
        if g.d == 1 or g.glue[0] == "R":
            assert {(1, "S"), (1, "N")} <= high
        full = [m for m in g.matchings() if tile_bits(g, m) == (1,) * g.d]
        assert full == [high]


def test_matchings_equal_the_vertex_search_in_bit_order():
    # the fence walk against an independent depth-first vertex search
    for g in corpus_graphs() + transfer_graphs(12):
        assert g.matchings() == reference_matchings(g)


def listed_rows(g: SnakeGraph) -> list:
    """The graph's listing, each packed height spread over every label."""
    rows = []
    for bits, mask, packed in g._listed():
        heights = [0] * g.triangulation.n_internal
        for label, count in zip(g.crossed_labels, g._unpack_height(packed)):
            heights[label] = count
        rows.append((bits, mask, tuple(heights)))
    return rows


def test_listing_rows_are_the_bits_mask_and_height_of_each_matching():
    # the fence walk's rows against the public per-matching references
    degenerate = SnakeGraph(annulus(), initial_arc(0))
    for g in [degenerate] + corpus_graphs() + transfer_graphs(12):
        assert listed_rows(g) == [
            (g.matching_bits(p), g.mask(p), g.height_vector(p))
            for p in g.matchings()
        ]
        minimal, maximal = g.minimal_matching(), g.maximal_matching()
        assert (g._minimal, g._maximal) == (g.mask(minimal), g.mask(maximal))


def test_fence_allows_exactly_the_tile_patterns_of_the_matchings():
    for g in transfer_graphs(12):
        fence = g.fence
        assert len(fence) == max(g.d - 1, 0)
        allowed = {
            bits
            for bits in itertools.product((0, 1), repeat=g.d)
            if all(
                bits[j] <= bits[j + 1] if rising else bits[j] >= bits[j + 1]
                for j, rising in enumerate(fence)
            )
        }
        patterns = []
        for m in g.matchings():
            bits = tile_bits(g, m)
            heights = [0] * g.triangulation.n_internal
            for tile, bit in zip(g.tiles, bits):
                heights[tile.diagonal] += bit
            assert tuple(heights) == g.height_vector(m)
            patterns.append(bits)
        assert len(set(patterns)) == len(patterns)
        assert set(patterns) == allowed


def test_first_tile_corner_dichotomy():
    # the south-west corner of the first tile meets only two edges, so
    # every matching uses the west or the south side of that tile; the
    # stronger pair form depends on where the second tile is attached
    for g in corpus_graphs():
        for m in g.matchings():
            assert (1, "W") in m or (1, "S") in m
            if g.d == 1 or g.glue[0] == "R":
                assert (1, "W") in m or {(1, "S"), (1, "N")} <= m
            elif g.glue[0] == "U":
                assert (1, "S") in m or {(1, "W"), (1, "E")} <= m


def test_boundary_scan_runs_once_per_graph(monkeypatch):
    # the extremal matchings come from the one layout walk of each graph,
    # which reads the boundary chains, and never from enumerating the
    # matchings; nothing after the constructor lays the graph out again
    enumerated = []
    layouts = []
    matchings = SnakeGraph.matchings
    layout = SnakeGraph._layout

    def counted_matchings(graph):
        if graph._matchings is None:
            enumerated.append(graph)
        return matchings(graph)

    def counted_layout(graph):
        layouts.append(graph)
        return layout(graph)

    monkeypatch.setattr(SnakeGraph, "matchings", counted_matchings)
    monkeypatch.setattr(SnakeGraph, "_layout", counted_layout)
    graphs = corpus_graphs()
    assert layouts == graphs
    for g in graphs:
        enumerated.clear()
        layouts.clear()
        g.height_vector(g.minimal_matching())
        g.height_vector(g.maximal_matching())
        assert enumerated == []
        # the valuation keys its values by edge set, so it asks for them
        compute_valuation(g)
        for m in g.matchings():
            g.height_vector(m)
        g.minimal_matching()
        assert enumerated == [g]
        assert layouts == []


def test_glue_edges_touch_no_boundary_matching():
    for g in corpus_graphs():
        glue = set(glue_edges(g))
        assert not (glue & g.minimal_matching())
        assert not (glue & g.maximal_matching())


def test_no_matching_pairs_across_a_shared_edge():
    # two edges from neighbouring tiles that both touch the shared edge
    # never appear together in one matching
    for g in corpus_graphs():
        for m in g.matchings():
            for p in range(1, g.d):
                shared = glue_edges(g)[p - 1]
                ends = edge_vertices(g, shared)
                left = [
                    ref
                    for ref in g.tile_edge_refs(p)
                    if ref != shared and ref in m and edge_vertices(g, ref) & ends
                ]
                right = [
                    ref
                    for ref in g.tile_edge_refs(p + 1)
                    if ref != shared and ref in m and edge_vertices(g, ref) & ends
                ]
                assert not (left and right)


# ----------------------------------------------------------------------
# twists

def test_twist_is_an_involution():
    for g in corpus_graphs():
        for m in g.matchings():
            for p in g.twistable_tiles(m):
                assert g.twist(g.twist(m, p), p) == m


def test_twist_requires_two_matched_sides():
    g = golden_graph()
    minimal = g.minimal_matching()
    assert g.twistable_tiles(minimal) == (2, 4)
    with pytest.raises(ValueError):
        g.twist(minimal, 1)


def test_distant_twists_commute():
    for g in corpus_graphs():
        for m in g.matchings():
            tiles = g.twistable_tiles(m)
            for s, t in itertools.combinations(tiles, 2):
                if abs(s - t) <= 1:
                    continue
                assert g.twist(g.twist(m, s), t) == g.twist(g.twist(m, t), s)


def test_twist_graph_is_connected():
    for g in corpus_graphs():
        ms, moves = g.twist_graph()
        if len(ms) == 1:
            continue
        adjacency: dict[int, set[int]] = {i: set() for i in range(len(ms))}
        for i, j, _ in moves:
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = [j for i in frontier for j in adjacency[i] if j not in seen]
            seen.update(nxt)
            frontier = nxt
        assert seen == set(range(len(ms)))


# ----------------------------------------------------------------------
# exponent data

def test_golden_height_and_weight_vectors():
    g = golden_graph()
    assert g.crossing_vector() == (3, 2)
    assert g.height_vector(g.minimal_matching()) == (0, 0)
    assert g.height_vector(g.maximal_matching()) == (3, 2)
    assert g.weight_vector(g.minimal_matching()) == (4, 0)
    assert g.weight_vector(g.maximal_matching()) == (0, 6)


def test_heights_step_by_one_under_twists():
    for g in corpus_graphs():
        for m in g.matchings():
            h = g.height_vector(m)
            for p in g.twistable_tiles(m):
                other = g.height_vector(g.twist(m, p))
                tau = g.tiles[p - 1].diagonal
                diff = [a - b for a, b in zip(other, h)]
                assert abs(diff[tau]) == 1
                assert all(v == 0 for i, v in enumerate(diff) if i != tau)


# ----------------------------------------------------------------------
# local classes of tau-labelled edges

def test_golden_tau_classes():
    g = golden_graph()
    for tau, expected in GOLDEN_TAU_CLASSES.items():
        got = {(c.kind, frozenset(c.edges)) for c in g.tau_classes(tau)}
        assert got == set(expected)


def test_tau_classes_partition_the_tau_edges():
    for g in corpus_graphs():
        for tau in set(g.arc.crossings):
            union: set = set()
            for c in g.tau_classes(tau):
                edges = set(c.edges)
                assert edges and not (edges & union)
                union |= edges
            tau_edges = {
                ref for ref in g.edge_refs if g.edge_label(ref) == tau
            }
            assert union == tau_edges


def test_two_edge_tau_classes_are_kind_ii_where_their_edges_meet():
    # the glue rule for kinds I and II against the plane coordinates
    seen = set()
    for g in corpus_graphs() + transfer_graphs(15):
        for tau in set(g.arc.crossings):
            for c in g.tau_classes(tau):
                if len(c.edges) == 2:
                    first, second = (edge_vertices(g, e) for e in c.edges)
                    assert c.kind == ("II" if first & second else "I")
                    seen.add(c.kind)
    assert seen == {"I", "II"}


def test_nu_values_stay_in_their_documented_ranges():
    ranges = {"I": {-1, 0, 1}, "II": {-1, 0}, "III": {-1, 0}, "IV": {0, 1}}
    for g in corpus_graphs():
        for tau in set(g.arc.crossings):
            classes = g.tau_classes(tau)
            for m in g.matchings():
                nu = g.nu_signature(m, tau)
                assert len(nu) == len(classes)
                for value, cls in zip(nu, classes):
                    assert value in ranges[cls.kind]


def test_nu_signatures_partition_the_matchings():
    for g in corpus_graphs():
        if g.d > 6:
            continue
        for tau in set(g.arc.crossings):
            groups: dict[tuple[int, ...], int] = {}
            for m in g.matchings():
                nu = g.nu_signature(m, tau)
                groups[nu] = groups.get(nu, 0) + 1
            assert sum(groups.values()) == len(g.matchings())
            assert all(count > 0 for count in groups.values())
