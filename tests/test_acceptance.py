"""Release-gate checks.

Seven checks gate the package: the five-tile annulus golden expansion, the
matching counts cross-checked by two independent brute-force enumerations,
well-definedness of the valuation, equality of the expansion with the
mutation oracle, specialization at q = 1, positivity of all coefficients,
and a structural suite for the combinatorial lemmas.  Where a runtime bound
is part of the contract the test measures and asserts it.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    FIBONACCI_COUNTS,
    GOLDEN_QUANTUM_TERMS,
    annulus,
    annulus_bridge,
    golden_arc,
    heptagon,
    hexagon,
    initial_arc,
    ladder_arc,
    ladder_surface,
    pentagon,
    polygon_chords,
    seed_choices,
    square,
    valuation_corpus,
)
from snakeq import (
    SnakeGraph,
    commutative_expand,
    compute_valuation,
    mutate_B,
    mutate_seed,
    omega,
    principal_seed,
    quantum_expand,
    signed_adjacency,
    verify_against_oracle,
)


def acceptance_graphs() -> list[SnakeGraph]:
    graphs = []
    for k, build in ((2, pentagon), (3, hexagon), (4, heptagon)):
        t = build()
        for _, arc, _ in polygon_chords(k):
            graphs.append(SnakeGraph(t, arc))
    t = annulus()
    for w in (2, 3, 4, 5, -1, -2, -3, -4):
        graphs.append(SnakeGraph(t, annulus_bridge(w)[0]))
    return graphs


# ----------------------------------------------------------------------
# 1. golden quantum expansion of the five-tile annulus arc

def test_golden_annulus_quantum_expansion_under_one_second():
    start = time.monotonic()
    t = annulus()
    seed = principal_seed(signed_adjacency(t))
    expansion = quantum_expand(t, golden_arc(), seed)
    elapsed = time.monotonic() - start
    assert {vec: dict(c) for vec, c in expansion.items()} == (
        GOLDEN_QUANTUM_TERMS
    )
    assert len(expansion.items()) == 7
    assert expansion.coefficient((-3, 0, 1, 2)) == {-2: 1, 0: 1, 2: 1}
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# 2. matching counts against two independent brute forces

def brute_force_matchings(g: SnakeGraph) -> int:
    """Count perfect matchings by exhaustive subset enumeration."""
    vertices = frozenset(
        v for ref in g.edge_refs for v in g.edge_vertices(ref)
    )
    size = len(vertices) // 2
    count = 0
    for subset in itertools.combinations(g.edge_refs, size):
        seen: set = set()
        ok = True
        for ref in subset:
            ends = g.edge_vertices(ref)
            if ends & seen:
                ok = False
                break
            seen |= ends
        if ok and len(seen) == len(vertices):
            count += 1
    return count


def permanent_matchings(g: SnakeGraph) -> int:
    """Count perfect matchings as a bipartite permanent.

    The vertex classes split by coordinate parity; the permanent is
    evaluated by inclusion-exclusion over column subsets, which is an
    independent subset enumeration.
    """
    vertices = sorted(
        {v for ref in g.edge_refs for v in g.edge_vertices(ref)}
    )
    left = [v for v in vertices if (v[0] + v[1]) % 2 == 0]
    right = [v for v in vertices if (v[0] + v[1]) % 2 == 1]
    assert len(left) == len(right)
    n = len(left)
    left_index = {v: i for i, v in enumerate(left)}
    right_index = {v: i for i, v in enumerate(right)}
    rows = [[0] * n for _ in range(n)]
    for ref in g.edge_refs:
        u, w = g.edge_vertices(ref)
        if (u[0] + u[1]) % 2 == 1:
            u, w = w, u
        rows[left_index[u]][right_index[w]] += 1
    total = 0
    for mask in range(1 << n):
        chosen = [j for j in range(n) if mask >> j & 1]
        product = 1
        for row in rows:
            product *= sum(row[j] for j in chosen)
            if product == 0:
                break
        total += (-1) ** (n - len(chosen)) * product
    return total


def test_matching_counts_cross_checked():
    g = SnakeGraph(annulus(), golden_arc())
    assert len(g.matchings()) == 13
    assert brute_force_matchings(g) == 13
    assert permanent_matchings(g) == 13
    for d, count in FIBONACCI_COUNTS.items():
        ladder = SnakeGraph(ladder_surface(d), ladder_arc(d))
        assert len(ladder.matchings()) == count
        assert permanent_matchings(ladder) == count
        if d <= 6:
            assert brute_force_matchings(ladder) == count


def test_fibonacci_recurrence_of_ladder_counts():
    counts = [len(SnakeGraph(ladder_surface(d), ladder_arc(d)).matchings())
              for d in range(1, 9)]
    assert counts == [2, 3, 5, 8, 13, 21, 34, 55]
    for a, b, c in zip(counts, counts[1:], counts[2:]):
        assert a + b == c


# ----------------------------------------------------------------------
# 3. valuation well-definedness

def test_valuation_is_well_defined_in_under_ten_seconds():
    start = time.monotonic()
    for name, t, arc in valuation_corpus():
        g = SnakeGraph(t, arc)
        values = compute_valuation(g)
        matchings, edges = g.twist_graph()

        # potential from a spanning tree of the twist graph
        adjacency = defaultdict(list)
        for i, j, p in edges:
            delta = omega(g, matchings[i], p)
            adjacency[i].append((j, delta))
            adjacency[j].append((i, -delta))
        potential = {0: 0}
        queue = [0]
        while queue:
            u = queue.pop()
            for w, delta in adjacency[u]:
                if w not in potential:
                    potential[w] = potential[u] - delta
                    queue.append(w)
        assert len(potential) == len(matchings), name

        # every edge agrees with the potential, so every twist cycle
        # sums to zero and the valuation is independent of the path
        for i, j, p in edges:
            delta = omega(g, matchings[i], p)
            assert potential[i] - potential[j] == delta, name
            assert values[matchings[i]] - values[matchings[j]] == delta, name

        if g.d > 0:
            assert values[g.minimal_matching()] == 0, name
            assert values[g.maximal_matching()] == 0, name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# 4. oracle equivalence

def test_expansions_match_the_mutation_oracle_in_under_a_minute():
    start = time.monotonic()
    cases = []
    t = pentagon()
    for i in range(2):
        cases.append(("pentagon initial", t, initial_arc(i), [], i))
    for pair, arc, plan in polygon_chords(2):
        cases.append((f"pentagon chord {pair}", t, arc, plan, None))
    t = hexagon()
    for i in range(3):
        cases.append(("hexagon initial", t, initial_arc(i), [], i))
    for pair, arc, plan in polygon_chords(3):
        cases.append((f"hexagon chord {pair}", t, arc, plan, None))
    t = annulus()
    for i in range(2):
        cases.append(("annulus initial", t, initial_arc(i), [], i))
    for w in (2, 3, 4, -1, -2, -3):
        arc, plan = annulus_bridge(w)
        cases.append((f"annulus bridge {w}", t, arc, plan, None))

    pentagon_count = sum(1 for c in cases if c[0].startswith("pentagon"))
    assert pentagon_count == 5

    for name, t, arc, plan, slot in cases:
        seeds = seed_choices(t)
        assert len(seeds) >= 2
        for seed in seeds:
            report = verify_against_oracle(t, seed, plan, arc, slot)
            assert report.ok, (name, report.detail)
            assert report.expected == report.actual
    elapsed = time.monotonic() - start
    assert elapsed < 60.0


# ----------------------------------------------------------------------
# 5. specialization at q = 1

def test_specialization_recovers_the_commutative_expansion():
    for name, t, arc in valuation_corpus():
        b = signed_adjacency(t)
        for seed in seed_choices(t)[:2]:
            commutative = commutative_expand(t, arc, seed.btilde)
            quantum = quantum_expand(t, arc, seed)
            assert quantum.specialize_q1() == {
                vec: coeff[0] for vec, coeff in commutative.items()
            }, name
            assert all(list(c) == [0] for _, c in commutative.items()), name


# ----------------------------------------------------------------------
# 6. positivity

def test_all_coefficients_are_positive_laurent_in_q():
    for name, t, arc in valuation_corpus():
        for seed in seed_choices(t):
            quantum = quantum_expand(t, arc, seed)
            for vec, coeff in quantum.items():
                assert coeff, (name, vec)
                for s_exp, value in coeff.items():
                    assert isinstance(value, int), (name, vec)
                    assert value > 0, (name, vec, s_exp)


# ----------------------------------------------------------------------
# 7. structural suite

def test_neighbouring_tiles_never_match_across_their_shared_edge():
    for g in acceptance_graphs():
        for m in g.matchings():
            for p in range(1, g.d):
                shared = g.glue_edges()[p - 1]
                ends = g.edge_vertices(shared)
                first = [
                    ref
                    for ref in g.tile_edge_refs(p)
                    if ref != shared and ref in m and g.edge_vertices(ref) & ends
                ]
                second = [
                    ref
                    for ref in g.tile_edge_refs(p + 1)
                    if ref != shared and ref in m and g.edge_vertices(ref) & ends
                ]
                assert not (first and second)


def test_twist_identities():
    for g in acceptance_graphs():
        for m in g.matchings():
            tiles = g.twistable_tiles(m)
            for p in tiles:
                assert g.twist(g.twist(m, p), p) == m
            for p, r in itertools.combinations(tiles, 2):
                if abs(p - r) >= 2 and g.can_twist(g.twist(m, p), r):
                    assert g.twist(g.twist(m, p), r) == g.twist(g.twist(m, r), p)


def test_flips_commute_with_matrix_mutation():
    from snakeq import flip

    for build in (square, pentagon, hexagon, heptagon, annulus):
        t = build()
        n = t.n_internal
        for path in itertools.product(range(n), repeat=2):
            surface = t
            matrix = signed_adjacency(t)
            for k in path:
                surface = flip(surface, k)
                matrix = mutate_B(matrix, k)
                assert [list(r) for r in matrix] == [
                    list(r) for r in signed_adjacency(surface)
                ]


def test_compatibility_scalar_survives_mutation():
    for build in (pentagon, hexagon, annulus):
        t = build()
        n = t.n_internal
        for seed in seed_choices(t):
            d = seed.d
            for path in itertools.product(range(n), repeat=3):
                current = seed
                for k in path:
                    current = mutate_seed(current, k)
                    assert current.d == d


def test_local_signature_groups_partition_the_matchings():
    for g in acceptance_graphs():
        if g.d > 6:
            continue
        total = len(g.matchings())
        for tau in set(g.arc.crossings):
            groups: dict[tuple[int, ...], int] = {}
            for m in g.matchings():
                signature = g.nu_signature(m, tau)
                groups[signature] = groups.get(signature, 0) + 1
            assert sum(groups.values()) == total
            assert all(count > 0 for count in groups.values())


@given(st.data())
def test_random_twists_preserve_matching_perfection(data):
    graphs = acceptance_graphs()
    g = graphs[data.draw(st.integers(0, len(graphs) - 1))]
    matchings = g.matchings()
    m = matchings[data.draw(st.integers(0, len(matchings) - 1))]
    vertices = frozenset(
        v for ref in g.edge_refs for v in g.edge_vertices(ref)
    )
    for _ in range(4):
        tiles = g.twistable_tiles(m)
        if not tiles:
            break
        p = tiles[data.draw(st.integers(0, len(tiles) - 1))]
        m = g.twist(m, p)
        assert m in matchings
        covered: list = []
        for ref in m:
            covered.extend(g.edge_vertices(ref))
        assert len(covered) == len(set(covered)) == len(vertices)
