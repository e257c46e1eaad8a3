"""Shared corpus of small surfaces, arcs, seeds, and frozen expected data."""

from __future__ import annotations

import os

from hypothesis import HealthCheck, settings

import snakeq
from snakeq import (
    Arc,
    LambdaForm,
    Seed,
    Triangulation,
    principal_lambda,
    principal_seed,
    signed_adjacency,
)

settings.register_profile(
    "fixed",
    settings(derandomize=True, suppress_health_check=[HealthCheck.too_slow]),
)
settings.load_profile("fixed")

# tests that run ``python -m snakeq`` in a subprocess must import the package
# this process imported, which pytest's ``pythonpath`` setting may have found
os.environ["PYTHONPATH"] = os.pathsep.join(
    path
    for path in (
        os.path.dirname(os.path.dirname(snakeq.__file__)),
        os.environ.get("PYTHONPATH"),
    )
    if path
)


# ----------------------------------------------------------------------
# surfaces

def annulus() -> Triangulation:
    """Annulus with one marked point per boundary circle.

    Internal arcs 0 and 1, outer boundary 2, inner boundary 3.
    """
    return Triangulation(2, 2, [(0, 1, 2), (0, 1, 3)])


def square() -> Triangulation:
    """Quadrilateral with one diagonal (arc 0)."""
    return Triangulation(1, 4, [(0, 2, 1), (0, 4, 3)])


def polygon_fan(k: int) -> Triangulation:
    """(k+3)-gon triangulated by the fan at vertex 0.

    Internal arc m is the diagonal from 0 to vertex m+2; boundary side
    (i, i+1) gets index k+i and the closing side (0, N-1) gets index
    k+N-1, where N = k+3 counts the vertices.
    """
    n = k + 3
    triangles = []
    for v in range(1, n - 1):
        outgoing = v - 1 if v + 1 <= n - 2 else k + n - 1
        opposite = k + v
        incoming = v - 2 if v >= 2 else k
        triangles.append((outgoing, opposite, incoming))
    return Triangulation(k, n, triangles)


def pentagon() -> Triangulation:
    return polygon_fan(2)


def hexagon() -> Triangulation:
    return polygon_fan(3)


def heptagon() -> Triangulation:
    return polygon_fan(4)


def ladder_surface(d: int) -> Triangulation:
    """Polygon whose zigzag triangulation yields a straight d-tile ladder.

    Internal arcs 0..d-1 are crossed in order by ladder_arc(d); boundary
    sides take indices d..2d+2.
    """
    triangles = [(0, d, d + 1)]
    for j in range(1, d):
        if j % 2 == 1:
            triangles.append((j - 1, j, d + 1 + j))
        else:
            triangles.append((j, j - 1, d + 1 + j))
    if d % 2 == 1:
        triangles.append((d - 1, 2 * d + 1, 2 * d + 2))
    else:
        triangles.append((2 * d + 1, d - 1, 2 * d + 2))
    return Triangulation(d, d + 3, triangles)


def ladder_arc(d: int) -> Arc:
    return Arc(tuple(range(d)), 0, d)


def torus_one_point() -> Triangulation:
    """Torus with a single marked point: every flip must be refused."""
    return Triangulation(3, 0, [(0, 1, 2), (0, 1, 2)])


# ----------------------------------------------------------------------
# arcs

def initial_arc(i: int) -> Arc:
    """An arc already present in the triangulation (no crossings)."""
    return Arc((), None, None, arc=i)


def polygon_chords(k: int) -> list[tuple[tuple[int, int], Arc, list[int]]]:
    """All diagonals of polygon_fan(k) outside the fan.

    Returns (vertex pair, arc, flip plan); the flip plan turns the fan
    into a triangulation containing the chord, which lands in the slot
    of the last flip.
    """
    n = k + 3
    out = []
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            if j > n - 1:
                continue
            crossings = tuple(range(i - 1, j - 2))
            arc = Arc(crossings, i - 1, j - 2)
            plan = list(range(i - 1, j - 2))
            out.append(((i, j), arc, plan))
    return out


def annulus_bridge(w: int) -> tuple[Arc, list[int]]:
    """Annulus arc joining the two marked points, winding |w| times.

    Positive w starts with crossings of arc 0, negative w with arc 1;
    the crossing count is 2|w|-3 for w >= 2 and 2|w|-1 for w <= -1.
    """
    if w >= 2:
        d = 2 * w - 3
        crossings = tuple(i % 2 for i in range(d))
        plan = [i % 2 for i in range(w - 1)]
    elif w <= -1:
        d = -2 * w - 1
        crossings = tuple((i + 1) % 2 for i in range(d))
        plan = [(i + 1) % 2 for i in range(-w)]
    else:
        raise ValueError("w must be >= 2 or <= -1")
    return Arc(crossings, 0, 1), plan


def golden_arc() -> Arc:
    return annulus_bridge(4)[0]


# ----------------------------------------------------------------------
# seeds

def doubled_lambda(b_matrix) -> LambdaForm:
    base = principal_lambda(b_matrix)
    return LambdaForm([[2 * v for v in row] for row in base.rows])


def perturbed_lambda(b_matrix) -> LambdaForm:
    """Principal form plus a rank-two skew kernel perturbation.

    The vectors (e_a, B e_a) span part of the kernel of the transposed
    extended matrix, so adding w1 w2^T - w2 w1^T keeps the pair
    compatible with the same scalar.
    """
    n = len(b_matrix)
    if n < 2:
        raise ValueError("needs at least two mutable directions")
    m = 2 * n
    base = principal_lambda(b_matrix)
    w1 = [1 if i == 0 else 0 for i in range(n)] + [b_matrix[i][0] for i in range(n)]
    w2 = [1 if i == 1 else 0 for i in range(n)] + [b_matrix[i][1] for i in range(n)]
    rows = [
        [base.rows[u][v] + w1[u] * w2[v] - w2[u] * w1[v] for v in range(m)]
        for u in range(m)
    ]
    return LambdaForm(rows)


def seed_choices(t: Triangulation) -> list[Seed]:
    """Three distinct compatible quantizations of the principal seed."""
    b = signed_adjacency(t)
    btilde = principal_seed(b).btilde
    return [
        principal_seed(b),
        Seed(btilde, doubled_lambda(b)),
        Seed(btilde, perturbed_lambda(b)),
    ]


def sheared_seed(t: Triangulation) -> Seed:
    """The principal seed changed by P = diag(I_n, U), with U unimodular.

    U negates the first coefficient row and adds it to the second, so the
    bottom block takes negative values on heights and the tropical
    normalization of exponents is not the identity.  Btilde' = P·Btilde and
    Lambda' = P^(-T)·Lambda·P^(-1) keep transpose(Btilde')·Lambda' = (d I | 0);
    here P is its own inverse.
    """
    b = signed_adjacency(t)
    base = principal_seed(b)
    n, m = len(b), base.m
    p = [[int(i == j) for j in range(m)] for i in range(m)]
    p[n][n] = -1
    if n >= 2:
        p[n + 1][n] = 1

    def times(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))
        ]

    assert times(p, p) == [[int(i == j) for j in range(m)] for i in range(m)]
    p_t = [list(row) for row in zip(*p)]
    return Seed(
        times(p, base.btilde), LambdaForm(times(times(p_t, base.lam.rows), p))
    )


# ----------------------------------------------------------------------
# corpus sweeps

def valuation_corpus() -> list[tuple[str, Triangulation, Arc]]:
    """Every arc covered by the valuation acceptance sweep."""
    out: list[tuple[str, Triangulation, Arc]] = []
    for k, name in ((2, "pentagon"), (3, "hexagon"), (4, "heptagon")):
        t = polygon_fan(k)
        for i in range(k):
            out.append((f"{name} initial {i}", t, initial_arc(i)))
        for pair, arc, _ in polygon_chords(k):
            out.append((f"{name} chord {pair}", t, arc))
    t = annulus()
    for i in range(2):
        out.append((f"annulus initial {i}", t, initial_arc(i)))
    for w in (2, 3, 4, 5, -1, -2, -3, -4):
        arc, _ = annulus_bridge(w)
        out.append((f"annulus bridge {w}", t, arc))
    return out


def oracle_corpus() -> list[tuple[str, Triangulation, Arc, list[int]]]:
    """Every (arc, flip plan) pair covered by the oracle acceptance sweep."""
    out: list[tuple[str, Triangulation, Arc, list[int]]] = []
    for k, name in ((2, "pentagon"), (3, "hexagon")):
        t = polygon_fan(k)
        for pair, arc, plan in polygon_chords(k):
            out.append((f"{name} chord {pair}", t, arc, plan))
    t = annulus()
    for w in (2, 3, 4, -1, -2, -3):
        arc, plan = annulus_bridge(w)
        out.append((f"annulus bridge {w}", t, arc, plan))
    return out


def transfer_corpus() -> list[tuple[str, Triangulation, Arc]]:
    """Arcs on which the transfer expansion is compared with enumeration.

    The valuation and oracle corpora, ladders with d = 6..11, annulus
    bridges with w = +-6..+-8 and the longest chords of the 10- and 30-fan.
    """
    out = list(valuation_corpus())
    out += [(name, t, arc) for name, t, arc, _ in oracle_corpus()]
    for d in range(6, 12):
        out.append((f"ladder {d}", ladder_surface(d), ladder_arc(d)))
    t = annulus()
    for w in (6, 7, 8, -6, -7, -8):
        out.append((f"annulus bridge {w}", t, annulus_bridge(w)[0]))
    for k in (10, 30):
        chords = {pair: arc for pair, arc, _ in polygon_chords(k)}
        out.append((f"{k}-fan chord (1, {k + 2})", polygon_fan(k), chords[1, k + 2]))
    return out


def side_vertices(tile, pos: str) -> frozenset:
    """The plane coordinates of the two ends of a tile's side."""
    x, y = tile.x, tile.y
    if pos == "S":
        return frozenset(((x, y), (x + 1, y)))
    if pos == "W":
        return frozenset(((x, y), (x, y + 1)))
    if pos == "E":
        return frozenset(((x + 1, y), (x + 1, y + 1)))
    return frozenset(((x, y + 1), (x + 1, y + 1)))


def edge_vertices(g, ref) -> frozenset:
    """The plane coordinates of the two ends of one of the graph's edges."""
    if ref not in g.bit:
        raise KeyError(ref)
    if ref == (0, "G"):
        return frozenset(((0, 0), (1, 0)))
    return side_vertices(g.tiles[ref[0] - 1], ref[1])


def glue_edges(g) -> tuple:
    """The side shared by tiles p and p + 1, at entry p - 1."""
    return tuple(
        (j, "E" if glue == "R" else "N") for j, glue in enumerate(g.glue, start=1)
    )


def reference_matchings(g) -> tuple:
    """Reference: every perfect matching by a vertex search, in bit order.

    Depth-first search on an explicit stack, so no recursion limit.
    Vertices are numbered along the snake (by x + y, then x), and each step
    covers the lowest uncovered vertex, whose free neighbours all lie one
    step further along.  Covered sets are bit masks, and each stack entry
    carries its chosen edges as a linked list, so no step copies the
    partial matching.
    """
    vertices = sorted(
        set().union(*(edge_vertices(g, ref) for ref in g.edge_refs)),
        key=lambda v: (v[0] + v[1], v[0]),
    )
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    incident: list[list] = [[] for _ in vertices]
    for ref in g.edge_refs:
        ends = [bit[v] for v in edge_vertices(g, ref)]
        mask = ends[0] | ends[1]
        for end in ends:
            incident[end.bit_length() - 1].append((mask, ref))
    full = (1 << len(vertices)) - 1
    results = []
    stack: list = [(0, None)]
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            edges = []
            while chosen is not None:
                ref, chosen = chosen
                edges.append(ref)
            results.append(frozenset(edges))
            continue
        pivot = (~covered & (covered + 1)).bit_length() - 1
        for mask, ref in incident[pivot]:
            if not mask & covered:
                stack.append((covered | mask, (ref, chosen)))
    return tuple(sorted(results, key=g.matching_bits))


def tile_bits(g, matching) -> tuple[int, ...]:
    """Reference: bit t_p is 1 when tile p lies inside the cycles of the
    matching's symmetric difference with the minimal matching, that is when
    a ray east from the tile's centre crosses an odd number of their
    vertical edges."""
    cycle = matching ^ g.minimal_matching()
    bits = []
    for tile in g.tiles:
        crossed = 0
        for ref in cycle:
            low, high = sorted(edge_vertices(g, ref))
            if low[0] == high[0] > tile.x and low[1] == tile.y:
                crossed += 1
        bits.append(crossed % 2)
    return tuple(bits)


# ----------------------------------------------------------------------
# frozen data for the five-tile annulus example

GOLDEN_TILES = (
    (1, 0, (2, 1, 3, 1), (0, 0)),
    (2, 1, (3, 0, 2, 0), (1, 0)),
    (3, 0, (2, 1, 3, 1), (2, 0)),
    (4, 1, (3, 0, 2, 0), (3, 0)),
    (5, 0, (2, 1, 3, 1), (4, 0)),
)
GOLDEN_GLUE = ("R", "R", "R", "R")

GOLDEN_MINIMAL = frozenset(
    {(1, "W"), (2, "S"), (2, "N"), (4, "S"), (4, "N"), (5, "E")}
)
GOLDEN_MAXIMAL = frozenset(
    {(1, "S"), (1, "N"), (3, "S"), (3, "N"), (5, "S"), (5, "N")}
)

GOLDEN_QUANTUM_TERMS = {
    (1, -2, 0, 0): {0: 1},
    (-1, 0, 1, 1): {-1: 1, 1: 1},
    (-1, -2, 0, 1): {-1: 1, 1: 1},
    (-3, 4, 3, 2): {0: 1},
    (-3, 2, 2, 2): {-2: 1, 0: 1, 2: 1},
    (-3, 0, 1, 2): {-2: 1, 0: 1, 2: 1},
    (-3, -2, 0, 2): {0: 1},
}

GOLDEN_VALUATIONS = sorted(
    (-2, -2, -1, -1, 0, 0, 0, 0, 0, 1, 1, 2, 2)
)

GOLDEN_TAU_CLASSES = {
    0: (
        ("III", frozenset({(2, "S")})),
        ("I", frozenset({(2, "N"), (4, "S")})),
        ("III", frozenset({(4, "N")})),
    ),
    1: (
        ("I", frozenset({(1, "N"), (3, "S")})),
        ("I", frozenset({(3, "N"), (5, "S")})),
        ("IV", frozenset({(1, "S")})),
        ("IV", frozenset({(5, "N")})),
    ),
}

FIBONACCI_COUNTS = {1: 2, 2: 3, 3: 5, 4: 8, 5: 13, 6: 21, 7: 34, 8: 55}
