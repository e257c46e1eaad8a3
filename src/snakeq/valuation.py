"""The twist-defined valuation on perfect matchings.

Each twist of a matching at a tile carries an integer increment computed from
the positions of same-labeled edges around that tile, and the valuation v is
the unique integer potential with v = 0 on the two extremal matchings whose
twist-differences realize those increments.  Well-definedness is a theorem,
not an assumption: this module checks every twist move from both of its ends,
so any twist cycle that fails to sum to zero raises, and it raises too if the
twists leave a matching unreached or the other extremal matching off 0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterable

from .snakegraph import EdgeRef, Matching, POSITION_ORDER, SnakeGraph

__all__ = [
    "ValuationError",
    "compute_valuation",
    "omega",
    "ordered_matched_edges",
]

_POSITION_RANK = {pos: i for i, pos in enumerate(POSITION_ORDER)}


class ValuationError(ValueError):
    """Raised when the twist increments fail to define a potential."""


def ordered_matched_edges(graph: SnakeGraph, matching: Matching) -> list[EdgeRef]:
    """The matched edges sorted by owning tile, then south, west, east, north."""
    return sorted(
        matching, key=lambda ref: (ref[0], _POSITION_RANK.get(ref[1], -1))
    )


def omega(graph: SnakeGraph, matching: Matching, p: int, d_scale: int = 1) -> int:
    """Twist increment at tile p: v(matching) - v(twist at p).

    The two matched sides of tile p sit next to each other in the ordered
    edge list; the increment counts edges of the diagonal's label strictly
    after minus strictly before them, corrects by the occurrences of that
    label among later minus earlier crossings, carries a sign read off from
    which pair of sides is matched, and scales by the compatibility scalar.
    """
    if not graph.can_twist(matching, p):
        raise ValueError(f"matching has no twist at tile {p}")
    crossings = _label_positions(graph.arc.crossings)
    return _twist_increments(graph, matching, (p,), d_scale, crossings)[0]


def _label_positions(labels: Iterable[int]) -> dict[int, list[int]]:
    """Ascending positions of each label in a sequence."""
    out: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        out.setdefault(label, []).append(i)
    return out


def _outside(positions: list[int], lo: int, hi: int) -> tuple[int, int]:
    """How many positions lie strictly before lo and strictly after hi."""
    return bisect_left(positions, lo), len(positions) - bisect_right(positions, hi)


def _twist_increments(
    graph: SnakeGraph,
    matching: Matching,
    tiles: Iterable[int],
    d_scale: int,
    crossings: dict[int, list[int]],
) -> list[int]:
    """:func:`omega` at each of the given twistable tiles of one matching.

    The matched edges are sorted and their labels read once, so each tile
    costs a few bisections.  ``crossings`` is the arc's crossing sequence
    as :func:`_label_positions`.
    """
    ordered = ordered_matched_edges(graph, matching)
    rank = {ref: i for i, ref in enumerate(ordered)}
    matched = _label_positions(graph.edge_label(ref) for ref in ordered)
    out = []
    for p in tiles:
        tile_refs = graph.tile_edge_refs(p)
        lo, hi = sorted(rank[ref] for ref in tile_refs if ref in rank)
        if hi != lo + 1:
            raise AssertionError(
                f"matched sides of tile {p} are not adjacent in the ordered "
                "edge list"
            )
        tau = graph.tiles[p - 1].diagonal
        n_before, n_after = _outside(matched.get(tau, []), lo, hi)
        m_before, m_after = _outside(crossings[tau], p - 1, p - 1)

        south, west, east, north = tile_refs
        pair = {ordered[lo], ordered[hi]}
        if pair == {south, north}:
            horizontal = True
        elif pair == {west, east}:
            horizontal = False
        else:
            raise AssertionError(
                f"twistable tile {p} is matched on adjacent sides"
            )
        positive = horizontal == (p % 2 == 1)
        magnitude = (n_after - m_after - n_before + m_before) * d_scale
        out.append(magnitude if positive else -magnitude)
    return out


def compute_valuation(graph: SnakeGraph, d_scale: int = 1) -> dict[Matching, int]:
    """Valuation of every perfect matching, anchored at the extremal ones.

    A breadth-first search from the maximal matching, at value 0, along
    twists.  Every matching it reaches has all of its twists checked, so each
    twist move is checked from both of its ends.  Raises
    :class:`ValuationError` if a twist cycle is inconsistent, if the twists
    do not connect all matchings, or if the minimal matching does not land
    on 0.
    """
    crossings = _label_positions(graph.arc.crossings)
    maximal = graph.maximal_matching()
    values: dict[Matching, int] = {maximal: 0}
    queue = deque([maximal])
    while queue:
        current = queue.popleft()
        tiles = graph.twistable_tiles(current)
        steps = _twist_increments(graph, current, tiles, d_scale, crossings)
        for p, step in zip(tiles, steps):
            neighbor = graph.twist(current, p)
            value = values[current] - step
            known = values.get(neighbor)
            if known is None:
                values[neighbor] = value
                queue.append(neighbor)
            elif known != value:
                raise ValuationError(
                    "valuation ill-defined: twist cycle assigns both "
                    f"{known} and {value} to a matching"
                )
    if len(values) != len(graph.matchings()):
        raise ValuationError(
            "valuation ill-defined: twists do not connect all matchings"
        )
    minimal = graph.minimal_matching()
    if values[minimal] != 0:
        raise ValuationError(
            "valuation ill-defined: the minimal matching has value "
            f"{values[minimal]}, expected 0"
        )
    return values
