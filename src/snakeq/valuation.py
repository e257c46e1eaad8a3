"""The twist-defined valuation on perfect matchings.

A matching is held as its edge mask (:meth:`SnakeGraph.mask`, or the mask in
the graph's listing of :meth:`SnakeGraph.matchings`), whose bits
follow the snake's edge order, by owning tile and then south, west, east,
north, so the matched edges before or after a tile are the set bits below or
above its sides.  Each twist of a matching at a tile carries an integer
increment, a difference of popcounts of the matched edges labeled like the
tile's diagonal, and the valuation v is the unique integer potential with
v = 0 on the two extremal matchings whose twist-differences realize those
increments.  Well-definedness is a theorem, not an assumption:
:func:`compute_valuation`, which values every matching for the per-matching
listings, checks every twist move from both of its ends, so any twist cycle
that fails to sum to zero raises, and it raises too if the twists leave a
matching unreached or the other extremal matching off 0.  The expansions
need only :func:`twist_chain`, d twists from one extremal matching to the
other, which raises unless it ends at 0.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable

from .snakegraph import Matching, SnakeGraph

__all__ = [
    "TwistTable",
    "ValuationError",
    "compute_valuation",
    "omega",
    "twist_chain",
]


class ValuationError(ValueError):
    """Raised when the twist increments fail to define a potential."""


class TwistTable:
    """Per-tile masks of one snake graph, built in O(d) from its edge bits.

    Row p - 1 of ``tiles`` is ``(p, sides, south_north, west_east, label,
    balance)``: the masks of tile p's four sides, of its south-north and
    west-east pairs and of the edges labeled like its diagonal, and how many
    crossings of that label come before tile p minus how many come after it.
    """

    def __init__(self, graph: SnakeGraph):
        by_label: dict[int, int] = {}
        for ref, bit in graph.bit.items():
            label = graph.edge_label(ref)
            by_label[label] = by_label.get(label, 0) | bit
        before: Counter[int] = Counter()
        after = Counter(graph.arc.crossings)
        rows = []
        for tile, (south, west, east, north) in zip(graph.tiles, graph.tile_sides):
            tau = tile.diagonal
            after[tau] -= 1
            rows.append((
                tile.index,
                south | west | east | north,
                south | north,
                west | east,
                by_label.get(tau, 0),
                before[tau] - after[tau],
            ))
            before[tau] += 1
        self.tiles = tuple(rows)

    def twists(
        self, mask: int, d_scale: int, rows: Iterable[tuple] | None = None
    ) -> list[tuple[int, int, int]]:
        """``(p, twisted mask, increment)`` at each twistable tile p.

        Tile p twists when exactly two of its sides are matched; the
        increment is :func:`omega`.  ``rows`` restricts the scan to those
        rows of :attr:`tiles` (by default every tile).
        """
        out = []
        for p, sides, south_north, west_east, label, balance in (
            self.tiles if rows is None else rows
        ):
            matched = mask & sides
            if matched.bit_count() != 2:
                continue
            low = matched & -matched
            high = matched ^ low
            # high - 2 * low has exactly the bits strictly between the two
            if mask & (high - (low << 1)):
                raise AssertionError(
                    f"matched sides of tile {p} are not adjacent in the "
                    "ordered edge list"
                )
            if matched == south_north:
                positive = p % 2 == 1
            elif matched == west_east:
                positive = p % 2 == 0
            else:
                raise AssertionError(
                    f"twistable tile {p} is matched on adjacent sides"
                )
            labeled = mask & label
            n_before = (labeled & (low - 1)).bit_count()
            n_after = (labeled >> high.bit_length()).bit_count()
            magnitude = (n_after - n_before + balance) * d_scale
            out.append((p, mask ^ sides, magnitude if positive else -magnitude))
        return out


def omega(graph: SnakeGraph, matching: Matching, p: int, d_scale: int = 1) -> int:
    """Twist increment at tile p: v(matching) - v(twist at p).

    With the matching's edges in snake order, the two matched sides of
    tile p are adjacent; the increment is the popcount of matched edges of
    the diagonal's label after them minus the popcount before them, plus
    the occurrences of that label among earlier minus later crossings,
    signed by which pair of sides is matched and by the parity of p, and
    scaled by the compatibility scalar.
    """
    table = TwistTable(graph)
    for tile, _, step in table.twists(graph.mask(matching), d_scale):
        if tile == p:
            return step
    raise ValueError(f"matching has no twist at tile {p}")


def _valued_masks(
    graph: SnakeGraph,
    d_scale: int,
    twists: dict[int, list[tuple[int, int, int]]] | None = None,
) -> dict[int, int]:
    """Each listed mask's value, for :func:`compute_valuation`.

    Each mask's :meth:`TwistTable.twists` list is computed once; a
    ``twists`` dict, when given, keeps them by mask.
    """
    table = TwistTable(graph)
    matchings = graph.matchings()
    minimal, maximal = graph._extremal_masks()
    values = {maximal: 0}
    queue = deque([maximal])
    while queue:
        current = queue.popleft()
        base = values[current]
        found = table.twists(current, d_scale)
        if twists is not None:
            twists[current] = found
        for _, neighbor, step in found:
            value = base - step
            known = values.get(neighbor)
            if known is None:
                values[neighbor] = value
                queue.append(neighbor)
            elif known != value:
                raise ValuationError(
                    "valuation ill-defined: twist cycle assigns both "
                    f"{known} and {value} to a matching"
                )
    if len(values) != len(matchings):
        raise ValuationError(
            "valuation ill-defined: twists do not connect all matchings"
        )
    if values[minimal] != 0:
        raise ValuationError(
            "valuation ill-defined: the minimal matching has value "
            f"{values[minimal]}, expected 0"
        )
    return values


def compute_valuation(graph: SnakeGraph, d_scale: int = 1) -> dict[Matching, int]:
    """Valuation of every perfect matching, anchored at the extremal ones.

    A breadth-first search over matching bit masks, from the maximal
    matching at value 0, along twists: one :class:`TwistTable` per graph,
    and :meth:`TwistTable.twists` gives each matching's twisted masks and
    increments.  The masks are the ones in the graph's listing of
    :meth:`SnakeGraph.matchings`, so no matching is converted to a mask
    here, and the result follows the listing's order.  Every matching it
    reaches has all of its twists checked, so each twist move is checked
    from both of its ends.  Raises
    :class:`ValuationError` if a twist cycle is inconsistent, if the twists
    do not connect all matchings, or if the minimal matching does not land
    on 0.
    """
    values = _valued_masks(graph, d_scale)
    return {
        m: values[mask]
        for (_, mask, _), m in zip(graph._listed(), graph.matchings())
    }


def twist_chain(graph: SnakeGraph, d_scale: int = 1) -> list[tuple[int, int]]:
    """One chain of twists from the minimal to the maximal matching.

    Each step twists one tile p whose bit t_p (see :meth:`SnakeGraph.fence`)
    goes from 0 to 1, in an order that the fence relations allow, and gives
    ``(p, v(after) - v(before))`` from one :class:`TwistTable` row, so the d
    steps cost d rows.  This is the valuation check on the expansion path:
    raises
    :class:`ValuationError` unless the chain ends on the maximal matching at
    value 0.
    """
    d = graph.d
    fence = graph.fence()
    # the number of neighbours whose bit must be raised before tile p's
    waiting = [0] * (d + 1)
    for p, rising in enumerate(fence, start=1):
        waiting[p if rising else p + 1] += 1
    ready = [p for p in range(1, d + 1) if not waiting[p]]
    table = TwistTable(graph)
    mask, maximal = graph._extremal_masks()
    value = 0
    steps = []
    while ready:
        p = ready.pop()
        found = table.twists(mask, d_scale, (table.tiles[p - 1],))
        if not found:
            raise AssertionError(f"tile {p} does not twist on the chain")
        ((_, mask, step),) = found
        value -= step
        steps.append((p, -step))
        if p > 1 and fence[p - 2]:
            waiting[p - 1] -= 1
            if not waiting[p - 1]:
                ready.append(p - 1)
        if p < d and not fence[p - 1]:
            waiting[p + 1] -= 1
            if not waiting[p + 1]:
                ready.append(p + 1)
    if mask != maximal or value != 0:
        raise ValuationError(
            "valuation ill-defined: the twist chain from the minimal matching "
            f"ends at value {value}, not on the maximal matching at 0"
        )
    return steps
