"""The twist-defined valuation on perfect matchings.

A matching is held as its edge mask (the mask in the graph's listing,
:meth:`SnakeGraph._listed`, or :meth:`SnakeGraph.mask` of an edge set), whose
bits follow the snake's edge order, by owning tile and then south, west,
east, north, so the matched edges before or after a tile are the set bits
below or above its sides.  Each twist of a matching at a tile carries an
integer increment, a difference of popcounts of the matched edges labeled
like the tile's diagonal, and the valuation v is the unique integer potential
with v = 0 on the two extremal matchings whose twist-differences realize
those increments.  :class:`TwistTable` keeps, per tile and per pair of sides
that can twist, the masks that difference reads, so a twist costs two
popcounts.

Well-definedness is a theorem, not an assumption: the exhaustive search
(:func:`_valued_masks`, which values every listed mask for the per-matching
listings, and :func:`compute_valuation`, which keys its values by edge set)
checks every twist move from both of its ends, so any twist cycle that fails
to sum to zero raises, and it raises too if the twists leave a matching
unreached or the other extremal matching off 0.  The expansions need only
:func:`twist_chain`, d twists from one extremal matching to the other, which
raises unless it ends at 0.
"""

from __future__ import annotations

from collections import deque
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

    Row p - 1 of ``tiles`` is ``(p, sides, pairs)``: the mask of tile p's
    four sides, and a dict from the mask of each pair of sides that can
    twist, south-north and west-east, to ``(between, before, after,
    offset)``.  ``between`` holds the edges strictly between the pair in
    edge order, and ``before`` and ``after`` the edges labeled like the
    diagonal below and above the pair.  ``offset`` is how many crossings of
    that label come before tile p minus how many come after it.  Where the
    twist counts negatively, by the pair and the parity of p, ``before``
    and ``after`` are swapped and ``offset`` is negated, so every increment
    is the same difference of two popcounts.
    """

    def __init__(self, graph: SnakeGraph):
        by_label: dict[int, int] = {}
        for ref, label in graph._labels.items():
            by_label[label] = by_label.get(label, 0) | graph.bit[ref]
        seen: dict[int, int] = {}
        rows = []
        for tile, (south, west, east, north) in zip(graph.tiles, graph.tile_sides):
            tau = tile.diagonal
            # k crossings of tau before tile p, and all but k + 1 after it
            k = seen.get(tau, 0)
            seen[tau] = k + 1
            balance = 2 * k + 1 - graph._crossings[tau]
            labeled = by_label.get(tau, 0)
            # high - 2 * low has exactly the bits strictly between low and
            # high, and -2 * high every bit above high
            between_sn = north - (south << 1)
            between_we = east - (west << 1)
            below_s, above_n = labeled & (south - 1), labeled & -(north << 1)
            below_w, above_e = labeled & (west - 1), labeled & -(east << 1)
            # the south-north pair counts positively on odd tiles, the
            # west-east pair on even ones
            if tile.index % 2:
                sn = (between_sn, below_s, above_n, balance)
                we = (between_we, above_e, below_w, -balance)
            else:
                sn = (between_sn, above_n, below_s, -balance)
                we = (between_we, below_w, above_e, balance)
            pairs = {south | north: sn, west | east: we}
            rows.append((tile.index, south | west | east | north, pairs))
        self.tiles = tuple(rows)

    def twists(
        self, mask: int, d_scale: int, rows: Iterable[tuple] | None = None
    ) -> list[tuple[int, int, int]]:
        """``(p, twisted mask, increment)`` at each twistable tile p.

        Tile p twists when exactly two of its sides are matched, and they
        must be a pair of opposite sides with no matched edge between them;
        the increment is :func:`omega`.  ``rows`` restricts the scan to those
        rows of :attr:`tiles` (by default every tile).
        """
        out = []
        for p, sides, pairs in self.tiles if rows is None else rows:
            matched = mask & sides
            if matched.bit_count() != 2:
                continue
            pair = pairs.get(matched)
            if pair is None:
                low = matched & -matched
                between = (matched ^ low) - (low << 1)
            else:
                between, before, after, offset = pair
            if mask & between:
                raise AssertionError(
                    f"matched sides of tile {p} are not adjacent in the "
                    "ordered edge list"
                )
            if pair is None:
                raise AssertionError(
                    f"twistable tile {p} is matched on adjacent sides"
                )
            step = (mask & after).bit_count() - (mask & before).bit_count()
            out.append((p, mask ^ sides, (step + offset) * d_scale))
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
    """Each listed mask's value, the search of :func:`compute_valuation`.

    It runs on the masks of the graph's listing (:meth:`SnakeGraph._listed`)
    and builds no edge set.  Each mask's :meth:`TwistTable.twists` list is
    computed once; a ``twists`` dict, when given, keeps them by mask.
    """
    table = TwistTable(graph)
    minimal, maximal = graph._minimal, graph._maximal
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
    if len(values) != len(graph._listed()):
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
    increments.  The masks are the ones in the graph's listing
    (:meth:`SnakeGraph._listed`), so no matching is converted to a mask
    here; the values are keyed by the edge sets of
    :meth:`SnakeGraph.matchings`, in the listing's order.  Every matching it
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

    Each step twists one tile p whose bit t_p (see :attr:`SnakeGraph.fence`)
    goes from 0 to 1, in an order that the fence relations allow, and gives
    ``(p, v(after) - v(before))`` from one :class:`TwistTable` row, so the d
    steps cost d rows.  This is the valuation check on the expansion path:
    raises
    :class:`ValuationError` unless the chain ends on the maximal matching at
    value 0.
    """
    d = graph.d
    fence = graph.fence
    # the number of neighbours whose bit must be raised before tile p's
    waiting = [0] * (d + 1)
    for p, rising in enumerate(fence, start=1):
        waiting[p if rising else p + 1] += 1
    ready = [p for p in range(1, d + 1) if not waiting[p]]
    table = TwistTable(graph)
    mask, maximal = graph._minimal, graph._maximal
    value = 0
    steps = []
    while ready:
        p = ready.pop()
        # every tile p waited on is raised, so raising t_p is one twist
        ((_, mask, step),) = table.twists(mask, d_scale, (table.tiles[p - 1],))
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
