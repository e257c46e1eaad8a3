"""Snake graphs of arcs and their perfect matchings.

An arc crossing d internal arcs yields a chain of d square tiles, one per
crossing.  Each tile is the quadrilateral around the crossed arc, drawn with
that arc as its northwest-southeast diagonal: the triangle the arc comes from
occupies the southwest half, the triangle it moves into occupies the
northeast half, and the half-triangles are mirrored on every second tile so
that the drawn orientation alternates along the chain.  Consecutive tiles are
glued along the side of the shared triangle not met by the arc, which lands
on the east or the north side of the earlier tile and decides whether the
chain grows rightward or upward.

Perfect matchings of the resulting plane graph are the combinatorial support
of Laurent expansions.  Each is the minimal matching, found by one walk of
the boundary, with the four sides of every tile whose bit is 1 switched, and
the fence relations between neighbouring bits say which bit patterns occur.
This module lists the matchings that way and computes heights, weights,
twists and the label-equivalence classes used to compare expansions across a
flip.  The walk keeps one row per matching, its bit string, its edge mask and
its height packed into one int, as the graph's listing: the audit rows, the
matching and valuation listings and the exhaustive valuation read those rows,
while :meth:`SnakeGraph.height_vector`, :meth:`SnakeGraph.mask` and
:meth:`SnakeGraph.matching_bits` recompute one matching's entries from its
edges.

Tiles are indexed from 1; an edge is addressed as (tile, position) with
positions "S", "W", "E", "N", and a shared edge belongs to the earlier tile.
An arc already in the triangulation has a degenerate one-edge graph with the
single edge reference (0, "G").  In an edge mask, bit i stands for
``edge_refs[i]``: by owning tile, then south, west, east, north.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress

from .surface import Arc, ArcTrace, Triangulation, trace_arc

__all__ = [
    "EdgeRef",
    "Matching",
    "POSITION_ORDER",
    "SnakeGraph",
    "TauClass",
    "Tile",
]

POSITION_ORDER = ("S", "W", "E", "N")

EdgeRef = tuple[int, str]
Matching = frozenset[EdgeRef]
# a matching's bit string, edge mask and packed height
ListedMatching = tuple[str, int, int]

DEGENERATE_EDGE: EdgeRef = (0, "G")

# a bit string's characters as the selectors 0 and 1 of ``compress``
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class Tile:
    """One square tile: its diagonal label, four side labels, and placement."""

    index: int
    diagonal: int
    south: int
    west: int
    east: int
    north: int
    x: int
    y: int

    def label(self, position: str) -> int:
        if position == "S":
            return self.south
        if position == "W":
            return self.west
        if position == "E":
            return self.east
        if position == "N":
            return self.north
        raise ValueError(f"unknown position {position!r}")


@dataclass(frozen=True)
class TauClass:
    """An equivalence class of same-labeled edges, with its anchor tile.

    Kinds: "I" and "II" are the two-edge classes attached to a tile whose
    diagonal carries the label (straight run versus turn), "III" is such a
    class truncated to one edge at the end of the graph, and "IV" is a
    leftover single edge not attached to any diagonal of that label.
    """

    anchor: int
    kind: str
    edges: tuple[EdgeRef, ...]


class SnakeGraph:
    """The snake graph of an arc over a fixed triangulation."""

    def __init__(self, triangulation: Triangulation, arc: Arc):
        self.triangulation = triangulation
        self.arc = arc
        self.trace: ArcTrace = trace_arc(triangulation, arc)
        self.degenerate_label: int | None = arc.arc
        self.tiles: tuple[Tile, ...]
        self.glue: tuple[str, ...]
        if self.degenerate_label is None:
            self._build_tiles()
        else:
            self.tiles = ()
            self.glue = ()
        self._index_edges()

    @property
    def d(self) -> int:
        return len(self.tiles)

    def _build_tiles(self) -> None:
        tris = self.triangulation.triangles
        path = self.trace.triangle_path
        crossings = self.arc.crossings
        tiles: list[Tile] = []
        glue: list[str] = []
        x = y = 0
        for j in range(1, len(crossings) + 1):
            diag = crossings[j - 1]
            _, s_in, t_in = tris[path[j - 1]].rotated(diag)
            _, s_out, t_out = tris[path[j]].rotated(diag)
            if j % 2 == 1:
                north, east = s_out, t_out
                south, west = s_in, t_in
            else:
                north, east = t_out, s_out
                south, west = t_in, s_in
            tiles.append(Tile(j, diag, south, west, east, north, x, y))
            if j < len(crossings):
                connector = self.trace.connectors[j - 1]
                if connector == east:
                    glue.append("R")
                    x += 1
                elif connector == north:
                    glue.append("U")
                    y += 1
                else:
                    raise AssertionError(
                        f"connector {connector} of tile {j} sits on neither the "
                        "east nor the north side"
                    )
        self.tiles = tuple(tiles)
        self.glue = tuple(glue)
        for j in range(1, len(tiles)):
            connector = self.trace.connectors[j - 1]
            received = tiles[j].west if glue[j - 1] == "R" else tiles[j].south
            if received != connector:
                raise AssertionError(
                    f"glued sides of tiles {j} and {j + 1} disagree: "
                    f"{connector} versus {received}"
                )

    def _index_edges(self) -> None:
        refs: list[EdgeRef] = []
        labels: dict[EdgeRef, int] = {}
        verts: dict[EdgeRef, frozenset[tuple[int, int]]] = {}
        if self.degenerate_label is not None:
            refs.append(DEGENERATE_EDGE)
            labels[DEGENERATE_EDGE] = self.degenerate_label
            verts[DEGENERATE_EDGE] = frozenset(((0, 0), (1, 0)))
        for tile in self.tiles:
            owned = set(POSITION_ORDER)
            if tile.index >= 2:
                owned.discard("W" if self.glue[tile.index - 2] == "R" else "S")
            for pos in POSITION_ORDER:
                if pos not in owned:
                    continue
                ref = (tile.index, pos)
                refs.append(ref)
                labels[ref] = tile.label(pos)
                verts[ref] = self._side_vertices(tile, pos)
        self.edge_refs: tuple[EdgeRef, ...] = tuple(refs)
        self._labels = labels
        self._vertices = verts
        self.bit = {ref: 1 << i for i, ref in enumerate(refs)}
        # row p - 1: the bits of tile p's south, west, east and north sides
        self.tile_sides: tuple[tuple[int, ...], ...] = tuple(
            tuple(map(self.bit.__getitem__, self.tile_edge_refs(p)))
            for p in range(1, self.d + 1)
        )
        # a height is packed into one int, ``_height_bits`` bits per entry of
        # ``crossed_labels``, the lowest for the first
        crossed = Counter(self.arc.crossings)
        self.crossed_labels: tuple[int, ...] = tuple(sorted(crossed))
        self._height_bits = max(crossed.values(), default=0).bit_length()
        self._matchings: tuple[Matching, ...] | None = None
        self._listing: tuple[ListedMatching, ...] | None = None
        self._extremal: tuple[Matching, Matching] | None = None
        self._extremal_edge_masks: tuple[int, int] | None = None

    @staticmethod
    def _side_vertices(tile: Tile, pos: str) -> frozenset[tuple[int, int]]:
        x, y = tile.x, tile.y
        if pos == "S":
            return frozenset(((x, y), (x + 1, y)))
        if pos == "W":
            return frozenset(((x, y), (x, y + 1)))
        if pos == "E":
            return frozenset(((x + 1, y), (x + 1, y + 1)))
        return frozenset(((x, y + 1), (x + 1, y + 1)))

    def edge_label(self, ref: EdgeRef) -> int:
        return self._labels[ref]

    def mask(self, matching: Matching) -> int:
        """The matching as an edge mask: bit i set when ``edge_refs[i]`` is in it."""
        return sum(map(self.bit.__getitem__, matching))

    def edge_vertices(self, ref: EdgeRef) -> frozenset[tuple[int, int]]:
        return self._vertices[ref]

    def glue_edges(self) -> tuple[EdgeRef, ...]:
        return tuple(
            (j, "E" if g == "R" else "N") for j, g in enumerate(self.glue, start=1)
        )

    def tile_edge_refs(self, p: int) -> tuple[EdgeRef, EdgeRef, EdgeRef, EdgeRef]:
        """Canonical references of tile p's south, west, east, north sides."""
        if not 1 <= p <= self.d:
            raise ValueError(f"tile index {p} out of range")
        south: EdgeRef = (p, "S")
        west: EdgeRef = (p, "W")
        if p >= 2:
            if self.glue[p - 2] == "R":
                west = (p - 1, "E")
            else:
                south = (p - 1, "N")
        return (south, west, (p, "E"), (p, "N"))

    # ------------------------------------------------------------------
    # perfect matchings

    def matchings(self) -> tuple[Matching, ...]:
        """All perfect matchings, ordered by their bit strings.

        The bit patterns the fence allows are walked tile by tile as edge
        masks, split by their last bit: each starts as the minimal
        matching's mask, and a tile whose bit is 1 switches its four sides
        and adds one to its label's packed height.  The walk's rows, each a
        matching's bit string, edge mask and packed height, are kept as the
        graph's listing (:meth:`_listed`) in the same order.
        """
        if self._matchings is None:
            self._listing = self._fence_walk()
            refs = self.edge_refs
            self._matchings = tuple(
                frozenset(compress(refs, key.encode().translate(_SELECTORS)))
                for key, _, _ in self._listing
            )
        return self._matchings

    def _fence_walk(self) -> tuple[ListedMatching, ...]:
        """``(bits, mask, packed height)`` of every matching, by bit string."""
        slot = {label: k for k, label in enumerate(self.crossed_labels)}
        zero, one = [self._extremal_masks()[0]], []
        zero_h, one_h = [0], []
        for tile, sides, rising in zip(
            self.tiles, self.tile_sides, (True, *self.fence())
        ):
            switched = sum(sides)
            unit = 1 << (self._height_bits * slot[tile.diagonal])
            if rising:
                lifted = [m ^ switched for m in zero + one]
                lifted_h = [h + unit for h in zero_h + one_h]
            else:
                lifted = [m ^ switched for m in one]
                lifted_h = [h + unit for h in one_h]
                zero, zero_h = zero + one, zero_h + one_h
            one, one_h = lifted, lifted_h
        masks = zero + one
        # distinct matchings have distinct bit strings, so only they compare
        return tuple(sorted(zip(map(self._bits, masks), masks, zero_h + one_h)))

    def _listed(self) -> tuple[ListedMatching, ...]:
        """The listing of :meth:`matchings`, row i for matching i."""
        self.matchings()
        return self._listing

    def _unpack_height(self, height: int) -> list[int]:
        """A packed height as one count per entry of ``crossed_labels``."""
        bits = self._height_bits
        low = (1 << bits) - 1
        counts = []
        for _ in self.crossed_labels:
            counts.append(height & low)
            height >>= bits
        return counts

    def _bits(self, mask: int) -> str:
        """An edge mask as a bit string: character i is bit i."""
        return format(mask, f"0{len(self.edge_refs)}b")[::-1]

    def matching_bits(self, matching: Matching) -> str:
        return self._bits(self.mask(matching))

    def _extremal_matchings(self) -> tuple[Matching, Matching]:
        """The minimal and maximal matchings, from one walk of the boundary.

        Every edge but the glue edges lies on the boundary, and the boundary
        is one even cycle through every vertex.  Walking it from the west
        side of tile 1, the alternate edges are the minimal matching and the
        others the maximal one, so nothing is enumerated.
        """
        if self._extremal is None and self.degenerate_label is not None:
            only = frozenset((DEGENERATE_EDGE,))
            self._extremal = (only, only)
        if self._extremal is None:
            glue = set(self.glue_edges())
            ends: dict[tuple[int, int], list[EdgeRef]] = {}
            for ref in self.edge_refs:
                if ref not in glue:
                    for v in self._vertices[ref]:
                        ends.setdefault(v, []).append(ref)
            if any(len(refs) != 2 for refs in ends.values()):
                raise AssertionError(
                    "expected every vertex to meet exactly two boundary edges"
                )
            start: EdgeRef = (1, "W")
            walk = [start]
            vertex = min(self._vertices[start])
            while True:
                first, second = ends[vertex]
                ref = second if first == walk[-1] else first
                if ref == start:
                    break
                walk.append(ref)
                (vertex,) = self._vertices[ref] - {vertex}
            if len(walk) % 2 or len(walk) != len(ends):
                raise AssertionError(
                    "expected the boundary to be one even cycle through "
                    "every vertex"
                )
            self._extremal = (frozenset(walk[0::2]), frozenset(walk[1::2]))
        return self._extremal

    def _extremal_masks(self) -> tuple[int, int]:
        """The edge masks of the minimal and the maximal matching."""
        if self._extremal_edge_masks is None:
            # mask() stays the per-matching reference; no listing path calls it
            bit = self.bit.__getitem__
            low, high = self._extremal_matchings()
            self._extremal_edge_masks = (sum(map(bit, low)), sum(map(bit, high)))
        return self._extremal_edge_masks

    def minimal_matching(self) -> Matching:
        """The all-boundary matching through the west side of the first tile."""
        return self._extremal_matchings()[0]

    def maximal_matching(self) -> Matching:
        return self._extremal_matchings()[1]

    def fence(self) -> tuple[bool, ...]:
        """The order between consecutive tile bits of every matching.

        The bit t_p of a matching is 1 when tile p lies inside its symmetric
        difference with the minimal matching, so the height vector sums the
        bits by label.  Entry p - 1 is True when t_p <= t_(p+1) in every
        matching and False when t_p >= t_(p+1).  The first pair rises
        when tile 2 sits east of tile 1, and the direction flips after each
        straight glue.  The bit patterns these relations allow are exactly
        the patterns of the perfect matchings.
        """
        out: list[bool] = []
        for j, g in enumerate(self.glue):
            if j == 0:
                rising = g == "R"
            elif g == self.glue[j - 1]:
                rising = not rising
            out.append(rising)
        return tuple(out)

    # ------------------------------------------------------------------
    # twists

    def can_twist(self, matching: Matching, p: int) -> bool:
        if self.degenerate_label is not None:
            return False
        return len(set(self.tile_edge_refs(p)) & matching) == 2

    def twist(self, matching: Matching, p: int) -> Matching:
        """Swap the two matched sides of tile p for the two unmatched ones."""
        if not self.can_twist(matching, p):
            raise ValueError(f"matching has no twist at tile {p}")
        return matching ^ frozenset(self.tile_edge_refs(p))

    def twistable_tiles(self, matching: Matching) -> tuple[int, ...]:
        return tuple(p for p in range(1, self.d + 1) if self.can_twist(matching, p))

    def twist_graph(
        self,
    ) -> tuple[tuple[Matching, ...], list[tuple[int, int, int]]]:
        """All matchings plus the twist moves between them.

        Returns the canonically ordered matchings and a list of triples
        (i, j, p) meaning the i-th matching twists at tile p into the j-th,
        recorded once per unordered pair with i < j.
        """
        all_matchings = self.matchings()
        index = {m: i for i, m in enumerate(all_matchings)}
        moves: list[tuple[int, int, int]] = []
        for i, m in enumerate(all_matchings):
            for p in self.twistable_tiles(m):
                j = index[self.twist(m, p)]
                if i < j:
                    moves.append((i, j, p))
        return all_matchings, moves

    # ------------------------------------------------------------------
    # exponent data

    def height_vector(self, matching: Matching) -> tuple[int, ...]:
        """Multiplicity of each internal arc among the tiles whose bit is 1.

        Tile p's bit t_p (see :meth:`fence`) is 1 when the matching and the
        minimal matching differ on a side that only tile p has: its north
        side when tile p + 1 sits to its east, otherwise its east side.
        """
        heights = [0] * self.triangulation.n_internal
        switched = self.mask(matching ^ self.minimal_matching())
        for tile, (_, _, east, north), glue in zip(
            self.tiles, self.tile_sides, (*self.glue, "U")
        ):
            if switched & (north if glue == "R" else east):
                heights[tile.diagonal] += 1
        return tuple(heights)

    def weight_vector(self, matching: Matching) -> tuple[int, ...]:
        """Sum of basis vectors of the internal labels of the matched edges."""
        n = self.triangulation.n_internal
        weights = [0] * n
        for ref in matching:
            label = self._labels[ref]
            if self.triangulation.is_internal(label):
                weights[label] += 1
        return tuple(weights)

    def crossing_vector(self) -> tuple[int, ...]:
        n = self.triangulation.n_internal
        out = [0] * n
        for c in self.arc.crossings:
            out[c] += 1
        return tuple(out)

    # ------------------------------------------------------------------
    # label-equivalence classes along a flip diagonal

    def tau_classes(self, tau: int) -> list[TauClass]:
        """Equivalence classes of the edges labeled ``tau``.

        Edges labeled tau flanking a tile whose diagonal is tau are grouped
        with that tile; every other tau-labeled edge is its own class.
        """
        classes: list[tuple[int, int, TauClass]] = []
        assigned: set[EdgeRef] = set()
        for p in range(1, self.d + 1):
            if self.tiles[p - 1].diagonal != tau:
                continue
            members: list[EdgeRef] = []
            if p >= 2:
                pos = "N" if self.glue[p - 2] == "R" else "E"
                ref = (p - 1, pos)
                if self._labels[ref] != tau:
                    raise AssertionError(
                        f"edge {ref} beside the tau-diagonal tile {p} is not "
                        f"labeled {tau}"
                    )
                members.append(ref)
            if p <= self.d - 1:
                pos = "S" if self.glue[p - 1] == "R" else "W"
                ref = (p + 1, pos)
                if self._labels[ref] != tau:
                    raise AssertionError(
                        f"edge {ref} beside the tau-diagonal tile {p} is not "
                        f"labeled {tau}"
                    )
                members.append(ref)
            if not members:
                continue
            if len(members) == 2:
                touching = bool(
                    self._vertices[members[0]] & self._vertices[members[1]]
                )
                kind = "II" if touching else "I"
            else:
                kind = "III"
            assigned.update(members)
            classes.append((p, 0, TauClass(p, kind, tuple(members))))
        for i, ref in enumerate(self.edge_refs):
            if self._labels[ref] == tau and ref not in assigned:
                classes.append((ref[0], 1, TauClass(ref[0], "IV", (ref,))))
        classes.sort(key=lambda item: (item[0], item[1]))
        return [c for _, _, c in classes]

    def nu_signature(self, matching: Matching, tau: int) -> tuple[int, ...]:
        """Per-class matched-edge counts, shifted by one on kinds I to III."""
        out = []
        for cls in self.tau_classes(tau):
            count = sum(1 for e in cls.edges if e in matching)
            out.append(count if cls.kind == "IV" else count - 1)
        return tuple(out)
