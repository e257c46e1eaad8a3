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
of Laurent expansions.  Each is the minimal matching, every other edge of the
boundary read off the tiles' sides, with the four sides of every tile whose
bit is 1 switched, and the fence relations between neighbouring bits say
which bit patterns occur.  The constructor reads all of that off the glue
word in one walk over the crossings (:meth:`SnakeGraph._layout`): tiles,
edges, fence and the masks of both extremal matchings.  This module lists
the matchings that way and computes heights, weights, twists and the
label-equivalence classes used to compare expansions across a flip.

The graph's listing (:meth:`SnakeGraph._listed`) is primary: the fence walk
keeps one row per matching, its bit string, its edge mask and its height
packed into one int.  The audit rows, the valuation listing and the
exhaustive valuation read those rows and build no edge set.  Only
:meth:`SnakeGraph.matchings`, on its first call, turns the rows into
frozensets of edges, for the public results keyed by edge set;
:meth:`SnakeGraph.height_vector`, :meth:`SnakeGraph.mask` and
:meth:`SnakeGraph.matching_bits` recompute one matching's entries from its
edges.

Tiles are indexed from 1; an edge is addressed as (tile, position) with
positions "S", "W", "E", "N", and a shared edge belongs to the earlier tile.
An arc already in the triangulation has a degenerate one-edge graph with the
single edge reference (0, "G").  In an edge mask, bit i stands for
``edge_refs[i]``: by owning tile, then south, west, east, north.
:class:`Tile` and :class:`TauClass` are ``NamedTuple`` records.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import compress
from typing import NamedTuple

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


class Tile(NamedTuple):
    """One square tile: its diagonal label, four side labels, and placement."""

    index: int
    diagonal: int
    south: int
    west: int
    east: int
    north: int
    x: int
    y: int


class TauClass(NamedTuple):
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
    """The snake graph of an arc over a fixed triangulation.

    ``fence[p - 1]`` is True when t_p <= t_(p+1) in every matching and False
    when t_p >= t_(p+1), where the bit t_p is 1 when tile p lies inside the
    matching's symmetric difference with the minimal matching; the bit
    patterns these relations allow are exactly those of the matchings.
    """

    def __init__(self, triangulation: Triangulation, arc: Arc):
        self.triangulation = triangulation
        self.arc = arc
        self.trace: ArcTrace = trace_arc(triangulation, arc)
        self.degenerate_label: int | None = arc.arc
        # an arc given by index crosses nothing, so it has no tiles
        self._layout()
        self._matchings: tuple[Matching, ...] | None = None
        self._listing: tuple[ListedMatching, ...] | None = None

    @property
    def d(self) -> int:
        return len(self.tiles)

    def _layout(self) -> None:
        """Each crossing's tile, glue letter, sides, fence entry and boundary edges."""
        tris = self.triangulation.triangles
        path = self.trace.triangle_path
        crossings = self.arc.crossings
        tiles: list[Tile] = []
        glue: list[str] = []
        fence: list[bool] = []
        # edge order is the order the sides first appear in here
        labels: dict[EdgeRef, int] = {}
        if self.degenerate_label is not None:
            labels[DEGENERATE_EDGE] = self.degenerate_label
        # row j - 1: the references of tile j's south, west, east and north
        sides: list[tuple[EdgeRef, ...]] = []
        # the southeast and the northwest boundary chains both run from the
        # south-west corner of tile 1 to the north-east corner of tile d and
        # close the boundary, the one cycle of every edge but the glue edges;
        # a degenerate graph's one edge is both chains
        southeast = list(labels)
        northwest = list(labels)
        x = y = 0
        entered = ""
        for j, diag in enumerate(crossings, start=1):
            _, s_in, t_in = tris[path[j - 1]].rotated(diag)
            _, s_out, t_out = tris[path[j]].rotated(diag)
            if j % 2 == 1:
                own = (s_in, t_in, t_out, s_out)
            else:
                own = (t_in, s_in, s_out, t_out)
            tiles.append(Tile(j, diag, *own, x, y))
            row = [(j, pos) for pos in POSITION_ORDER]
            # the glued-in side is the previous tile's east (after R) or
            # north (after U) side; the others are tile j's own
            if entered == "R":
                row[1] = sides[-1][2]
            elif entered == "U":
                row[0] = sides[-1][3]
            for ref, label in zip(row, own):
                if ref[0] == j:
                    labels[ref] = label
            sides.append(tuple(row))
            south, west, east, north = row
            leaving = ""
            if j < len(crossings):
                # the connector is the side of path[j] that is neither this
                # diagonal nor the next, so it is this tile's east or north
                # side, and in either parity tile j + 1 gets it as its west or
                # south side; the sides are distinct, or trace_arc refuses
                if self.trace.connectors[j - 1] == own[2]:
                    leaving = "R"
                    x += 1
                else:
                    leaving = "U"
                    y += 1
                glue.append(leaving)
                # the first pair rises when tile 2 sits east of tile 1, and
                # the direction flips after each straight glue
                if j == 1:
                    fence.append(leaving == "R")
                else:
                    fence.append(fence[-1] ^ (leaving == entered))
            if entered != "U":
                southeast.append(south)
            if leaving != "R":
                southeast.append(east)
            if entered != "R":
                northwest.append(west)
            if leaving != "U":
                northwest.append(north)
            entered = leaving
        self.tiles: tuple[Tile, ...] = tuple(tiles)
        self.glue: tuple[str, ...] = tuple(glue)
        self.fence: tuple[bool, ...] = tuple(fence)
        self.edge_refs: tuple[EdgeRef, ...] = tuple(labels)
        self._labels = labels
        self._tile_refs = tuple(sides)
        self.bit = bit = {ref: 1 << i for i, ref in enumerate(self.edge_refs)}
        # row p - 1: the bits of tile p's south, west, east and north sides
        self.tile_sides: tuple[tuple[int, ...], ...] = tuple(
            tuple(map(bit.__getitem__, row)) for row in sides
        )
        # the extremal matchings take every other edge of the boundary cycle,
        # so nothing is enumerated: the minimal one takes the first edge of
        # the northwest chain, the west side of tile 1, and the maximal one
        # the first edge of the southeast chain
        self._minimal = sum(map(bit.__getitem__, northwest[0::2] + southeast[1::2]))
        self._maximal = sum(map(bit.__getitem__, northwest[1::2] + southeast[0::2]))
        # a label's slot is its index in ``crossed_labels``; a height is packed
        # into one int, ``_height_bits`` bits per slot, the lowest for slot 0
        self._crossings = Counter(crossings)
        self.crossed_labels: tuple[int, ...] = tuple(sorted(self._crossings))
        self._slot = {label: k for k, label in enumerate(self.crossed_labels)}
        self._height_bits = max(self._crossings.values(), default=0).bit_length()

    def edge_label(self, ref: EdgeRef) -> int:
        return self._labels[ref]

    def mask(self, matching: Matching) -> int:
        """The matching as an edge mask: bit i set when ``edge_refs[i]`` is in it."""
        return sum(map(self.bit.__getitem__, matching))

    def tile_edge_refs(self, p: int) -> tuple[EdgeRef, ...]:
        """Canonical references of tile p's south, west, east, north sides.

        A side glued to tile p - 1 is that tile's east or north side.
        """
        if not 1 <= p <= self.d:
            raise ValueError(f"tile index {p} out of range")
        return self._tile_refs[p - 1]

    # ------------------------------------------------------------------
    # perfect matchings

    def matchings(self) -> tuple[Matching, ...]:
        """All perfect matchings as edge sets, in the order of :meth:`_listed`.

        They are built from the listing's bit strings on the first call.
        """
        if self._matchings is None:
            self._matchings = tuple(
                self._matching(bits) for bits, _, _ in self._listed()
            )
        return self._matchings

    def _listed(self) -> tuple[ListedMatching, ...]:
        """Every matching's bit string, edge mask and packed height, by bits.

        The fence walk runs on the first call, and its rows are kept.
        """
        if self._listing is None:
            self._listing = self._fence_walk()
        return self._listing

    def _fence_walk(self) -> tuple[ListedMatching, ...]:
        """The rows of :meth:`_listed`.

        The bit patterns the fence allows are walked tile by tile as (edge
        mask, packed height) pairs, split by their last bit: each starts as
        the minimal matching's mask at height 0, and a tile whose bit is 1
        switches its four sides and adds one to its label's packed height.
        """
        zero, one = [(self._minimal, 0)], []
        for tile, sides, rising in zip(
            self.tiles, self.tile_sides, (True, *self.fence)
        ):
            switched = sum(sides)
            unit = 1 << (self._height_bits * self._slot[tile.diagonal])
            states = zero + one if rising else one
            lifted = [(m ^ switched, h + unit) for m, h in states]
            if not rising:
                zero = zero + one
            one = lifted
        # distinct matchings have distinct bit strings, so only they compare
        return tuple(sorted((self._bits(m), m, h) for m, h in zero + one))

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

    def _refs(self, bits: str) -> Iterator[EdgeRef]:
        """The edges ``edge_refs[i]`` whose bit i is 1, in edge order."""
        return compress(self.edge_refs, bits.encode().translate(_SELECTORS))

    def _matching(self, bits: str) -> Matching:
        """The matching whose edge ``edge_refs[i]`` is in when bit i is 1."""
        return frozenset(self._refs(bits))

    def minimal_matching(self) -> Matching:
        """The all-boundary matching through the west side of the first tile.

        It and :meth:`maximal_matching` are the masks that :meth:`_layout`
        reads off the boundary chains, as edge sets.
        """
        return self._matching(self._bits(self._minimal))

    def maximal_matching(self) -> Matching:
        return self._matching(self._bits(self._maximal))

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

        Tile p's bit t_p (see :attr:`fence`) is 1 when the matching and the
        minimal matching differ on a side that only tile p has: its north
        side when tile p + 1 sits to its east, otherwise its east side.
        """
        heights = [0] * self.triangulation.n_internal
        switched = self.mask(matching) ^ self._minimal
        for tile, (_, _, east, north), glue in zip(
            self.tiles, self.tile_sides, (*self.glue, "U")
        ):
            if switched & (north if glue == "R" else east):
                heights[tile.diagonal] += 1
        return tuple(heights)

    def weight_vector(self, matching: Iterable[EdgeRef]) -> tuple[int, ...]:
        """Sum of basis vectors of the internal labels of the matched edges."""
        n = self.triangulation.n_internal
        weights = [0] * n
        for ref in matching:
            label = self._labels[ref]
            if self.triangulation.is_internal(label):
                weights[label] += 1
        return tuple(weights)

    def crossing_vector(self) -> tuple[int, ...]:
        return tuple(self._crossings[c] for c in range(self.triangulation.n_internal))

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
            # tile p and each neighbour share a triangle: tau, the glued
            # connector and the neighbour's diagonal, so the neighbour's
            # side there that is not glued is labeled tau
            if p >= 2:
                pos = "N" if self.glue[p - 2] == "R" else "E"
                members.append((p - 1, pos))
            if p <= self.d - 1:
                pos = "S" if self.glue[p - 1] == "R" else "W"
                members.append((p + 1, pos))
            if not members:
                continue
            if len(members) == 2:
                # the two edges meet when the glue turns at tile p
                kind = "II" if self.glue[p - 2] != self.glue[p - 1] else "I"
            else:
                kind = "III"
            assigned.update(members)
            classes.append((p, 0, TauClass(p, kind, tuple(members))))
        for ref in self.edge_refs:
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
