"""Triangulated unpunctured surfaces with marked points on the boundary.

A triangulation is stored combinatorially: arcs are integers, with indices
0..n_internal-1 internal and the rest boundary segments, and each triangle
lists its three sides as a cyclic triple.  The triples are oriented: all
triangles must be read in the same rotational direction around the surface,
and that shared direction is what fixes the signs of the adjacency matrix and
the geometry of snake graphs built on top.  Self-folded triangles (a repeated
side) and punctures are outside the scope of this model.  Loading checks the
side counts (every internal arc bounds two triangles and every boundary arc
one) and rejects a self-folded triangle, but it does not look for punctures:
a gluing with an interior vertex loads (ROADMAP item 10).  A flip derives
its result from the validated parent: it replaces two triangles and the
incidences of the two sides that move between them.

Arcs not in the triangulation are described by their crossing sequence: the
ordered list of internal arcs they cross, plus the triangles where they start
and end.  :func:`trace_arc` checks such a description against the
triangulation and recovers the full sequence of visited triangles.

:class:`Triangle` checks its sides when built and is a small slotted class
that refuses assignment; :class:`Quadrilateral`, :class:`Arc` and
:class:`ArcTrace` are plain :func:`~collections.namedtuple` records.
Neither kind goes through ``dataclasses`` or ``typing.NamedTuple``, whose
generated methods and field annotations every call of the command would
compile again at import.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from operator import countOf
from typing import Any, Iterable, Sequence

from .qalgebra import _int_tuple

__all__ = [
    "Arc",
    "ArcTrace",
    "Quadrilateral",
    "SurfaceError",
    "Triangle",
    "Triangulation",
    "flip",
    "quadrilateral",
    "signed_adjacency",
    "trace_arc",
]


class SurfaceError(ValueError):
    """Raised for invalid triangulations, arcs, or impossible flips."""


class _Frozen:
    """A base for slotted records whose fields are set once, in ``__init__``.

    The constructor sets each slot with ``object.__setattr__``; afterwards
    assigning or deleting a field raises :class:`AttributeError`.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Triangle(_Frozen):
    """Three sides in cyclic order, checked to be three on construction.

    The sides are converted with ``int()``; one that is not integral, such
    as 3.5, raises :class:`SurfaceError`.
    """

    __slots__ = ("sides",)

    sides: tuple[int, int, int]

    def __init__(self, sides: tuple[int, int, int]) -> None:
        if len(sides) != 3:
            raise SurfaceError(f"triangle {sides} does not have three sides")
        sides = _int_tuple(sides, "triangle side", SurfaceError)
        object.__setattr__(self, "sides", sides)

    @classmethod
    def _of_int_rows(cls, sides: Sequence[int]) -> Triangle:
        """The triangle of three integer sides: frozen, not converted."""
        tri = object.__new__(cls)
        object.__setattr__(tri, "sides", tuple(sides))
        return tri

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sides == other.sides

    def __hash__(self) -> int:
        return hash((self.sides,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(sides={self.sides!r})"

    def __reduce__(self) -> tuple[Any, ...]:
        return type(self), (self.sides,)

    def __contains__(self, arc: int) -> bool:
        return arc in self.sides

    def next_side(self, arc: int) -> int:
        return self.sides[(self.sides.index(arc) + 1) % 3]

    def prev_side(self, arc: int) -> int:
        return self.sides[(self.sides.index(arc) - 1) % 3]

    def rotated(self, arc: int) -> tuple[int, int, int]:
        """The cyclic triple starting at ``arc``."""
        i = self.sides.index(arc)
        return (self.sides[i], self.sides[(i + 1) % 3], self.sides[(i + 2) % 3])

    def third_side(self, a: int, b: int) -> int:
        rest = [s for s in self.sides if s != a and s != b]
        if len(rest) != 1:
            raise SurfaceError(
                f"triangle {self.sides} has no unique third side besides {a}, {b}"
            )
        return rest[0]


class Triangulation:
    """An indexed triangulation of an unpunctured marked surface.

    The arc counts and triangle sides (by :class:`Triangle`) are converted
    with ``int()``; one that is not integral, such as 2.9, raises
    :class:`SurfaceError`.
    """

    def __init__(
        self,
        n_internal: int,
        n_boundary: int,
        triangles: Any,
    ):
        self.n_internal, self.n_boundary = _int_tuple(
            (n_internal, n_boundary), "arc count", SurfaceError
        )
        if self.n_internal < 0 or self.n_boundary < 0:
            raise SurfaceError("arc counts must be non-negative")
        self.triangles = tuple(
            t if isinstance(t, Triangle) else Triangle(t) for t in triangles
        )
        self._validate()

    @property
    def n_arcs(self) -> int:
        return self.n_internal + self.n_boundary

    def is_internal(self, arc: int) -> bool:
        return 0 <= arc < self.n_internal

    def _validate(self) -> None:
        # every internal arc bounds two triangles and every boundary arc one;
        # the sum is checked first, so a huge declared arc count fails before
        # anything is allocated per arc
        if 2 * self.n_internal + self.n_boundary != 3 * len(self.triangles):
            raise SurfaceError(
                f"{len(self.triangles)} triangles have {3 * len(self.triangles)} "
                f"sides, but {self.n_internal} internal and {self.n_boundary} "
                f"boundary arcs need {2 * self.n_internal + self.n_boundary}"
            )
        incidence: dict[int, list[int]] = {a: [] for a in range(self.n_arcs)}
        for idx, tri in enumerate(self.triangles):
            if len(set(tri.sides)) != 3:
                raise SurfaceError(
                    f"triangle {idx} with sides {tri.sides} is self-folded"
                )
            for side in tri.sides:
                if not 0 <= side < self.n_arcs:
                    raise SurfaceError(
                        f"triangle {idx} refers to unknown arc {side}"
                    )
                incidence[side].append(idx)
        for arc, tris in incidence.items():
            want = 2 if self.is_internal(arc) else 1
            if len(tris) != want:
                kind = "internal" if self.is_internal(arc) else "boundary"
                raise SurfaceError(
                    f"{kind} arc {arc} lies in {len(tris)} triangles, expected {want}"
                )
        self._incidence = {a: tuple(t) for a, t in incidence.items()}

    def triangles_containing(self, arc: int) -> tuple[int, ...]:
        if not 0 <= arc < self.n_arcs:
            raise SurfaceError(f"unknown arc {arc}")
        return self._incidence[arc]

    def other_triangle(self, arc: int, triangle_index: int) -> int:
        pair = self.triangles_containing(arc)
        if len(pair) != 2 or triangle_index not in pair:
            raise SurfaceError(
                f"arc {arc} does not separate two triangles including {triangle_index}"
            )
        return pair[0] if pair[1] == triangle_index else pair[1]

    def _canonical_triangles(self) -> tuple[tuple[int, int, int], ...]:
        """Triangles rotated to start at their smallest side, sorted."""
        canon = []
        for tri in self.triangles:
            canon.append(tri.rotated(min(tri.sides)))
        return tuple(sorted(canon))

    def __eq__(self, other: object) -> bool:
        """Geometric equality: same arcs and the same cyclic triangles.

        The order of the triangle list and the rotation of each stored
        triple are representation detail, so both are ignored; two flips
        of the same arc therefore compose to the identity.
        """
        return (
            isinstance(other, Triangulation)
            and self.n_internal == other.n_internal
            and self.n_boundary == other.n_boundary
            and self._canonical_triangles() == other._canonical_triangles()
        )

    def __repr__(self) -> str:
        tris = [list(t.sides) for t in self.triangles]
        return (
            f"Triangulation(n_internal={self.n_internal}, "
            f"n_boundary={self.n_boundary}, triangles={tris})"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_internal": self.n_internal,
            "n_boundary": self.n_boundary,
            "triangles": [list(t.sides) for t in self.triangles],
        }

    @classmethod
    def from_dict(cls, data: Any) -> Triangulation:
        """The triangulation a JSON object describes.

        Its sides, proved ints by :func:`_check_json_matrix`, are not converted.
        """
        if not isinstance(data, dict):
            raise SurfaceError("surface description must be a JSON object")
        try:
            n_internal = _json_int(data["n_internal"], "n_internal")
            n_boundary = _json_int(data["n_boundary"], "n_boundary")
            triangles = _check_json_matrix(
                data["triangles"], "triangles", "each triangle", "each side"
            )
            sided = countOf(map(len, triangles), 3) == len(triangles)
            make = Triangle._of_int_rows if sided else Triangle
            # lazily, so the arc counts are checked before any triangle
            return cls(n_internal, n_boundary, map(make, triangles))
        except KeyError as missing:
            raise SurfaceError(f"surface description lacks key {missing}") from None
        except TypeError as bad:
            raise SurfaceError(f"malformed surface description: {bad}") from None


def signed_adjacency(t: Triangulation) -> list[list[int]]:
    """Skew-symmetric exchange matrix of the triangulation.

    For every triangle and every ordered pair of internal sides (a, b) with b
    immediately following a in the stored cyclic order, the entry B[b][a]
    gains 1 and B[a][b] loses 1.
    """
    n = t.n_internal
    mat = [[0] * n for _ in range(n)]
    _add_adjacency(mat, t.triangles, n, 1)
    return mat


def _add_adjacency(mat: Any, triangles: Iterable[Triangle], n: int, sign: int) -> None:
    """Add ``sign`` times the triangles' signed adjacency to the rows of ``mat``."""
    for tri in triangles:
        a, b, c = tri.sides
        # sides are known arcs, never negative, so internal means below n
        for x, y in ((a, b), (b, c), (c, a)):
            if x < n and y < n:
                mat[y][x] += sign
                mat[x][y] -= sign


class Quadrilateral(
    namedtuple("Quadrilateral", "tau a1 a2 a3 a4 first second")
):
    """The four sides around an internal arc, plus the flanking triangles.

    ``a1`` and ``a4`` follow and precede ``tau`` in the first triangle,
    ``a3`` and ``a2`` follow and precede it in the second.  Opposite labels
    may coincide on surfaces where the two triangles share more than the
    diagonal (an annulus has a1 == a3).  Every field is an int.
    """

    __slots__ = ()


def quadrilateral(t: Triangulation, tau: int) -> Quadrilateral:
    if not t.is_internal(tau):
        raise SurfaceError(f"arc {tau} is not internal, it bounds no quadrilateral")
    first, second = t.triangles_containing(tau)
    tri1 = t.triangles[first]
    tri2 = t.triangles[second]
    return Quadrilateral(
        tau=tau,
        a1=tri1.next_side(tau),
        a4=tri1.prev_side(tau),
        a3=tri2.next_side(tau),
        a2=tri2.prev_side(tau),
        first=first,
        second=second,
    )


def flip(t: Triangulation, tau: int) -> Triangulation:
    """Replace the internal arc ``tau`` by the other diagonal of its quadrilateral.

    The new arc keeps the index ``tau``.  Flipping is refused when the
    quadrilateral degenerates: if both pairs of opposite sides are identified
    the surface is a torus with a single marked point and the flipped diagonal
    is not simple, and if a side of the first triangle is identified with a
    side of the second in the same corner the flip would create a self-folded
    triangle.
    """
    quad = quadrilateral(t, tau)
    if quad.a1 == quad.a3 and quad.a2 == quad.a4:
        raise SurfaceError(
            f"flip of arc {tau} is undefined: the quadrilateral closes into a "
            "torus with one marked point"
        )
    if quad.a4 == quad.a3 or quad.a2 == quad.a1:
        raise SurfaceError(
            f"flip of arc {tau} would create a self-folded triangle"
        )
    triangles = list(t.triangles)
    triangles[quad.first] = Triangle._of_int_rows((quad.a4, quad.a3, tau))
    triangles[quad.second] = Triangle._of_int_rows((quad.a2, quad.a1, tau))
    # only a1 and a3 trade triangles (on the annulus a1 == a3 lies in both),
    # so every side keeps the count the parent checked
    swap = {quad.first: quad.second, quad.second: quad.first}
    incidence = dict(t._incidence)
    for arc in (quad.a1, quad.a3):
        incidence[arc] = tuple(sorted(swap.get(i, i) for i in incidence[arc]))
    flipped = object.__new__(Triangulation)
    flipped.n_internal, flipped.n_boundary = t.n_internal, t.n_boundary
    flipped.triangles = tuple(triangles)
    flipped._incidence = incidence
    return flipped


class Arc(
    namedtuple(
        "Arc", "crossings start_triangle end_triangle arc", defaults=(None,)
    )
):
    """An arc described relative to a triangulation.

    Either a crossing sequence (a tuple of ints) with the start and end
    triangles, or, for an arc already in the triangulation, just its index
    ``arc``, which is None otherwise.
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, data: Any) -> Arc:
        if not isinstance(data, dict):
            raise SurfaceError("arc description must be a JSON object")
        try:
            if "arc" in data:
                idx = _json_int(data["arc"], "arc")
                if _arc_crossings(data.get("crossings", [])):
                    raise SurfaceError(
                        "an arc given by index must not list crossings"
                    )
                return cls((), -1, -1, idx)
            return cls(
                _arc_crossings(data["crossings"]),
                _json_int(data["start_triangle"], "start_triangle"),
                _json_int(data["end_triangle"], "end_triangle"),
            )
        except KeyError as missing:
            raise SurfaceError(f"arc description lacks key {missing}") from None
        except TypeError as bad:
            raise SurfaceError(f"arc description: {bad}") from None

    def to_dict(self) -> dict[str, Any]:
        if self.arc is not None:
            return {"arc": self.arc}
        return {
            "crossings": list(self.crossings),
            "start_triangle": self.start_triangle,
            "end_triangle": self.end_triangle,
        }


def _json_int(value: Any, key: str) -> int:
    """``value`` if it is a JSON integer; raises :class:`TypeError` otherwise.

    A bool or a float is rejected rather than truncated, so that ``true`` or
    ``2.9`` never stands in for a different integer.
    """
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, not {value!r}")
    return value


def _json_list(value: Any, key: str) -> Any:
    """``value`` if it is a JSON list; raises :class:`TypeError` otherwise.

    A string or an object is rejected rather than iterated as if it were a
    list.
    """
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key} must be a list, not {value!r}")
    return value


def _check_json_matrix(rows: Any, key: str, row: str, entry: str) -> Any:
    """``rows`` if it is a list of lists of JSON integers; else :class:`TypeError`.

    The row types and the entry types are counted in one C-speed pass each;
    only a short count walks the rows in order, by :func:`_json_list` and
    :func:`_json_int`, so the first offender and its message are the walk's.
    """
    rows = _json_list(rows, key)
    lists = countOf(map(type, rows), list) == len(rows)
    entries = chain.from_iterable(rows)
    if not (lists and countOf(map(type, entries), int) == sum(map(len, rows))):
        for values in rows:
            for value in _json_list(values, row):
                _json_int(value, entry)
    return rows


def _arc_crossings(value: Any) -> tuple[int, ...]:
    return tuple(_json_int(c, "each crossing") for c in _json_list(value, "crossings"))


class ArcTrace(namedtuple("ArcTrace", "arc triangle_path connectors")):
    """Result of walking an arc through its triangulation.

    ``arc`` is the traced :class:`Arc`, ``triangle_path`` lists the d+1
    visited triangle indices and ``connectors`` the d-1 sides along which
    consecutive crossed arcs' triangles meet (the third side of each
    intermediate triangle).
    """

    __slots__ = ()


def trace_arc(t: Triangulation, arc: Arc) -> ArcTrace:
    """Validate an arc description and recover its triangle walk.

    Its index, or its crossings and its start and end triangles, must be
    ``int`` values, as :meth:`Arc.from_dict` demands: a float or a bool
    raises :class:`SurfaceError` naming the field.
    """
    try:
        if arc.arc is not None:
            _json_int(arc.arc, "arc")
        else:
            _json_int(arc.start_triangle, "start_triangle")
            _json_int(arc.end_triangle, "end_triangle")
        _arc_crossings(arc.crossings)
    except TypeError as bad:
        raise SurfaceError(f"arc description: {bad}") from None
    if arc.arc is not None:
        if arc.crossings:
            raise SurfaceError("an arc given by index must not list crossings")
        if not t.is_internal(arc.arc):
            raise SurfaceError(
                f"arc index {arc.arc} is not an internal arc of the triangulation"
            )
        return ArcTrace(arc, t.triangles_containing(arc.arc), ())

    d = len(arc.crossings)
    if d == 0:
        raise SurfaceError(
            "an arc with no crossings must be given by its index in the "
            "triangulation"
        )
    for c in arc.crossings:
        if not t.is_internal(c):
            raise SurfaceError(f"crossed arc {c} is not internal")
    for a, b in zip(arc.crossings, arc.crossings[1:]):
        if a == b:
            raise SurfaceError(
                f"arc crosses {a} twice in a row, which cannot be minimal"
            )
    if not 0 <= arc.start_triangle < len(t.triangles):
        raise SurfaceError(f"unknown start triangle {arc.start_triangle}")
    if not 0 <= arc.end_triangle < len(t.triangles):
        raise SurfaceError(f"unknown end triangle {arc.end_triangle}")

    path = [arc.start_triangle]
    if arc.crossings[0] not in t.triangles[arc.start_triangle]:
        raise SurfaceError(
            f"start triangle {arc.start_triangle} does not contain the first "
            f"crossed arc {arc.crossings[0]}"
        )
    for j, crossed in enumerate(arc.crossings):
        nxt = t.other_triangle(crossed, path[-1])
        path.append(nxt)
        if j + 1 < d and arc.crossings[j + 1] not in t.triangles[nxt]:
            raise SurfaceError(
                f"after crossing {crossed} the arc sits in triangle {nxt}, "
                f"which does not contain the next crossed arc {arc.crossings[j + 1]}"
            )
    if path[-1] != arc.end_triangle:
        raise SurfaceError(
            f"the crossing sequence ends in triangle {path[-1]}, not the "
            f"declared end triangle {arc.end_triangle}"
        )

    connectors = tuple(
        t.triangles[path[j]].third_side(arc.crossings[j - 1], arc.crossings[j])
        for j in range(1, d)
    )
    return ArcTrace(arc, tuple(path), connectors)
