"""Tests for triangulations, flips, and arc tracing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import (
    annulus,
    annulus_bridge,
    fan_blocks,
    heptagon,
    hexagon,
    ladder_surface,
    pentagon,
    polygon_chords,
    polygon_fan,
    square,
    torus_one_point,
)
from snakeq import (
    Arc,
    SurfaceError,
    Triangle,
    Triangulation,
    flip,
    signed_adjacency,
    trace_arc,
)
from snakeq.surface import Quadrilateral, quadrilateral


# ----------------------------------------------------------------------
# triangles

def test_triangle_cyclic_helpers():
    t = Triangle((3, 7, 5))
    assert 7 in t and 4 not in t
    assert t.next_side(3) == 7
    assert t.next_side(5) == 3
    assert t.prev_side(3) == 5
    assert t.rotated(7) == (7, 5, 3)
    assert t.third_side(3, 7) == 5


def test_self_folded_triangles_are_rejected():
    with pytest.raises(SurfaceError):
        Triangulation(2, 1, [(0, 0, 1), (0, 1, 2)])


# ----------------------------------------------------------------------
# triangulation validation

def test_internal_arcs_must_bound_two_triangles():
    with pytest.raises(SurfaceError):
        Triangulation(1, 4, [(0, 2, 1), (3, 4, 2)])


def test_boundary_arcs_must_bound_one_triangle():
    with pytest.raises(SurfaceError):
        Triangulation(0, 3, [(0, 1, 2), (0, 1, 2)])


def test_arc_indices_must_be_in_range():
    with pytest.raises(SurfaceError):
        Triangulation(1, 4, [(0, 2, 1), (0, 5, 3)])


@pytest.mark.parametrize(
    "n_internal, triangles, message",
    [
        (1.5, [(0, 2, 1), (0, 4, 3)], "arc count 1.5 is not an integer"),
        (1, [(0, 2, 1), (0, 4, 2.5)], "triangle side 2.5 is not an integer"),
    ],
    ids=["arc-count", "triangle-side"],
)
def test_triangulation_refuses_numbers_that_are_not_integral(
    n_internal, triangles, message
):
    with pytest.raises(SurfaceError) as info:
        Triangulation(n_internal, 4, triangles)
    assert str(info.value) == message


def test_a_ready_made_triangle_checks_its_own_sides():
    # Triangulation takes a Triangle as it is, so the Triangle converts
    with pytest.raises(SurfaceError) as info:
        Triangulation(1, 4, [Triangle((0, 2, 1)), Triangle((0.0, 4, 3.5))])
    assert str(info.value) == "triangle side 3.5 is not an integer"
    triangle = Triangle([0.0, True, "2"])
    assert triangle.sides == (0, 1, 2)
    assert all(type(side) is int for side in triangle.sides)


def test_triangulation_converts_integral_floats_and_integer_strings():
    t = Triangulation(1.0, "4", [(0, 2, 1), (0.0, 4, "3")])
    assert t == Triangulation(1, 4, [(0, 2, 1), (0, 4, 3)])
    assert type(t.n_internal) is int and type(t.n_boundary) is int


def test_round_trip_through_dict():
    t = hexagon()
    assert Triangulation.from_dict(t.to_dict()) == t


def test_from_dict_rejects_missing_keys():
    with pytest.raises(SurfaceError):
        Triangulation.from_dict({"n_internal": 1, "triangles": [[0, 2, 1]]})


def test_from_dict_rejects_malformed_triangles():
    with pytest.raises(SurfaceError):
        Triangulation.from_dict(
            {"n_internal": 1, "n_boundary": 4, "triangles": [[0, 2], [0, 4, 3]]}
        )


@pytest.mark.parametrize(
    "row, column, value, shown",
    [(1, 0, False, "False"), (0, 2, 2.0, "2.0")],
    ids=["false-for-0", "float-for-2"],
)
def test_a_side_that_is_no_int_is_named_before_a_later_bad_triangle(
    row, column, value, shown
):
    # the value equals the side it replaces; the type count fails and the
    # triangles are walked in order, so the side comes before the 5
    data = annulus().to_dict()
    assert data["triangles"][row][column] == value
    data["triangles"][row][column] = value
    data["triangles"].append(5)
    with pytest.raises(SurfaceError) as info:
        Triangulation.from_dict(data)
    assert str(info.value) == (
        f"malformed surface description: each side must be an integer, not {shown}"
    )


def test_from_dict_checks_the_arc_counts_before_the_triangles():
    data = {"n_internal": 2, "n_boundary": -1, "triangles": [[0, 1], [0, 1, 3]]}
    with pytest.raises(SurfaceError) as info:
        Triangulation.from_dict(data)
    assert str(info.value) == "arc counts must be non-negative"
    data["n_boundary"] = 2
    with pytest.raises(SurfaceError) as info:
        Triangulation.from_dict(data)
    assert str(info.value) == "triangle [0, 1] does not have three sides"


@pytest.mark.parametrize(
    "n_internal, n_boundary, triangles, message",
    [
        (0, 10**12, [[0, 1, 2]], "boundary arcs need 1000000000000"),
        (1, 4, [[0, 0, 1], [2, 3, 4]], "is self-folded"),
        (1, 4, [[0, 1, 2], [0, 1, 3]], "boundary arc 1 lies in 2 triangles"),
    ],
    ids=["huge-boundary-count", "self-folded", "boundary-arc-twice"],
)
def test_from_dict_reaches_each_incidence_check(
    n_internal, n_boundary, triangles, message
):
    # the arc count is checked against the triangles before anything is
    # allocated per arc; the last two inputs pass it and fail later checks
    data = {"n_internal": n_internal, "n_boundary": n_boundary, "triangles": triangles}
    with pytest.raises(SurfaceError, match=message):
        Triangulation.from_dict(data)


# ----------------------------------------------------------------------
# signed adjacency

def test_pentagon_exchange_matrix():
    assert signed_adjacency(pentagon()) == [[0, -1], [1, 0]]


def test_annulus_exchange_matrix():
    assert signed_adjacency(annulus()) == [[0, -2], [2, 0]]


def test_hexagon_exchange_matrix():
    assert signed_adjacency(hexagon()) == [[0, -1, 0], [1, 0, -1], [0, 1, 0]]


def test_square_exchange_matrix():
    assert signed_adjacency(square()) == [[0]]


def test_adjacency_is_skew_symmetric_on_the_corpus():
    for t in (pentagon(), hexagon(), heptagon(), annulus(), square()):
        b = signed_adjacency(t)
        n = len(b)
        for i in range(n):
            assert b[i][i] == 0
            for j in range(n):
                assert b[i][j] == -b[j][i]


# ----------------------------------------------------------------------
# quadrilaterals and flips

def test_pentagon_quadrilateral_roles():
    quad = quadrilateral(pentagon(), 0)
    assert isinstance(quad, Quadrilateral)
    assert quad.tau == 0
    assert (quad.a1, quad.a2, quad.a3, quad.a4) == (3, 4, 1, 2)


def test_annulus_quadrilateral_repeats_a_side():
    quad = quadrilateral(annulus(), 0)
    assert quad.a1 == quad.a3 == 1
    assert {quad.a2, quad.a4} == {2, 3}


def test_flip_is_an_involution():
    for t in (pentagon(), hexagon(), heptagon(), annulus(), square()):
        for k in range(t.n_internal):
            assert flip(flip(t, k), k) == t


def test_a_flip_keeps_every_triangle_but_the_two_it_replaces():
    # the kept triangles are the parent's own objects, and the two new ones
    # are triangles of plain ints
    for t in (hexagon(), heptagon(), annulus(), ladder_surface(5)):
        for k in range(t.n_internal):
            flipped = flip(t, k)
            quad = quadrilateral(t, k)
            for i, (old, new) in enumerate(zip(t.triangles, flipped.triangles)):
                assert (old is new) == (i not in (quad.first, quad.second))
            for i in (quad.first, quad.second):
                sides = flipped.triangles[i].sides
                assert type(sides) is tuple and {type(s) for s in sides} == {int}


def test_flip_refuses_boundary_arcs():
    with pytest.raises(SurfaceError):
        flip(pentagon(), 2)


def test_flip_refuses_to_create_a_self_folded_triangle():
    # arc 1 is both a3 and a4 of the quadrilateral around arc 0, so the
    # flipped first triangle would have it as two of its sides
    t = Triangulation(2, 2, [(0, 2, 1), (0, 1, 3)])
    with pytest.raises(SurfaceError, match="would create a self-folded triangle"):
        flip(t, 0)


def test_annulus_lookups_refuse_what_is_not_there():
    t = annulus()
    with pytest.raises(SurfaceError, match="^unknown arc 9$"):
        t.triangles_containing(9)
    # boundary arc 2 lies in one triangle only
    with pytest.raises(SurfaceError, match="arc 2 does not separate two triangles"):
        t.other_triangle(2, 1)
    with pytest.raises(SurfaceError, match="no unique third side besides 0, 0"):
        t.triangles[0].third_side(0, 0)


def test_triangulation_repr_lists_the_stored_triangles():
    assert repr(annulus()) == (
        "Triangulation(n_internal=2, n_boundary=2, "
        "triangles=[[0, 1, 2], [0, 1, 3]])"
    )


def test_torus_with_one_marked_point_loads_but_cannot_flip():
    t = torus_one_point()
    assert t.n_internal == 3
    for k in range(3):
        with pytest.raises(SurfaceError):
            flip(t, k)


@given(st.lists(st.integers(min_value=0, max_value=2), max_size=6))
def test_flipping_the_hexagon_keeps_adjacency_skew(path):
    t = hexagon()
    for k in path:
        t = flip(t, k)
    b = signed_adjacency(t)
    for i in range(3):
        for j in range(3):
            assert b[i][j] == -b[j][i]


def assert_flips_equal_rebuilds(t: Triangulation, plan) -> None:
    """Each flip along ``plan`` equals the validating constructor's surface."""
    for k in plan:
        t = flip(t, k)
        rebuilt = Triangulation(
            t.n_internal, t.n_boundary, [tri.sides for tri in t.triangles]
        )
        # every attribute: the arc counts, the triangles and the incidence map
        assert vars(t) == vars(rebuilt)


def corpus_flip_plans() -> list:
    """The flip plans of the annulus bridges, ladders, polygon and fan chords."""
    plans = [
        pytest.param(annulus(), annulus_bridge(w)[1], id=f"annulus bridge {w}")
        for w in (2, 3, 4, 5, -1, -2, -3, -4)
    ]
    plans += [
        pytest.param(ladder_surface(d), range(d), id=f"ladder {d}")
        for d in (1, 2, 5, 10)
    ]
    for k in (2, 3, 4):
        t = polygon_fan(k)
        plans += [
            pytest.param(t, plan, id=f"{k}-fan chord {p}")
            for p, _, plan in polygon_chords(k)
        ]
    fan = polygon_fan(60)
    plans += [pytest.param(fan, range(d), id=f"60-fan chord {d}") for d in (3, 30, 60)]
    return plans


@pytest.mark.parametrize("t, plan", corpus_flip_plans())
def test_corpus_flips_equal_rebuilt_surfaces(t, plan):
    # the annulus bridges flip arcs whose quadrilateral has a1 == a3
    assert_flips_equal_rebuilds(t, plan)


@given(
    st.sampled_from(
        [pentagon(), heptagon(), annulus(), square(), ladder_surface(6)]
        + [fan_blocks((2, 3, 1))[0]]
    ),
    st.lists(st.integers(0, 11), max_size=8),
)
def test_random_flip_walks_equal_rebuilt_surfaces(t, walk):
    assert_flips_equal_rebuilds(t, [k % t.n_internal for k in walk])


def _swap_first_two_arcs(t: Triangulation) -> Triangulation:
    relabel = {0: 1, 1: 0}
    return Triangulation(
        t.n_internal,
        t.n_boundary,
        [tuple(relabel.get(s, s) for s in tri.sides) for tri in t.triangles],
    )


def test_pentagon_flips_close_a_five_cycle():
    t = pentagon()
    states = [t]
    for k in (0, 1, 0, 1, 0):
        t = flip(t, k)
        states.append(t)
    # five alternating flips revisit the start with the two labels swapped
    assert _swap_first_two_arcs(t) == pentagon()
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            assert a != b


# ----------------------------------------------------------------------
# arcs and tracing

def test_arc_from_dict_accepts_both_forms():
    by_index = Arc.from_dict({"arc": 1})
    assert by_index.arc == 1 and by_index.crossings == ()
    crossing = Arc.from_dict(
        {"crossings": [0, 1], "start_triangle": 0, "end_triangle": 2}
    )
    assert crossing.crossings == (0, 1)


def test_arc_from_dict_rejects_mixed_form():
    with pytest.raises(SurfaceError):
        Arc.from_dict(
            {"arc": 1, "crossings": [0], "start_triangle": 0, "end_triangle": 1}
        )


def test_trace_follows_the_golden_path():
    t = annulus()
    trace = trace_arc(t, Arc((0, 1, 0, 1, 0), 0, 1))
    assert trace.triangle_path == (0, 1, 0, 1, 0, 1)
    assert trace.connectors == (3, 2, 3, 2)


def test_trace_rejects_consecutive_repeats():
    with pytest.raises(SurfaceError):
        trace_arc(annulus(), Arc((0, 0), 0, 1))


def test_trace_rejects_boundary_crossings():
    with pytest.raises(SurfaceError):
        trace_arc(annulus(), Arc((2,), 0, 0))


def test_trace_rejects_a_wrong_start_triangle():
    t = hexagon()
    with pytest.raises(SurfaceError):
        trace_arc(t, Arc((2,), 0, 3))


def test_trace_rejects_a_wrong_end_triangle():
    t = hexagon()
    with pytest.raises(SurfaceError):
        trace_arc(t, Arc((0,), 0, 3))


def test_trace_rejects_a_broken_walk():
    t = hexagon()
    with pytest.raises(SurfaceError):
        trace_arc(t, Arc((0, 2), 0, 3))


def test_trace_of_an_existing_arc_is_degenerate():
    t = hexagon()
    trace = trace_arc(t, Arc((), None, None, arc=1))
    assert trace.triangle_path == t.triangles_containing(1)
    assert trace.connectors == ()


def test_trace_rejects_a_boundary_arc_index():
    with pytest.raises(SurfaceError):
        trace_arc(hexagon(), Arc((), None, None, arc=5))


@pytest.mark.parametrize(
    "arc, field",
    [
        (Arc((0, 1, 0.5), 0, 1), "each crossing must be an integer, not 0.5"),
        (Arc((0, True), 0, 1), "each crossing must be an integer, not True"),
        (Arc((0,), 0.0, 1), "start_triangle must be an integer, not 0.0"),
        (Arc((0,), 0, True), "end_triangle must be an integer, not True"),
        (Arc((), None, None, 1.0), "arc must be an integer, not 1.0"),
        (Arc((), None, None, False), "arc must be an integer, not False"),
    ],
    ids=["half-crossing", "bool-crossing", "start", "end", "index", "bool-index"],
)
def test_trace_refuses_a_field_that_is_not_an_int(arc, field):
    # the rule of Arc.from_dict, for arcs built in code
    with pytest.raises(SurfaceError) as info:
        trace_arc(annulus(), arc)
    assert str(info.value) == f"arc description: {field}"


@pytest.mark.parametrize(
    "arc", [Arc((0, 1, 0), 0, 1, 0), Arc((0,), 0, 1, 1)], ids=["long", "short"]
)
def test_trace_rejects_an_arc_with_both_an_index_and_crossings(arc):
    # as Arc.from_dict does: no snake graph is built from the mixed form
    with pytest.raises(
        SurfaceError, match="^an arc given by index must not list crossings$"
    ):
        trace_arc(annulus(), arc)
