"""Tests for compatible pairs and seed mutation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import annulus, golden_arc, hexagon, pentagon, seed_choices
from snakeq import (
    LambdaForm,
    Seed,
    SeedError,
    SurfaceError,
    Triangulation,
    check_compatible,
    commutative_expand,
    matching_records,
    mutate_B,
    mutate_Lambda,
    mutate_seed,
    principal_lambda,
    principal_seed,
    quantum_expand,
    signed_adjacency,
)
import snakeq.seeds

KRONECKER = ((0, 2), (-2, 0), (1, 0), (0, 1))


# ----------------------------------------------------------------------
# compatibility

def test_principal_seed_has_scalar_one():
    seed = principal_seed(signed_adjacency(annulus()))
    assert seed.d == 1
    assert seed.m == 4 and seed.n == 2


def test_malformed_shapes_are_refused():
    lam = LambdaForm([[0, 1], [-1, 0]])
    with pytest.raises(SeedError, match="the exchange matrix has no rows"):
        check_compatible([], LambdaForm([]))
    with pytest.raises(SeedError, match="rows do not match the form rank"):
        mutate_Lambda(lam, [[0], [1], [0]], 0)
    with pytest.raises(SeedError, match="direction 1 out of range for 1 columns"):
        mutate_Lambda(lam, [[0], [1]], 1)
    with pytest.raises(SeedError, match="the exchange matrix must be square"):
        principal_lambda([[0, 1]])


def test_principal_lambda_blocks():
    b = [[0, -1], [1, 0]]
    lam = principal_lambda(b)
    assert lam.rows == (
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (1, 0, 0, 1),
        (0, 1, -1, 0),
    )


def test_principal_seeds_convert_b_once_with_the_forms_messages():
    # only -B is converted, as the public form converts it, in row order
    with pytest.raises(ValueError, match=r"^form entry -2\.5 is not an integer$"):
        principal_seed([[0, 2.5], [-2.5, 0]])
    with pytest.raises(ValueError, match=r"^the form matrix is not skew-symmetric"):
        principal_lambda([[0, 1], [1, 0]])
    seed = principal_seed([[0.0, True], [-1, 0]])
    assert seed == principal_seed([[0, 1], [-1, 0]])
    rows = (*seed.btilde, *seed.lam.rows)
    assert {type(v) for row in rows for v in row} == {int}


def test_doubling_lambda_doubles_the_scalar():
    b = signed_adjacency(pentagon())
    seed = principal_seed(b)
    doubled = LambdaForm([[2 * v for v in row] for row in seed.lam.rows])
    assert check_compatible(seed.btilde, doubled) == 2


def test_incompatible_pair_is_rejected():
    with pytest.raises(SeedError):
        check_compatible(KRONECKER, principal_lambda([[0, -1], [1, 0]]))


def test_negative_scalar_is_rejected():
    btilde = ((0,), (1,))
    lam = LambdaForm([[0, 1], [-1, 0]])
    with pytest.raises(SeedError):
        check_compatible(btilde, lam)


def test_non_uniform_diagonal_is_rejected():
    btilde = ((0, 0), (0, 0), (1, 0), (0, 2))
    lam = LambdaForm(
        [
            [0, 0, -1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]
    )
    with pytest.raises(SeedError):
        check_compatible(btilde, lam)


def test_compatibility_is_checked_once_per_seed(monkeypatch):
    calls = []
    check = snakeq.seeds.check_compatible

    def counted(btilde, lam):
        calls.append(btilde)
        return check(btilde, lam)

    monkeypatch.setattr(snakeq.seeds, "check_compatible", counted)
    for seed in seed_choices(hexagon()):
        calls.clear()
        copy = Seed(seed.btilde, seed.lam)
        assert len(calls) == 1
        assert [copy.d for _ in range(5)] == [seed.d] * 5
        assert len(calls) == 1
        # a mutation is checked from what changed, not by the full check
        mutated = mutate_seed(copy, 0)
        assert len(calls) == 1
        assert mutated.d == seed.d == check(mutated.btilde, mutated.lam)
        assert len(calls) == 1


class CountedRow(tuple):
    """A matrix row that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        CountedRow.passes += 1
        return super().__iter__()


def test_seed_matrices_are_converted_once(monkeypatch):
    calls = []
    freeze = snakeq.seeds._freeze

    def counted(rows):
        calls.append(rows)
        return freeze(rows)

    monkeypatch.setattr(snakeq.seeds, "_freeze", counted)
    t = annulus()
    seed = principal_seed(signed_adjacency(t))
    assert len(calls) == 1
    calls.clear()
    loaded = Seed.from_dict(seed.to_dict())
    assert len(calls) == 1
    calls.clear()
    assert check_compatible(loaded.btilde, loaded.lam) == loaded.d
    assert calls == []
    # mutate_B freezes the rows it builds, and the child is built from them
    mutate_seed(loaded, 0)
    assert calls == []

    # the expansions read the bottom block by index and never pass over it:
    # the enumerated audit rows and the transfer, quantum and commutative
    n = loaded.n
    expected = (
        matching_records(t, golden_arc(), loaded),
        quantum_expand(t, golden_arc(), loaded),
        commutative_expand(t, golden_arc(), loaded.btilde),
    )
    bottom = tuple(CountedRow(row) for row in loaded.btilde[n:])
    object.__setattr__(loaded, "btilde", loaded.btilde[:n] + bottom)
    CountedRow.passes = 0
    assert matching_records(t, golden_arc(), loaded) == expected[0]
    assert quantum_expand(t, golden_arc(), loaded) == expected[1]
    assert commutative_expand(t, golden_arc(), loaded.btilde) == expected[2]
    assert CountedRow.passes == 0


def test_seed_refuses_an_entry_that_is_not_integral():
    lam = LambdaForm([[0, 1], [-1, 0]])
    with pytest.raises(SeedError) as info:
        Seed([[0], [1.5]], lam)
    assert str(info.value) == "exchange matrix entry 1.5 is not an integer"
    # integral floats, bools and integer strings still convert
    seed = Seed([[0.0], [True]], LambdaForm([[0, "-1"], [1.0, 0]]))
    assert seed.btilde == ((0,), (1,)) and seed.d == 1
    assert all(type(e) is int for row in seed.btilde for e in row)


def test_seed_from_dict_round_trip():
    seed = principal_seed(signed_adjacency(hexagon()))
    assert Seed.from_dict(seed.to_dict()) == seed


def test_seed_from_dict_rejects_broken_lambda():
    seed = principal_seed(signed_adjacency(annulus()))
    data = seed.to_dict()
    data["Lambda"][0][1] += 1
    with pytest.raises(SeedError):
        Seed.from_dict(data)


def test_seed_from_dict_rejects_missing_keys():
    with pytest.raises(SeedError):
        Seed.from_dict({"Btilde": [[0]]})


def _load_error(data):
    with pytest.raises(SeedError) as info:
        Seed.from_dict(data)
    return str(info.value)


@pytest.mark.parametrize("key", ["Btilde", "Lambda"])
@pytest.mark.parametrize(
    "row, column, value, shown",
    [
        (1, 1, False, "False"),
        (1, 1, 0.0, "0.0"),
        (2, 0, True, "True"),
        (1, 1, None, "None"),
        (1, 1, [1], "[1]"),
    ],
    ids=["false-for-0", "float-for-0", "true-for-1", "null", "list"],
)
def test_a_json_matrix_entry_that_is_no_int_is_named_first(
    key, row, column, value, shown
):
    # each value equals the entry it replaces or is no number at all; the
    # type count of the matrix fails and the rows are walked in order, so
    # the 9.5 in the last row is never reached
    data = principal_seed(signed_adjacency(annulus())).to_dict()
    assert data[key][row][column] == (1 if value is True else 0)
    data[key][row][column] = value
    data[key][-1][-1] = 9.5
    assert _load_error(data) == (
        f"malformed seed description: each {key} entry must be an integer, "
        f"not {shown}"
    )


@pytest.mark.parametrize("key", ["Btilde", "Lambda"])
def test_a_bad_entry_and_a_row_that_is_no_list_fail_in_row_order(key):
    data = principal_seed(signed_adjacency(annulus())).to_dict()
    data[key][0][0] = 0.0
    data[key].append("ab")
    assert _load_error(data) == (
        f"malformed seed description: each {key} entry must be an integer, "
        "not 0.0"
    )
    data[key].insert(0, data[key].pop())
    assert _load_error(data) == (
        f"malformed seed description: each {key} row must be a list, not 'ab'"
    )


def test_ragged_rows_are_named_by_the_first_short_or_long_row():
    lam = LambdaForm([[0] * 4] * 4)
    for btilde, row in (
        ([[0, -2], [2, 0], [1], [0, 1, 5]], "row 2 has length 1"),
        ([[0, -2], [2, 0, 7], [1], [0, 1]], "row 1 has length 3"),
    ):
        with pytest.raises(SeedError) as info:
            check_compatible(btilde, lam)
        assert str(info.value) == (
            f"the exchange matrix has ragged rows: {row}, expected 2"
        )


@pytest.mark.parametrize(
    "load, data, error, message",
    [
        (
            Triangulation.from_dict,
            {"n_internal": 1, "n_boundary": 4, "triangles": [[0, 0, 1], [2, 3, 4]]},
            SurfaceError,
            "triangle 0 with sides (0, 0, 1) is self-folded",
        ),
        (
            Seed.from_dict,
            {"Btilde": [[0], [1]], "Lambda": [[0, 1], [-1, 0]]},
            SeedError,
            "compatibility fails: diagonal entry -1 at column 0 is not positive",
        ),
        (
            Seed.from_dict,
            {"Btilde": [[0], [1]], "Lambda": [[0, 1], [1, 0]]},
            SeedError,
            "the form matrix is not skew-symmetric at (0, 1)",
        ),
    ],
    ids=["self-folded-triangle", "incompatible-seed", "non-skew-form"],
)
def test_loaders_pass_a_constructor_refusal_through(load, data, error, message):
    # the loaders wrap only JSON type and key errors; what the constructors
    # refuse keeps its own message, unprefixed
    with pytest.raises(error) as info:
        load(data)
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_form_that_is_not_a_lambda_form_is_refused():
    rows = [[0, 1], [-1, 0]]
    # refused before the exchange matrix is read, even an empty one
    for btilde in ([[0], [1]], []):
        with pytest.raises(TypeError, match="^lam must be a LambdaForm, not list$"):
            check_compatible(btilde, rows)
    with pytest.raises(TypeError, match="^lam must be a LambdaForm, not tuple$"):
        Seed([[0], [1]], tuple(rows))


# ----------------------------------------------------------------------
# matrix mutation

def test_kronecker_mutation_frozen_values():
    assert mutate_B(KRONECKER, 0) == (
        (0, -2),
        (2, 0),
        (-1, 2),
        (0, 1),
    )


matrices = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
        min_size=n,
        max_size=n,
    )
)


@given(matrices, st.integers(min_value=0, max_value=1))
def test_matrix_mutation_is_an_involution(rows, k):
    b = tuple(tuple(r) for r in rows)
    assert mutate_B(mutate_B(b, k), k) == b


def reference_mutate_B(btilde, k):
    """Reference: the exchange recurrence, entry by entry."""

    def pos(x):
        return max(x, 0)

    return tuple(
        tuple(
            -row[j]
            if i == k or j == k
            else row[j] + pos(row[k]) * pos(btilde[k][j])
            - pos(-row[k]) * pos(-btilde[k][j])
            for j in range(len(row))
        )
        for i, row in enumerate(btilde)
    )


@given(matrices, st.integers(min_value=0, max_value=1))
def test_matrix_mutation_equals_the_reference(rows, k):
    expected = reference_mutate_B(rows, k)
    assert mutate_B(rows, k) == expected
    assert mutate_B(tuple(map(tuple, rows)), k) == expected
    assert all(type(row) is tuple for row in mutate_B(rows, k))


def test_matrix_mutation_rebuilds_only_the_rows_it_changes():
    # a row other than k with 0 in column k comes back as the same object;
    # the others, and row k, are new
    btilde = principal_seed(signed_adjacency(hexagon())).btilde
    for k in range(3):
        mutated = mutate_B(btilde, k)
        same = [i for i, (a, b) in enumerate(zip(btilde, mutated)) if a is b]
        assert same == [i for i, row in enumerate(btilde) if i != k and not row[k]]
        assert mutated == reference_mutate_B(btilde, k)


def test_mutation_direction_must_be_mutable():
    with pytest.raises(SeedError):
        mutate_B(KRONECKER, 2)


# ----------------------------------------------------------------------
# seed mutation

@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=6))
def test_seed_mutation_keeps_the_scalar(path):
    for seed in seed_choices(annulus()):
        d = seed.d
        current = seed
        for k in path:
            current = mutate_seed(current, k)
        assert current.d == d


def test_seed_mutation_is_an_involution():
    for t in (pentagon(), annulus(), hexagon()):
        for seed in seed_choices(t):
            for k in range(seed.n):
                back = mutate_seed(mutate_seed(seed, k), k)
                assert back.btilde == seed.btilde
                assert back.lam == seed.lam


def test_lambda_mutation_ignores_the_mutated_column_sign():
    # compatibility makes the form pair trivially with the mutated column,
    # so mutating the form before or after the matrix gives the same result
    for t in (pentagon(), annulus(), hexagon()):
        for seed in seed_choices(t):
            for k in range(seed.n):
                before = mutate_Lambda(seed.lam, seed.btilde, k)
                after = mutate_Lambda(seed.lam, mutate_B(seed.btilde, k), k)
                assert before == after


def test_hexagon_form_mutation_frozen_value():
    seed = principal_seed(signed_adjacency(hexagon()))
    assert mutate_Lambda(seed.lam, seed.btilde, 1).rows == (
        (0, 0, 0, -1, 0, 0),
        (0, 0, 0, -1, 1, 0),
        (0, 0, 0, 0, 0, -1),
        (1, 1, 0, 0, 1, 0),
        (0, -1, 0, -1, 0, 1),
        (0, 0, 1, 0, -1, 0),
    )


# ----------------------------------------------------------------------
# tropical dynamics

def mutate_tropical(ys, b_top, k):
    """Reference: tropical coefficient dynamics in the direction k.

    ``ys`` lists one integer exponent vector per mutable index; ``b_top`` is
    the current n x n top block.  Direction k is inverted, and every other
    vector picks up [b_kj]_+ copies of y_k minus b_kj times the componentwise
    minimum of 0 and y_k.
    """
    floor = [min(0, v) for v in ys[k]]
    out = []
    for j, y in enumerate(ys):
        if j == k:
            out.append(tuple(-v for v in y))
            continue
        coef = b_top[k][j]
        out.append(
            tuple(
                v + max(coef, 0) * v_k - coef * low
                for v, v_k, low in zip(y, ys[k], floor)
            )
        )
    return tuple(out)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
def test_tropical_dynamics_tracks_the_frozen_rows(path):
    """Bottom rows of a mutated principal matrix obey the tropical recurrence."""
    seed = principal_seed(signed_adjacency(hexagon()))
    n = seed.n
    btilde = seed.btilde
    ys = tuple(
        tuple(btilde[n + i][j] for i in range(n)) for j in range(n)
    )
    for k in path:
        ys = mutate_tropical(ys, tuple(r[:n] for r in btilde[:n]), k)
        btilde = mutate_B(btilde, k)
    for j in range(n):
        assert ys[j] == tuple(btilde[n + i][j] for i in range(n))
