"""The sparse skew-form kernels against dense references.

``LambdaForm`` walks only the nonzeros of each row when it checks skew
symmetry, pairs, twists, and when ``check_compatible`` and ``mutate_Lambda``
read it.  The references below are the dense loops those kernels replaced,
one Python step per matrix entry; values and error messages must agree.  A
mutated form is derived from its parent, so its rows and supports must equal
those of the checked form rebuilt from the dense result.  A mutated seed's
compatibility is checked from what changed, so that check must give the full
check's outcome, scalar or message, on mutated and corrupted children alike.
"""

from __future__ import annotations

import random
from itertools import compress
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from conftest import (
    annulus,
    annulus_bridge,
    ladder_surface,
    perturbed_lambda,
    polygon_chords,
    polygon_fan,
    seed_choices,
)
from snakeq import (
    LambdaForm,
    Seed,
    SeedError,
    check_compatible,
    mutate_B,
    mutate_Lambda,
    mutate_seed,
    principal_seed,
    signed_adjacency,
)
import snakeq.seeds

# ----------------------------------------------------------------------
# dense references


def dense_skew_error(rows) -> str | None:
    """The first message of the dense skew scan, or None for a skew matrix."""
    m = len(rows)
    for i in range(m):
        if rows[i][i] != 0:
            return f"the form matrix has nonzero diagonal entry at {i}"
        for j in range(i + 1, m):
            if rows[i][j] != -rows[j][i]:
                return f"the form matrix is not skew-symmetric at ({i}, {j})"
    return None


def dense_pair(rows, v) -> list[int]:
    out = [0] * len(rows)
    for vj, row in zip(v, rows):
        if vj:
            out = [o - vj * x for o, x in zip(out, row)]
    return out


def dense_ordered_product_twist(rows, a) -> int:
    total = 0
    for i in range(len(a)):
        if a[i] == 0:
            continue
        for j in range(i + 1, len(a)):
            total += rows[i][j] * a[i] * a[j]
    return total


def dense_check_compatible(btilde, rows) -> int:
    """transpose(B)·Lambda entry by entry; the shape checks are not repeated."""
    m, n = len(btilde), len(btilde[0])
    d = 0
    for j in range(n):
        column = [(btilde[k][j], rows[k]) for k in range(m) if btilde[k][j]]
        for i in range(m):
            entry = sum(c * row[i] for c, row in column)
            if i == j:
                if entry <= 0:
                    raise SeedError(
                        f"compatibility fails: diagonal entry {entry} at "
                        f"column {j} is not positive"
                    )
                if d and entry != d:
                    raise SeedError(
                        f"compatibility fails: diagonal entries {d} and "
                        f"{entry} differ"
                    )
                d = entry
            elif entry != 0:
                raise SeedError(
                    f"compatibility fails: off-diagonal entry {entry} at "
                    f"row {j}, column {i}"
                )
    return d


def dense_mutate_Lambda(rows, btilde, k) -> tuple[tuple[int, ...], ...]:
    m = len(rows)
    target = [-1 if l == k else 0 for l in range(m)]
    for l in range(m):
        target[l] += max(btilde[l][k], 0)
    new_rows = [list(row) for row in rows]
    for i in range(m):
        if i == k:
            continue
        entry = sum(rows[i][l] * target[l] for l in range(m) if target[l])
        new_rows[i][k] = entry
        new_rows[k][i] = -entry
    new_rows[k][k] = 0
    return tuple(map(tuple, new_rows))


def outcome(call, *args):
    """The value of ``call(*args)``, or the type and message it raised."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def sparse_skew_error(rows) -> str | None:
    try:
        LambdaForm(rows)
    except ValueError as exc:
        return str(exc)
    return None


# ----------------------------------------------------------------------
# strategies

entries = st.integers(-3, 3).filter(bool)


@st.composite
def skew_rows(draw, width):
    """A skew matrix of the given width, mostly zero."""
    rows = [[0] * width for _ in range(width)]
    for i in range(width):
        for j in range(i + 1, width):
            if draw(st.integers(0, 2)) == 0:
                rows[i][j] = draw(entries)
                rows[j][i] = -rows[i][j]
    return rows


@st.composite
def forms(draw, low=1, high=8):
    return draw(skew_rows(draw(st.integers(low, high))))


@st.composite
def vectors(draw, width):
    return draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width))


@st.composite
def corrupted(draw):
    """A skew matrix with one entry changed below, on or above the diagonal."""
    rows = draw(forms())
    m = len(rows)
    where = draw(st.sampled_from(("below", "on", "above") if m > 1 else ("on",)))
    i = draw(st.integers(0, m - 1))
    if where == "on":
        j = i
    else:
        j = draw(st.integers(0, m - 1).filter(lambda j: j != i))
        if (where == "below") != (i > j):
            i, j = j, i
    rows[i][j] += draw(entries)
    return rows


@st.composite
def compatible_pairs(draw):
    """A principal-style compatible pair of width 2n <= 8, scaled by d."""
    n = draw(st.integers(1, 4))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = draw(st.integers(-2, 2))
            b[j][i] = -b[i][j]
    seed = principal_seed(b)
    d = draw(st.integers(1, 3))
    return seed.btilde, [[d * x for x in row] for row in seed.lam.rows]


@st.composite
def arbitrary_pairs(draw):
    """A skew form and an m x n matrix, n <= m, mostly incompatible."""
    rows = draw(forms(2, 8))
    m = len(rows)
    n = draw(st.integers(1, m))
    btilde = [
        [draw(st.sampled_from((0, 0, 1, -1, 2))) for _ in range(n)] for _ in range(m)
    ]
    return tuple(map(tuple, btilde)), rows


# ----------------------------------------------------------------------
# the skew check


@given(forms())
def test_skew_forms_are_accepted(rows):
    assert dense_skew_error(rows) is None
    assert LambdaForm(rows).rows == tuple(map(tuple, rows))


@given(corrupted())
def test_corrupted_forms_give_the_dense_message(rows):
    expected = dense_skew_error(rows)
    assert expected is not None
    assert sparse_skew_error(rows) == expected


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 1], [1, 0]], "the form matrix is not skew-symmetric at (0, 1)"),
        ([[0, 0], [1, 0]], "the form matrix is not skew-symmetric at (0, 1)"),
        ([[0, 1], [0, 0]], "the form matrix is not skew-symmetric at (0, 1)"),
        ([[0, 0], [0, 2]], "the form matrix has nonzero diagonal entry at 1"),
        (
            [[0, 0, 0], [0, 0, 5], [0, -5, 0]],
            None,
        ),
        (
            [[0, 0, 1], [0, 0, 0], [-1, 3, 0]],
            "the form matrix is not skew-symmetric at (1, 2)",
        ),
        (
            [[0, 0, 1], [0, 4, 0], [0, 3, 0]],
            "the form matrix is not skew-symmetric at (0, 2)",
        ),
    ],
)
def test_skew_check_examples(rows, message):
    assert dense_skew_error(rows) == message
    assert sparse_skew_error(rows) == message


# ----------------------------------------------------------------------
# pairing and the ordered-product twist


@given(st.data())
def test_pair_and_twist_equal_the_dense_loops(data):
    rows = data.draw(forms())
    form = LambdaForm(rows)
    m = len(rows)
    for _ in range(3):
        v = data.draw(vectors(m))
        assert form.pair(v) == dense_pair(rows, v)
        assert form.pair(tuple(v)) == dense_pair(rows, v)
        assert form.ordered_product_twist(v) == dense_ordered_product_twist(rows, v)


# ----------------------------------------------------------------------
# compatibility


@given(compatible_pairs())
def test_compatible_pairs_give_the_dense_scalar(case):
    btilde, rows = case
    assert check_compatible(btilde, LambdaForm(rows)) == dense_check_compatible(
        btilde, rows
    )


@given(arbitrary_pairs())
def test_arbitrary_pairs_give_the_dense_outcome(case):
    btilde, rows = case
    assert outcome(check_compatible, btilde, LambdaForm(rows)) == outcome(
        dense_check_compatible, btilde, rows
    )


@given(compatible_pairs(), st.data())
def test_one_changed_matrix_entry_gives_the_dense_outcome(case, data):
    btilde, rows = case
    m, n = len(btilde), len(btilde[0])
    k = data.draw(st.integers(0, m - 1))
    j = data.draw(st.integers(0, n - 1))
    changed = [list(row) for row in btilde]
    changed[k][j] += data.draw(entries)
    changed = tuple(map(tuple, changed))
    assert outcome(check_compatible, changed, LambdaForm(rows)) == outcome(
        dense_check_compatible, changed, rows
    )


# row j of transpose(B)·Lambda is B[0][j]·(0, 1, 0) + B[1][j]·(-1, 0, 0)
LAM3 = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize(
    "btilde, message",
    [
        # row 1 is (-1, 0, 0): off the diagonal before it, which is reported
        # ahead of the diagonal entry 0
        (
            ((0, 0), (-1, 1), (0, 0)),
            "compatibility fails: off-diagonal entry -1 at row 1, column 0",
        ),
        # row 0 is (0, 1, 0): the diagonal entry 0 is not positive
        (
            ((1, 0), (0, 1), (0, 0)),
            "compatibility fails: diagonal entry 0 at column 0 is not positive",
        ),
        # rows 0 and 1 have diagonal entries 1 and 2
        (
            ((0, 2), (-1, 0), (0, 0)),
            "compatibility fails: diagonal entries 1 and 2 differ",
        ),
        # row 0 is (1, 1, 0): off the diagonal, after it
        (
            ((1, 0), (-1, 0), (0, 0)),
            "compatibility fails: off-diagonal entry 1 at row 0, column 1",
        ),
    ],
)
def test_incompatible_before_at_and_after_the_diagonal(btilde, message):
    expected = ("SeedError", message)
    assert outcome(dense_check_compatible, btilde, LAM3) == expected
    assert outcome(check_compatible, btilde, LambdaForm(LAM3)) == expected


# ----------------------------------------------------------------------
# form mutation


def assert_rebuilt(form: LambdaForm, rows) -> None:
    """``form`` holds the rows and supports that a checked rebuild of ``rows`` has."""
    rebuilt = LambdaForm._of_int_rows(rows)
    assert (form.rows, form._support) == (rebuilt.rows, rebuilt._support)


@given(st.one_of(compatible_pairs(), arbitrary_pairs()), st.data())
def test_form_mutation_equals_the_dense_loop(case, data):
    # a walk of mutations, each derived from the last derived form
    btilde, rows = case
    form = LambdaForm(rows)
    directions = st.lists(st.integers(0, len(btilde[0]) - 1), min_size=1, max_size=4)
    for k in data.draw(directions):
        form = mutate_Lambda(form, btilde, k)
        rows = dense_mutate_Lambda(rows, btilde, k)
        assert_rebuilt(form, rows)
        btilde = mutate_B(btilde, k)


# ----------------------------------------------------------------------
# the width-120 seed of the 60-fan


@pytest.fixture(scope="module")
def fan_seed() -> Seed:
    b = signed_adjacency(polygon_fan(60))
    return Seed(principal_seed(b).btilde, perturbed_lambda(b))


def test_fan_seed_equals_the_dense_loops(fan_seed):
    btilde, form = fan_seed.btilde, fan_seed.lam
    rows = form.rows
    assert fan_seed.m == 120
    assert dense_skew_error(rows) is None
    assert check_compatible(btilde, form) == dense_check_compatible(btilde, rows) == 1
    for j, column in enumerate(zip(*btilde)):
        assert form.pair(column) == dense_pair(rows, column)
        assert form.ordered_product_twist(column) == dense_ordered_product_twist(
            rows, column
        )
    for k in (0, 1, 30, 59):
        dense = dense_mutate_Lambda(rows, btilde, k)
        assert_rebuilt(mutate_Lambda(form, btilde, k), dense)


def test_fan_seed_mutation_walk_equals_rebuilt_forms(fan_seed):
    seed = fan_seed
    for k in (30, 31, 30, 0, 59, 58, 1):
        parent = seed
        seed = mutate_seed(seed, k)
        dense = dense_mutate_Lambda(parent.lam.rows, parent.btilde, k)
        assert_rebuilt(seed.lam, dense)
        assert seed.d == dense_check_compatible(seed.btilde, dense) == 1


@pytest.mark.parametrize(
    "i, j", [(119, 0), (60, 1), (5, 5), (0, 119), (1, 60), (58, 59)]
)
def test_fan_seed_corrupted_gives_the_dense_messages(fan_seed, i, j):
    rows = [list(row) for row in fan_seed.lam.rows]
    rows[i][j] += 1
    expected = dense_skew_error(rows)
    assert expected is not None
    assert sparse_skew_error(rows) == expected


@pytest.mark.parametrize("k, j", [(0, 0), (1, 30), (60, 0), (119, 59), (59, 59)])
def test_fan_seed_with_a_changed_matrix_entry(fan_seed, k, j):
    changed = [list(row) for row in fan_seed.btilde]
    changed[k][j] += 1
    changed = tuple(map(tuple, changed))
    rows = fan_seed.lam.rows
    expected = outcome(dense_check_compatible, changed, rows)
    assert expected[0] == "SeedError"
    assert outcome(check_compatible, changed, fan_seed.lam) == expected


# ----------------------------------------------------------------------
# compatibility checked from what a mutation changed


def unchecked_form(rows) -> LambdaForm:
    """The form of ``rows`` with its supports, skew or not, built unchecked."""
    form = object.__new__(LambdaForm)
    form.rows = tuple(rows)
    form._support = tuple(tuple(compress(range(len(rows)), row)) for row in rows)
    return form


def corruptions(rng, parent_rows, rows):
    """``rows`` corrupted three ways; each keeps every other row's object.

    A changed row gets one entry shifted, an unchanged row is rebuilt as a new
    object with one entry moved (popped and reinserted), and two rows are
    swapped.
    """
    changed = [i for i, (a, b) in enumerate(zip(parent_rows, rows)) if a is not b]
    unchanged = sorted(set(range(len(rows))) - set(changed))
    out = []
    i = rng.choice(changed)
    shifted = list(rows)
    values = list(rows[i])
    values[rng.randrange(len(values))] += rng.choice((-1, 1))
    shifted[i] = tuple(values)
    out.append(shifted)
    if unchanged:
        i = rng.choice(unchanged)
        moved, values = list(rows), list(rows[i])
        nonzero = [j for j, v in enumerate(values) if v] or range(len(values))
        values.insert(rng.randrange(len(values)), values.pop(rng.choice(nonzero)))
        moved[i] = tuple(values)
        out.append(moved)
    i, j = rng.sample(range(len(rows)), 2)
    swapped = list(rows)
    swapped[i], swapped[j] = rows[j], rows[i]
    out.append(swapped)
    return out


def mutation_steps(fan_seed):
    """(parent, k) along a 60-fan chord, the ladder d=10 and annulus bridges."""
    _, _, plan = next(c for c in polygon_chords(60) if c[0] == (1, 6))
    walks = [(fan_seed, plan)]
    walks += [(seed, list(range(10))) for seed in seed_choices(ladder_surface(10))]
    for w in (5, -4):
        walks += [(seed, annulus_bridge(w)[1]) for seed in seed_choices(annulus())]
    for seed, plan in walks:
        for k in plan:
            yield seed, k
            seed = mutate_seed(seed, k)


def test_a_mutation_is_checked_as_the_full_check_would(fan_seed):
    rng = random.Random(17)
    outcomes = []
    for parent, k in mutation_steps(fan_seed):
        btilde = mutate_B(parent.btilde, k)
        lam = mutate_Lambda(parent.lam, parent.btilde, k)
        cases = [(btilde, lam)]
        for _ in range(3):
            cases += [
                (tuple(rows), lam) for rows in corruptions(rng, parent.btilde, btilde)
            ]
            cases += [
                (btilde, unchecked_form(rows))
                for rows in corruptions(rng, parent.lam.rows, lam.rows)
            ]
        for case in cases:
            expected = outcome(check_compatible, *case)
            assert outcome(snakeq.seeds._mutated_d, parent, *case) == expected
            outcomes.append(expected)
    assert outcomes[0] == 1
    assert {type(o) for o in outcomes} == {int, tuple}
    assert {o for o in outcomes if type(o) is int} >= {1, 2}
    assert len(outcomes) > 1000


def test_a_misshapen_mutation_takes_the_full_check():
    parent = seed_choices(annulus())[1]
    btilde = mutate_B(parent.btilde, 0)
    lam = mutate_Lambda(parent.lam, parent.btilde, 0)
    short, long = (btilde[0][:1], *btilde[1:]), ((*btilde[0], 0), *btilde[1:])
    cases = [
        (btilde + ((0, 0),), lam),
        (btilde, LambdaForm([[0, 1], [-1, 0]])),
        (btilde[:-1], lam),
        (short, lam),
        (long, lam),
    ]
    for case in cases:
        expected = outcome(check_compatible, *case)
        assert expected[0] == "SeedError"
        assert outcome(snakeq.seeds._mutated_d, parent, *case) == expected


def test_a_mutation_pairs_only_the_rows_its_changes_reach(fan_seed, monkeypatch):
    # flip 30 changes rows 29-31 and 90 of the matrix and rows 30, 89 and 90
    # of the form, and those matrix rows, old and new, are nonzero in columns
    # 28-32 only: 5 of the 60 rows of the product are paired
    seed = fan_seed
    paired = []
    pair = LambdaForm.pair

    def counted(self, v):
        paired.append(v)
        return pair(self, v)

    monkeypatch.setattr(LambdaForm, "pair", counted)
    btilde = mutate_B(seed.btilde, 30)
    lam = mutate_Lambda(seed.lam, seed.btilde, 30)
    paired.clear()
    assert snakeq.seeds._mutated_d(seed, btilde, lam) == 1
    assert paired == [list(map(itemgetter(j), btilde)) for j in range(28, 33)]
