"""The package's record types behave as frozen value records.

For each of the ten record types: construction by position and by keyword,
value equality and hashing over the compared fields, the exact ``repr``,
refusal of assignment, and the checks a constructor makes.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from snakeq import (
    Arc,
    ArcTrace,
    LambdaForm,
    MatchingRecord,
    OracleRun,
    QuantumLaurent,
    Seed,
    SeedError,
    SurfaceError,
    TauClass,
    Tile,
    Triangle,
    VerifyReport,
)
from snakeq.surface import Quadrilateral

ONE = QuantumLaurent.one(2)
X = QuantumLaurent(2, {(1, 0): {0: 1}})
LAM = LambdaForm([[0, -1], [1, 0]])
SEED = Seed([[0], [1]], LAM)
ARC = Arc((0, 1), 0, 1)
SEED_REPR = "Seed(btilde=((0,), (1,)), lam=LambdaForm([[0, -1], [1, 0]]), d=1)"
ARC_REPR = "Arc(crossings=(0, 1), start_triangle=0, end_triangle=1, arc=None)"

# type, keyword arguments in field order, exact repr, and one changed value
# per compared field
RECORDS = {
    "Triangle": (
        Triangle,
        {"sides": (0, 1, 2)},
        "Triangle(sides=(0, 1, 2))",
        {"sides": (0, 2, 1)},
    ),
    "Quadrilateral": (
        Quadrilateral,
        {"tau": 0, "a1": 1, "a2": 2, "a3": 3, "a4": 4, "first": 5, "second": 6},
        "Quadrilateral(tau=0, a1=1, a2=2, a3=3, a4=4, first=5, second=6)",
        {"tau": 9, "a1": 9, "a2": 9, "a3": 9, "a4": 9, "first": 9, "second": 9},
    ),
    "Arc": (
        Arc,
        {"crossings": (0, 1), "start_triangle": 0, "end_triangle": 1, "arc": None},
        ARC_REPR,
        {"crossings": (1, 0), "start_triangle": 2, "end_triangle": 2, "arc": 0},
    ),
    "ArcTrace": (
        ArcTrace,
        {"arc": ARC, "triangle_path": (0, 1, 0), "connectors": (3,)},
        f"ArcTrace(arc={ARC_REPR}, triangle_path=(0, 1, 0), connectors=(3,))",
        {"arc": Arc((), -1, -1, 0), "triangle_path": (0, 1, 1), "connectors": (2,)},
    ),
    "Tile": (
        Tile,
        {
            "index": 1,
            "diagonal": 0,
            "south": 1,
            "west": 2,
            "east": 3,
            "north": 1,
            "x": 0,
            "y": 0,
        },
        "Tile(index=1, diagonal=0, south=1, west=2, east=3, north=1, x=0, y=0)",
        {
            "index": 2,
            "diagonal": 1,
            "south": 0,
            "west": 0,
            "east": 0,
            "north": 0,
            "x": 1,
            "y": 1,
        },
    ),
    "TauClass": (
        TauClass,
        {"anchor": 2, "kind": "I", "edges": ((2, "N"), (4, "S"))},
        "TauClass(anchor=2, kind='I', edges=((2, 'N'), (4, 'S')))",
        {"anchor": 3, "kind": "II", "edges": ((2, "N"),)},
    ),
    "MatchingRecord": (
        MatchingRecord,
        {
            "bits": "01",
            "matching": frozenset({(1, "W")}),
            "exponent": (1, -2),
            "valuation": 0,
        },
        "MatchingRecord(bits='01', matching=frozenset({(1, 'W')}), "
        "exponent=(1, -2), valuation=0)",
        {
            "bits": "10",
            "matching": frozenset({(1, "S")}),
            "exponent": (1, 2),
            "valuation": 1,
        },
    ),
    "OracleRun": (
        OracleRun,
        {"variables": (ONE,), "seed": SEED},
        f"OracleRun(variables=(<QuantumLaurent X^(0,0)>,), seed={SEED_REPR})",
        {"variables": (X,), "seed": Seed([[0], [2]], LAM)},
    ),
    "VerifyReport": (
        VerifyReport,
        {"ok": True, "slot": 0, "expected": ONE, "actual": ONE, "detail": "match"},
        "VerifyReport(ok=True, slot=0, expected=<QuantumLaurent X^(0,0)>, "
        "actual=<QuantumLaurent X^(0,0)>, detail='match')",
        {"ok": False, "slot": 1, "expected": X, "actual": X, "detail": "differ"},
    ),
    "Seed": (
        Seed,
        {"btilde": ((0,), (1,)), "lam": LAM},
        SEED_REPR,
        {"btilde": ((0,), (2,)), "lam": LambdaForm([[0, -2], [2, 0]])},
    ),
}
NAMES = sorted(RECORDS)
# records holding a QuantumLaurent, which has no hash
UNHASHABLE = {"OracleRun", "VerifyReport"}


def _build(name, **changes):
    cls, fields, _, _ = RECORDS[name]
    return cls(**{**fields, **changes})


@pytest.mark.parametrize("name", NAMES)
def test_construction_by_position_and_by_keyword_agree(name):
    cls, fields, _, _ = RECORDS[name]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    for key, value in fields.items():
        assert getattr(by_position, key) == value
        assert getattr(by_keyword, key) == value


def test_arc_index_defaults_to_none():
    assert Arc((0,), 0, 1).arc is None
    assert Arc((0,), 0, 1) == Arc((0,), 0, 1, None)


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_are_equal_and_hash_alike(name):
    a, b = _build(name), _build(name)
    assert a is not b
    assert a == b
    assert not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize(
    "name, key",
    [(name, key) for name in NAMES for key in RECORDS[name][3]],
)
def test_a_changed_field_breaks_equality(name, key):
    changed = _build(name, **{key: RECORDS[name][3][key]})
    assert changed != _build(name)
    assert not changed == _build(name)


def test_seed_compares_only_btilde_and_lam():
    seed = Seed([[0], [1]], LAM)
    object.__setattr__(seed, "d", 7)
    assert seed == SEED
    assert hash(seed) == hash(SEED)
    assert Seed._of_int_rows([[0], [1]], LAM) == SEED


def test_records_of_different_types_differ():
    assert SEED != "Seed"
    assert Triangle((0, 1, 2)) != Seed([[0], [1]], LAM)
    assert Triangle((0, 1, 2)) != object()


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_exact(name):
    _, _, text, _ = RECORDS[name]
    assert repr(_build(name)) == text


@pytest.mark.parametrize(
    "name, key",
    [(name, key) for name in NAMES for key in RECORDS[name][1]]
    + [("Seed", "d")],
)
def test_assigning_to_a_field_raises(name, key):
    record = _build(name)
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, key, None)
    with pytest.raises(AttributeError):
        delattr(record, key)
    assert repr(record) == before


@pytest.mark.parametrize("sides", [(1, 2), (1, 2, 3, 4), ()])
def test_triangle_needs_three_sides(sides):
    with pytest.raises(SurfaceError, match="does not have three sides"):
        Triangle(sides)


def test_seed_checks_compatibility_on_both_paths():
    flipped = LambdaForm([[0, 1], [-1, 0]])
    with pytest.raises(SeedError, match="is not positive"):
        Seed([[0], [1]], flipped)
    with pytest.raises(SeedError, match="is not positive"):
        Seed._of_int_rows([[0], [1]], flipped)


def test_seed_freezes_and_converts_its_matrix():
    seed = Seed([[0.0], [True]], LAM)
    assert seed.btilde == ((0,), (1,))
    assert all(type(v) is int for row in seed.btilde for v in row)
    assert (seed.m, seed.n, seed.d) == (2, 1, 1)


@pytest.mark.parametrize("name", ["Seed", "Triangle"])
def test_checked_records_copy_and_pickle(name):
    record = _build(name)
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert clone == record
        assert repr(clone) == repr(record)
