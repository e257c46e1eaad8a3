"""Quantum seeds: exchange matrices, compatible skew forms, and mutation.

A seed pairs an m x n integer exchange matrix (rows for all m generators,
columns for the n mutable ones) with a skew-symmetric m x m form Lambda.  The
pair is compatible when transpose(B) * Lambda = (d*I | 0) for a single
positive integer d; that scalar also calibrates the valuation on snake-graph
matchings.  Matrix mutation and form mutation are implemented directly from
the exchange recurrences, with no floating point anywhere.  The public
:class:`Seed` and :class:`~snakeq.qalgebra.LambdaForm` constructors convert
every entry with ``int()`` once and refuse an entry that is not integral,
such as 2.9, rather than truncate it.  A seed read by :meth:`Seed.from_dict`,
whose entries are proved JSON integers first, or made by :func:`mutate_seed`
is built from integer rows that are frozen and checked but not converted
again; the functions here read matrices as the sequences of integer rows
they are given.

Lambda is read only through :meth:`~snakeq.qalgebra.LambdaForm.pair`, which
walks the nonzeros of each row: row j of transpose(B) * Lambda is minus
Lambda times column j of B, and the mutated column k of Lambda is Lambda
times -e_k + sum_l [b_lk]_+ e_l.  Checking and mutating a seed thus costs
Python steps per nonzero of B and Lambda, not per entry; the per-entry
passes left are the public conversions and the freezing of rows into tuples,
which run at C speed.

:class:`Seed` is a small slotted class rather than a generated record: it
checks compatibility when built, on the public path and on the integer-row
path alike, compares by ``btilde`` and ``lam``, and refuses assignment.
"""

from __future__ import annotations

from itertools import compress
from operator import neg
from typing import Any

from .qalgebra import LambdaForm, _int_tuple
from .surface import _Frozen, _json_int, _json_list

__all__ = [
    "Seed",
    "SeedError",
    "check_compatible",
    "mutate_B",
    "mutate_Lambda",
    "mutate_seed",
    "principal_lambda",
    "principal_seed",
]

Matrix = tuple[tuple[int, ...], ...]

class SeedError(ValueError):
    """Raised for malformed or incompatible seed data."""


def _freeze(rows: Any) -> Matrix:
    """``rows`` as a tuple of tuples; a row that is a tuple already is kept."""
    return tuple(map(tuple, rows))


def _check_json_matrix(rows: Any, key: str) -> None:
    """Raise unless ``rows`` is a list of lists of JSON integers.

    Each row's entry types are collected at C speed; only a row holding
    another type is walked entry by entry, for its first offender.
    """
    what = f"each {key} entry"
    for row in _json_list(rows, key):
        if not set(map(type, _json_list(row, f"each {key} row"))) <= {int}:
            for v in row:
                _json_int(v, what)


def check_compatible(btilde: Any, lam: LambdaForm) -> int:
    """Return the scalar d with transpose(B) * Lambda = (d*I | 0).

    ``btilde`` is read as given: a sequence of integer rows, such as the
    frozen matrix of a :class:`Seed`.  A ``lam`` that is not a
    :class:`~snakeq.qalgebra.LambdaForm` raises :class:`TypeError` first.
    Raises :class:`SeedError` when the product is not of that shape or d is
    not a positive integer shared by all columns; row j of the product is
    scanned in column order over its nonzeros and its diagonal, so the
    first offending entry of the first offending row is reported.
    """
    if not isinstance(lam, LambdaForm):
        raise TypeError(f"lam must be a LambdaForm, not {type(lam).__name__}")
    m = len(btilde)
    if m == 0:
        raise SeedError("the exchange matrix has no rows")
    n = len(btilde[0])
    if n == 0:
        raise SeedError("the exchange matrix has no mutable columns")
    if any(len(row) != n for row in btilde):
        raise SeedError("the exchange matrix has ragged rows")
    if n > m:
        raise SeedError(f"more mutable columns ({n}) than rows ({m})")
    if lam.size != m:
        raise SeedError(
            f"form rank {lam.size} does not match the {m} exchange rows"
        )
    d = 0  # no diagonal entry seen yet; every entry is positive
    indices = range(m)
    for j, column in enumerate(zip(*btilde)):
        # row j of transpose(B)·Lambda is minus Lambda times column j
        entries = lam.pair(column)
        for i in sorted({j, *compress(indices, entries)}):
            entry = -entries[i]
            if i != j:
                raise SeedError(
                    f"compatibility fails: off-diagonal entry {entry} at "
                    f"row {j}, column {i}"
                )
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
    return d


class Seed(_Frozen):
    """A compatible pair, validated on construction.

    ``btilde`` is frozen to a tuple of integer tuples once, here, and the
    form converts its own rows once; code that receives a ``Seed`` reads
    both as they are.  ``d`` is the compatibility scalar, computed once by
    that validation; seeds compare and hash by ``btilde`` and ``lam``
    alone.  :meth:`from_dict` and :func:`mutate_seed` hand over rows that
    are integers already, so they skip the conversion but not the checks.
    """

    __slots__ = ("btilde", "lam", "d")

    btilde: Matrix
    lam: LambdaForm
    d: int

    def __init__(self, btilde: Any, lam: LambdaForm) -> None:
        object.__setattr__(self, "lam", lam)
        what = "exchange matrix entry"
        self._set_matrix(_freeze(_int_tuple(row, what, SeedError) for row in btilde))

    @classmethod
    def _of_int_rows(cls, btilde: Any, lam: LambdaForm) -> Seed:
        """The seed of integer rows: frozen and checked, not converted."""
        seed = object.__new__(cls)
        object.__setattr__(seed, "lam", lam)
        seed._set_matrix(_freeze(btilde))
        return seed

    def _set_matrix(self, btilde: Matrix) -> None:
        object.__setattr__(self, "btilde", btilde)
        object.__setattr__(self, "d", check_compatible(btilde, self.lam))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.btilde == other.btilde and self.lam == other.lam

    def __hash__(self) -> int:
        return hash((self.btilde, self.lam))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(btilde={self.btilde!r}, "
            f"lam={self.lam!r}, d={self.d!r})"
        )

    def __reduce__(self) -> tuple[Any, ...]:
        return type(self), (self.btilde, self.lam)

    @property
    def m(self) -> int:
        return len(self.btilde)

    @property
    def n(self) -> int:
        return len(self.btilde[0])

    @classmethod
    def from_dict(cls, data: Any) -> Seed:
        if not isinstance(data, dict):
            raise SeedError("seed description must be a JSON object")
        try:
            btilde = data["Btilde"]
            _check_json_matrix(btilde, "Btilde")
            lam_rows = data["Lambda"]
            _check_json_matrix(lam_rows, "Lambda")
            # every entry is a JSON int now, so the rows are frozen, not converted
            lam = LambdaForm._of_int_rows(lam_rows)
        except KeyError as missing:
            raise SeedError(f"seed description lacks key {missing}") from None
        except TypeError as bad:
            raise SeedError(f"malformed seed description: {bad}") from None
        except ValueError as bad:
            raise SeedError(str(bad)) from None
        return cls._of_int_rows(btilde, lam)

    def to_dict(self) -> dict[str, Any]:
        return {
            "Btilde": [list(r) for r in self.btilde],
            "Lambda": [list(r) for r in self.lam.rows],
        }


def mutate_B(btilde: Any, k: int) -> Matrix:
    """Matrix mutation in direction k (a mutable column index).

    ``btilde`` is a sequence of integer rows; the result is frozen.  A row
    other than k whose entry in column k is 0 is unchanged, so it is reused.
    """
    n = len(btilde[0])
    if not 0 <= k < n:
        raise SeedError(f"mutation direction {k} out of range for {n} columns")
    pivot = btilde[k]
    # b_ij gains b_ik [b_kj]_+ when b_ik > 0 and b_ik [-b_kj]_+ when b_ik < 0
    rising = [x if x > 0 else 0 for x in pivot]
    falling = [-x if x < 0 else 0 for x in pivot]
    out = []
    for i, row in enumerate(btilde):
        c = row[k]
        if i == k:
            out.append(tuple(-x for x in row))
        elif c == 0:
            out.append(tuple(row))
        else:
            new = [x + c * y for x, y in zip(row, rising if c > 0 else falling)]
            new[k] = -c
            out.append(tuple(new))
    return tuple(out)


def mutate_Lambda(lam: LambdaForm, btilde: Any, k: int) -> LambdaForm:
    """Form mutation in direction k, using the unmutated exchange matrix.

    Row and column k are replaced by the pairing of the basis vectors with
    -e_k + sum_l [b_lk]_+ e_l; all other entries are untouched.
    ``btilde`` is a sequence of integer rows.
    """
    m = lam.size
    if len(btilde) != m:
        raise SeedError("exchange matrix rows do not match the form rank")
    n = len(btilde[0])
    if not 0 <= k < n:
        raise SeedError(f"mutation direction {k} out of range for {n} columns")
    target = [row[k] if row[k] > 0 else 0 for row in btilde]
    target[k] -= 1
    column = lam.pair(target)
    column[k] = 0
    new_rows = []
    for i, row in enumerate(lam.rows):
        if i == k:
            new_rows.append(tuple(map(neg, column)))
        elif row[k] == column[i]:
            new_rows.append(row)
        else:
            new_rows.append((*row[:k], column[i], *row[k + 1 :]))
    return LambdaForm._of_int_rows(new_rows)


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Mutate the compatible pair; compatibility is revalidated on return."""
    new_lam = mutate_Lambda(seed.lam, seed.btilde, k)
    new_b = mutate_B(seed.btilde, k)
    return Seed._of_int_rows(new_b, new_lam)


def principal_lambda(b_matrix: Any) -> LambdaForm:
    """The canonical skew form compatible with principal framing of B.

    In block shape (rows and columns split n + n) it is ((0, -I), (I, -B)),
    which pairs with (B over I) to give transpose(Btilde) * Lambda = (I | 0).
    """
    n = len(b_matrix)
    if any(len(row) != n for row in b_matrix):
        raise SeedError("the exchange matrix must be square")
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = -1
        rows[n + i][i] = 1
        for j in range(n):
            rows[n + i][n + j] = -b_matrix[i][j]
    return LambdaForm(rows)


def principal_seed(b_matrix: Any) -> Seed:
    """Principal-coefficient seed: Btilde stacks B on the identity."""
    n = len(b_matrix)
    identity = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return Seed([*b_matrix, *identity], principal_lambda(b_matrix))
