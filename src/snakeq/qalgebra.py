"""Exact arithmetic in quantum tori.

A quantum torus of rank m over ZZ[q^(1/2), q^(-1/2)] is spanned by normalized
monomials X^a for a in ZZ^m, multiplied by the rule

    X^a * X^b = q^(L(a, b) / 2) * X^(a + b),

where L is a skew-symmetric integer bilinear form.  Setting s = q^(1/2), every
element is a finite sum of terms c(s) * X^a with c in ZZ[s, s^(-1)].  This
module represents such elements exactly: coefficients are dicts mapping the
s-exponent to an integer, exponent vectors are integer tuples, and nothing is
ever floated or truncated.  One private routine, :func:`_canonical_terms`,
merges equal exponents (:func:`_merged`, which adds into the first coefficient
dict of each, so callers hand it their own dicts) and drops zero counts and
empty coefficients (:func:`_drop_zeros`).  Every value whose terms can cancel
goes through it, except a product, whose exponents are distinct as built: it
only drops its zeros.  The expansion's transfer only merges, since its counts
are numbers of matchings; a value canonical by construction, such as an exact
quotient, is wrapped as it is.  The public :class:`QuantumLaurent` constructor
converts and width-checks each pair it hands over; the arithmetic builds its
terms from checked values, so nothing is converted twice.

Sparsity lives in :class:`LambdaForm`: next to its dense rows it keeps, per
row, the tuple of nonzero column indices.  Its skew check,
:meth:`~LambdaForm.pair` and :meth:`~LambdaForm.ordered_product_twist` walk
only those, so their cost follows the nonzeros of L, not m^2;
:mod:`snakeq.seeds` checks and mutates seeds through ``pair``.

The one nontrivial algorithm is :func:`exact_right_divide`, which solves
Q * D = N for Q in one function by eliminating lexicographically maximal
terms: the leading remainder term comes from a heap of negated exponents and
strictly falls each step.  Because a quantum torus over a domain has no zero
divisors, the exponents of any exact quotient are confined to a finite box
computed from N and D, which makes the elimination loop a decision procedure:
it either returns the exact quotient or proves there is none.  Each step
subtracts its quotient term times D straight into the remainder, with every
term of D paired with L once per division, and one closing product checks the
quotient.  A coefficient divided by a one-entry coefficient is one shift and
one exact integer division per count, with no elimination.  :func:`_qsquare`
squares a value with one coefficient product per unordered pair of terms,
added at the pair's two opposite twists.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Hashable, Iterable, Mapping, Sequence
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from operator import add, itemgetter, le, mul, neg, sub
from typing import Any, TypeVar

__all__ = [
    "Coeff",
    "ExactDivisionError",
    "LambdaForm",
    "QuantumLaurent",
    "Vector",
    "coeff_to_string",
    "exact_right_divide",
    "qmul",
]

Vector = tuple[int, ...]
Coeff = dict[int, int]
K = TypeVar("K", bound=Hashable)


class ExactDivisionError(ArithmeticError):
    """Raised when a requested exact quotient does not exist."""


def _dot(a: Sequence[int], lb: Sequence[int]) -> int:
    """The dot product of a with lb."""
    return sum(map(mul, a, lb))


def _int_tuple(
    values: Iterable[Any], what: str, error: type[ValueError] = ValueError
) -> Vector:
    """``values`` converted with ``int()``, refusing a value that changes.

    A float such as 2.9 or a fraction such as 5/2 raises ``error`` naming
    the first such value, rather than being truncated; integral floats,
    bools and integer strings convert.  The converted row is compared with
    the given one as a whole, at C speed, and walked only on a mismatch.
    """
    given = tuple(values)
    ints = tuple(map(int, given))
    if ints != given:
        for value, n in zip(given, ints):
            if n != value and not isinstance(value, (str, bytes, bytearray)):
                raise error(f"{what} {value!r} is not an integer")
    return ints


def _merged(pairs: Iterable[tuple[K, Coeff]]) -> dict[K, Coeff]:
    """``pairs`` with equal keys merged, nothing dropped.

    Each later coefficient of a key is added into the first one, which is
    kept, so every dict passed in must be the caller's, passed once.  Keys
    and counts are exact ints (or tuples of them) of one width, not converted;
    each key is hashed once.
    """
    out: dict[K, Coeff] = {}
    for key, coeff in pairs:
        have = out.setdefault(key, coeff)
        if have is not coeff:
            for e, n in coeff.items():
                have[e] = have.get(e, 0) + n
    return out


def _canonical_terms(pairs: Iterable[tuple[K, Coeff]]) -> dict[K, Coeff]:
    """``pairs`` merged by :func:`_merged`, zeros and empty coefficients dropped."""
    return _drop_zeros(_merged(pairs))


def _drop_zeros(out: dict[K, Coeff]) -> dict[K, Coeff]:
    """``out`` with zero counts and empty coefficients dropped, in place."""
    for key in [k for k, c in out.items() if not c or 0 in c.values()]:
        coeff = {e: n for e, n in out[key].items() if n}
        if coeff:
            out[key] = coeff
        else:
            del out[key]
    return out


def _value(width: int, terms: dict[Vector, Coeff]) -> QuantumLaurent:
    """Wrap canonical terms of width-checked int tuples, with no check."""
    value = object.__new__(QuantumLaurent)
    value.width = width
    value._terms = terms
    return value


def _coeff_div(num: Coeff, den: Coeff) -> Coeff | None:
    """Exact quotient num / den in ZZ[s, s^(-1)], or None.

    ``num`` stores no zero; every quotient coefficient is then nonzero, since
    a zero ``lead`` leaves ``extra`` nonzero.  ``den`` is never empty: it is
    the coefficient of a stored term, and canonical terms have none empty.
    """
    if len(den) == 1:
        # a one-entry denominator divides each count and shifts its exponent
        ((top, lead),) = den.items()
        quot = {}
        for e, n in num.items():
            q, extra = divmod(n, lead)
            if extra:
                return None
            quot[e - top] = q
        return quot
    rem = dict(num)
    den_top = max(den)
    den_lead = den[den_top]
    # no exponent of an exact quotient lies below this, so the loop stops
    floor = min(num, default=0) - min(den)
    quot: Coeff = {}
    while rem:
        rem_top = max(rem)
        lead, extra = divmod(rem[rem_top], den_lead)
        if extra != 0:
            return None
        shift = rem_top - den_top
        if shift < floor:
            return None
        quot[shift] = lead
        for e, n in den.items():
            tgt = e + shift
            rem[tgt] = rem.get(tgt, 0) - lead * n
            if rem[tgt] == 0:
                del rem[tgt]
        # rem[rem_top] cancels and every other target is below it, so max(rem)
        # falls each pass, and the floor check above ends the loop
    return quot


def _q_power_string(s_exp: int) -> str:
    if s_exp == 0:
        return "1"
    if s_exp == 2:
        return "q"
    if s_exp % 2 == 0:
        return f"q^{s_exp // 2}"
    return f"q^({s_exp}/2)"


def coeff_to_string(c: Coeff) -> str:
    """Render a ZZ[s, s^(-1)] coefficient with q-powers in ascending order."""
    parts = []
    for e, n in sorted(c.items()):
        power = _q_power_string(e)
        if power == "1":
            parts.append(str(n))
        elif n == 1:
            parts.append(power)
        elif n == -1:
            parts.append(f"-{power}")
        else:
            parts.append(f"{n}·{power}")
    return " + ".join(parts) or "0"


class LambdaForm:
    """A skew-symmetric integer bilinear form on ZZ^m.

    ``rows`` is the dense matrix, the public form.  Each row's nonzero
    column indices are kept alongside it, and every kernel below walks
    only those, so its cost follows the nonzeros rather than m^2.  The
    constructor converts every entry with ``int()`` and raises
    :class:`ValueError` for an entry that is not integral, such as 0.5;
    :meth:`_of_int_rows` takes rows that are integers already and skips
    that, but both check that the matrix is square and skew.  A mutation
    derives its form from a checked parent with :meth:`_with_column`.
    """

    __slots__ = ("rows", "_support")

    def __init__(self, rows: Iterable[Iterable[int]]):
        self._set_rows(tuple(_int_tuple(row, "form entry") for row in rows))

    @classmethod
    def _of_int_rows(cls, rows: Iterable[Sequence[int]]) -> LambdaForm:
        """The form of integer rows: frozen and checked, not converted."""
        form = object.__new__(cls)
        form._set_rows(tuple(map(tuple, rows)))
        return form

    def _set_rows(self, mat: tuple[Vector, ...]) -> None:
        """Check that ``mat`` is square and skew, then keep it."""
        m = len(mat)
        for row in mat:
            if len(row) != m:
                raise ValueError("the form matrix must be square")
        columns = range(m)
        support = tuple(tuple(compress(columns, row)) for row in mat)
        # a nonzero diagonal entry, or a zero facing a nonzero, fails too
        bad = [
            (i, j) if i <= j else (j, i)
            for i, cols in enumerate(support)
            for j in cols
            if mat[j][i] != -mat[i][j]
        ]
        if bad:
            i, j = min(bad)
            if i == j:
                raise ValueError(f"the form matrix has nonzero diagonal entry at {i}")
            raise ValueError(f"the form matrix is not skew-symmetric at ({i}, {j})")
        self.rows = mat
        self._support = support

    def _with_column(self, k: int, column: list[int]) -> LambdaForm:
        """This form with column k set to ``column`` and row k to minus it.

        ``column[k]`` is set to 0, so the result is skew by construction.  Only
        rows whose entry k changes are rebuilt, and only those turning zero
        or nonzero get a new support.
        """
        column[k] = 0
        rows = list(self.rows)
        support = list(self._support)
        indices = range(len(rows))
        # the old column k is minus row k, so a nonzero sum marks a changed entry
        for i in compress(indices, map(add, column, rows[k])):
            old = rows[i]
            rows[i] = (*old[:k], column[i], *old[k + 1 :])
            if not (old[k] and column[i]):
                support[i] = tuple(compress(indices, rows[i]))
        rows[k] = tuple(map(neg, column))
        support[k] = tuple(compress(indices, column))
        form = object.__new__(LambdaForm)
        form.rows, form._support = tuple(rows), tuple(support)
        return form

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LambdaForm) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"LambdaForm({[list(r) for r in self.rows]})"

    def pair(self, v: Sequence[int]) -> list[int]:
        """L·v, accumulated over the nonzero entries of v and of L.

        Since L is skew, L·v is minus the sum of v_j times row j.
        """
        rows = self.rows
        support = self._support
        out = [0] * len(rows)
        for j in compress(range(len(rows)), v):
            vj = v[j]
            row = rows[j]
            for i in support[j]:
                out[i] -= vj * row[i]
        return out

    def eval(self, a: Iterable[int], b: Iterable[int]) -> int:
        av = tuple(a)
        bv = tuple(b)
        if len(av) != self.size or len(bv) != self.size:
            raise ValueError("vector length does not match the form")
        return _dot(av, self.pair(bv))

    def ordered_product_twist(self, a: Iterable[int]) -> int:
        """s-exponent relating X_1^(a_1)···X_m^(a_m) to the normalized X^a.

        The ordered product equals s^t * X^a with t = sum_{i<j} L_ij a_i a_j,
        summed over the nonzeros of the rows i with a_i nonzero.
        """
        av = tuple(a)
        if len(av) != self.size:
            raise ValueError("vector length does not match the form")
        rows = self.rows
        support = self._support
        total = 0
        for i in compress(range(len(av)), av):
            row = rows[i]
            cols = support[i]
            upper = 0
            for j in cols[bisect_right(cols, i):]:
                upper += row[j] * av[j]
            total += av[i] * upper
        return total


class QuantumLaurent:
    """An element of a rank-m quantum torus, stored term by term.

    Terms map exponent vectors to coefficients in ZZ[s, s^(-1)]; zero
    coefficients are never stored.  The constructor is the public boundary:
    ``terms`` is a mapping or an iterable of ``(vector, coefficient)`` pairs,
    every entry is converted with ``int()``, an entry that is not integral
    (such as 2.9) raises :class:`ValueError`, and every vector is checked
    against ``width``.  Each entry becomes a pair of its own, in a dict made
    here, so a caller's dict is never shared, and :func:`_canonical_terms`
    adds up repeats, as it does for the arithmetic below.  Addition is
    ordinary; multiplication requires the skew form and is provided by
    :func:`qmul`.
    """

    __slots__ = ("width", "_terms")

    def __init__(self, width: int, terms: Mapping[Vector, Mapping[int, int]] = ()):
        self.width = width = _int_tuple((width,), "width")[0]
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs: list[tuple[Vector, Coeff]] = []
        for vec, coeff in items:
            v = _int_tuple(vec, "exponent entry")
            if len(v) != width:
                raise ValueError(f"exponent vector {v} does not have width {width}")
            # one pair per entry, so s-exponents that collide after int() add up
            pairs += [
                (v, {e: n})
                for e, n in zip(
                    _int_tuple(coeff, "s-exponent"),
                    _int_tuple(coeff.values(), "coefficient"),
                )
            ]
        self._terms = _canonical_terms(pairs)

    @classmethod
    def zero(cls, width: int) -> QuantumLaurent:
        return cls(width)

    @classmethod
    def one(cls, width: int) -> QuantumLaurent:
        return cls.monomial((0,) * width)

    @classmethod
    def monomial(
        cls, exponent: Iterable[int], s_exp: int = 0, coefficient: int = 1
    ) -> QuantumLaurent:
        vec = tuple(exponent)
        return cls(len(vec), {vec: {s_exp: coefficient}})

    def items(self) -> list[tuple[Vector, Coeff]]:
        return [(v, dict(c)) for v, c in self._terms.items()]

    def coefficient(self, exponent: Iterable[int]) -> Coeff:
        return dict(self._terms.get(tuple(exponent), {}))

    def support(self) -> set[Vector]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuantumLaurent)
            and self.width == other.width
            and self._terms == other._terms
        )

    def __add__(self, other: QuantumLaurent) -> QuantumLaurent:
        self._check_width(other)
        # both operands' dicts are stored values, so the merge takes copies
        return _value(
            self.width,
            _canonical_terms(
                (v, dict(c))
                for v, c in chain(self._terms.items(), other._terms.items())
            ),
        )

    def __neg__(self) -> QuantumLaurent:
        return self.scaled(coefficient=-1)

    def __sub__(self, other: QuantumLaurent) -> QuantumLaurent:
        return self + (-other)

    def _check_width(self, other: QuantumLaurent) -> None:
        if self.width != other.width:
            raise ValueError(
                f"rank mismatch: {self.width} versus {other.width}"
            )

    def scaled(self, s_exp: int = 0, coefficient: int = 1) -> QuantumLaurent:
        """Multiply every term by coefficient * s^(s_exp)."""
        return _value(
            self.width,
            _canonical_terms(
                (v, {e + s_exp: n * coefficient for e, n in c.items()})
                for v, c in self._terms.items()
            ),
        )

    def specialize_q1(self) -> dict[Vector, int]:
        """Evaluate at q = 1, collapsing each coefficient to an integer."""
        out: dict[Vector, int] = {}
        for v, c in self._terms.items():
            total = sum(c.values())
            if total != 0:
                out[v] = total
        return out

    def terms_lex_descending(self) -> list[tuple[Vector, Coeff]]:
        return [(v, dict(self._terms[v])) for v in sorted(self._terms, reverse=True)]

    def to_string(self, symbol: str = "X") -> str:
        """The terms ``c·X^(a)``, lex-descending; a unit c is left out.

        Each distinct int and each distinct coefficient is rendered once.
        """
        ints = {a: str(a) for a in set(chain.from_iterable(self._terms))}.__getitem__
        prefixes: dict[frozenset[tuple[int, int]], str] = {}
        rendered = []
        # exponents are distinct, so keying by them keeps the order
        for vec, coeff in sorted(self._terms.items(), key=itemgetter(0), reverse=True):
            key = frozenset(coeff.items())
            if key not in prefixes:
                cs = coeff_to_string(coeff)
                bracket = f"{cs}·" if len(key) == 1 else f"({cs})·"
                prefixes[key] = "" if cs == "1" else bracket
            rendered.append(f"{prefixes[key]}{symbol}^({','.join(map(ints, vec))})")
        return " + ".join(rendered) or "0"

    def __repr__(self) -> str:
        return f"<QuantumLaurent {self.to_string()}>"


def qmul(a: QuantumLaurent, b: QuantumLaurent, form: LambdaForm) -> QuantumLaurent:
    """Product in the quantum torus with skew form ``form``.

    L·v is paired once per term of ``b``, so each pair of terms costs one
    dot product.
    """
    a._check_width(b)
    if form.size != a.width:
        raise ValueError("form rank does not match the operands")
    right = [(vb, form.pair(vb), cb) for vb, cb in b._terms.items()]
    out: dict[Vector, Coeff] = {}
    for va, ca in a._terms.items():
        for vb, lb, cb in right:
            twist = _dot(va, lb)
            target = out.setdefault(tuple(map(add, va, vb)), {})
            for ea, na in ca.items():
                for eb, nb in cb.items():
                    e = ea + eb + twist
                    target[e] = target.get(e, 0) + na * nb
    return _value(a.width, _drop_zeros(out))


def _qsquare(a: QuantumLaurent, form: LambdaForm) -> QuantumLaurent:
    """``qmul(a, a, form)``, taking each unordered pair of terms once.

    X^u·X^v = s^L(u,v)·X^(u+v) and X^v·X^u = s^-L(u,v)·X^(u+v), so one
    coefficient product is added at both shifts; a term squared has twist 0.
    """
    terms = [(v, form.pair(v), c) for v, c in a._terms.items()]
    out: dict[Vector, Coeff] = {}
    for i, (va, _, ca) in enumerate(terms):
        target = out.setdefault(tuple(map(add, va, va)), {})
        for ea, na in ca.items():
            for eb, nb in ca.items():
                target[ea + eb] = target.get(ea + eb, 0) + na * nb
        for vb, lb, cb in terms[i + 1:]:
            twist = _dot(va, lb)
            target = out.setdefault(tuple(map(add, va, vb)), {})
            for ea, na in ca.items():
                for eb, nb in cb.items():
                    n = na * nb
                    e = ea + eb
                    target[e + twist] = target.get(e + twist, 0) + n
                    target[e - twist] = target.get(e - twist, 0) + n
    return _value(a.width, _drop_zeros(out))


def _support_box(
    num: QuantumLaurent, den: QuantumLaurent
) -> tuple[Vector, Vector]:
    """The box, column by column, holding every exponent of an exact quotient."""
    n_cols = list(zip(*num._terms))
    d_cols = list(zip(*den._terms))
    lo = tuple(map(sub, map(min, n_cols), map(max, d_cols)))
    hi = tuple(map(sub, map(max, n_cols), map(min, d_cols)))
    return lo, hi


def exact_right_divide(
    numerator: QuantumLaurent, denominator: QuantumLaurent, form: LambdaForm
) -> QuantumLaurent:
    """Return the unique Q with qmul(Q, denominator, form) == numerator.

    Raises :class:`ExactDivisionError` when no such Q exists.  Each step
    pops the lexicographically greatest remainder term off a heap of negated
    exponents and cancels it against the greatest denominator term, so the
    leading term strictly falls.  Since the quantum torus has no zero
    divisors, every exponent of a genuine quotient lies in a finite box
    determined by the two supports (:func:`_support_box`), so a step leaving
    that box disproves divisibility, as does a coefficient that does not
    divide.  One closing product checks the quotient.
    """
    numerator._check_width(denominator)
    if form.size != numerator.width:
        raise ValueError("form rank does not match the operands")
    if denominator.is_zero():
        raise ZeroDivisionError("division by zero")

    lo, hi = _support_box(numerator, denominator)
    # each denominator exponent with its pairing with L and its coefficient
    den = {v: (form.pair(v), c) for v, c in denominator._terms.items()}
    d_top = max(den)
    l_top, d_top_coeff = den[d_top]
    quotient: dict[Vector, Coeff] = {}
    remainder = {v: dict(c) for v, c in numerator._terms.items()}
    # Negated exponents, so the heap's least entry is the leading term.
    # Leading terms strictly decrease, so a popped exponent never returns;
    # exponents cancelled below the top stay in the heap and are skipped.
    heap = [tuple(map(neg, v)) for v in remainder]
    heapify(heap)
    while remainder:
        r_top = tuple(map(neg, heappop(heap)))
        if r_top not in remainder:
            continue
        e = tuple(map(sub, r_top, d_top))
        if not (all(map(le, lo, e)) and all(map(le, e, hi))):
            raise ExactDivisionError(
                "no exact quotient: elimination left the admissible exponent box"
            )
        # the c with s^twist·c·d_top_coeff = the leading remainder coefficient
        twist = _dot(e, l_top)
        c = _coeff_div(
            {s_exp - twist: n for s_exp, n in remainder[r_top].items()}, d_top_coeff
        )
        if c is None:
            raise ExactDivisionError(
                f"no exact quotient: coefficient division fails at exponent {r_top}"
            )
        # The leading remainder term cancels, so r_top and e strictly
        # decrease and every quotient exponent is new.
        quotient[e] = c
        # subtract X^e·c times the denominator, term by term, in place
        for vd, (ld, cd) in den.items():
            key = tuple(map(add, e, vd))
            twist = _dot(e, ld)
            target = remainder.get(key)
            if target is None:
                target = remainder[key] = {}
                heappush(heap, tuple(map(neg, key)))
            for ec, nc in c.items():
                for ed, nd in cd.items():
                    s_exp = ec + ed + twist
                    left = target.get(s_exp, 0) - nc * nd
                    if left:
                        target[s_exp] = left
                    else:
                        target.pop(s_exp, None)
            if not target:
                del remainder[key]
    # every quotient exponent is new and every coefficient nonzero: canonical
    result = _value(numerator.width, quotient)
    if qmul(result, denominator, form) != numerator:
        raise AssertionError("internal error: quotient verification failed")
    return result
