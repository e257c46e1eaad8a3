"""Exact arithmetic in quantum tori.

A quantum torus of rank m over ZZ[q^(1/2), q^(-1/2)] is spanned by normalized
monomials X^a for a in ZZ^m, multiplied by the rule

    X^a * X^b = q^(L(a, b) / 2) * X^(a + b),

where L is a skew-symmetric integer bilinear form.  Setting s = q^(1/2), every
element is a finite sum of terms c(s) * X^a with c in ZZ[s, s^(-1)].  This
module represents such elements exactly: coefficients are dicts mapping the
s-exponent to an integer, exponent vectors are integer tuples, and nothing is
ever floated or truncated.  The :class:`QuantumLaurent` constructor is the
only place that merges equal exponents and drops zero coefficients of a
finished value; sums, negation, scaling, products and quotients accumulate
into plain dicts and hand them to it.

Sparsity lives in :class:`LambdaForm`: next to its dense rows it keeps, per
row, the tuple of nonzero column indices.  Its skew check,
:meth:`~LambdaForm.pair` and :meth:`~LambdaForm.ordered_product_twist` walk
only those, so their cost follows the nonzeros of L, not m^2;
:mod:`snakeq.seeds` checks and mutates seeds through ``pair``.

The one nontrivial algorithm is :func:`exact_right_divide`, which solves
Q * D = N for Q by eliminating lexicographically maximal terms.  Because a
quantum torus over a domain has no zero divisors, the exponents of any exact
quotient are confined to a finite box computed from N and D, which makes the
elimination loop a decision procedure: it either returns the exact quotient or
proves there is none.  Each step subtracts its quotient term times D straight
into the remainder, with every term of D paired with L once per division, and
the leading term comes from a heap; one full product checks the quotient.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import add, mul, neg, sub

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


class ExactDivisionError(ArithmeticError):
    """Raised when a requested exact quotient does not exist."""


def _dot(a: Sequence[int], lb: Sequence[int]) -> int:
    """The dot product of a with lb."""
    return sum(map(mul, a, lb))


def _coeff_div(num: Coeff, den: Coeff) -> Coeff | None:
    """Exact quotient num / den in ZZ[s, s^(-1)], or None.

    ``num`` stores no zero; every quotient coefficient is then nonzero, since
    a zero ``lead`` leaves ``extra`` nonzero.
    """
    if not den:
        raise ZeroDivisionError("division by the zero coefficient")
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
        if rem and max(rem) >= rem_top:
            return None
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
    if not c:
        return "0"
    parts = []
    for e in sorted(c):
        n = c[e]
        power = _q_power_string(e)
        if power == "1":
            parts.append(str(n))
        elif n == 1:
            parts.append(power)
        elif n == -1:
            parts.append(f"-{power}")
        else:
            parts.append(f"{n}·{power}")
    return " + ".join(parts)


class LambdaForm:
    """A skew-symmetric integer bilinear form on ZZ^m.

    ``rows`` is the dense matrix, the public form.  Each row's nonzero
    column indices are kept alongside it, and every kernel below walks
    only those, so its cost follows the nonzeros rather than m^2.
    """

    __slots__ = ("rows", "_support")

    def __init__(self, rows: Iterable[Iterable[int]]):
        mat = tuple(tuple(map(int, row)) for row in rows)
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
    coefficients are never stored.  The constructor is the one place that
    converts, merges equal exponents and drops zeros: ``terms`` is a mapping
    or an iterable of ``(vector, coefficient)`` pairs, repeats are summed,
    and the arithmetic below hands it raw sums.  Addition is ordinary;
    multiplication requires the skew form and is provided by :func:`qmul`.
    """

    __slots__ = ("width", "_terms")

    def __init__(self, width: int, terms: Mapping[Vector, Mapping[int, int]] = ()):
        self.width = int(width)
        merged: dict[Vector, Coeff] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for vec, coeff in items:
            v = tuple(map(int, vec))
            if len(v) != self.width:
                raise ValueError(
                    f"exponent vector {v} does not have width {self.width}"
                )
            target = merged.get(v)
            if target is None:
                target = dict(zip(map(int, coeff), map(int, coeff.values())))
                merged[v] = target
                if len(target) == len(coeff):
                    continue
                # s-exponents that collide after int() are added below
                target.clear()
            for e, n in coeff.items():
                e = int(e)
                target[e] = target.get(e, 0) + int(n)
        self._terms = {}
        for v, c in merged.items():
            if 0 in c.values():
                c = {e: n for e, n in c.items() if n}
            if c:
                self._terms[v] = c

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
        vec = tuple(map(int, exponent))
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
        return QuantumLaurent(
            self.width, [*self._terms.items(), *other._terms.items()]
        )

    def __neg__(self) -> QuantumLaurent:
        return QuantumLaurent(
            self.width,
            {v: {e: -n for e, n in c.items()} for v, c in self._terms.items()},
        )

    def __sub__(self, other: QuantumLaurent) -> QuantumLaurent:
        return self + (-other)

    def _check_width(self, other: QuantumLaurent) -> None:
        if self.width != other.width:
            raise ValueError(
                f"rank mismatch: {self.width} versus {other.width}"
            )

    def scaled(self, s_exp: int = 0, coefficient: int = 1) -> QuantumLaurent:
        """Multiply every term by coefficient * s^(s_exp)."""
        out = {}
        for v, c in self._terms.items():
            out[v] = {e + s_exp: n * coefficient for e, n in c.items()}
        return QuantumLaurent(self.width, out)

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
        if not self._terms:
            return "0"
        rendered = []
        for vec, coeff in self.terms_lex_descending():
            body = f"{symbol}^({','.join(map(str, vec))})"
            cs = coeff_to_string(coeff)
            if cs == "1":
                rendered.append(body)
            elif len(coeff) == 1:
                rendered.append(f"{cs}·{body}")
            else:
                rendered.append(f"({cs})·{body}")
        return " + ".join(rendered)

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
    return QuantumLaurent(a.width, out)


def _support_box(
    num: QuantumLaurent, den: QuantumLaurent
) -> tuple[Vector, Vector]:
    n_sup = list(num.support())
    d_sup = list(den.support())
    width = num.width
    lo = tuple(
        min(v[i] for v in n_sup) - max(v[i] for v in d_sup) for i in range(width)
    )
    hi = tuple(
        max(v[i] for v in n_sup) - min(v[i] for v in d_sup) for i in range(width)
    )
    return lo, hi


def exact_right_divide(
    numerator: QuantumLaurent, denominator: QuantumLaurent, form: LambdaForm
) -> QuantumLaurent:
    """Return the unique Q with qmul(Q, denominator, form) == numerator.

    Raises :class:`ExactDivisionError` when no such Q exists.  The quotient is
    found by repeatedly cancelling the lexicographically greatest remainder
    term against the lexicographically greatest denominator term; since the
    quantum torus has no zero divisors, every exponent of a genuine quotient
    lies in a finite coordinate box determined by the two supports, so an
    elimination step leaving that box disproves divisibility.
    """
    numerator._check_width(denominator)
    if form.size != numerator.width:
        raise ValueError("form rank does not match the operands")
    if denominator.is_zero():
        raise ZeroDivisionError("division by zero")
    if numerator.is_zero():
        return QuantumLaurent.zero(numerator.width)

    lo, hi = _support_box(numerator, denominator)
    den = {v: (form.pair(v), c) for v, c in denominator._terms.items()}
    d_top = max(den)
    l_top, d_top_coeff = den[d_top]

    remainder = {v: dict(c) for v, c in numerator._terms.items()}
    # Negated exponents, so the heap's least entry is the leading term.
    # Leading terms strictly decrease, so a popped exponent never returns;
    # exponents cancelled below the top stay in the heap and are skipped.
    heap = [tuple(map(neg, v)) for v in remainder]
    heapify(heap)
    quotient: dict[Vector, Coeff] = {}
    while remainder:
        r_top = tuple(map(neg, heappop(heap)))
        if r_top not in remainder:
            continue
        e = tuple(map(sub, r_top, d_top))
        if any(x < l or x > h for x, l, h in zip(e, lo, hi)):
            raise ExactDivisionError(
                "no exact quotient: elimination left the admissible exponent box"
            )
        twist = _dot(e, l_top)
        c = _coeff_div(
            {s_exp - twist: n for s_exp, n in remainder[r_top].items()},
            d_top_coeff,
        )
        if c is None:
            raise ExactDivisionError(
                "no exact quotient: coefficient division fails at "
                f"exponent {r_top}"
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

    result = QuantumLaurent(numerator.width, quotient)
    if qmul(result, denominator, form) != numerator:
        raise AssertionError("internal error: quotient verification failed")
    return result
