"""Tests for the quantum torus arithmetic layer."""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, strategies as st

import snakeq.qalgebra
from conftest import ladder_arc, ladder_surface
from snakeq import (
    ExactDivisionError,
    LambdaForm,
    QuantumLaurent,
    Seed,
    coeff_to_string,
    commutative_expand,
    exact_right_divide,
    qmul,
    quantum_expand,
    signed_adjacency,
)
from snakeq.qalgebra import _coeff_div, _qsquare, _support_box

LAM2 = LambdaForm([[0, 1], [-1, 0]])
LAM4 = LambdaForm(
    [
        [0, 0, -1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
    ]
)


# ----------------------------------------------------------------------
# the skew form

def test_form_rejects_non_square():
    with pytest.raises(ValueError):
        LambdaForm([[0, 1], [-1, 0], [0, 0]])


def test_form_rejects_non_skew():
    with pytest.raises(ValueError):
        LambdaForm([[0, 1], [1, 0]])


def test_form_rejects_nonzero_diagonal():
    with pytest.raises(ValueError):
        LambdaForm([[1, 0], [0, 0]])


def test_form_eval_is_the_bilinear_form():
    assert LAM2.eval((1, 0), (0, 1)) == 1
    assert LAM2.eval((0, 1), (1, 0)) == -1
    assert LAM2.eval((2, 3), (5, 7)) == 2 * 7 * 1 + 3 * 5 * (-1)
    assert LAM2.eval((1, 1), (1, 1)) == 0


def test_ordered_product_twist_sums_upper_entries():
    # sum of Lambda_ij a_i a_j over i < j
    assert LAM2.ordered_product_twist((2, 3)) == 6
    assert LAM4.ordered_product_twist((1, 1, 1, 1)) == (0 - 1 + 0) + (0 - 1) + (-1)


def test_form_kernels_refuse_a_vector_of_another_length():
    with pytest.raises(ValueError, match="vector length does not match the form"):
        LAM2.eval((1,), (1, 0))
    with pytest.raises(ValueError, match="vector length does not match the form"):
        LAM2.ordered_product_twist((1, 0, 0))


# ----------------------------------------------------------------------
# basic ring operations

def test_monomial_addition_merges_equal_exponents():
    a = QuantumLaurent.monomial((1, 0), s_exp=1)
    b = QuantumLaurent.monomial((1, 0), s_exp=-1)
    c = a + b
    assert c.coefficient((1, 0)) == {1: 1, -1: 1}
    assert len(c) == 1


def test_subtraction_cancels_to_zero():
    a = QuantumLaurent.monomial((2, -1), s_exp=3, coefficient=4)
    assert (a - a).is_zero()
    assert a - a == QuantumLaurent.zero(2)


def test_qmul_of_monomials_twists_by_the_form():
    a = QuantumLaurent.monomial((1, 0))
    b = QuantumLaurent.monomial((0, 1))
    ab = qmul(a, b, LAM2)
    ba = qmul(b, a, LAM2)
    assert ab == QuantumLaurent.monomial((1, 1), s_exp=1)
    assert ba == QuantumLaurent.monomial((1, 1), s_exp=-1)
    # X^a X^b = s^(2 Lambda(a,b)) X^b X^a
    assert ab == ba.scaled(s_exp=2)


def test_qmul_identity_and_zero():
    x = QuantumLaurent.monomial((3, -2), s_exp=5, coefficient=7)
    assert qmul(x, QuantumLaurent.one(2), LAM2) == x
    assert qmul(QuantumLaurent.one(2), x, LAM2) == x
    assert qmul(x, QuantumLaurent.zero(2), LAM2).is_zero()


# ----------------------------------------------------------------------
# the public boundary: the checks the private canonical routine relies on

def test_constructor_checks_the_width_of_every_exponent():
    with pytest.raises(ValueError) as info:
        QuantumLaurent(2, [((1, 0), {0: 1}), ((1, 0, 0), {0: 1})])
    assert str(info.value) == "exponent vector (1, 0, 0) does not have width 2"


def test_sum_and_product_reject_a_rank_mismatch():
    two, three = QuantumLaurent.one(2), QuantumLaurent.one(3)
    for combine in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: qmul(a, b, LAM2),
    ):
        with pytest.raises(ValueError) as info:
            combine(two, three)
        assert str(info.value) == "rank mismatch: 2 versus 3"


def test_product_and_quotient_reject_a_form_of_another_rank():
    four = QuantumLaurent.one(4)
    for operation in (qmul, exact_right_divide):
        with pytest.raises(ValueError) as info:
            operation(four, four, LAM2)
        assert str(info.value) == "form rank does not match the operands"


small_ints = st.integers(min_value=-3, max_value=3)
exponents2 = st.tuples(small_ints, small_ints)
coeffs = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0),
    max_size=2,
)
polys2 = st.dictionaries(exponents2, coeffs, min_size=0, max_size=3).map(
    lambda d: QuantumLaurent(2, d)
)


@given(polys2, polys2, polys2)
def test_qmul_is_associative(a, b, c):
    assert qmul(qmul(a, b, LAM2), c, LAM2) == qmul(a, qmul(b, c, LAM2), LAM2)


@given(polys2, polys2, polys2)
def test_qmul_distributes_over_addition(a, b, c):
    assert qmul(a, b + c, LAM2) == qmul(a, b, LAM2) + qmul(a, c, LAM2)


def _commutative_product(f: dict, g: dict) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


@given(polys2, polys2)
def test_specialize_q1_is_a_ring_map(a, b):
    left = qmul(a, b, LAM2).specialize_q1()
    right = _commutative_product(a.specialize_q1(), b.specialize_q1())
    assert left == right


# ----------------------------------------------------------------------
# exact division

@given(polys2, polys2)
def test_division_inverts_multiplication(f, g):
    if g.is_zero():
        return
    product = qmul(f, g, LAM2)
    assert exact_right_divide(product, g, LAM2) == f


def test_division_detects_a_non_factor():
    numerator = QuantumLaurent.monomial((1, 0)) + QuantumLaurent.one(2)
    denominator = QuantumLaurent.monomial((0, 1)) + QuantumLaurent.one(2)
    with pytest.raises(ExactDivisionError):
        exact_right_divide(numerator, denominator, LAM2)


def test_division_detects_a_coefficient_mismatch():
    numerator = QuantumLaurent.monomial((1, 1), coefficient=3)
    denominator = QuantumLaurent.monomial((0, 1), coefficient=2)
    with pytest.raises(ExactDivisionError):
        exact_right_divide(numerator, denominator, LAM2)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        exact_right_divide(
            QuantumLaurent.one(2), QuantumLaurent.zero(2), LAM2
        )


def test_zero_divided_by_a_nonzero_value_is_zero():
    # one denominator takes the shift, the other the heap, and neither
    # special-cases the empty numerator
    zero = QuantumLaurent.zero(2)
    for denominator in (
        QuantumLaurent.monomial((1, 0), coefficient=2),
        QuantumLaurent.monomial((0, 1)) + QuantumLaurent.one(2),
    ):
        assert exact_right_divide(zero, denominator, LAM2) == zero


def test_coefficient_division_stops_below_the_quotient_floor():
    # 2·s / (1 + s^2) has no Laurent polynomial quotient; the elimination
    # would otherwise step down forever
    assert _coeff_div({1: 2}, {0: 1, 2: 1}) is None
    assert _coeff_div({-1: 1, 1: 2, 3: 1}, {0: 1, 2: 1}) == {1: 1, -1: 1}


def test_division_respects_the_twist():
    # (X^(1,1) twisted) / X^(0,1) must reproduce X^(1,0) exactly
    product = qmul(
        QuantumLaurent.monomial((1, 0)), QuantumLaurent.monomial((0, 1)), LAM2
    )
    assert exact_right_divide(
        product, QuantumLaurent.monomial((0, 1)), LAM2
    ) == QuantumLaurent.monomial((1, 0))


# ----------------------------------------------------------------------
# canonical form: one private routine merges and drops zeros
#
# The public constructor converts and width-checks its input, then merges it
# with the routine; sums, negation, scaling, products and both expansions
# call the routine directly, and a quotient is canonical as it is built.  The reference sum and product below clean
# every coefficient as they go, with helpers of their own, and return plain
# dicts, so they do not rely on that routine to merge exponents or drop zeros.

def _ref_coeff_clean(c):
    return {e: n for e, n in c.items() if n != 0}


def _ref_coeff_add(a, b):
    out = dict(a)
    for e, n in b.items():
        out[e] = out.get(e, 0) + n
        if out[e] == 0:
            del out[e]
    return out


def _ref_coeff_mul(a, b):
    out = {}
    for ea, na in a.items():
        for eb, nb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + na * nb
    return _ref_coeff_clean(out)


def _ref_coeff_shift(a, k):
    return {e + k: n for e, n in a.items()}


def reference_add(a, b):
    out = {v: dict(c) for v, c in a.items()}
    for v, c in b.items():
        merged = _ref_coeff_add(out.get(v, {}), c)
        if merged:
            out[v] = merged
        else:
            out.pop(v, None)
    return out


def reference_eval(form, a, b):
    """The form entry by entry, as the kernel paired it before L·v."""
    total = 0
    for i, ai in enumerate(a):
        if ai:
            row = form.rows[i]
            total += ai * sum(row[j] * bj for j, bj in enumerate(b) if bj)
    return total


def reference_qmul(a, b, form):
    out = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            twist = reference_eval(form, va, vb)
            target = tuple(x + y for x, y in zip(va, vb))
            contrib = _ref_coeff_shift(_ref_coeff_mul(ca, cb), twist)
            merged = _ref_coeff_add(out.get(target, {}), contrib)
            if merged:
                out[target] = merged
            else:
                out.pop(target, None)
    return out


# exponent vectors from a narrow range, so that terms often meet
tiny = st.integers(min_value=-1, max_value=1)


def polys(width):
    return st.dictionaries(
        st.tuples(*[tiny] * width), coeffs, max_size=4
    ).map(lambda d: QuantumLaurent(width, d))


FORMS = pytest.mark.parametrize("width, form", [(2, LAM2), (4, LAM4)])


@FORMS
@given(data=st.data())
def test_sum_and_product_equal_the_cleaning_reference(width, form, data):
    a = data.draw(polys(width))
    b = data.draw(polys(width))
    # the last two pairs cancel some or all of a's terms
    for x, y in ((a, b), (a, -a), (a, b - a)):
        assert dict((x + y).items()) == reference_add(x, y)
        assert dict(qmul(x, y, form).items()) == reference_qmul(x, y, form)


def _stores_no_zero(x):
    return all(c and 0 not in c.values() for _, c in x.items())


# Lambda = -B^(-1) for the even ladders, whose B is unimodular
LADDER_LAMBDA = {
    2: [[0, -1], [1, 0]],
    4: [[0, -1, 0, 1], [1, 0, 0, 0], [0, 0, 0, -1], [-1, 0, 1, 0]],
}


@cache
def coefficient_free_expansions(d):
    """Ladder d's expansions with Btilde = B, and ladder d + 1's.

    An odd ladder's B is singular, so its commutative expansion adds
    matchings of equal exponent; the even ladder's is also quantized.
    """
    values = []
    for size in (d, d + 1):
        t = ladder_surface(size)
        values.append(commutative_expand(t, ladder_arc(size), signed_adjacency(t)))
    t = ladder_surface(d)
    seed = Seed(signed_adjacency(t), LambdaForm(LADDER_LAMBDA[d]))
    values.append(quantum_expand(t, ladder_arc(d), seed))
    return values


@FORMS
@given(data=st.data())
def test_no_value_stores_a_zero_coefficient(width, form, data):
    a = data.draw(polys(width))
    b = data.draw(polys(width))
    raw = data.draw(
        st.lists(
            st.tuples(
                st.tuples(*[tiny] * width),
                st.dictionaries(tiny, st.integers(-2, 2), max_size=3),
            ),
            max_size=6,
        )
    )
    values = [
        QuantumLaurent(width, raw),
        a + b,
        a + (-a),
        a - b,
        a - a,
        -a,
        a.scaled(s_exp=3),
        a.scaled(coefficient=0),
        qmul(a, b, form),
    ]
    if not b.is_zero():
        values.append(exact_right_divide(qmul(a, b, form), b, form))
    values.extend(coefficient_free_expansions(width))
    for x in values:
        assert _stores_no_zero(x)
        assert QuantumLaurent(x.width, x.items()) == x


def test_constructor_adds_keys_that_collide_after_int():
    x = QuantumLaurent(
        2,
        [
            ((1, 0), {0: 1}),
            ((1.0, 0.0), {0: 2, 2: 1}),
            (("1", "0"), {"0": 4, 0: 1}),
        ],
    )
    assert dict(x.items()) == {(1, 0): {0: 8, 2: 1}}
    assert all(type(e) is int for v, c in x.items() for e in (*v, *c))
    first = QuantumLaurent(2, {(0, 1): {"2": 3, 2: -3, 1: 1}})
    assert dict(first.items()) == {(0, 1): {1: 1}}


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: QuantumLaurent(1, {(2.9,): {0.5: 1.7}}), "exponent entry 2.9"),
        (lambda: QuantumLaurent(1, {(2,): {0.5: 1}}), "s-exponent 0.5"),
        (lambda: QuantumLaurent(1, {(2,): {0: 1.7}}), "coefficient 1.7"),
        (lambda: QuantumLaurent(2.5), "width 2.5"),
        (
            lambda: QuantumLaurent.monomial((1, Fraction(5, 2))),
            "exponent entry Fraction(5, 2)",
        ),
        (lambda: QuantumLaurent.monomial((1,), 0.5), "s-exponent 0.5"),
        (lambda: QuantumLaurent.monomial((1,), 0, 2.5), "coefficient 2.5"),
        (lambda: LambdaForm([[0, 0.5], [-0.5, 0]]), "form entry 0.5"),
    ],
    ids=[
        "exponent",
        "s-exponent",
        "coefficient",
        "width",
        "monomial-exponent",
        "monomial-s-exponent",
        "monomial-coefficient",
        "form",
    ],
)
def test_constructors_refuse_numbers_that_are_not_integral(build, named):
    # int() would truncate these; the first such value is named instead
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"{named} is not an integer"


def test_constructors_convert_integral_floats_bools_and_integer_strings():
    x = QuantumLaurent.monomial((2.0, True, "-3"), Fraction(4, 2), 3.0)
    assert x.items() == [((2, 1, -3), {2: 3})]
    assert all(type(e) is int for v, c in x.items() for e in (*v, *c, *c.values()))
    form = LambdaForm([[0.0, "1"], [-1, False]])
    assert form.rows == ((0, 1), (-1, 0))
    assert all(type(e) is int for row in form.rows for e in row)


def test_constructor_merges_repeated_pairs_and_cancels_to_zero():
    x = QuantumLaurent(
        2,
        [
            ((1, 0), {0: 1, 2: 5}),
            ((0, 1), {1: 1}),
            ((1, 0), {0: -1, 4: 2}),
            ((0, 1), {1: -1}),
        ],
    )
    assert dict(x.items()) == {(1, 0): {2: 5, 4: 2}}
    gone = QuantumLaurent(2, [((1, 0), {0: 1, 1: -3}), ((1, 0), {0: -1, 1: 3})])
    assert gone.is_zero()
    assert gone == QuantumLaurent.zero(2)


def test_constructor_never_shares_or_changes_a_callers_dict():
    first, second = {0: 1, 2: 5}, {0: 2}
    x = QuantumLaurent(2, [((1, 0), first), ((1, 0), second), ((0, 1), second)])
    assert first == {0: 1, 2: 5} and second == {0: 2}
    stored = x._terms
    assert stored == {(1, 0): {0: 3, 2: 5}, (0, 1): {0: 2}}
    assert all(c is not first and c is not second for c in stored.values())
    first[0] = second[0] = 7
    assert dict(x.items()) == {(1, 0): {0: 3, 2: 5}, (0, 1): {0: 2}}


A_TERMS = {(1, 0): {0: 1, 2: 5}, (0, 1): {1: 2}}


@pytest.mark.parametrize(
    "a_terms, b_terms, total",
    [
        (
            A_TERMS,
            {(1, 0): {0: 2, 2: -5}, (0, 0): {0: 3}},
            {(1, 0): {0: 3}, (0, 1): {1: 2}, (0, 0): {0: 3}},
        ),
        (A_TERMS, None, {(1, 0): {0: 2, 2: 10}, (0, 1): {1: 4}}),
        (A_TERMS, {(1, 0): {0: -1, 2: -5}, (0, 1): {1: -2}}, {}),
    ],
    ids=["overlapping", "itself", "cancelling"],
)
def test_a_sum_changes_and_shares_no_operand_dict(a_terms, b_terms, total):
    # the merge adds into the first dict of each exponent, so a sum must
    # hand it copies of the operands' stored dicts
    a = QuantumLaurent(2, a_terms)
    b = a if b_terms is None else QuantumLaurent(2, b_terms)
    before_a, before_b = QuantumLaurent(2, a.items()), QuantumLaurent(2, b.items())
    result = a + b
    assert a == before_a and b == before_b
    assert dict(result.items()) == total
    stored = {id(c) for x in (a, b) for c in x._terms.values()}
    assert stored.isdisjoint(map(id, result._terms.values()))


def test_products_and_quotients_change_and_share_no_operand_dict():
    # the division copies the numerator's dicts into its remainder and
    # subtracts into them in place; no result may be an operand's dict
    form = LambdaForm([[0, 1, -2], [-1, 0, 1], [2, -1, 0]])
    rng = random.Random(3)

    def value():
        return QuantumLaurent(3, {
            tuple(rng.randint(-1, 1) for _ in range(3)): {
                rng.randint(-2, 2): rng.choice([-3, -2, -1, 1, 2, 3])
                for _ in range(rng.randint(1, 2))
            }
            for _ in range(rng.randint(1, 3))
        })

    messages = set()
    for _ in range(300):
        a, b = value(), value()
        before_a, before_b = copy.deepcopy(a), copy.deepcopy(b)
        results = [qmul(a, b, form), _qsquare(a, form)]
        results.append(exact_right_divide(qmul(a, b, form), b, form))
        try:
            results.append(exact_right_divide(a, b, form))
        except ExactDivisionError as exc:
            messages.add(str(exc).split(" at exponent ")[0])
        assert a == before_a and b == before_b
        stored = {id(c) for x in (a, b) for c in x._terms.values()}
        for result in results:
            assert stored.isdisjoint(map(id, result._terms.values()))
    assert messages == {
        "no exact quotient: elimination left the admissible exponent box",
        "no exact quotient: coefficient division fails",
    }


# ----------------------------------------------------------------------
# the sparse kernels against the pairwise ones they replaced
#
# The references pair every two terms with the form entry by entry
# (reference_eval, reference_qmul above), and divide by building each
# elimination step with a full product and taking the leading term with
# max(); messages and checks are those of the kernel.

def reference_product(a, b, form):
    return QuantumLaurent(a.width, reference_qmul(a, b, form))


def reference_divide(numerator, denominator, form):
    if denominator.is_zero():
        raise ZeroDivisionError("division by zero")
    if numerator.is_zero():
        return QuantumLaurent.zero(numerator.width)
    lo, hi = _support_box(numerator, denominator)
    d_top = max(denominator.support())
    d_top_coeff = denominator.coefficient(d_top)
    remainder = {v: c for v, c in numerator.items()}
    quotient = {}
    while remainder:
        r_top = max(remainder)
        e = tuple(r - d for r, d in zip(r_top, d_top))
        if any(x < l or x > h for x, l, h in zip(e, lo, hi)):
            raise ExactDivisionError(
                "no exact quotient: elimination left the admissible exponent box"
            )
        twist = reference_eval(form, e, d_top)
        c = _coeff_div(
            {s_exp - twist: n for s_exp, n in remainder[r_top].items()},
            d_top_coeff,
        )
        if c is None:
            raise ExactDivisionError(
                "no exact quotient: coefficient division fails at "
                f"exponent {r_top}"
            )
        quotient[e] = c
        step = reference_product(
            QuantumLaurent(numerator.width, {e: c}), denominator, form
        )
        for v, coeff in step.items():
            target = remainder.setdefault(v, {})
            for s_exp, n in coeff.items():
                left = target.get(s_exp, 0) - n
                if left:
                    target[s_exp] = left
                else:
                    target.pop(s_exp, None)
            if not target:
                del remainder[v]
    result = QuantumLaurent(numerator.width, quotient)
    assert reference_product(result, denominator, form) == numerator
    return result


@st.composite
def skew_forms(draw, width):
    """Skew forms of the given width; some rows (and columns) are zero."""
    zero = draw(st.sets(st.integers(0, width - 1), max_size=width - 1))
    rows = [[0] * width for _ in range(width)]
    for i in range(width):
        for j in range(i + 1, width):
            if i not in zero and j not in zero:
                rows[i][j] = draw(st.integers(-2, 2))
                rows[j][i] = -rows[i][j]
    return LambdaForm(rows)


@st.composite
def operands(draw):
    """A width in 2..6, a form of that width and two values of it."""
    width = draw(st.integers(2, 6))
    return width, draw(skew_forms(width)), draw(polys(width)), draw(polys(width))


def outcome(divide, numerator, denominator, form):
    try:
        return divide(numerator, denominator, form)
    except ExactDivisionError as exc:
        return f"error: {exc}"


@given(operands())
def test_products_and_quotients_equal_the_pairwise_reference(case):
    width, form, a, b = case
    for va, _ in a.items():
        for vb, _ in b.items():
            assert form.eval(va, vb) == reference_eval(form, va, vb)
    product = qmul(a, b, form)
    assert product == reference_product(a, b, form)
    if not b.is_zero():
        assert exact_right_divide(product, b, form) == a
        assert reference_divide(product, b, form) == a


@given(operands())
def test_division_outcomes_equal_the_pairwise_reference(case):
    """Arbitrary pairs, mostly not divisible: equal quotients or messages."""
    width, form, a, b = case
    if b.is_zero():
        return
    assert outcome(exact_right_divide, a, b, form) == outcome(
        reference_divide, a, b, form
    )


@st.composite
def one_term_operands(draw):
    """A width, a form, a value and a one-term value with 1-3 s-entries."""
    width = draw(st.integers(2, 6))
    vector = draw(st.tuples(*[tiny] * width))
    coeff = draw(
        st.dictionaries(
            st.integers(-2, 2),
            st.integers(-4, 4).filter(lambda v: v != 0),
            min_size=1,
            max_size=3,
        )
    )
    term = QuantumLaurent(width, {vector: coeff})
    return width, draw(skew_forms(width)), draw(polys(width)), term


@given(one_term_operands())
def test_one_term_denominators_equal_the_pairwise_reference(case):
    """Division by one term is a shift: equal quotients or equal messages."""
    width, form, a, term = case
    assert outcome(exact_right_divide, a, term, form) == outcome(
        reference_divide, a, term, form
    )
    product = qmul(a, term, form)
    assert exact_right_divide(product, term, form) == a
    assert reference_divide(product, term, form) == a


@given(operands())
def test_the_square_kernel_equals_the_product_with_itself(case):
    """Widths 2-6, negative counts, and sums whose twisted terms cancel."""
    width, form, a, b = case
    for x in (a, -a, a + b, a - b, b - a.scaled(s_exp=1)):
        assert _qsquare(x, form) == qmul(x, x, form)
        assert _qsquare(x, form) == reference_product(x, x, form)


def loop_coeff_div(num, den):
    """The elimination loop that divides by any denominator (the reference)."""
    rem = dict(num)
    den_top = max(den)
    den_lead = den[den_top]
    floor = min(num, default=0) - min(den)
    quot = {}
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


one_entry = st.dictionaries(
    st.integers(-3, 3), st.integers(-4, 4).filter(bool), min_size=1, max_size=1
)


@given(coeffs, one_entry, one_entry)
def test_one_entry_coefficient_division_equals_the_loop(quotient, den, other):
    """Divisible pairs (a product) and mostly non-divisible ones (any pair)."""
    ((top, lead),) = den.items()
    product = {e + top: n * lead for e, n in quotient.items()}
    assert _coeff_div(product, den) == loop_coeff_div(product, den) == quotient
    for num in (quotient, other):
        assert _coeff_div(num, den) == loop_coeff_div(num, den)


def test_one_entry_coefficient_division_refuses_a_remainder():
    assert _coeff_div({0: 4, 2: 3}, {1: 2}) is None
    assert _coeff_div({0: 4, 2: -6}, {1: -2}) == {-1: -2, 1: 3}


LAM3_ZERO_ROW = LambdaForm([[0, 2, 0], [-2, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize(
    "numerator, denominator, form, message",
    [
        (
            QuantumLaurent.monomial((1, 0)) + QuantumLaurent.one(2),
            QuantumLaurent.monomial((0, 1)) + QuantumLaurent.one(2),
            LAM2,
            "no exact quotient: elimination left the admissible exponent box",
        ),
        (
            QuantumLaurent.monomial((1, 1), coefficient=3),
            QuantumLaurent.monomial((0, 1), coefficient=2),
            LAM2,
            "no exact quotient: coefficient division fails at exponent (1, 1)",
        ),
        (
            # the second step divides 2·s^3 by 1 + s^2
            QuantumLaurent(3, {(1, 1, 1): {0: 1, 2: 1}, (0, 1, 1): {1: 2}}),
            QuantumLaurent(3, {(1, 0, 1): {0: 1, 2: 1}}),
            LAM3_ZERO_ROW,
            "no exact quotient: coefficient division fails at exponent (0, 1, 1)",
        ),
        (
            # the third step leaves the box
            QuantumLaurent(3, {(2, 1, 0): {0: 1}, (1, 1, 0): {0: 3}}),
            QuantumLaurent(3, {(1, 0, 0): {0: 1}, (0, 0, 0): {0: 2}}),
            LAM3_ZERO_ROW,
            "no exact quotient: elimination left the admissible exponent box",
        ),
    ],
)
def test_both_divisions_give_the_same_message(numerator, denominator, form, message):
    for divide in (exact_right_divide, reference_divide):
        with pytest.raises(ExactDivisionError) as info:
            divide(numerator, denominator, form)
        assert str(info.value) == message


def test_division_checks_its_quotient_with_a_full_product(monkeypatch):
    """A product that disagrees with the elimination is caught at the end.

    A one-term denominator takes the shift and a two-term one the heap.
    """
    denominators = (
        QuantumLaurent.one(2),
        QuantumLaurent.monomial((0, 1)) + QuantumLaurent.one(2),
    )
    x = QuantumLaurent.monomial((1, 0))
    products = [qmul(x, den, LAM2) for den in denominators]

    def off_by_one(a, b, form):
        return qmul(a, b, form) + QuantumLaurent.one(2)

    monkeypatch.setattr(snakeq.qalgebra, "qmul", off_by_one)
    for product, den in zip(products, denominators):
        with pytest.raises(AssertionError, match="quotient verification failed"):
            exact_right_divide(product, den, LAM2)


# ----------------------------------------------------------------------
# printing

def test_coefficient_strings():
    assert coeff_to_string({0: 1}) == "1"
    assert coeff_to_string({0: -1}) == "-1"
    assert coeff_to_string({2: 1}) == "q"
    assert coeff_to_string({-2: 1}) == "q^-1"
    assert coeff_to_string({1: 1}) == "q^(1/2)"
    assert coeff_to_string({-2: 1, 0: 1, 2: 1}) == "q^-1 + 1 + q"
    assert coeff_to_string({0: 3}) == "3"
    assert coeff_to_string({4: -2}) == "-2·q^2"
    # a count of -1 at a q power is its minus sign, and a negative term is
    # joined with " + " like any other
    assert coeff_to_string({-1: -1, 0: 3, 2: -1}) == "-q^(-1/2) + 3 + -q"


def test_polynomial_strings():
    x = QuantumLaurent.monomial((1, -2))
    assert x.to_string("X") == "X^(1,-2)"
    y = QuantumLaurent.monomial((0, 1), s_exp=-1) + QuantumLaurent.monomial(
        (0, 1), s_exp=1
    )
    assert y.to_string("X") == "(q^(-1/2) + q^(1/2))·X^(0,1)"
    assert QuantumLaurent.zero(2).to_string("X") == "0"
    scaled = QuantumLaurent.monomial((2, 0), coefficient=5)
    assert scaled.to_string("x") == "5·x^(2,0)"


def test_to_string_renders_each_distinct_coefficient_once(monkeypatch):
    # five terms, three distinct coefficients; two equal coefficients built
    # in different orders are one coefficient
    rendered = []
    render = snakeq.qalgebra.coeff_to_string

    def counted(coeff):
        rendered.append(dict(coeff))
        return render(coeff)

    monkeypatch.setattr(snakeq.qalgebra, "coeff_to_string", counted)
    value = QuantumLaurent(
        2,
        [
            ((2, -1), {-1: 1, 1: 1}),
            ((1, 0), {0: 1}),
            ((0, 1), {1: 1, -1: 1}),
            ((-1, 10), {0: 1}),
            ((-2, 0), {0: -3}),
        ],
    )
    assert value.to_string("X") == (
        "(q^(-1/2) + q^(1/2))·X^(2,-1) + X^(1,0) + (q^(-1/2) + q^(1/2))·X^(0,1)"
        " + X^(-1,10) + -3·X^(-2,0)"
    )
    assert rendered == [{-1: 1, 1: 1}, {0: 1}, {0: -3}]


def test_terms_print_in_lex_descending_order():
    f = QuantumLaurent.monomial((0, 1)) + QuantumLaurent.monomial((1, -5))
    assert f.to_string("X") == "X^(1,-5) + X^(0,1)"
