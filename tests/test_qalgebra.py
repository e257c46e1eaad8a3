"""Tests for the quantum torus arithmetic layer."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from snakeq import (
    ExactDivisionError,
    LambdaForm,
    QuantumLaurent,
    coeff_to_string,
    exact_right_divide,
    qmul,
)

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


def test_division_respects_the_twist():
    # (X^(1,1) twisted) / X^(0,1) must reproduce X^(1,0) exactly
    product = qmul(
        QuantumLaurent.monomial((1, 0)), QuantumLaurent.monomial((0, 1)), LAM2
    )
    assert exact_right_divide(
        product, QuantumLaurent.monomial((0, 1)), LAM2
    ) == QuantumLaurent.monomial((1, 0))


# ----------------------------------------------------------------------
# canonical form: the constructor is the only merge and zero-drop
#
# The reference sum and product below clean every coefficient as they go,
# with helpers of their own, and return plain dicts, so they do not rely on
# the constructor to merge exponents or drop zeros.

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


def reference_qmul(a, b, form):
    out = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            twist = form.eval(va, vb)
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
    assert all(_stores_no_zero(x) for x in values)


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


def test_terms_print_in_lex_descending_order():
    f = QuantumLaurent.monomial((0, 1)) + QuantumLaurent.monomial((1, -5))
    assert f.to_string("X") == "X^(1,-5) + X^(0,1)"
