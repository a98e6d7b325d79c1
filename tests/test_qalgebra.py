"""Exact arithmetic layer: Laurent polynomials in q, rational functions,
polynomials and rational series in t, and cyclotomic evaluation."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspquot.qalgebra import (
    ONE,
    ZERO,
    PRIME_TEST_LIMIT,
    CyclotomicInt,
    LaurentPolyQ,
    RationalQ,
    TPoly,
    TSeries,
    check_nonnegative,
    check_prime,
    cyclotomic_poly,
    gl_order,
    is_prime,
    q_binomial,
    q_binomial_inv,
    q_pascal_inverse,
    q_pascal_matrix,
    q_pochhammer,
    series_to_json,
    t_pochhammer,
    tpoly_from_triples,
    tpoly_to_triples,
)

Q = LaurentPolyQ.q_power(1)

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPolyQ)

nonzero_laurents = laurents.filter(lambda p: not p.is_zero())


# ---------------------------------------------------------------------------
# LaurentPolyQ


def test_laurent_construction_drops_zero_coefficients():
    assert LaurentPolyQ({2: 0, 3: 1}) == LaurentPolyQ({3: 1})
    assert LaurentPolyQ({5: 0}).is_zero()
    assert LaurentPolyQ.const(0) == ZERO
    assert LaurentPolyQ.q_power(0) == ONE


def test_laurent_exponent_range():
    p = LaurentPolyQ({-2: 3, 4: -1})
    assert p.min_exp() == -2
    assert p.coeff(-2) == 3
    assert p.coeff(0) == 0
    with pytest.raises(ValueError):
        ZERO.min_exp()


def test_laurent_int_coercion_in_equality_and_arithmetic():
    assert LaurentPolyQ.const(7) == 7
    assert ONE + 1 == LaurentPolyQ.const(2)
    assert 3 * Q == LaurentPolyQ.q_power(1, 3)
    assert 1 - Q == LaurentPolyQ({0: 1, 1: -1})


@given(laurents, laurents, laurents)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurents, nonzero_laurents)
def test_laurent_exact_division_roundtrip(a, b):
    assert (a * b).divide_exact(b) == a


def test_laurent_try_divide_failure_and_zero_divisor():
    assert (ONE + Q).try_divide(ONE - Q) is None
    with pytest.raises(ValueError):
        (ONE + Q).divide_exact(ONE - Q)
    with pytest.raises(ZeroDivisionError):
        ONE.try_divide(ZERO)


def test_laurent_units():
    u = LaurentPolyQ.q_power(3, -1)
    assert u.is_unit()
    assert u * u.unit_inverse() == ONE
    assert not (ONE + Q).is_unit()
    with pytest.raises(ValueError):
        (ONE + Q).unit_inverse()
    with pytest.raises(ValueError):
        (ONE + Q) ** -1


units = st.tuples(st.integers(-6, 6), st.sampled_from([1, -1])).map(
    lambda ec: LaurentPolyQ.q_power(*ec)
)


@given(units, laurents)
def test_laurent_unit_inverse_cancels(u, a):
    assert (a * u) * u.unit_inverse() == a


def test_laurent_substitute_q():
    p = ONE + Q
    assert p.substitute_q(-1) == LaurentPolyQ({0: 1, -1: 1})
    assert p.substitute_q(3) == LaurentPolyQ({0: 1, 3: 1})
    with pytest.raises(ValueError):
        p.substitute_q(0)


def test_laurent_evaluate():
    p = LaurentPolyQ({2: 1, 0: 1})
    assert p.evaluate(Fraction(1, 2)) == Fraction(5, 4)
    assert p.evaluate(2) == 5
    with pytest.raises(ZeroDivisionError):
        LaurentPolyQ.q_power(-1).evaluate(0)


def fraction_evaluate(terms: dict, value) -> Fraction:
    """The value as a Fraction term sum, one power of Fraction(value) per term."""
    v = Fraction(value)
    if v == 0 and terms and min(terms) < 0:
        raise ZeroDivisionError("negative exponent at q=0")
    return sum((c * v**e for e, c in terms.items()), Fraction(0))


# dense exponents near 0 mixed with sparse ones far out on either side
evaluate_terms = st.dictionaries(
    st.integers(-6, 6) | st.integers(-(10**3), 10**3) | st.sampled_from([-(10**4), 10**4]),
    st.integers(-50, 50).filter(bool),
    max_size=8,
)
evaluate_values = (
    st.integers(-7, 7)
    | st.fractions(min_value=-11, max_value=11, max_denominator=9)
    | st.sampled_from([0.5, -0.25, 3.0, 0.0, -1.5])
)


@given(evaluate_terms, evaluate_values)
def test_laurent_evaluate_matches_the_fraction_term_sum(terms, value):
    p = LaurentPolyQ(terms)
    try:
        expected = fraction_evaluate(terms, value)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="negative exponent at q=0"):
            p.evaluate(value)
        return
    got = p.evaluate(value)
    assert type(got) is Fraction
    assert got == expected


def test_laurent_evaluate_edges():
    sparse = LaurentPolyQ({10**6: 1, -(10**6): -1})
    assert sparse.evaluate(1) == 0 and sparse.evaluate(-1) == 0
    assert LaurentPolyQ({10**6: 3}).evaluate(-1) == 3
    assert type(ZERO.evaluate(0)) is Fraction and ZERO.evaluate(Fraction(1, 3)) == 0
    assert LaurentPolyQ({0: 5, 2: 1}).evaluate(0) == 5
    assert LaurentPolyQ({3: 2}).evaluate(0.0) == 0
    assert LaurentPolyQ({-2: 1, 1: 1}).evaluate(Fraction(-1, 2)) == Fraction(7, 2)
    for value in (0, 0.0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            LaurentPolyQ({-1: 1, 4: 2}).evaluate(value)


def test_laurent_str_ordering():
    p = LaurentPolyQ({1: 1, 2: -3, 0: 2})
    assert str(p) == "-3*q^2 + q + 2"
    assert str(ZERO) == "0"


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPolyQ({1: 1.5}),
        lambda: LaurentPolyQ({1.5: 1}),
        lambda: LaurentPolyQ({0: Fraction(3, 2)}),
        lambda: LaurentPolyQ({0: 2.0}),
        lambda: LaurentPolyQ.q_power(1.5),
        lambda: LaurentPolyQ.const(0.5),
        lambda: (ONE + Q).substitute_q(1.5),
        lambda: tpoly_from_triples([[0, 1, 1.5]]),
        lambda: tpoly_from_triples([[0.5, 1, 1]]),
    ],
)
def test_laurent_rejects_non_integers(build):
    # int() would truncate each of these to a wrong polynomial
    with pytest.raises(TypeError):
        build()


# ---------------------------------------------------------------------------
# LaurentPolyQ against a plain-dict reference


def naive_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def fraction_try_divide(f: dict, g: dict):
    """Long division over Q; the quotient if it is exact with integer coefficients."""
    if not f:
        return {}
    rem = {e: Fraction(c) for e, c in f.items()}
    gdeg, lowest = max(g), min(f) - min(g)
    quot = {}
    while rem:
        top = max(rem)
        if top - gdeg < lowest:
            return None
        c = rem[top] / g[gdeg]
        quot[top - gdeg] = c
        for e, gc in g.items():
            rem[e + top - gdeg] = rem.get(e + top - gdeg, 0) - c * gc
        rem = {e: c for e, c in rem.items() if c}
    if any(c.denominator != 1 for c in quot.values()):
        return None
    return {e: int(c) for e, c in quot.items()}


def clean(p: LaurentPolyQ) -> dict:
    """The terms of p, checked to hold no zero coefficient."""
    terms = p.terms
    assert 0 not in terms.values()
    return terms


# 0, 1, 2 and more terms, so every multiplication path runs
sized_terms = st.integers(0, 5).flatmap(
    lambda n: st.dictionaries(
        st.integers(-5, 5), st.integers(-4, 4).filter(bool), min_size=n, max_size=n
    )
)


@given(sized_terms, sized_terms)
def test_laurent_arithmetic_matches_dict_reference(a, b):
    pa, pb = LaurentPolyQ(a), LaurentPolyQ(b)
    assert clean(pa + pb) == naive_add(a, b)
    assert clean(pa - pb) == naive_add(a, b, -1)
    assert clean(-pa) == naive_add({}, a, -1)
    assert clean(pa * pb) == naive_mul(a, b)
    assert clean(pb * pa) == naive_mul(a, b)
    for k in (-2, 0, 3):
        assert clean(pa * k) == naive_mul(a, {0: k} if k else {})
        assert clean(k * pa) == naive_mul(a, {0: k} if k else {})
        assert clean(pa + k) == naive_add(a, {0: k} if k else {})
    power = {0: 1}
    for n in range(4):
        assert clean(pa**n) == power
        power = naive_mul(power, a)


def test_laurent_multiplication_over_every_size_pair():
    rng = random.Random(5)
    polys = [
        {e: rng.choice([-3, -1, 1, 2]) for e in rng.sample(range(-4, 5), n)}
        for n in range(6)
        for _ in range(3)
    ]
    for a in polys:
        for b in polys:
            assert clean(LaurentPolyQ(a) * LaurentPolyQ(b)) == naive_mul(a, b)


@given(laurents, laurents)
def test_laurent_arithmetic_leaves_its_operands_alone(a, b):
    # every result is merged in place into a fresh dict, never into an operand
    before_a, before_b = a.terms, b.terms
    results = [a + b, a - b, a * b, a * a, a - a]
    if b:
        results.append(a.try_divide(b))
    assert a.terms == before_a and b.terms == before_b
    for r in results:
        assert r is None or 0 not in r.terms.values()


def test_laurent_cancellation_leaves_no_zero_terms():
    assert clean((ONE + Q) * (ONE - Q)) == {0: 1, 2: -1}
    assert clean((ONE + Q) - Q) == {0: 1}
    assert clean((Q - ONE) + (ONE - Q)) == {}
    assert clean((ONE + Q + Q**2) * (ONE - Q)) == {0: 1, 3: -1}


@given(sized_terms, sized_terms)
def test_laurent_equal_polynomials_hash_equal(a, b):
    p = LaurentPolyQ(a)
    reordered = LaurentPolyQ(dict(reversed(list(a.items()))))
    rebuilt = (p + LaurentPolyQ(b)) - LaurentPolyQ(b)
    for other in (reordered, rebuilt):
        assert other == p
        assert hash(other) == hash(p)
    assert (p == LaurentPolyQ(b)) == (a == b)


@given(sized_terms, sized_terms.filter(bool), sized_terms)
def test_laurent_try_divide_matches_fraction_division(f, g, h):
    pf, pg = LaurentPolyQ(f), LaurentPolyQ(g)
    quot = pf.try_divide(pg)
    ref = fraction_try_divide(f, g)
    assert (quot is None) == (ref is None)
    if quot is not None:
        assert clean(quot) == ref
    multiple = naive_mul(g, h)
    assert clean(LaurentPolyQ(multiple).try_divide(pg)) == fraction_try_divide(multiple, g) == h


def test_laurent_try_divide_non_unit_leading_coefficient():
    two = LaurentPolyQ.const(2)
    assert (2 + 2 * Q).try_divide(4 + 4 * Q) is None
    assert (4 + 4 * Q).try_divide(2 + 2 * Q) == two
    assert (3 * Q**2 - 3).try_divide(3 * Q + 3) == Q - 1
    assert (Q**2 + 2 * Q + 1).try_divide(2 * Q + 2) is None


# ---------------------------------------------------------------------------
# q-Pochhammer, Gaussian binomials, group orders


def test_q_pochhammer_frozen():
    assert q_pochhammer(0) == ONE
    assert q_pochhammer(3) == LaurentPolyQ(
        {0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1}
    )


def test_q_pochhammer_recurrence_and_inverse_sign():
    for n in range(1, 9):
        assert q_pochhammer(n) == q_pochhammer(n - 1) * (
            ONE - LaurentPolyQ.q_power(n)
        )
        assert q_pochhammer(n, exp_sign=-1) == q_pochhammer(n).substitute_q(-1)


def test_q_pochhammer_errors():
    with pytest.raises(ValueError):
        q_pochhammer(-1)
    with pytest.raises(ValueError):
        q_pochhammer(2, exp_sign=2)


def test_q_binomial_frozen():
    assert q_binomial(2, 1) == ONE + Q
    assert q_binomial(4, 2) == LaurentPolyQ({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert q_binomial(5, 0) == ONE
    assert q_binomial(5, 5) == ONE


def test_q_binomial_symmetry_recurrence_and_counting():
    for d in range(13):
        for r in range(d + 1):
            b = q_binomial(d, r)
            assert b == q_binomial(d, d - r)
            if 0 < r <= d - 1:
                assert b == q_binomial(d - 1, r - 1) + LaurentPolyQ.q_power(
                    r
                ) * q_binomial(d - 1, r)
            assert b.evaluate(1) == math.comb(d, r)


def test_q_binomial_errors_and_inverse_variable():
    with pytest.raises(ValueError):
        q_binomial(3, -1)
    with pytest.raises(ValueError):
        q_binomial(3, 4)
    for d in range(7):
        for r in range(d + 1):
            assert q_binomial_inv(d, r) == q_binomial(d, r).substitute_q(-1)


def test_gl_order_matches_direct_product():
    for n in range(6):
        direct = ONE
        for i in range(n):
            direct = direct * (
                LaurentPolyQ.q_power(n) - LaurentPolyQ.q_power(i)
            )
        assert gl_order(n) == direct
    assert gl_order(2).evaluate(2) == 6
    assert gl_order(3).evaluate(2) == 168
    assert gl_order(2).evaluate(3) == 48


def _mat_mul(a, b):
    size = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(size)), ZERO)
            for j in range(size)
        ]
        for i in range(size)
    ]


def test_pascal_matrix_inverse_pairs():
    for size in range(1, 9):
        p = q_pascal_matrix(size)
        pinv = q_pascal_inverse(size)
        prod = _mat_mul(p, pinv)
        for i in range(size):
            for j in range(size):
                assert prod[i][j] == (ONE if i == j else ZERO)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and root-of-unity arithmetic


def test_cyclotomic_poly_frozen():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(3) == [1, 1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_cyclotomic_order_must_be_an_integer():
    # a float order used to fail inside the recursion, on list repetition
    for make in (cyclotomic_poly, lambda r: CyclotomicInt(r, [1])):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make(2.0)
        with pytest.raises(ValueError, match="cyclotomic order must be >= 1"):
            make(0)


def _int_poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_cyclotomic_product_over_divisors():
    for n in range(1, 31):
        prod = [1]
        for r in range(1, n + 1):
            if n % r == 0:
                prod = _int_poly_mul(prod, cyclotomic_poly(r))
        assert prod == [-1] + [0] * (n - 1) + [1]


def _root_power(r, e):
    """x^e for x a primitive r-th root of unity, e reduced mod r."""
    return CyclotomicInt(r, [0] * (e % r) + [1])


def test_cyclotomic_int_root_relations():
    for r in range(1, 11):
        x = _root_power(r, 1)
        assert x ** r == 1
        if r > 1:
            total = CyclotomicInt.zero(r)
            for e in range(r):
                total = total + _root_power(r, e)
            assert total == 0


def test_cyclotomic_int_negative_exponent_and_errors():
    assert LaurentPolyQ.q_power(-1).at_root_of_unity(5) == _root_power(5, 4)
    with pytest.raises(ValueError):
        CyclotomicInt.one(2) + CyclotomicInt.one(3)
    with pytest.raises(ValueError):
        CyclotomicInt.one(3) ** -1


def test_at_root_of_unity_kills_q_power_minus_one():
    assert (LaurentPolyQ.q_power(5) - 1).at_root_of_unity(5) == 0
    assert (Q - 1).at_root_of_unity(1) == 0
    assert (Q + 1).at_root_of_unity(2) == 0


@given(laurents, st.integers(1, 12))
def test_at_root_of_unity_matches_the_term_by_term_sum(p, r):
    total = CyclotomicInt.zero(r)
    for e, c in p.terms.items():
        total = total + _root_power(r, e) * c
    assert p.at_root_of_unity(r) == total


def test_at_root_of_unity_refuses_an_order_below_one():
    for r in (0, -2):
        with pytest.raises(ValueError, match="cyclotomic order must be >= 1"):
            (Q + 1).at_root_of_unity(r)
    with pytest.raises(TypeError):
        (Q + 1).at_root_of_unity(2.0)


# ---------------------------------------------------------------------------
# RationalQ


def test_rationalq_cross_multiplied_equality():
    half = RationalQ(ONE - Q * Q, ONE - Q)
    assert half == ONE + Q
    assert half == RationalQ(ONE + Q)
    assert RationalQ(LaurentPolyQ.const(3)) == 3
    assert not (RationalQ(ONE, ONE - Q) == 1)


def test_rationalq_arithmetic():
    a = RationalQ(ONE, ONE - Q)
    assert a * (ONE - Q) == 1
    assert a * RationalQ(ONE - Q, Q) == RationalQ(ONE, Q)
    assert 2 * a == RationalQ(LaurentPolyQ.const(2), ONE - Q)
    with pytest.raises(ZeroDivisionError):
        RationalQ(ONE, ZERO)


def test_laurent_defers_to_foreign_operands():
    r = RationalQ(ONE, ONE - Q)
    assert ONE * r == r * ONE
    with pytest.raises(TypeError):
        ONE + "x"


def test_rationalq_evaluate_and_laurent_conversion():
    a = RationalQ(ONE, ONE - Q)
    assert a.evaluate(2) == -1
    with pytest.raises(ZeroDivisionError):
        a.evaluate(1)
    with pytest.raises(TypeError):
        hash(a)


# ---------------------------------------------------------------------------
# TPoly


def test_tpoly_construction_and_coercion():
    p = TPoly([1, Q, 0])
    assert p.degree() == 1
    assert p.coeff(0) == ONE
    assert p.coeff(1) == Q
    assert p.coeff(5) == ZERO
    assert TPoly([0, 0]).is_zero()
    assert TPoly.zero().degree() == -1
    assert TPoly([LaurentPolyQ.const(4)]) == 4


def test_t_pochhammer_frozen():
    assert t_pochhammer(0) == TPoly.one()
    assert t_pochhammer(2) == TPoly([ONE, -(ONE + Q), Q])
    for d in range(1, 7):
        assert t_pochhammer(d) == t_pochhammer(d - 1) * TPoly(
            [ONE, -LaurentPolyQ.q_power(d - 1)]
        )
    with pytest.raises(ValueError):
        t_pochhammer(-1)


def test_tpoly_shift():
    p = TPoly([ONE, Q])
    assert p.shift_t(2) == TPoly([ZERO, ZERO, ONE, Q])
    assert p.shift_t(2).shift_t(-2) == p
    with pytest.raises(ValueError):
        p.shift_t(-1)
    with pytest.raises(ValueError):
        TPoly.t_power(-1)


def test_tpoly_substitutions():
    p = TPoly([ONE, -ONE])  # 1 - t
    assert p.substitute_t_scale(1) == TPoly([ONE, -Q])
    assert p.substitute_t_square() == TPoly([ONE, ZERO, -ONE])
    assert TPoly([ONE, Q]).substitute_q(-1) == TPoly(
        [ONE, LaurentPolyQ.q_power(-1)]
    )


def test_tpoly_evaluation():
    p = TPoly([ONE, Q])  # 1 + q t
    assert p.evaluate_t_symbolic(1) == ONE + Q
    assert p.evaluate_t_symbolic(-1) == ONE - Q
    assert p.evaluate_t_symbolic(0) == ONE


def test_tpoly_evaluation_matches_the_sum_of_coefficients():
    # the one-dict evaluation against the per-coefficient sum c_m * t^m
    rng = random.Random(29)
    polys = [TPoly()] + [
        TPoly([
            LaurentPolyQ({rng.randrange(-4, 5): rng.randrange(-3, 4) for _ in range(rng.randrange(4))})
            for _ in range(rng.randrange(1, 7))
        ])
        for _ in range(60)
    ]
    for p in polys:
        for t in (-1, 0, 1, 2):
            expected = sum((c * t**m for m, c in enumerate(p.coeffs)), ZERO)
            got = p.evaluate_t_symbolic(t)
            assert got == expected and all(got.terms.values()), (p, t)
    assert TPoly().evaluate_t_symbolic(2) == ZERO


def test_tpoly_at_minus_one_collapse():
    # (t;q)_2 at q = -1 collapses to 1 - t^2.
    vals = t_pochhammer(2).at_root_of_unity(2)
    assert vals[0] == 1
    assert vals[1] == 0
    assert vals[2] == -1


# ---------------------------------------------------------------------------
# TSeries


def test_tseries_expansion_frozen():
    s = TSeries(TPoly([ONE, Q]), TPoly([ONE, -ONE]))
    assert s.expand(3) == [ONE, ONE + Q, ONE + Q, ONE + Q]
    geom = TSeries(TPoly.one(), TPoly([ONE, -ONE]))
    assert geom.expand(4) == [ONE] * 5
    cancel = TSeries(TPoly([ONE, -ONE]), TPoly([ONE, -ONE]))
    assert cancel.expand(2) == [ONE, ZERO, ZERO]


def test_tseries_denominator_validation():
    with pytest.raises(ZeroDivisionError):
        TSeries(TPoly.one(), TPoly.zero())
    with pytest.raises(ValueError):
        TSeries(TPoly.one(), TPoly([LaurentPolyQ.const(2)]))
    with pytest.raises(ValueError):
        TSeries(TPoly.one(), TPoly([ZERO, ONE]))


def test_tseries_equality_and_hash():
    one_minus_t = TPoly([ONE, -ONE])
    a = TSeries(TPoly([ONE, Q]) * one_minus_t, one_minus_t)
    b = TSeries(TPoly([ONE, Q]), TPoly.one())
    assert a == b
    assert not (a == TSeries(TPoly([ONE]), TPoly.one()))
    with pytest.raises(TypeError):
        hash(a)


small_tpolys = st.lists(
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=3).map(
        LaurentPolyQ
    ),
    max_size=5,
).map(TPoly)


@given(small_tpolys, small_tpolys)
@settings(max_examples=60)
def test_tseries_expansion_satisfies_recurrence(num, den_tail):
    den = TPoly.one() + den_tail.shift_t(1)
    series = TSeries(num, den)
    coeffs = series.expand(8)
    for n in range(9):
        acc = ZERO
        for j in range(min(n, den.degree()) + 1):
            acc = acc + den.coeff(j) * coeffs[n - j]
        assert acc == num.coeff(n)


# ---------------------------------------------------------------------------
# Serialization


@given(small_tpolys)
@settings(max_examples=60)
def test_tpoly_triples_roundtrip(p):
    triples = tpoly_to_triples(p)
    assert tpoly_from_triples(triples) == p
    json.dumps(triples)


def test_series_json_roundtrip():
    s = TSeries(TPoly([ONE, Q]), t_pochhammer(2))
    obj = series_to_json(s)
    json.dumps(obj, sort_keys=True)
    back = TSeries(tpoly_from_triples(obj["num"]), tpoly_from_triples(obj["den"]))
    assert back == s
    assert back.expand(4) == s.expand(4)


def test_tpoly_from_triples_refuses_a_negative_t_exponent():
    # the triple was dropped: [[-1, 0, 5], [0, 0, 1]] read as 1
    with pytest.raises(ValueError, match=r"negative t-exponent in triple \[-1, 0, 5\]"):
        tpoly_from_triples([[-1, 0, 5], [0, 0, 1]])
    with pytest.raises(ValueError, match="negative t-exponent"):
        tpoly_from_triples([[-2, 3, 1]])


# ---------------------------------------------------------------------------
# primality of the field size


def test_is_prime_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 5000) if is_prime(n) != by_trial(n)] == []


def test_is_prime_large_values():
    # least strong pseudoprimes to every prime base up to 7, 31 and 37; the next base catches each
    for n in (3_215_031_751, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461):
        assert not is_prime(n)
    assert not is_prime(561) and not is_prime(41041)  # Carmichael numbers
    assert is_prime(2**61 - 1)
    assert is_prime(1_000_000_000_000_000_003)
    assert is_prime(3_317_044_064_679_887_385_961_813)  # the last prime below the limit
    assert not is_prime((2**61 - 1) * 1_000_003)


def test_is_prime_rejects_non_integers_and_check_prime_names_the_value():
    assert is_prime(2) and is_prime(3)
    # 2.0 == 2 and hashes alike, so an untyped memo would answer True
    for n in (2.0, 3.0, 2.5):
        with pytest.raises(TypeError):
            is_prime(n)
    assert check_prime(5) == 5
    with pytest.raises(ValueError, match="^4 is not a prime$"):
        check_prime(4)


class _Tagged(int):
    """An int subclass: the checks hand back a plain int."""


def test_check_prime_and_check_nonnegative_return_the_plain_int():
    for got in (check_prime(_Tagged(5)), check_nonnegative(_Tagged(5), "rank")):
        assert got == 5 and type(got) is int
    assert check_nonnegative(0, "rank") == 0
    with pytest.raises(ValueError) as exc:
        check_nonnegative(-1, "widget")
    assert str(exc.value) == "widget must be >= 0"
    for check in (check_prime, lambda n: check_nonnegative(n, "rank")):
        with pytest.raises(TypeError):
            check(2.0)


def test_is_prime_rejects_values_past_its_exact_range():
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(PRIME_TEST_LIMIT)
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(10**30)
