"""Acceptance gate.

One test per acceptance criterion, numbered 1-9.  Each test re-derives its
expectations from frozen constants or independent enumeration and prints a
single PASS line when every assertion holds (visible with pytest -s or -rP;
a failed criterion shows up as a failed test instead).
"""

import itertools
import random
import time
from fractions import Fraction

from cuspquot.oracles import (
    count_all_pairs,
    count_nilpotent_pairs,
    count_quot_bruteforce,
    count_stratum_bruteforce,
)
from cuspquot.qalgebra import (
    LaurentPolyQ,
    gl_order,
    t_pochhammer,
    tpoly_from_triples,
)
from cuspquot.series import (
    affine_cohen_lenstra_coefficient,
    cyclotomic_divisibility_check,
    functional_equation_check,
    hilb_numerator,
    hilb_series,
    matrix_count_formula,
    nh_guess,
    quot_numerator,
    quot_series,
    root_of_unity_check,
    solve_nh,
    zhat_coefficient,
)
from cuspquot.strata import LeadingTermDatum, parse_datum, zero_datum
from cuspquot.varieties import (
    GFMatrix,
    VAlphaSpec,
    ab_profile,
    brute_v_d,
    classify_kernel_vector,
    count_v_spec,
    enumerate_v_d_points,
    extend_point,
    h0_t_exact,
    staircase_motive,
    symbolic_v_alpha,
)

import test_groebner
from orbit_reference import apply_address, is_stable, orbit_address
from test_oracles import SCALING_CASES

# Numerators of the rank-d framed series, as (t_exp, q_exp, coeff) triples.
FROZEN_NH = {
    0: [[0, 0, 1]],
    1: [[0, 0, 1], [1, 1, 1]],
    2: [[0, 0, 1], [1, 2, 1], [1, 3, 1], [2, 4, 1]],
    3: [
        [0, 0, 1],
        [1, 3, 1], [1, 4, 1], [1, 5, 1],
        [2, 6, 1], [2, 7, 1], [2, 8, 1],
        [3, 9, 1],
    ],
}

FROZEN_STAIRCASE = {
    0: {0: 1},
    1: {0: 1},
    2: {2: 1},
    3: {4: 3, 3: -2},
    4: {8: 2, 7: 3, 6: -5, 5: 1},
    5: {12: 10, 11: -5, 10: -9, 9: 5},
    6: {18: 5, 17: 21, 16: -30, 15: -9, 14: 15, 12: -1},
    7: {24: 35, 23: 7, 22: -84, 21: 15, 20: 35, 18: -7},
    8: {32: 14, 31: 112, 30: -112, 29: -162, 28: 113, 27: 70, 26: -7, 25: -28, 22: 1},
}

V2_TABLE = {"1-": {0: 1}, "2": {1: 1}, "3+": {2: 1}}

# All realizable rank-3 distance-class triples, keyed ((1,2), (2,3), (1,3)).
V3_TABLE = {
    ("1-", "1-", "1-"): {0: 1},
    ("1-", "1-", "2"): {1: 1},
    ("1-", "1-", "3+"): {2: 1},
    ("1-", "2", "2"): {2: 1},
    ("1-", "2", "3+"): {3: 1},
    ("1-", "3+", "3+"): {4: 1},
    ("2", "1-", "2"): {2: 1},
    ("2", "1-", "3+"): {3: 1},
    ("2", "2", "3+"): {4: 1},
    ("2", "3+", "3+"): {4: 2, 3: -1},
    ("3+", "1-", "3+"): {4: 1},
    ("3+", "2", "3+"): {4: 2, 3: -1},
    ("3+", "3+", "3+"): {4: 3, 3: -2},
}


def test_criterion_1_exact_formula_regression():
    start = time.monotonic()
    for d in range(4):
        numerator = tpoly_from_triples(FROZEN_NH[d])
        series = hilb_series(d)
        assert series.num == numerator
        assert series.den == t_pochhammer(d)
        assert hilb_numerator(d) == numerator
        unframed = quot_series(d)
        assert unframed.num == numerator.substitute_t_square()
        assert unframed.den == t_pochhammer(d)
        assert quot_numerator(d) == hilb_numerator(d).substitute_t_square()
    assert time.monotonic() - start < 10.0
    print("PASS criterion-1: symbolic closed forms and t->t^2 halving, ranks <= 3")


def test_criterion_2_staircase_motives():
    for d, terms in FROZEN_STAIRCASE.items():
        assert staircase_motive(d) == LaurentPolyQ(terms)
    for d in range(13):
        assert staircase_motive(d).evaluate(1) == 1
    for d in range(5):
        assert brute_v_d(d, 2) == staircase_motive(d).evaluate(2)
    for d in range(4):
        assert brute_v_d(d, 3) == staircase_motive(d).evaluate(3)
    print("PASS criterion-2: staircase motive table, q=1, brute-force counts")


def test_criterion_3_pure_k_tables():
    for cls, terms in V2_TABLE.items():
        spec = VAlphaSpec(2, {(1, 2): cls})
        assert symbolic_v_alpha(spec) == LaurentPolyQ(terms)
        for p in (2, 3, 5):
            assert count_v_spec(spec, p) == symbolic_v_alpha(spec).evaluate(p)
    realizable = set()
    for key in itertools.product(("1-", "2", "3+"), repeat=3):
        spec = VAlphaSpec(3, {(1, 2): key[0], (2, 3): key[1], (1, 3): key[2]})
        try:
            symbolic = symbolic_v_alpha(spec)
        except ValueError:
            assert key not in V3_TABLE
            continue
        realizable.add(key)
        assert symbolic == LaurentPolyQ(V3_TABLE[key])
        for p in (2, 3, 5):
            assert count_v_spec(spec, p) == symbolic.evaluate(p)
    assert realizable == set(V3_TABLE)
    print("PASS criterion-3: rank-2 and rank-3 class tables vs enumeration")


def test_criterion_4_groebner_properties():
    # The division routine re-checks its own contract on every call, so a
    # soundness violation anywhere in the trials raises ArithmeticError, under
    # python -O too (test_one_definition pins that no assert guards it).
    test_groebner.test_reduced_basis_uniqueness_100_trials()
    print("PASS criterion-4: 100 reduced-basis trials, division soundness, codim")


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    cases = (
        [(d, n, 2) for d in (1, 2) for n in (0, 1, 2)]
        + [(1, n, 2) for n in (3, 4)]
        + [(1, n, 3) for n in (0, 1, 2, 3)]
    )
    for d, n, p in cases:
        coeff = hilb_series(d, prime=p).expand(n)[n]
        assert coeff.evaluate(p) == Fraction(count_quot_bruteforce(d, n, p)), (d, n, p)
    assert time.monotonic() - start < 300.0
    print("PASS criterion-5: series coefficients equal framed submodule counts")


def test_criterion_6_cohen_lenstra_chain():
    for p in (2, 3):
        for n in range(4):
            nil = Fraction(count_nilpotent_pairs(n, p))
            assert nil / gl_order(n).evaluate(p) == zhat_coefficient(n).evaluate(p)
            total = Fraction(count_all_pairs(n, p))
            assert total == matrix_count_formula(n).evaluate(p)
    for n in range(11):
        assert affine_cohen_lenstra_coefficient(n) * gl_order(n) == matrix_count_formula(n)
    print("PASS criterion-6: pair counts match punctual and affine coefficients")


def test_criterion_7_spiral_combinatorics():
    rng = random.Random(20260814)
    for _ in range(500):
        d = rng.randrange(1, 7)
        x = LeadingTermDatum(
            [rng.randrange(0, 7) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        i, j = rng.randrange(1, d + 1), rng.randrange(1, d + 1)
        assert x.gamma(i).gamma(j) == x.gamma(j).gamma(i)

    # exhaustive free transitivity: address <-> datum is a bijection
    for d in range(1, 5):
        for colors in itertools.product("JK", repeat=d):
            seen = set()
            for levels in itertools.product(range(5), repeat=d):
                x = LeadingTermDatum(list(levels), list(colors))
                addr = orbit_address(x)
                assert apply_address(zero_datum("".join(colors)), addr) == x
                assert addr not in seen
                seen.add(addr)

    for _ in range(400):
        d = rng.randrange(1, 7)
        x = LeadingTermDatum(
            [rng.randrange(0, 7) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        j = rng.randrange(1, d + 1)
        raised = x.gamma(j)
        assert raised.n() == x.n() + 1
        stretches = x.stretches(j)
        assert len(stretches) == j - 1
        obstructed = sum(
            1
            for (b, h) in stretches
            if x.distance(b, h) == 0 and x.colors[b - 1] == "J"
        )
        b1, delta1 = x.exponents()
        b2, delta2 = raised.exponents()
        assert b2 == b1
        assert delta2 == delta1 + (j - 1) - obstructed

    for text, j, primes in SCALING_CASES:
        datum = parse_datum(text)
        assert is_stable(datum, j)
        raised = datum.gamma(j)
        for p in primes:
            base = count_stratum_bruteforce(datum, p)
            assert count_stratum_bruteforce(raised, p) == p ** (j - 1) * base
    print("PASS criterion-7: raising commutativity, transitivity, exponent laws, scaling")


def test_criterion_8_conjecture_machinery():
    for d in range(9):
        assert solve_nh(d) == nh_guess(d)
    for d in range(13):
        assert functional_equation_check(d, nh_guess(d))
    for d in range(1, 9):
        for r in range(1, d + 1):
            if d % r == 0:
                assert root_of_unity_check(d, r)
        assert cyclotomic_divisibility_check(d)
    print("PASS criterion-8: triangular solve vs product form, numerator scans")


def _factorization_ops(X, Y):
    Y2 = Y * Y
    return GFMatrix.block2(X, -Y2, -Y, X), GFMatrix.block2(X, Y2, Y, X)


def _all_kernel_vectors(A, p):
    basis = A.kernel_basis()
    width = A.shape[1]
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = [0] * width
        for c, vec in zip(coeffs, basis):
            if c:
                v = [(x + c * y) % p for x, y in zip(v, vec)]
        yield tuple(v)


def test_criterion_9_homological_identities():
    rng = random.Random(20260814)
    step = {0: (2, 0), 1: (1, 1), 2: (0, 2)}
    points = 0
    cases_seen = set()
    for d in range(1, 5):
        for X, Y in enumerate_v_d_points(d, 2):
            points += 1
            prof = ab_profile(X, Y)
            assert prof.a + prof.b == 2 * d
            assert 2 * prof.w1 == prof.a + prof.b
            A, Ap = _factorization_ops(X, Y)
            assert len(A.kernel_basis()) == len(Ap.kernel_basis()) == prof.a
            assert A.rank() == Ap.rank() == prof.b
            assert h0_t_exact(X, Y)
            vectors = list(_all_kernel_vectors(A, 2))
            if d == 4 and len(vectors) > 8:
                vectors = rng.sample(vectors, 8)
            for u in vectors:
                case = classify_kernel_vector(X, Y, u)
                cases_seen.add(case)
                X2, Y2 = extend_point(X, Y, u[:d], u[d:])
                prof2 = ab_profile(X2, Y2)
                assert (prof2.a - prof.a, prof2.b - prof.b) == step[case]
    assert points >= 200
    assert cases_seen == {0, 1, 2}
    print("PASS criterion-9: profile identities and extension steps on", points, "points")
