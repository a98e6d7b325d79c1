"""Framed and unframed point-count series: frozen closed forms, the
independent solve/guess routes, and the identities that stress them."""

import hashlib
import inspect
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from cuspquot import cli
from cuspquot import series as series_module
from cuspquot.qalgebra import (
    ONE,
    ZERO,
    LaurentPolyQ,
    RationalQ,
    TPoly,
    TSeries,
    cyclotomic_poly,
    gl_order,
    q_binomial,
    q_pascal_inverse,
    q_pascal_matrix,
    q_pochhammer,
    t_pochhammer,
    tpoly_to_triples,
)
from cuspquot.series import (
    affine_cohen_lenstra_coefficient,
    cohen_lenstra_coefficient,
    _cyclotomic_power_divides,
    color_numerators,
    cyclotomic_divisibility_check,
    functional_equation_check,
    hilb_from_quot,
    hilb_numerator,
    hilb_series,
    matrix_count_formula,
    nh_guess,
    orbit_contribution,
    quot_numerator,
    quot_series,
    root_of_unity_check,
    solve_nh,
    zhat_coefficient,
)
from cuspquot.strata import LeadingTermDatum, base_level_walk, stable_orbit_decomposition
from cuspquot.oracles import count_all_pairs, count_nilpotent_pairs
from cuspquot.varieties import (
    VAlphaSpec,
    _count_system,
    _factor,
    _symbolic_count,
    brute_v_d,
    enumerate_v_d_points,
    staircase_motive,
    staircase_table_csv,
)


def poly(terms):
    return LaurentPolyQ(terms)


FROZEN_NH = {
    0: TPoly.one(),
    1: TPoly([ONE, poly({1: 1})]),
    2: TPoly([ONE, poly({2: 1, 3: 1}), poly({4: 1})]),
    3: TPoly(
        [ONE, poly({3: 1, 4: 1, 5: 1}), poly({6: 1, 7: 1, 8: 1}), poly({9: 1})]
    ),
    4: TPoly(
        [
            ONE,
            poly({4: 1, 5: 1, 6: 1, 7: 1}),
            poly({8: 1, 9: 1, 10: 2, 11: 1, 12: 1}),
            poly({12: 1, 13: 1, 14: 1, 15: 1}),
            poly({16: 1}),
        ]
    ),
}


# ---------------------------------------------------------------------------
# Frozen closed forms (token for token)


def test_framed_numerators_frozen():
    for d in range(4):
        assert hilb_numerator(d) == FROZEN_NH[d]


def test_framed_series_tokens():
    for d in range(4):
        series = hilb_series(d)
        assert series.num == FROZEN_NH[d]
        assert series.den == t_pochhammer(d)


def test_unframed_is_framed_at_t_squared():
    for d in range(4):
        assert quot_numerator(d) == FROZEN_NH[d].substitute_t_square()
        series = quot_series(d)
        assert series.num == FROZEN_NH[d].substitute_t_square()
        assert series.den == t_pochhammer(d)


def test_rank_caps():
    with pytest.raises(ValueError):
        hilb_numerator(-1)
    assert hilb_numerator(4) == FROZEN_NH[4]
    for prime in (None, 2):
        with pytest.raises(ValueError):
            hilb_numerator(5, prime)


def test_symbolic_rank_four_matches_the_independent_routes():
    h = hilb_numerator(4)
    assert h == solve_nh(4) == nh_guess(4)
    assert quot_numerator(4) == h.substitute_t_square()
    assert hilb_from_quot(4) == hilb_series(4)


def test_rank_four_at_primes_frozen():
    assert hilb_numerator(4, prime=2) == TPoly([1, 240, 8960, 61440, 65536])
    assert hilb_numerator(4, prime=3) == TPoly(
        [1, 3240, 852930, 21257640, 43046721]
    )
    # and they agree with the triangular solve evaluated at the prime
    for p in (2, 3):
        collapsed = TPoly(
            [int(c.evaluate(p)) for c in solve_nh(4).coeffs]
        )
        assert hilb_numerator(4, prime=p) == collapsed
        assert quot_numerator(4, prime=p) == collapsed.substitute_t_square()


@pytest.mark.parametrize("bad", [1, 4, 9, 10**30])
def test_non_primes_are_rejected(bad):
    orbit = stable_orbit_decomposition(1)[0]
    for call in (hilb_numerator, hilb_series, quot_numerator, quot_series, color_numerators):
        for d in (0, 2):
            with pytest.raises(ValueError):
                call(d, bad)
    with pytest.raises(ValueError):
        orbit_contribution(orbit, bad)


def test_prime_is_checked_before_the_orbit_walk(monkeypatch):
    orbit = stable_orbit_decomposition(4)[0]

    def refuse(d):
        raise AssertionError(f"rank {d} orbits walked for a non-prime")

    series_module._color_rows.cache_clear()
    monkeypatch.setattr(series_module, "base_level_walk", refuse)
    for call in (hilb_numerator, hilb_series, quot_numerator, quot_series, color_numerators):
        with pytest.raises(ValueError, match="4 is not a prime"):
            call(4, 4)
    with pytest.raises(ValueError, match="4 is not a prime"):
        orbit_contribution(orbit, 4)


def test_large_prime_at_rank_one():
    p = 1_000_000_000_000_000_003
    assert hilb_numerator(1, p) == TPoly([1, p])


def test_large_prime_at_rank_four():
    p = 10**18 + 3
    assert hilb_numerator(4, p) == TPoly([int(c.evaluate(p)) for c in solve_nh(4).coeffs])


def test_at_prime_matches_symbolic_for_low_rank():
    for d in range(4):
        for p in (2, 3):
            collapsed = TPoly([int(c.evaluate(p)) for c in FROZEN_NH[d].coeffs])
            assert hilb_numerator(d, prime=p) == collapsed


# ---------------------------------------------------------------------------
# Orbit assembly details


def test_rank_one_orbit_contributions():
    orbits = {str(o.base): o for o in stable_orbit_decomposition(1)}
    geom = TPoly([ONE, -ONE])
    k_part = orbit_contribution(orbits["(K(0))"])
    assert k_part == TSeries(TPoly.one(), geom)
    j_part = orbit_contribution(orbits["(J(1))"])
    assert j_part == TSeries(TPoly.t_power(1, poly({1: 1})), geom)


def test_color_split_rank_two():
    rows = color_numerators(2)
    assert set(rows) == {("J", "J"), ("J", "K"), ("K", "J"), ("K", "K")}
    assert rows[("J", "J")] == TPoly(
        [0, 0, poly({4: 1}), poly({4: 1, 5: -1})]
    )
    total = TPoly.zero()
    for row in rows.values():
        total = total + row
    assert total == FROZEN_NH[2]


def test_color_split_at_primes_sums_to_numerator():
    # the numerator is decoded from the packed sum of the rows, not summed
    for d in range(5):
        for p in (None, 2, 3):
            total = TPoly.zero()
            for row in color_numerators(d, p).values():
                total = total + row
            assert total == hilb_numerator(d, p), (d, p)


def test_numerator_is_decoded_once_per_rank(monkeypatch):
    # a cold framed numerator decodes the sum of its packed rows, one integer;
    # the color rows are decoded only when color_numerators asks for them
    decoded = []
    unpack = series_module._unpack_row

    def counting(n, w, s):
        decoded.append(n)
        return unpack(n, w, s)

    monkeypatch.setattr(series_module, "_unpack_row", counting)
    for d in range(5):
        series_module._color_rows.cache_clear()
        hilb_numerator(d, 2)
        assert len(decoded) == 1, d
        color_numerators(d)
        assert len(decoded) == 1 + 2**d, d
        decoded.clear()
    series_module._color_rows.cache_clear()


def test_orbits_are_walked_once_per_rank(monkeypatch):
    walked = []

    def counting(d):
        walked.append(d)
        return base_level_walk(d)

    series_module._color_rows.cache_clear()
    monkeypatch.setattr(series_module, "base_level_walk", counting)
    hilb_numerator(3, 2)
    hilb_numerator(3, 3)
    color_numerators(3, 2)
    quot_numerator(3, 3)  # also needs the framed numerators of ranks 1 and 2
    assert sorted(walked) == [1, 2, 3]


def test_stratum_invariants_match_the_per_orbit_reference():
    # every orbit base of ranks 1-4 and a seeded sample of rank-5 level vectors
    rng = random.Random(20261018)
    for d in range(1, 6):
        levels_list = [levels for levels, _ in base_level_walk(d)]
        if d == 5:
            levels_list = rng.sample(levels_list, 150)
        for levels in levels_list:
            classes, j_extra, n0, delta0 = series_module._level_invariants(levels)
            keys = series_module._pattern_keys(d, classes)
            colorings = series_module._colorings(d)
            assert [c[0] for c in colorings] == list(itertools.product("JK", repeat=d))
            for (colors, _, js, b), key in zip(colorings, keys, strict=True):
                base = LeadingTermDatum(levels, colors)
                assert key == VAlphaSpec.from_datum(base.restrict_to_K()).key()
                assert (b, delta0 + sum(j_extra[r] for r in js)) == base.exponents()
                assert n0 + len(js) == base.n()


FROZEN_COLOR_ROWS_3 = {
    ("J", "J", "J"): {
        3: {9: 1},
        4: {9: 2, 10: -1, 11: -1},
        5: {9: 1, 10: -1, 11: -1, 12: 1},
        6: {10: 1, 11: -2, 12: 1},
    },
    ("J", "J", "K"): {
        2: {6: 1},
        3: {6: 2, 7: -1, 8: -1},
        4: {6: 1, 7: -1, 8: -1, 9: 1},
        5: {7: 1, 8: -2, 9: 1},
    },
    ("J", "K", "J"): {
        2: {7: 1},
        3: {7: 1, 9: -1},
        4: {7: 1, 8: -1, 9: -1, 10: 1},
    },
    ("J", "K", "K"): {
        1: {3: 1},
        2: {3: 1, 5: -1},
        3: {3: 1, 4: -1, 5: -1, 7: 1},
        4: {9: -1, 10: 1},
        5: {7: -1, 8: 2, 9: -1},
        6: {10: -1, 11: 2, 12: -1},
    },
    ("K", "J", "J"): {
        2: {8: 1},
        3: {9: 1, 10: -1},
    },
    ("K", "J", "K"): {
        1: {4: 1},
        2: {5: 1, 6: -1},
        3: {6: -1, 8: 1},
        4: {7: -1, 8: 2, 9: -2, 11: 1},
        5: {11: 1, 12: -1},
        6: {10: -1, 11: 2, 12: -1},
        7: {12: 1, 13: -1},
    },
    ("K", "K", "J"): {
        1: {5: 1},
        5: {9: -1, 10: 1},
        7: {12: -1, 13: 1},
    },
    ("K", "K", "K"): {
        0: {0: 1},
        2: {3: -1, 6: 1},
        3: {3: -1, 4: 1, 5: 1, 6: -1, 7: -1, 10: 1},
        4: {6: -1, 7: 1, 9: 1, 10: -1},
        6: {10: 1, 11: -2, 12: 1},
    },
}


def _row_poly(spec):
    top = max(spec)
    return TPoly(
        [poly(spec.get(m, {})) for m in range(top + 1)]
    )


def test_color_split_rank_three_frozen_rows():
    rows = color_numerators(3)
    assert set(rows) == set(FROZEN_COLOR_ROWS_3)
    for colors, spec in FROZEN_COLOR_ROWS_3.items():
        assert rows[colors] == _row_poly(spec), colors
    total = TPoly.zero()
    for row in rows.values():
        total = total + row
    assert total == FROZEN_NH[3]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _clear_count_caches():
    series_module._color_rows.cache_clear()
    for memo in (_symbolic_count, _count_system, _factor):
        memo.cache_clear()


def test_color_rows_and_numerators_are_pinned():
    # sha256 prefixes of the rows and numerators of the per-orbit assembly
    _clear_count_caches()
    rows = {
        str(d): {"".join(c): tpoly_to_triples(r) for c, r in color_numerators(d).items()}
        for d in range(5)
    }
    assert _digest(json.dumps(rows, sort_keys=True)) == "d0f0bc4f4e8a7176"
    assert _digest(json.dumps(rows["4"], sort_keys=True)) == "df2ce6a763931036"
    assert _digest(str(hilb_numerator(4))) == "040540f9361436eb"
    assert _digest(str(quot_numerator(4))) == "6ca643b9a8a18162"
    assert _digest(str(hilb_numerator(4, 3))) == "aa07bb5a8601e2b5"


def _tpoly_mul(a, b):
    out = [ZERO] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return TPoly(out)


def test_color_rows_match_the_per_orbit_reference():
    # every orbit's numerator times its missing tails, summed by color vector
    for d in range(1, 5):
        expected = {}
        for orbit in stable_orbit_decomposition(d):
            tails = series_module._den_product(
                j for j in range(1, d + 1) if j not in orbit.generators
            )
            part = _tpoly_mul(orbit_contribution(orbit).num, tails)
            colors = orbit.base.colors
            expected[colors] = expected.get(colors, TPoly.zero()) + part
        _clear_count_caches()
        rows = color_numerators(d)
        assert list(rows) == list(itertools.product("JK", repeat=d))
        assert rows == expected, d


def test_a_count_with_a_negative_exponent_is_refused(monkeypatch):
    series_module._color_rows.cache_clear()
    monkeypatch.setattr(series_module, "symbolic_v_alpha", lambda spec: LaurentPolyQ({-1: 1}))
    with pytest.raises(ArithmeticError, match="negative q-exponent"):
        color_numerators(2)
    series_module._color_rows.cache_clear()


# ---------------------------------------------------------------------------
# Framed/unframed transform


def test_framed_from_unframed_roundtrip():
    for d in range(4):
        assert hilb_from_quot(d) == hilb_series(d)


def _unframe_reference(d, lower):
    # the transform term by term in TPoly / LaurentPolyQ arithmetic
    total = TPoly.zero()
    for r, g in enumerate(lower):
        part = g.substitute_t_scale(d - r) * t_pochhammer(d - r)
        total = total + part.shift_t(r) * q_binomial(d, r)
    return total


def _random_tpoly(rng, max_t, size):
    # sparse q-terms up to q^40 with coefficients up to +-size, and some zero
    # coefficients in t, so the packing width and stride are exercised
    coeffs = []
    for _ in range(rng.randint(0, max_t + 1)):
        terms = {}
        if rng.random() > 0.2:
            for _ in range(rng.randint(1, 6)):
                terms[rng.randint(0, 40)] = rng.randint(-size, size)
        coeffs.append(LaurentPolyQ(terms))
    return TPoly(coeffs)


def test_packed_transform_matches_the_term_by_term_sum():
    rng = random.Random(21)
    for trial in range(60):
        d = rng.randint(0, 8)
        size = 1 if trial % 3 == 0 else 10**30  # the narrowest widths and wide ones
        lower = [_random_tpoly(rng, r + 2, size) for r in range(d)]
        ranks = list(range(d + 1))
        rng.shuffle(ranks)  # one walk read in any order, so it is regrown and rebuilt
        walk = series_module._unframe_walk(lower.__getitem__)
        for r in ranks:
            expected = _unframe_reference(r, lower[:r])
            assert series_module._unframe_lower(walk, r) == expected, (trial, r)


def test_packed_transform_refuses_a_negative_q_exponent():
    lower = [TPoly.one(), TPoly([ONE, poly({-1: 1, 2: 3})])]
    walk = series_module._unframe_walk(lower.__getitem__)
    assert series_module._unframe_lower(walk, 1) == _unframe_reference(1, lower[:1])
    with pytest.raises(ArithmeticError, match="negative q-exponent"):
        series_module._unframe_lower(walk, 2)


def test_a_walk_sized_too_narrow_rebuilds_before_it_decodes(monkeypatch):
    # sized for no rank at all, the walk must widen itself at every rank
    # before it decodes, never read digits that overlap
    decoded = []
    unpack = series_module._unpack_row

    def recording(n, w, s):
        decoded.append((w, s))
        return unpack(n, w, s)

    monkeypatch.setattr(series_module, "_packed_sizes", lambda reach: (8, 1))
    monkeypatch.setattr(series_module, "_unpack_row", recording)
    lower = [nh_guess(r) for r in range(9)]
    walk = series_module._unframe_walk(lower.__getitem__)
    for d in [3, 0, 8, 5]:
        expected = _unframe_reference(d, lower[:d])
        assert series_module._unframe_lower(walk, d) == expected, d
        # decoded once, each coefficient below 2^(w - 2), each q-degree below s
        w, s = decoded.pop()
        terms = [t for c in expected.coeffs for t in c.terms.items()]
        assert not decoded and all(abs(v) < 2 ** (w - 2) and e < s for e, v in terms), (d, w, s)


# ---------------------------------------------------------------------------
# Whole-zeta coefficients


def test_zhat_low_coefficients():
    assert zhat_coefficient(0) == 1
    assert zhat_coefficient(1) == RationalQ(ONE, poly({1: 1, 0: -1}))


def test_coefficients_live_over_the_q_inverse_pochhammer():
    # each coefficient is one numerator over (q^-1;q^-1)_n, never a product of
    # the denominators of its terms
    for n in range(11):
        den = q_pochhammer(n, exp_sign=-1)
        coefficients = [cohen_lenstra_coefficient, affine_cohen_lenstra_coefficient]
        if n <= series_module.MAX_D:
            coefficients.append(zhat_coefficient)
        for coefficient in coefficients:
            assert coefficient(n).den == den, (coefficient.__name__, n)


def test_zhat_refuses_past_max_d_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(series_module, "q_pochhammer", fail)
    monkeypatch.setattr(series_module, "hilb_series", fail)
    for n in (series_module.MAX_D + 1, 300):
        with pytest.raises(ValueError, match=f"series stop at rank {series_module.MAX_D}$"):
            zhat_coefficient(n)


def test_zhat_matches_product_form_guess():
    for n in range(4):
        assert zhat_coefficient(n) == cohen_lenstra_coefficient(n)


def test_zhat_times_group_order_at_primes_frozen():
    frozen = {
        (1, 2): 1,
        (2, 2): 10,
        (3, 2): 232,
        (1, 3): 1,
        (2, 3): 33,
        (3, 3): 3537,
    }
    for (n, p), count in frozen.items():
        value = (zhat_coefficient(n) * gl_order(n)).evaluate(p)
        assert value == count


# ---------------------------------------------------------------------------
# Independent routes: triangular solve and product-form guess


def test_solve_matches_engine_low_rank():
    for d in range(4):
        assert solve_nh(d) == FROZEN_NH[d]


def test_solve_matches_guess_through_rank_twenty():
    for d in range(21):
        assert solve_nh(d) == nh_guess(d)
    with pytest.raises(ValueError):
        solve_nh(-1)


def test_solved_numerators_are_pinned():
    # sha256 prefix of the solved numerators through rank 16, as the term-by-term
    # transform gave them
    assert _digest(repr([str(solve_nh(d)) for d in range(17)])) == "f456edebd7c9a05f"


def _cold_solve():
    solve_nh.cache_clear()
    series_module._solved_walk.cache_clear()


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_any_order_of_ranks_solves_the_same_numerators(order):
    ranks = list(range(21))
    if order == "descending":
        ranks.reverse()
    elif order == "shuffled":
        random.Random(36).shuffle(ranks)
    _cold_solve()
    for d in ranks:
        assert solve_nh(d) == nh_guess(d), (order, d)


@pytest.mark.parametrize("where", ["decode", "step", "feed"])
def test_a_raise_mid_walk_never_serves_another_ranks_numerator(monkeypatch, where):
    # an interrupt inside a walk step must not leave the kept transforms out
    # of step with the ranks they are read for
    calls = []
    name = {"decode": "_unpack_row", "step": "_pascal_parts", "feed": "_pascal_sums"}[where]
    original = getattr(series_module, name)

    def interrupt_once(*args):
        calls.append(None)
        if len(calls) == 6:
            raise KeyboardInterrupt
        return original(*args)

    monkeypatch.setattr(series_module, name, interrupt_once)
    _cold_solve()
    with pytest.raises(KeyboardInterrupt):
        solve_nh(10)
    for d in [5, 4, 5, 6, 12, 0, 20, 10]:
        assert solve_nh(d) == nh_guess(d), (where, d)


def test_the_solve_walk_is_closed_once_its_last_rank_is_read(monkeypatch):
    # a cold solve_nh(MAX_SOLVE_D) takes seconds, so the cap is lowered here
    monkeypatch.setattr(series_module, "MAX_SOLVE_D", 6)
    try:
        for ranks in ([6], [2, 6, 4], range(7)):
            _cold_solve()
            for d in ranks:
                assert solve_nh(d) == nh_guess(d), (ranks, d)
            sums, steps = series_module._solved_walk()
            assert len(sums) == 7 and all(isinstance(k, TPoly) for k in sums[1:])
            assert inspect.getgeneratorstate(steps) == inspect.GEN_CLOSED and steps.gi_frame is None
        _cold_solve()
        assert solve_nh(5) == nh_guess(5)  # the walk stays open below its last rank
        assert inspect.getgeneratorstate(series_module._solved_walk()[1]) == inspect.GEN_SUSPENDED
    finally:
        _cold_solve()  # no closed walk is left for the ranks past 6


def test_solve_refuses_past_its_rank_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(series_module, "_solved_walk", fail)
    monkeypatch.setattr(series_module, "_pack_shifted", fail)
    for d in (series_module.MAX_SOLVE_D + 1, 10**6):
        with pytest.raises(ValueError, match=f"stops at rank {series_module.MAX_SOLVE_D}$"):
            solve_nh(d)
    assert cli.MAX_CONJECTURE_D <= series_module.MAX_SOLVE_D


def test_guess_top_and_bottom_coefficients():
    for d in range(1, 9):
        f = nh_guess(d)
        assert f.degree() == d
        assert f.coeff(0) == ONE
        assert f.coeff(d) == poly({d * d: 1})


# ---------------------------------------------------------------------------
# Identities of the numerators


def test_functional_equation_through_rank_twelve():
    for d in range(13):
        assert functional_equation_check(d)
    assert not functional_equation_check(2, TPoly.one())


def test_functional_equation_check_reads_every_coefficient():
    # t^3 pairs with t^-1 at rank 2, so its coefficient must vanish
    assert not functional_equation_check(2, solve_nh(2) + TPoly.t_power(3, ONE * 7))
    with pytest.raises(ValueError, match="rank must be >= 0"):
        functional_equation_check(-2, TPoly([5, 3]))


def test_cyclotomic_divisibility_check_refuses_a_negative_rank():
    with pytest.raises(ValueError, match="rank must be >= 0"):
        cyclotomic_divisibility_check(-2, TPoly([5, 3]))


def test_root_of_unity_collapse():
    for d in range(1, 9):
        for r in range(1, d + 1):
            if d % r == 0:
                assert root_of_unity_check(d, r)
    with pytest.raises(ValueError):
        root_of_unity_check(4, 3)
    with pytest.raises(ValueError):
        root_of_unity_check(4, 0)


def test_root_of_unity_check_reads_every_coefficient():
    # (1 + t)^2 at r = 1; a zero numerator and a stray t^5 term are not it
    assert root_of_unity_check(2, 1, TPoly([ONE, ONE * 2, ONE]))
    assert not root_of_unity_check(2, 1, TPoly.zero())
    assert not root_of_unity_check(2, 1, TPoly([1, 2, 1, 0, 0, 1]))


def test_root_of_unity_check_rejects_non_integers_cold_and_warm():
    # solve_nh is memoized, and its entry of 4 also answers 4.0
    solve_nh.cache_clear()
    for warm in (False, True):
        if warm:
            assert root_of_unity_check(4, 2)
        for args in [(4, 2.0), (4.0, 2)]:
            with pytest.raises(TypeError):
                root_of_unity_check(*args)


def test_cyclotomic_divisibility_through_rank_eight():
    for d in range(1, 9):
        assert cyclotomic_divisibility_check(d)


def test_cyclotomic_divisibility_detects_failure():
    # A polynomial missing the forced factors must be rejected.
    assert not cyclotomic_divisibility_check(2, TPoly([ONE, ONE, ONE]))


def test_cyclotomic_divisibility_odd_rank_without_the_factor_is_false():
    # 1 + t lacks the factor 1 + q^3 t: this raised "division not exact"
    factor = TPoly([ONE, poly({3: 1})])
    assert not cyclotomic_divisibility_check(3, TPoly([ONE, ONE]))
    assert not cyclotomic_divisibility_check(5, TPoly([ONE]))
    # with the factor, the cofactor's value at t = -1 decides: 1 + t gives 0,
    # which every Phi_r divides, and 1 - t gives 2, which Phi_1 = q - 1 does not
    assert cyclotomic_divisibility_check(3, factor * TPoly([ONE, ONE]))
    assert not cyclotomic_divisibility_check(3, factor * TPoly([ONE, -ONE]))
    assert cyclotomic_divisibility_check(3, TPoly.zero())


def _divides_by_long_division(f, r, k):
    """Reference: Phi_r^k divides f, decided by k exact long divisions."""
    phi = LaurentPolyQ(dict(enumerate(cyclotomic_poly(r))))
    for _ in range(k):
        f = f.try_divide(phi)
        if f is None:
            return False
    return True


def test_cyclotomic_power_criterion_matches_long_division():
    rng = random.Random(28)
    for r in range(1, 16, 2):
        phi = LaurentPolyQ(dict(enumerate(cyclotomic_poly(r))))
        for k in range(4):
            for _ in range(3):
                exps = rng.sample(range(-4, 9), 4)
                g = poly({e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in exps})
                product = g * phi**k
                perturbed = [product + poly({rng.randrange(-4, 9 + k * r): rng.choice([-1, 1])})]
                if product:
                    e = rng.choice(sorted(product.terms))
                    perturbed.append(product + poly({e: product.coeff(e) * rng.choice([1, -2])}))
                for f in (product, product * phi, *perturbed):
                    for j in range(k + 3):
                        assert _cyclotomic_power_divides(f, r, j) == _divides_by_long_division(
                            f, r, j
                        ), (r, k, j, f)
                assert _cyclotomic_power_divides(product, r, k)


def test_cyclotomic_power_criterion_on_sparse_and_zero_polynomials():
    # q^(10^9) - 1 has simple roots, the (10^9)-th roots of unity; long
    # division would take 10^9 steps, the derivatives two passes of two terms
    sparse = poly({10**9: 1, 0: -1})
    assert _cyclotomic_power_divides(sparse, 5, 1)
    assert not _cyclotomic_power_divides(sparse, 5, 2)
    assert not _cyclotomic_power_divides(sparse, 3, 1)
    assert _cyclotomic_power_divides(sparse, 1, 1)
    assert _cyclotomic_power_divides(ZERO, 7, 5)
    assert not _cyclotomic_power_divides(ONE, 3, 1)
    assert _cyclotomic_power_divides(ONE, 3, 0)


# ---------------------------------------------------------------------------
# Matrix pair count formula and the double-sum identity


def test_matrix_count_formula_frozen():
    assert matrix_count_formula(0) == ONE
    assert matrix_count_formula(1) == poly({1: 1})
    assert matrix_count_formula(2) == poly({4: 1, 3: 1, 1: -1})
    with pytest.raises(ValueError):
        matrix_count_formula(-1)


def test_point_coefficients_are_built_once_per_order(monkeypatch):
    # every affine coefficient n reads the point coefficients j <= n; the
    # memo builds each of them once
    built = []
    over_pochhammer = series_module._over_pochhammer

    def counting(n, parts):
        built.append(n)
        return over_pochhammer(n, parts)

    cohen_lenstra_coefficient.cache_clear()
    monkeypatch.setattr(series_module, "_over_pochhammer", counting)
    for n in range(11):
        affine_cohen_lenstra_coefficient(n)
    assert built == list(range(11))
    cohen_lenstra_coefficient.cache_clear()


def test_affine_guess_times_group_order_is_matrix_count():
    for n in range(11):
        assert (
            affine_cohen_lenstra_coefficient(n) * gl_order(n)
            == matrix_count_formula(n)
        )


def test_affine_weights_match_the_division_route(monkeypatch):
    # the weight of coefficient j is multiplied up as prod_(i=j+1..n) (1 - q^-i);
    # the division route divides (q^-1;q^-1)_n by (q^-1;q^-1)_j
    point = [cohen_lenstra_coefficient(j) for j in range(31)]
    monkeypatch.setattr(series_module, "cohen_lenstra_coefficient", point.__getitem__)
    for n in range(31):
        division = series_module._over_pochhammer(n, ((c.num, c.den) for c in point[: n + 1]))
        value = affine_cohen_lenstra_coefficient(n)
        assert value.den == division.den == q_pochhammer(n, exp_sign=-1), n
        assert value.num == division.num, n


def _point_guess_at(n, q):
    """[t^n] of the point guess at a rational q, summed directly in Fraction:
    the sum over n = m + 2k of q^(-m-k^2) / ((q^-1;q^-1)_m (q^-1;q^-1)_k)."""

    def pochhammer(m):
        return math.prod((1 - q ** -i for i in range(1, m + 1)), start=Fraction(1))

    return sum(
        q ** (-(n - 2 * k) - k * k) / (pochhammer(n - 2 * k) * pochhammer(k))
        for k in range(n // 2 + 1)
    )


def test_affine_guess_is_partial_sum_of_point_guess():
    for q in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3)):
        point = [_point_guess_at(j, q) for j in range(11)]
        for n in range(11):
            assert cohen_lenstra_coefficient(n).evaluate(q) == point[n], (n, q)
            assert affine_cohen_lenstra_coefficient(n).evaluate(q) == sum(point[: n + 1]), (n, q)
    with pytest.raises(ValueError):
        affine_cohen_lenstra_coefficient(-1)
    with pytest.raises(ValueError):
        cohen_lenstra_coefficient(-1)


NEGATIVE_ARGUMENT_MESSAGES = {
    solve_nh: "rank must be >= 0",
    nh_guess: "rank must be >= 0",
    hilb_from_quot: "rank must be >= 0",
    zhat_coefficient: "order must be >= 0",
    cohen_lenstra_coefficient: "order must be >= 0",
    affine_cohen_lenstra_coefficient: "order must be >= 0",
    matrix_count_formula: "size must be >= 0",
    hilb_numerator: "rank must be >= 0",
    hilb_series: "rank must be >= 0",
    quot_numerator: "rank must be >= 0",
    quot_series: "rank must be >= 0",
    color_numerators: "rank must be >= 0",
    functional_equation_check: "rank must be >= 0",
    cyclotomic_divisibility_check: "rank must be >= 0",
    q_pochhammer: "pochhammer length must be >= 0",
    t_pochhammer: "pochhammer length must be >= 0",
    staircase_motive: "rank must be >= 0",
    staircase_table_csv: "rank must be >= 0",
    q_pascal_matrix: "size must be >= 0",
    q_pascal_inverse: "size must be >= 0",
}

# entries that take more than the checked argument, as calls of that argument
NEGATIVE_ARGUMENT_CALLS = {
    "VAlphaSpec": (lambda n: VAlphaSpec(n, {}), "rank must be >= 0"),
    "brute_v_d": (lambda n: brute_v_d(n, 2), "rank must be >= 0"),
    "enumerate_v_d_points": (lambda n: next(enumerate_v_d_points(n, 2)), "rank must be >= 0"),
    "count_nilpotent_pairs": (lambda n: count_nilpotent_pairs(n, 2), "size must be >= 0"),
    "count_all_pairs": (lambda n: count_all_pairs(n, 2), "size must be >= 0"),
    "root_of_unity_check": (lambda n: root_of_unity_check(n, 1, solve_nh(2)), "rank must be >= 0"),
}

ARGUMENT_CALLS = {fn.__name__: fn for fn in NEGATIVE_ARGUMENT_MESSAGES} | {
    name: call for name, (call, _) in NEGATIVE_ARGUMENT_CALLS.items()
}


@pytest.mark.parametrize("fn", NEGATIVE_ARGUMENT_MESSAGES, ids=lambda fn: fn.__name__)
def test_negative_rank_or_order_raises(fn):
    with pytest.raises(ValueError, match=NEGATIVE_ARGUMENT_MESSAGES[fn]):
        fn(-1)


@pytest.mark.parametrize("name", NEGATIVE_ARGUMENT_CALLS)
def test_negative_argument_of_a_multi_argument_entry_raises(name):
    call, message = NEGATIVE_ARGUMENT_CALLS[name]
    with pytest.raises(ValueError) as exc:
        call(-1)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ARGUMENT_CALLS)
def test_non_integer_rank_or_order_raises_type_error(name):
    with pytest.raises(TypeError):
        ARGUMENT_CALLS[name](2.0)


@pytest.mark.parametrize(
    "fn", [hilb_numerator, color_numerators, quot_numerator, solve_nh, cohen_lenstra_coefficient]
)
def test_memoized_entries_refuse_a_float_after_the_int(fn):
    # 2.0 == 2 and hashes alike: the check, not the memo, must refuse it
    fn(2)
    with pytest.raises(TypeError):
        fn(2.0)
