"""Exhaustive finite-field oracles: echelon enumeration, framed submodule
counts, commuting-pair counts, and stratum point counts, each compared with
the closed-form engine it exists to audit."""

import ast
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import cuspquot.oracles as oracles_module
from cuspquot.groebner import Element, Monomial, PreBasis, is_groebner_general
from cuspquot.oracles import (
    BudgetError,
    _index,
    _matrix,
    _orbits,
    _pairs_over,
    _steps,
    _strictly_upper,
    count_all_pairs,
    count_nilpotent_pairs,
    count_quot_bruteforce,
    count_stratum_bruteforce,
    echelon_subspaces,
    first_corner_slots,
    stratum_slots,
)
from cuspquot.qalgebra import TSeries, gl_order, is_prime, q_binomial, t_pochhammer
from cuspquot.series import (
    MAX_D,
    cohen_lenstra_coefficient,
    hilb_series,
    matrix_count_formula,
    solve_nh,
    zhat_coefficient,
)
from cuspquot.strata import LeadingTermDatum, parse_datum
from cuspquot.varieties import (
    ENUMERATION_BUDGET,
    GFMatrix,
    VAlphaSpec,
    _commutant_roots,
    brute_v_d,
    count_v_alpha,
    count_v_spec,
    enumerate_v_d_points,
)

from orbit_reference import commutant_roots_odometer, composed, flood_orbits, is_stable, transvection_moves


def M(t_deg, seat):
    return Monomial(t_deg=t_deg, seat=seat)


WORKED = parse_datum("(K(0),K(2),J(2))")

# Values below were computed once by the enumeration routines in this file
# and frozen; the tests assert the routines still reproduce them and that
# the closed-form engine agrees.

FROZEN_QUOT = {
    (1, 0, 2): 1,
    (1, 1, 2): 3,
    (1, 2, 2): 3,
    (1, 3, 2): 3,
    (1, 4, 2): 3,
    (2, 0, 2): 1,
    (2, 1, 2): 15,
    (2, 2, 2): 59,
    (1, 0, 3): 1,
    (1, 1, 3): 4,
    (1, 2, 3): 4,
    (1, 3, 3): 4,
    (2, 2, 3): 238,
    (3, 1, 2): 63,
    (3, 1, 3): 364,
    (4, 1, 2): 255,
    (4, 1, 3): 3280,
}

FROZEN_NILPOTENT_PAIRS = {
    (1, 2): 1,
    (2, 2): 10,
    (3, 2): 232,
    (1, 3): 1,
    (2, 3): 33,
    (3, 3): 3537,
}

FROZEN_ALL_PAIRS = {
    (1, 2): 2,
    (2, 2): 22,
    (3, 2): 848,
    (1, 3): 3,
    (2, 3): 105,
    (3, 3): 28107,
}

FROZEN_STRATUM_COUNTS = [
    ("(J(2))", 2, 2),
    ("(K(4))", 3, 1),
    ("(J(1),J(2))", 2, 16),
    ("(K(0),K(2))", 3, 27),
    ("(K(0),K(2),J(2))", 2, 256),
    ("(K(0),K(2),J(2))", 3, 6561),
]

# Stable raising moves whose source and image strata both fit in the
# enumeration budget, with the primes at which each pair stays cheap.
SCALING_CASES = [
    ("(K(0))", 1, (2, 3)),
    ("(J(1))", 1, (2, 3)),
    ("(K(0),K(2))", 1, (2, 3)),
    ("(K(0),K(3))", 2, (2, 3)),
    ("(J(1),K(1))", 2, (2, 3)),
    ("(K(0),J(2))", 2, (2, 3)),
    ("(J(1),J(2))", 2, (2, 3)),
    ("(K(1),K(4))", 2, (2, 3)),
    ("(J(1),J(2),J(3))", 3, (2,)),
]


# ---------------------------------------------------------------------------
# echelon enumeration of subspaces


def test_oracles_import_no_formula():
    # the oracles may share the span test and the packed rows it reads, the
    # commutant walk, the packed lanes and the budget with varieties, but
    # nothing they audit
    allowed = {"BudgetError", "_commutant_roots", "_in_span", "_lane_coords", "_row_lanes", "check_budget"}
    with open(oracles_module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if (node.module or "").split(".")[-1] == "varieties":
                assert names <= allowed, names - allowed
                continue
            imported = [node.module or "", *names]
        else:
            continue
        for name in imported:
            # neither series nor the whole varieties module
            assert not {"series", "varieties"} & set(name.split(".")), name


def test_echelon_subspace_counts_match_q_binomial():
    for p in (2, 3):
        for dim_total in range(6):
            for dim_sub in range(dim_total + 1):
                expected = q_binomial(dim_total, dim_sub).evaluate(p)
                got = sum(1 for _ in echelon_subspaces(dim_total, dim_sub, p))
                assert got == expected, (dim_total, dim_sub, p)


def test_echelon_rows_are_canonical_and_distinct():
    for dim_total, dim_sub, p in [(4, 2, 2), (5, 3, 2), (4, 2, 3)]:
        seen = set()
        for pivots, rows in echelon_subspaces(dim_total, dim_sub, p):
            assert len(pivots) == dim_sub
            assert list(pivots) == sorted(pivots)
            assert len(rows) == dim_sub
            for i, row in enumerate(rows):
                assert len(row) == dim_total
                assert all(0 <= entry < p for entry in row)
                assert row[pivots[i]] == 1
                # entries left of the pivot vanish, and every other row's
                # pivot column is cleared
                assert all(row[c] == 0 for c in range(pivots[i]))
                assert all(row[pivots[j]] == 0 for j in range(dim_sub) if j != i)
            key = tuple(rows)
            assert key not in seen
            seen.add(key)


def test_echelon_dimension_validation():
    with pytest.raises(ValueError):
        list(echelon_subspaces(3, -1, 2))
    with pytest.raises(ValueError):
        list(echelon_subspaces(3, 4, 2))


def test_echelon_enumeration_refuses_over_budget_before_the_first_row():
    # the [40, 20]_2 subspaces would never finish; the refusal names the call
    refusal = r"echelon_subspaces\(40, 20, 2\) would walk at least 2\^400"
    with pytest.raises(BudgetError, match=refusal):
        next(echelon_subspaces(40, 20, 2))
    with pytest.raises(BudgetError, match=r"echelon_subspaces\(1000, 500, 2\)"):
        next(echelon_subspaces(1000, 500, 2))
    # the size is the Gaussian binomial, symmetric in the dimension
    for dim_sub in (3, 17):
        with pytest.raises(BudgetError, match=f"would walk {q_binomial(20, 3).evaluate(2)} "):
            next(echelon_subspaces(20, dim_sub, 2))


def test_echelon_rejects_non_integers_and_a_composite_modulus():
    # a float is refused before any row is built; p = 4 yielded rows over Z/4
    for args in [(3.0, 1, 2), (3, 1.0, 2), (3, 1, 2.0)]:
        with pytest.raises(TypeError, match="integer"):
            next(echelon_subspaces(*args))
    with pytest.raises(ValueError, match="4 is not a prime"):
        next(echelon_subspaces(3, 1, 4))


def test_dimensions_are_checked_before_the_prime():
    with pytest.raises(ValueError, match="subspace dimension out of range"):
        next(echelon_subspaces(3, 4, 2.0))
    with pytest.raises(ValueError, match="need d >= 1"):
        count_quot_bruteforce(0, 1, 2.0)


# ---------------------------------------------------------------------------
# framed submodule counts


def test_framed_submodule_counts_frozen():
    for (d, n, p), expected in FROZEN_QUOT.items():
        assert count_quot_bruteforce(d, n, p) == expected, (d, n, p)


def test_framed_submodule_counts_match_series():
    for (d, n, p), expected in FROZEN_QUOT.items():
        coeff = hilb_series(d, prime=p).expand(n)[n]
        assert coeff.evaluate(p) == Fraction(expected), (d, n, p)


def _reference_quot_count(d, n, p):
    """The unpruned filter: every subspace of the window, kept when each row's
    two shifts reduce to zero against the rows."""
    win, total = 2 * n, 2 * d * n
    count = 0
    for pivots, rows in echelon_subspaces(total, total - n, p):
        ok = True
        for row in rows:
            for sh in (2, 3):
                img = [0] * total
                for idx, v in enumerate(row):
                    if v and idx % win + sh < win:
                        img[idx + sh] = v
                for pc, r2 in zip(pivots, rows):
                    c = img[pc]
                    if c:
                        img = [(a - c * b) % p for a, b in zip(img, r2)]
                ok = ok and not any(img)
        count += ok
    return count


def test_pruned_walk_matches_the_unpruned_filter():
    cases = [
        (d, n, p)
        for d in range(1, 6)
        for n in range(5)
        for p in (2, 3, 5, 7)
        if q_binomial(2 * d * n, n).evaluate(p) <= 10**4
    ]
    assert len(cases) == 39
    for d, n, p in cases:
        assert count_quot_bruteforce(d, n, p) == _reference_quot_count(d, n, p), (d, n, p)


def test_framed_submodule_validation():
    with pytest.raises(ValueError, match="need d >= 1"):
        count_quot_bruteforce(0, 1, 2)
    with pytest.raises(ValueError, match="need d >= 1"):
        count_quot_bruteforce(1, -1, 2)


def test_framed_submodule_rejects_non_integers():
    for args in [(1.0, 1, 2), (1, 2.0, 2), (1, 1, 2.0)]:
        with pytest.raises(TypeError, match="integer"):
            count_quot_bruteforce(*args)


def test_framed_submodule_budget():
    # the budget counts the [2dn, n]_p subspaces the walk would meet if it did not prune
    for d, n, p in [(2, 3, 2), (3, 2, 2), (1, 3, 5)]:
        size = q_binomial(2 * d * n, n).evaluate(p)
        with pytest.raises(BudgetError, match=f"would walk {size} candidates"):
            count_quot_bruteforce(d, n, p)
    # any prime within the budget is admitted: [2, 1]_5 = 6 subspaces to walk
    assert count_quot_bruteforce(1, 1, 5) == 6
    assert hilb_series(1, prime=5).expand(1)[1].evaluate(5) == 6


# Brute-force counts past ENUMERATION_BUDGET, measured once with the budget
# lifted and frozen here; the oracles refuse these inputs, so each is checked
# against the series only.  The quot counts were taken with
# count_quot_bruteforce (times on a shared 2-vCPU host: 1.35 s, 2.2 s, 0.3 s,
# 22 s and 423 s, the last with another job running), the pair count with
# count_nilpotent_pairs in 358 s.
OVER_BUDGET_QUOT = {
    (4, 2, 2): 12_715,
    (3, 3, 2): 5_763,
    (2, 4, 2): 323,
    (5, 2, 2): 190_123,
    (6, 2, 2): 2_923_179,
}
OVER_BUDGET_NILPOTENT_PAIRS = {(5, 2): 6_524_416}


def test_over_budget_quot_counts_match_the_series():
    for (d, n, p), expected in OVER_BUDGET_QUOT.items():
        solved = TSeries(solve_nh(d), t_pochhammer(d)).expand(n)[n]
        assert solved.evaluate(p) == expected, (d, n, p)
        if d <= MAX_D:
            assert hilb_series(d, prime=p).expand(n)[n].evaluate(p) == expected, (d, n, p)
        with pytest.raises(BudgetError):
            count_quot_bruteforce(d, n, p)


def test_over_budget_pair_count_matches_cohen_lenstra():
    for (n, p), expected in OVER_BUDGET_NILPOTENT_PAIRS.items():
        assert (cohen_lenstra_coefficient(n) * gl_order(n)).evaluate(p) == expected, (n, p)


# ---------------------------------------------------------------------------
# commuting-pair counts


def test_pair_counts_frozen():
    for (n, p), expected in FROZEN_NILPOTENT_PAIRS.items():
        assert count_nilpotent_pairs(n, p) == expected, (n, p)
    for (n, p), expected in FROZEN_ALL_PAIRS.items():
        assert count_all_pairs(n, p) == expected, (n, p)
    assert count_nilpotent_pairs(0, 2) == 1
    assert count_all_pairs(0, 3) == 1


def test_empty_pair_count_searches_no_generator():
    # 0 x 0 pairs are inside the budget at every prime, so the count must not
    # look for a generator of F_p^x: at p = 2^61 - 1 that search would
    # trial-divide p - 1 up to its square root
    p = 2**61 - 1
    assert oracles_module._generators(0, p) == []
    assert count_nilpotent_pairs(0, p) == 1


def test_generator_search_finds_the_least_primitive_root():
    # the rescaling move uses the same w as the reference's search over the
    # set of all p - 1 powers, at every prime below 1000 (p = 2 has none)
    for p in filter(is_prime, range(1000)):
        found = [m.keywords["w"] for (m,) in oracles_module._generators(1, p)]
        assert found == [m.keywords["w"] for m in transvection_moves(1, p)], p
    assert oracles_module._generators(1, 2) == []
    # the largest prime the budget admits at n = 1, p - 1 = 2^2 3^3 7 19 73
    assert oracles_module._generators(1, 1048573)[0][0].keywords["w"] == 2


def test_nilpotent_pair_ratio_matches_punctual_coefficient():
    for (n, p), nil in FROZEN_NILPOTENT_PAIRS.items():
        ratio = Fraction(nil) / gl_order(n).evaluate(p)
        assert ratio == zhat_coefficient(n).evaluate(p), (n, p)


def test_all_pair_counts_match_matrix_count_formula():
    for (n, p), total in FROZEN_ALL_PAIRS.items():
        assert Fraction(total) == matrix_count_formula(n).evaluate(p), (n, p)


# The per-B walk the orbit counter replaced, kept as an independent
# reference: every B, its commutant solved and enumerated, A^2 compared
# with B^3 through list-of-lists products.


def _matmul(A, B, n, p):
    return [[sum(A[i][k] * B[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]


def _reference_pairs_for_b(B, n, p):
    b3 = _matmul(_matmul(B, B, n, p), B, n, p)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for u in range(n):
                for v in range(n):
                    row[u * n + v] = ((B[v][j] if u == i else 0) - (B[i][u] if v == j else 0)) % p
            rows.append(row)
    basis = GFMatrix(rows, p).kernel_basis()
    count = 0
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        flat = [sum(c * vec[k] for c, vec in zip(coeffs, basis)) % p for k in range(n * n)]
        A = [flat[i * n : (i + 1) * n] for i in range(n)]
        if _matmul(A, A, n, p) == b3:
            count += 1
    return count


def _rows(flat, n):
    return [list(flat[i * n : (i + 1) * n]) for i in range(n)]


def _is_nilpotent(B, n, p):
    power = B
    for _ in range(n - 1):
        power = _matmul(power, B, n, p)
    return not any(any(row) for row in power)


def _reference_pair_walk(n, p, nilpotent_only):
    total = 0
    for flat in itertools.product(range(p), repeat=n * n):
        B = _rows(flat, n)
        if not nilpotent_only or _is_nilpotent(B, n, p):
            total += _reference_pairs_for_b(B, n, p)
    return total


@pytest.mark.parametrize("n, p", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_orbit_counter_matches_per_b_walk(n, p):
    assert count_all_pairs(n, p) == _reference_pair_walk(n, p, nilpotent_only=False)
    assert count_nilpotent_pairs(n, p) == _reference_pair_walk(n, p, nilpotent_only=True)


# Orbit counts as the flood fill finds them.  At (2, 3) the shift has
# determinant -1, which generates F_3^x, so the shift and the transvection
# alone find the 12 orbits; at (2, 5) they leave 35, and diag(2, 1) joins
# them into 30.
ORBIT_COUNTS = {(1, 2): 2, (2, 2): 6, (3, 2): 14, (1, 3): 3, (2, 3): 12, (3, 3): 39}


@pytest.mark.parametrize("n, p", sorted(ORBIT_COUNTS))
def test_orbit_sizes_cover_the_matrices(n, p):
    everything = list(itertools.product(range(p), repeat=n * n))
    orbits = _orbits(range(p ** (n * n)), n, p)
    assert len(orbits) == ORBIT_COUNTS[n, p]
    assert sum(size for _, size in orbits) == p ** (n * n)
    # seeded with the strictly upper triangular matrices, the walk reaches
    # exactly the nilpotent ones
    nilpotent = sum(_is_nilpotent(_rows(b, n), n, p) for b in everything)
    nil_orbits = _orbits(_strictly_upper(n, p), n, p)
    assert sum(size for _, size in nil_orbits) == nilpotent
    assert len(nil_orbits) == sum(_is_nilpotent(_rows(b, n), n, p) for b, _ in orbits)


def _seeds(n, p, nilpotent):
    """Indices of the strictly upper triangular matrices, or of every matrix."""
    return list(_strictly_upper(n, p)) if nilpotent else range(p ** (n * n))


@pytest.mark.parametrize("n, p, nilpotent", [
    *((n, p, nilpotent) for n, p in sorted(ORBIT_COUNTS) for nilpotent in (False, True)),
    (4, 2, True), (2, 5, False), (2, 13, False),
])
def test_index_fill_matches_the_tuple_fill(n, p, nilpotent):
    # the same moves on a set of tuples: the same representatives and sizes
    # in the same order
    seeds = _seeds(n, p, nilpotent)
    reference = flood_orbits([_matrix(x, n, p) for x in seeds], composed(oracles_module._generators(n, p)))
    assert _orbits(seeds, n, p) == reference


@pytest.mark.parametrize("n, p", [(1, 3), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
def test_split_steps_apply_each_move_to_every_index(n, p):
    # indices list the matrices in itertools.product order, and each move's
    # chain of steps sends every index to the index of the move's image
    size = n * n
    matrices = list(itertools.product(range(p), repeat=size))
    assert [_matrix(x, n, p) for x in range(p**size)] == matrices
    assert [_index(b, p) for b in matrices] == list(range(p**size))
    moves = oracles_module._generators(n, p)
    chains = _steps(n, p)
    assert len(chains) == len(moves)
    for move, chain in zip(composed(moves), chains):
        for x, b in enumerate(matrices):
            y = x
            for scale, high, low in chain:
                y = high[y // scale] + low[y % scale]
            assert y == _index(move(b), p), (n, p, b)
    # at n = 1 the one move is the identity and has no step; at n = 2 the
    # transvection's row operation runs between two transposes; at n = 3
    # every move is one step
    assert [len(chain) for chain in chains] == {1: [0], 2: [1, 4, 1], 3: [1, 1, 1]}[n][: len(moves)]
    bound = p ** (n * -(-n // 2))
    assert all(len(high) <= bound and len(low) <= bound for chain in chains for _, high, low in chain)


@pytest.mark.parametrize("n, p, nilpotent", [
    (2, 2, False), (2, 3, False), (2, 5, False), (3, 2, False), (3, 3, False), (4, 2, True),
])
def test_three_generators_find_the_orbits_of_every_transvection(n, p, nilpotent):
    # the shift, I + E_01 and the diagonal move against the n(n-1) + 1 moves
    # of every I + E_ij and the diagonal one: the same orbits in the same
    # order, so the same representatives and the same sizes
    assert [len(oracles_module._generators(k, p)) for k in range(3)] == ([0, 1, 3] if p > 2 else [0, 0, 2])
    seeds = _seeds(n, p, nilpotent)
    reference = flood_orbits([_matrix(x, n, p) for x in seeds], transvection_moves(n, p))
    assert _orbits(seeds, n, p) == reference


def test_conjugate_has_the_same_pair_count():
    rng = random.Random(20261018)
    for n, p in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        identity = GFMatrix.identity(n, p)
        for _ in range(4):
            g = GFMatrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
            while g.rank() < n:
                g = GFMatrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
            g_inv = g
            while g_inv * g != identity:
                g_inv = g_inv * g
            b = GFMatrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
            conj = g * b * g_inv
            flat_b = tuple(itertools.chain.from_iterable(b.rows))
            flat_conj = tuple(itertools.chain.from_iterable(conj.rows))
            count = _pairs_over(flat_b, n, p)
            assert _pairs_over(flat_conj, n, p) == count, (n, p, b.rows, g.rows)
            assert _reference_pairs_for_b([list(r) for r in b.rows], n, p) == count


def test_pair_count_budget():
    with pytest.raises(BudgetError, match=f"would walk {3**16} candidates"):
        count_nilpotent_pairs(4, 3)
    with pytest.raises(BudgetError, match=f"would walk {5**10} candidates"):
        count_all_pairs(3, 5)
    with pytest.raises(ValueError, match="4 is not a prime"):
        count_all_pairs(1, 4)
    # admitted once the (n, p) whitelist went, each against its formula
    assert count_all_pairs(2, 5) == 745 == matrix_count_formula(2).evaluate(5)


def test_all_pairs_of_size_four_over_f2():
    # one byte of seen per matrix, 64 KiB for the 2^16 matrices, and the
    # split tables, built inside the traced call
    _steps.cache_clear()
    tracemalloc.start()
    try:
        assert count_all_pairs(4, 2) == 122_656
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    assert count_all_pairs(4, 2) == matrix_count_formula(4).evaluate(2)


def test_pair_counts_reject_non_integer_sizes():
    # a non-integer size or prime is refused before the budget check, as in every layer
    for count in (count_all_pairs, count_nilpotent_pairs):
        for args in [(2.0, 2), (2, 2.0)]:
            with pytest.raises(TypeError, match="integer"):
                count(*args)


# ---------------------------------------------------------------------------
# stratum point counts


def test_stratum_counts_frozen():
    for text, p, expected in FROZEN_STRATUM_COUNTS:
        assert count_stratum_bruteforce(parse_datum(text), p) == expected, (text, p)


def test_stratum_count_matches_contribution_formula():
    data = [
        "(J(2))",
        "(K(4))",
        "(K(0),K(2))",
        "(J(1),J(2))",
        "(J(1),K(1))",
        "(K(0),J(2))",
        "(K(0),K(2),J(2))",
    ]
    for text in data:
        datum = parse_datum(text)
        b, delta = datum.exponents()
        for p in (2, 3):
            expected = count_v_alpha(datum.restrict_to_K(), p) * p ** (b + delta)
            assert count_stratum_bruteforce(datum, p) == expected, (text, p)


def test_stratum_slots_worked_example():
    slots = stratum_slots(WORKED)
    assert slots == [
        (0, M(2, 2)),
        (0, M(2, 3)),
        (0, M(3, 2)),
        (0, M(4, 3)),
        (1, M(3, 2)),
        (1, M(4, 3)),
        (2, M(4, 3)),
        (3, M(4, 3)),
    ]
    firsts = first_corner_slots(WORKED)
    assert firsts == [
        (0, M(2, 2)),
        (0, M(2, 3)),
        (0, M(3, 2)),
        (0, M(4, 3)),
        (2, M(4, 3)),
        (3, M(4, 3)),
    ]
    assert set(firsts) <= set(slots)
    # the second exponent counts exactly the first-corner tail slots
    assert WORKED.exponents()[1] == len(firsts)
    standard = set(WORKED.standard_set())
    corners = WORKED.corners()
    for corner_index, tail in slots:
        assert tail in standard
        assert corners[corner_index] < tail


def test_pinned_counts_partition_the_stratum():
    subset = stratum_slots(WORKED)[:3]
    total = 0
    for values in itertools.product(range(2), repeat=len(subset)):
        total += count_stratum_bruteforce(WORKED, 2, pins=dict(zip(subset, values)))
    assert total == 256
    assert count_stratum_bruteforce(WORKED, 2, pins={}) == 256


def test_unknown_pins_rejected():
    with pytest.raises(ValueError, match="pinned slots not in the stratum"):
        count_stratum_bruteforce(WORKED, 2, pins={(99, M(5, 1)): 1})


def test_out_of_field_pin_rejected():
    # a pin of 3 at p = 2 used to count as 1, so summing over range(4) double counted
    slot = stratum_slots(WORKED)[0]
    with pytest.raises(ValueError, match="pin values must be integers in range"):
        count_stratum_bruteforce(WORKED, 2, pins={slot: 3})


def test_non_integer_pin_rejected():
    slot = stratum_slots(WORKED)[0]
    with pytest.raises(ValueError, match="pin values must be integers in range"):
        count_stratum_bruteforce(WORKED, 2, pins={slot: 1.5})


def test_non_integer_prime_rejected():
    with pytest.raises(TypeError, match="integer"):
        count_stratum_bruteforce(WORKED, 2.0)


def test_negative_bit_budget_rejected():
    # the budget is no longer a parameter: ENUMERATION_BUDGET holds for every call
    with pytest.raises(TypeError):
        count_stratum_bruteforce(WORKED, 2, bit_budget=-5)
    with pytest.raises(BudgetError, match=f"would walk {11**8} candidates"):
        count_stratum_bruteforce(WORKED, 11)


def test_fibers_over_first_corner_pins_are_constant():
    # Sweep every assignment of the first-corner tail slots: all fibers of
    # the projection onto those coordinates have the same size, namely the
    # pure-K variety count times p^b.
    firsts = first_corner_slots(WORKED)
    fibers = {
        count_stratum_bruteforce(WORKED, 2, pins=dict(zip(firsts, values)))
        for values in itertools.product(range(2), repeat=len(firsts))
    }
    b, _ = WORKED.exponents()
    expected = count_v_alpha(WORKED.restrict_to_K(), 2) * 2**b
    assert fibers == {expected} == {4}


def test_fibers_are_constant_on_a_non_full_stratum():
    # Distance classes (2, 3+, 3+) give variety count 2*q^4 - q^3, so this
    # stratum is not an affine space; its fibers are still constant.
    datum = parse_datum("(K(0),K(2),K(5))")
    firsts = first_corner_slots(datum)
    rng = random.Random(20240817)
    assignments = [tuple(0 for _ in firsts)]
    assignments += [tuple(rng.randrange(2) for _ in firsts) for _ in range(7)]
    for values in assignments:
        pins = dict(zip(firsts, values))
        assert count_stratum_bruteforce(datum, 2, pins=pins) == 24
    assert count_v_alpha(datum, 2) == 24
    assert datum.exponents()[0] == 0


# The per-candidate walk the column test replaced, kept as the reference: each
# candidate basis is built as Elements and tested alone by the full criterion
# over divide, a path independent of the column test the oracle runs.


def _reference_stratum_count(datum, p, pins=None):
    pins = pins or {}
    free = [s for s in stratum_slots(datum) if s not in pins]
    corners = datum.corners()
    trunc = 2 * datum.n() + 4
    count = 0
    for vals in itertools.product(range(p), repeat=len(free)):
        assign = dict(pins)
        assign.update(zip(free, vals))
        elements = []
        for ci, c in enumerate(corners):
            terms = {c: 1}
            for (cj, nu), v in assign.items():
                if cj == ci and v:
                    terms[nu] = v
            elements.append(Element(terms, p, trunc))
        if is_groebner_general(PreBasis(elements, datum.d)):
            count += 1
    return count


def test_stratum_columns_match_the_per_candidate_walk():
    # every datum of rank <= 3 and levels <= 3 with at most 64 candidates
    cases = [
        (datum, p)
        for d in range(1, 4)
        for levels in itertools.product(range(4), repeat=d)
        for colors in itertools.product("JK", repeat=d)
        for datum in [LeadingTermDatum(levels, colors)]
        for p in (2, 3)
        if p ** len(stratum_slots(datum)) <= 64
    ]
    assert len(cases) == 363
    for datum, p in cases:
        assert count_stratum_bruteforce(datum, p) == _reference_stratum_count(datum, p), (
            str(datum),
            p,
        )
    # none of those needs the second S-element T^4*g0 - T^3*g1; this datum does
    needs_both = parse_datum("(K(0),J(4))")
    assert count_stratum_bruteforce(needs_both, 2) == _reference_stratum_count(needs_both, 2) == 64


def test_pinned_stratum_columns_match_the_per_candidate_walk():
    rng = random.Random(20261018)
    slots = stratum_slots(WORKED)
    for _ in range(8):
        pinned = rng.sample(slots, rng.randrange(2, len(slots) + 1))
        pins = {slot: rng.randrange(3) for slot in pinned}
        expected = _reference_stratum_count(WORKED, 3, pins)
        assert count_stratum_bruteforce(WORKED, 3, pins=pins) == expected, pins


@pytest.mark.parametrize("p", [2, 3, 5])
def test_packed_stratum_count_matches_the_full_criterion(p):
    # every candidate basis built as Elements and tested alone by
    # is_groebner_general, against the packed lanes, with and without a pin
    rng = random.Random(p)
    for text in ("(K(0),K(2))", "(J(2),K(0))", "(K(0),J(2))"):
        datum = parse_datum(text)
        slots = stratum_slots(datum)
        assert 3 <= len(slots) <= 4
        assert count_stratum_bruteforce(datum, p) == _reference_stratum_count(datum, p), (text, p)
        pins = {rng.choice(slots): rng.randrange(p)}
        assert count_stratum_bruteforce(datum, p, pins=pins) == _reference_stratum_count(datum, p, pins)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_commutant_roots_match_the_odometer(p):
    # random Y over full cells and over staircase slots, and Y whose large
    # commutant walks more coordinates than one column holds
    rng = random.Random(p)
    cases = []
    for n in (2, 3):
        cells = [(i, j) for i in range(n) for j in range(n)]
        for _ in range(8):
            cases.append((cells, cells, [[rng.randrange(p) for _ in range(n)] for _ in range(n)]))
    slots = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    entries = [(i, j) for i in range(4) for j in range(i + 2, 4)]
    for _ in range(8):
        Y = [[rng.randrange(p) if j > i else 0 for j in range(4)] for i in range(4)]
        cases.append((slots, entries, Y))
    # diag(c, 1, ..., 1): its commutant has p^16, 3^9 and 7^5 elements, more
    # than one column holds, so the odometer walks the rest
    n, c = {2: (4, 1), 3: (3, 1), 7: (3, 2)}[p]
    cells = [(i, j) for i in range(n) for j in range(n)]
    cases.append((cells, cells, [[(c if i == 0 else 1) * (i == j) for j in range(n)] for i in range(n)]))
    walked = 0
    for x_slots, entries, Y in cases:
        expected = sorted(map(tuple, commutant_roots_odometer(x_slots, entries, p)(Y)))
        roots = _commutant_roots(x_slots, entries, p)
        assert sorted(map(tuple, roots.points(Y))) == expected, (x_slots, Y)
        assert roots.number(Y) == len(expected)
        walked += len(expected)
    assert walked > 0


def test_pair_counts_at_larger_primes_match_the_formula():
    # p^(n^2 + 1) within the budget: many lanes of one coordinate, and at
    # (1, 1021) one kernel coordinate of 1021 lanes per B
    for n, p in ((2, 13), (1, 1021)):
        assert count_all_pairs(n, p) == matrix_count_formula(n).evaluate(p), (n, p)
        nilpotent = count_nilpotent_pairs(n, p)
        assert Fraction(nilpotent) == zhat_coefficient(n).evaluate(p) * gl_order(n).evaluate(p)


def test_rank_zero_datum_has_one_point():
    # the single rank-0 orbit of the series: its one candidate, the empty basis,
    # passes the closure test
    empty = LeadingTermDatum([], [])
    for p in (2, 3):
        assert count_stratum_bruteforce(empty, p) == count_v_alpha(empty, p) == 1


def test_stratum_columns_bound_memory():
    # 2^17 candidates are tested as 32 columns of 2^12 each
    datum = parse_datum("(K(0),K(2),K(5))")
    tracemalloc.start()
    try:
        assert count_stratum_bruteforce(datum, 2) == 24_576
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_stratum_budget():
    with pytest.raises(BudgetError, match=f"would walk {2**21} candidates"):
        count_stratum_bruteforce(parse_datum("(K(0),K(3),K(6))"), 2)
    with pytest.raises(BudgetError, match=f"would walk {7**8} candidates"):
        count_stratum_bruteforce(WORKED, 7)


# Over-budget inputs of every enumerator, with the predicted number of
# candidates the error must state.  The first three quot inputs passed the
# old window cap of d*(2n+2) and then walked every one of those subspaces.
OVER_BUDGET = [
    (count_quot_bruteforce, (1, 5, 2), "109221651"),
    (count_quot_bruteforce, (1, 6, 2), "230674393235"),
    (count_quot_bruteforce, (1, 4, 3), "75913222"),
    (count_quot_bruteforce, (1, 10**6, 2), "at least 2^1000000000000"),
    (count_nilpotent_pairs, (5, 2), str(2**25)),
    (count_all_pairs, (2, 17), str(17**5)),
    (count_all_pairs, (10**5, 3), "at least 3^10000000001"),
    (count_stratum_bruteforce, (parse_datum("(K(0),K(3),K(6))"), 2), str(2**21)),
    (count_v_spec, (VAlphaSpec(3, {(1, 2): "3+", (2, 3): "3+", (1, 3): "3+"}), 11), str(11**6)),
    (count_v_alpha, (parse_datum("(K(0),K(3),K(6),K(9),K(12))"), 3), str(3**20)),
    (brute_v_d, (3, 13), str(13**6)),
    (brute_v_d, (6, 2), str(2**30)),
    (lambda d, p: next(enumerate_v_d_points(d, p)), (3, 11), str(11**6)),
    (lambda *args: next(echelon_subspaces(*args)), (40, 20, 2), "at least 2^400"),
]


@pytest.mark.parametrize("count, args, size", OVER_BUDGET)
def test_enumerators_refuse_over_budget_before_any_walk(monkeypatch, count, args, size):
    # every walk starts in itertools.product or itertools.combinations
    def walk(*_args, **_kwargs):
        raise AssertionError("an enumeration started")

    monkeypatch.setattr(itertools, "product", walk)
    monkeypatch.setattr(itertools, "combinations", walk)
    with pytest.raises(BudgetError) as err:
        count(*args)
    assert f"would walk {size} candidates, over the budget {ENUMERATION_BUDGET}" in str(err.value)


def test_raising_scales_stratum_counts():
    for text, j, primes in SCALING_CASES:
        datum = parse_datum(text)
        assert is_stable(datum, j), (text, j)
        raised = datum.gamma(j)
        for p in primes:
            base = count_stratum_bruteforce(datum, p)
            assert count_stratum_bruteforce(raised, p) == p ** (j - 1) * base, (
                text,
                j,
                p,
            )
