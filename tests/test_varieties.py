"""Staircase matrix varieties, their motives, and module profiles."""

import functools
import hashlib
import inspect
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from cuspquot import series, varieties
from cuspquot.oracles import count_stratum_bruteforce
from cuspquot.strata import (
    LeadingTermDatum,
    base_level_walk,
    parse_datum,
    stable_orbit_decomposition,
)
from cuspquot.varieties import (
    MAX_MOTIVE_D,
    AbProfile,
    BudgetError,
    GFMatrix,
    MotiveTable,
    VAlphaSpec,
    ab_profile,
    brute_v_d,
    classify_kernel_vector,
    count_v_alpha,
    count_v_spec,
    distance_class,
    enumerate_v_d_points,
    extend_point,
    h0_t_exact,
    motive_table_csv,
    staircase_motive,
    staircase_table_csv,
    symbolic_v_alpha,
)
from cuspquot.varieties import (
    _COLUMN,
    _antidiagonal,
    _commutant_roots,
    _count,
    _count_system,
    _digit_width,
    _digits,
    _factor,
    _h0_exact,
    _in_span,
    _lane_coords,
    _Lanes,
    _Module,
    _module,
    _motive,
    _Poly,
    _row_lanes,
    _rref,
    _staircase_walk,
    _symbolic_count,
)
from cuspquot.qalgebra import LaurentPolyQ

import row_reference


FROZEN_V_COUNTS = {
    (0, 2): 1,
    (1, 2): 1,
    (2, 2): 4,
    (3, 2): 32,
    (4, 2): 608,
    (0, 3): 1,
    (1, 3): 1,
    (2, 3): 9,
    (3, 3): 189,
    (1, 5): 1,
    (2, 5): 25,
}


def poly(terms):
    return LaurentPolyQ(terms)


# ---------------------------------------------------------------------------
# GFMatrix basics


def test_gfmatrix_construction_and_shape():
    m = GFMatrix([[1, 5], [0, 2]], 3)
    assert m.rows == ((1, 2), (0, 2))
    assert m.shape == (2, 2)
    assert GFMatrix.zero(2, 3, 5).shape == (2, 3)
    assert GFMatrix.identity(2, 3) == GFMatrix([[1, 0], [0, 1]], 3)
    with pytest.raises(ValueError):
        GFMatrix([[1, 2], [3]], 5)


def test_gfmatrix_stores_the_plain_prime():
    # the prime is kept as check_prime returns it, as groebner.Element keeps it
    class Tagged(int):
        pass

    m = GFMatrix([[1]], Tagged(3))
    assert m.p == 3 and type(m.p) is int


def test_gfmatrix_arithmetic():
    a = GFMatrix([[1, 1], [0, 1]], 2)
    assert a * a == GFMatrix.identity(2, 2)
    assert a.apply((1, 1)) == (0, 1)
    with pytest.raises(ValueError):
        a * GFMatrix([[1, 2, 3]], 2)


def test_gfmatrix_refuses_what_it_would_get_wrong():
    # each of these hung or returned a silently wrong matrix or vector
    a = GFMatrix([[1, 2], [0, 1]], 5)
    with pytest.raises(ValueError, match="different fields"):
        GFMatrix([[1]], 3) * GFMatrix([[2]], 2)
    with pytest.raises(ValueError, match="mismatched shapes"):
        a * GFMatrix([[1]], 5)
    with pytest.raises(ValueError, match="vector length"):
        a.apply([1])
    with pytest.raises(ValueError, match="vector length"):
        a.apply([1, 0, 0])
    one, column, row = GFMatrix([[1]], 2), GFMatrix([[1], [1]], 2), GFMatrix([[1, 1]], 2)
    with pytest.raises(ValueError, match="blocks over different fields"):
        GFMatrix.block2(one, GFMatrix([[2]], 3), one, one)
    for blocks in [(column, one, one, one), (one, one, one, column), (one, one, row, one), (one, one, one, row)]:
        with pytest.raises(ValueError, match="mismatched shapes|ragged"):
            GFMatrix.block2(*blocks)


def test_gfmatrix_arithmetic_keeps_reduced_rows():
    # products, negations and blocks skip the constructor's reduction, so
    # their rows must already be what the constructor would store
    rng = random.Random(2710)

    def rand(n, m, p):
        return GFMatrix([[rng.randint(-2 * p, 2 * p) for _ in range(m)] for _ in range(n)], p)

    def stored(mat, p):
        assert GFMatrix(mat.rows, mat.p) == mat and mat.p == p
        assert type(mat.rows) is tuple
        assert all(type(r) is tuple and all(type(c) is int and 0 <= c < p for c in r) for r in mat.rows)

    for _ in range(200):
        p = rng.choice((2, 3, 5))
        n, k, m, j = (rng.randint(1, 4) for _ in range(4))
        a, b, c, e = rand(n, k, p), rand(k, m, p), rand(j, n, p), rand(j, k, p)
        prod = a * b
        stored(prod, p)
        assert prod.rows == tuple(
            tuple(sum(a.rows[i][t] * b.rows[t][s] for t in range(k)) % p for s in range(m))
            for i in range(n)
        )
        neg = -a
        stored(neg, p)
        assert neg.rows == tuple(tuple(-x % p for x in r) for r in a.rows)
        tr, br = rand(n, m, p), rand(j, m, p)
        blk = GFMatrix.block2(a, tr, e, br)
        stored(blk, p)
        assert blk.rows == tuple(x + y for x, y in zip(a.rows + e.rows, tr.rows + br.rows))
        stored(c * a, p)


def test_gfmatrix_rank_kernel_image():
    m = GFMatrix([[1, 2, 0], [2, 4, 0]], 5)
    assert m.rank() == 1
    kernel = m.kernel_basis()
    assert len(kernel) == 2
    for v in kernel:
        assert m.apply(v) == (0, 0)


def _reference_cases():
    """(p, rows, width) of seeded random matrices: empty, one row, one
    column, all zero, rank deficient and random, at primes whose row lanes
    run from 8 bits to more than 64."""
    for p in (2, 3, 5, 7, 67, 4099, 1048573):
        rng = random.Random(f"rows:{p}")
        yield p, [], 0
        for _ in range(12):
            n, m = rng.randint(1, 7), rng.randint(1, 9)
            shape = rng.choice(("random", "row", "column", "zero", "deficient"))
            if shape == "row":
                n = 1
            elif shape == "column":
                m = 1
            if shape == "zero":
                rows = [[0] * m for _ in range(n)]
            elif shape == "deficient":
                rank = rng.randint(1, max(1, min(n, m) - 1))
                basis = [[rng.randrange(p) for _ in range(m)] for _ in range(rank)]
                rows = []
                for _ in range(n):
                    coeffs = [rng.randrange(p) for _ in basis]
                    rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) % p for j in range(m)])
            else:
                rows = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            yield p, rows, m


@pytest.mark.parametrize("p, rows, width", list(_reference_cases()))
def test_packed_rows_match_the_per_entry_reference(p, rows, width):
    rng = random.Random(f"{p}:{rows}")
    matrix = GFMatrix(rows, p)
    lanes = _row_lanes(p, width)
    ref_rows, ref_pivots = row_reference.rref(rows, p)
    packed, pivots = _rref(map(lanes.pack, matrix.rows), lanes)
    assert [lanes.unpack(r, width) for r in packed] == ref_rows and pivots == ref_pivots
    assert matrix.rank() == row_reference.rank(rows, p) == len(ref_rows)
    kernel = matrix.kernel_basis()
    assert kernel == row_reference.kernel_basis(rows, width, p)
    assert all(type(v) is tuple for v in kernel) and len(kernel) == width - len(ref_rows)
    for _ in range(6):
        # entries from -2p to 2p: apply reduces them before they reach a lane
        vec = [rng.randint(-2 * p, 2 * p) for _ in range(width)]
        assert matrix.apply(vec) == row_reference.apply(matrix.rows, [c % p for c in vec], p)
        inside = [0] * width
        for r in ref_rows:
            c = rng.randrange(p)
            inside = [(a + c * b) % p for a, b in zip(inside, r)]
        for v in (inside, [c % p for c in vec]):
            expected = row_reference.in_span(ref_rows, ref_pivots, v, p)
            assert _in_span(packed, pivots, lanes.pack(v), lanes) == expected
        assert _in_span(packed, pivots, lanes.pack(inside), lanes)
    k = rng.randint(1, 4)
    other = [[rng.randrange(p) for _ in range(k)] for _ in range(width)]
    assert (matrix * GFMatrix(other, p)).rows == row_reference.product(matrix.rows, other, p)
    square = GFMatrix([[rng.randrange(p) for _ in range(len(rows))] for _ in rows], p)
    assert (square * matrix).rows == row_reference.product(square.rows, matrix.rows, p)


def test_gfmatrix_rejects_non_integer_entries():
    # 2.5 was stored and squared to 0.25; 1/2 was stored as a Fraction
    for rows in ([[2.5, 0], [0, 1]], [[Fraction(1, 2)]]):
        with pytest.raises(TypeError, match="integer"):
            GFMatrix(rows, 3)
    # a vector entry is reduced mod p before it is packed, so it must be an
    # integer too: apply returned (2.5, 1.0) and classify "not in the kernel"
    with pytest.raises(TypeError, match="integer"):
        GFMatrix([[1, 0], [0, 1]], 3).apply([2.5, 1])
    zero = GFMatrix([[0]], 3)
    with pytest.raises(TypeError, match="integer"):
        classify_kernel_vector(zero, zero, (0.5, 0))


def test_gfmatrix_rejects_a_composite_modulus():
    # 2I over Z/4 kills (2, 0), but kernel_basis() returned []
    with pytest.raises(ValueError, match="4 is not a prime"):
        GFMatrix([[2, 0], [0, 2]], 4)


def test_float_moduli_rejected_before_any_work(monkeypatch):
    # is_prime(3.0) was True: the rank ended in a pow() TypeError, and
    # brute_v_d(2, 2.0) in an itertools TypeError inside the walk
    def walk(*_args, **_kwargs):
        raise AssertionError("an enumeration started")

    monkeypatch.setattr(itertools, "product", walk)
    with pytest.raises(TypeError):
        GFMatrix([[1]], 3.0)
    with pytest.raises(TypeError):
        brute_v_d(2, 2.0)


def test_gfmatrix_block2():
    a = GFMatrix([[1]], 2)
    z = GFMatrix([[0]], 2)
    blk = GFMatrix.block2(a, z, z, a)
    assert blk == GFMatrix.identity(2, 2)


# ---------------------------------------------------------------------------
# Distance classes and patterned counts


def test_distance_class_thresholds():
    assert distance_class(-3) == "1-"
    assert distance_class(0) == "1-"
    assert distance_class(1) == "1-"
    assert distance_class(2) == "2"
    assert distance_class(3) == "3+"
    assert distance_class(9) == "3+"


def test_valphaspec_validation():
    with pytest.raises(ValueError):
        VAlphaSpec(2, {})
    with pytest.raises(ValueError):
        VAlphaSpec(2, {(1, 2): "big"})
    with pytest.raises(ValueError):
        VAlphaSpec(3, {(1, 2): "2", (2, 3): "2"})
    spec = VAlphaSpec(2, {(1, 2): "3+"})
    assert spec.free_x() == [(0, 1)]
    assert spec.free_y() == [(0, 1)]
    assert VAlphaSpec(2, {(1, 2): "1-"}).free_y() == []


def test_negative_rank_spec_is_refused():
    # symbolic_v_alpha(VAlphaSpec(-1, {})) returned 1, while count_v_spec
    # refused the same spec
    with pytest.raises(ValueError, match="rank must be >= 0"):
        symbolic_v_alpha(VAlphaSpec(-1, {}))
    assert symbolic_v_alpha(VAlphaSpec(0, {})) == symbolic_v_alpha(LeadingTermDatum([], []))


def test_from_datum_requires_pure_K():
    with pytest.raises(ValueError):
        VAlphaSpec.from_datum(parse_datum("(K(0),J(1))"))
    spec = VAlphaSpec.from_datum(parse_datum("(K(0),K(2),K(9))"))
    assert spec.classes == {(1, 2): "2", (2, 3): "3+", (1, 3): "3+"}


def test_rank_two_table_against_counts():
    for cls, expected in [("1-", poly({0: 1})), ("2", poly({1: 1})), ("3+", poly({2: 1}))]:
        spec = VAlphaSpec(2, {(1, 2): cls})
        assert symbolic_v_alpha(spec) == expected
        for p in (2, 3, 5):
            assert count_v_spec(spec, p) == expected.evaluate(p)


# the rank-3 counts as tabulated by hand before the symbolic counter,
# keyed by the classes of the pairs (1,2), (2,3), (1,3)
FROZEN_V3 = {
    ("1-", "1-", "1-"): poly({0: 1}),
    ("1-", "1-", "2"): poly({1: 1}),
    ("1-", "1-", "3+"): poly({2: 1}),
    ("1-", "2", "2"): poly({2: 1}),
    ("1-", "2", "3+"): poly({3: 1}),
    ("1-", "3+", "3+"): poly({4: 1}),
    ("2", "1-", "2"): poly({2: 1}),
    ("2", "1-", "3+"): poly({3: 1}),
    ("2", "2", "3+"): poly({4: 1}),
    ("2", "3+", "3+"): poly({4: 2, 3: -1}),
    ("3+", "1-", "3+"): poly({4: 1}),
    ("3+", "2", "3+"): poly({4: 2, 3: -1}),
    ("3+", "3+", "3+"): poly({4: 3, 3: -2}),
}


def test_rank_three_table_against_counts():
    for key, expected in FROZEN_V3.items():
        spec = VAlphaSpec(3, {(1, 2): key[0], (2, 3): key[1], (1, 3): key[2]})
        symbolic = symbolic_v_alpha(spec)
        assert symbolic == expected, key
        for p in (2, 3, 5):
            assert count_v_spec(spec, p) == symbolic.evaluate(p)


def _all_patterns(d):
    pairs = [(b, h) for b in range(1, d + 1) for h in range(b + 1, d + 1)]
    for classes in itertools.product(("1-", "2", "3+"), repeat=len(pairs)):
        yield VAlphaSpec(d, dict(zip(pairs, classes)))


def _realizable_patterns(d):
    out = []
    for spec in _all_patterns(d):
        try:
            symbolic_v_alpha(spec)
        except ValueError:
            continue
        out.append(spec)
    return out


def test_realizable_patterns_are_those_of_pure_K_data():
    assert {s.key() for s in _realizable_patterns(3)} == {
        VAlphaSpec(3, {(1, 2): a, (2, 3): b, (1, 3): c}).key() for a, b, c in FROZEN_V3
    }
    data = {
        VAlphaSpec.from_datum(LeadingTermDatum(levels, "KKKK")).key()
        for levels in itertools.product(range(13), repeat=4)
    }
    assert {s.key() for s in _realizable_patterns(4)} == data
    assert len(data) == 67
    orbit_patterns = {
        VAlphaSpec.from_datum(orbit.base.restrict_to_K()).key()
        for orbit in stable_orbit_decomposition(4)
    }
    assert {key for key in orbit_patterns if key[0] == 4} == data


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_symbolic_counts_match_enumeration(d):
    for spec in _realizable_patterns(d):
        symbolic = symbolic_v_alpha(spec)
        for p in (2, 3, 5) if d <= 3 else (2, 3):
            assert count_v_spec(spec, p) == symbolic.evaluate(p), spec.key()


def test_full_pattern_is_the_staircase_motive():
    for d in range(6):
        spec = VAlphaSpec(d, {(b, h): "3+" for b in range(1, d + 1) for h in range(b + 1, d + 1)})
        assert symbolic_v_alpha(spec) == staircase_motive(d)


def test_unresolved_systems_raise():
    spec = VAlphaSpec(6, {(b, h): "3+" for b in range(1, 7) for h in range(b + 1, 7)})
    with pytest.raises(ArithmeticError, match="stuck"):
        symbolic_v_alpha(spec)
    # 2x = 0 has q points in characteristic 2 and one elsewhere
    x = _Poly.var(0)
    with pytest.raises(ArithmeticError, match="vanishes"):
        _count([x + x], frozenset({0}), frozenset())


def test_a_stuck_count_is_kept_in_the_memo():
    # both orientations of this rank-6 key get stuck; a repeat call raises
    # the same message afresh and counts neither orientation again
    classes = {pair: "3+" for pair in itertools.combinations(range(1, 7), 2)}
    for pair in [(1, 2), (2, 3), (3, 4), (5, 6)]:
        classes[pair] = "2"
    spec = VAlphaSpec(6, classes)
    _symbolic_count.cache_clear()
    errors = []
    for _ in range(3):
        misses = _count_system.cache_info().misses
        with pytest.raises(ArithmeticError) as info:
            symbolic_v_alpha(spec)
        errors.append(info.value)
    assert [str(e) for e in errors] == ["symbolic count stuck on 1 equations in unit variables"] * 3
    assert errors[1] is not errors[2]
    assert _count_system.cache_info().misses == misses


def _random_system(rng, n_vars):
    eqs = []
    for _ in range(rng.randint(1, 3)):
        f = _Poly()
        for _ in range(rng.randint(1, 4)):
            m = tuple((v, e) for v in range(n_vars) if (e := rng.choice((0, 0, 1, 2))))
            f = f + _Poly({m: rng.choice((1, -1, 1, -1, 2, -2))})
        eqs.append(f)
    return eqs


def _common_zeros(eqs, free, units, p):
    ranges = [range(1, p) if v in units else range(p) for v in sorted(free | units)]
    return sum(
        all(sum(c * math.prod(point[v] ** e for v, e in m) for m, c in f.items()) % p == 0
            for f in eqs)
        for point in itertools.product(*ranges)
    )


def test_counter_matches_enumeration_on_random_systems():
    # beyond the staircase systems: each count the counter returns must be the
    # number of common zeros over F_2, F_3 and F_5, and each refusal must say why
    rng = random.Random(20231)
    resolved = 0
    for _ in range(1000):
        n_vars = rng.randint(1, 4)
        units = frozenset(v for v in range(n_vars) if rng.random() < 0.3)
        free = frozenset(range(n_vars)) - units
        eqs = _random_system(rng, n_vars)
        try:
            count = _count(eqs, free, units)
        except ArithmeticError as exc:
            assert "stuck" in str(exc) or "depends on whether" in str(exc), exc
            continue
        resolved += 1
        for p in (2, 3, 5):
            assert count.evaluate(p) == _common_zeros(eqs, free, units, p), (eqs, free, units, p)
    # the rest raise; a new rule that resolves more of them moves this number
    assert resolved == 323


def test_rank_four_recursion_is_pinned():
    # the _count nodes and memo hits of a cold rank-4 series; a new rule or a
    # changed rule order moves them
    series._color_rows.cache_clear()
    for memo in (_symbolic_count, _count_system, _factor):
        memo.cache_clear()
    series.hilb_numerator(4)
    info = _count_system.cache_info()
    assert (info.misses, info.hits) == (249, 100)
    # one count per anti-transpose class of the 85 pattern keys
    assert _symbolic_count.cache_info().currsize == 56


def _series_keys(d):
    # every pattern key read off the rank-d base level vectors
    walk = base_level_walk(d) if d else [((), ())]
    return {
        key
        for levels, _ in walk
        for key in series._pattern_keys(d, series._level_invariants(levels)[0])
    }


def _rank5_counts():
    out = {}
    for key in _series_keys(5):
        try:
            out[key] = str(symbolic_v_alpha(VAlphaSpec(key[0], dict(key[1]))))
        except ArithmeticError:
            out[key] = "stuck"
    return out


# the rank-5 patterns whose counts got stuck before a stuck orientation fell
# back to its flip: class 3+ on every pair except (2, 3) and (4, 5), whose
# classes key the counts
FORMERLY_STUCK = {
    ("1-", "1-"): poly({12: 3, 10: -2}),
    ("1-", "2"): poly({12: 4, 10: -3, 9: -1, 8: 1}),
    ("2", "1-"): poly({12: 4, 10: -3, 9: -1, 8: 1}),
    ("1-", "3+"): poly({12: 5, 11: -1, 10: -3, 9: -1, 8: 1}),
    ("2", "2"): poly({12: 5, 11: 3, 10: -12, 9: 5}),
    ("2", "3+"): poly({12: 7, 10: -11, 9: 5}),
}


def _rank5_key(c23, c45):
    classes = {pair: "3+" for pair in itertools.combinations(range(1, 6), 2)}
    classes[2, 3], classes[4, 5] = c23, c45
    return VAlphaSpec(5, classes).key()


def test_count_memo_keeps_every_rule_choice():
    # the rule that fires reads the equation order, so a memo that reordered
    # the equations would change the counts; with the six formerly stuck
    # keys set back to "stuck", the digest is the one from before the flip,
    # so none of the other 459 values moved
    formerly_stuck = {_rank5_key(*classes) for classes in FORMERLY_STUCK}
    for memo in (_symbolic_count, _count_system, _factor):
        memo.cache_clear()
    for warm in (False, True):
        counts = _rank5_counts()
        assert len(counts) == 465
        assert "stuck" not in counts.values()
        text = "\n".join(f"{key}:{counts[key]}" for key in sorted(counts))
        assert hashlib.sha256(text.encode()).hexdigest().startswith("e30ceea15f9d109c"), warm
        old = "\n".join(
            f"{key}:{'stuck' if key in formerly_stuck else counts[key]}" for key in sorted(counts)
        )
        assert hashlib.sha256(old.encode()).hexdigest().startswith("411f836b179ebd28"), warm
        assert _count_system.cache_info().currsize
        _symbolic_count.cache_clear()  # the second pass recounts through a warm _count memo


@pytest.mark.parametrize("classes", list(FORMERLY_STUCK), ids=",".join)
def test_formerly_stuck_rank_five_counts(classes):
    spec = VAlphaSpec(5, dict(_rank5_key(*classes)[1]))
    symbolic = symbolic_v_alpha(spec)
    assert symbolic == FORMERLY_STUCK[classes]
    assert count_v_spec(spec, 2) == symbolic.evaluate(2)


def _flipped(spec):
    return VAlphaSpec(spec.d, dict(varieties._flip(spec.key())[1]))


def _direct_count(spec):
    # the counter on the system as given, with no canonical key
    eqs, nvars = varieties._staircase_system(spec)
    return _count(eqs, frozenset(range(nvars)), frozenset())


def test_flip_is_an_involution_on_the_series_keys():
    for d in range(6):
        keys = _series_keys(d)
        assert {varieties._flip(key) for key in keys} == keys, d
        assert all(varieties._flip(varieties._flip(key)) == key for key in keys)
    spec = VAlphaSpec(3, {(1, 2): "1-", (2, 3): "2", (1, 3): "3+"})
    assert _flipped(spec).classes == {(1, 2): "2", (2, 3): "1-", (1, 3): "3+"}


def test_both_orientations_count_alike_in_the_engine():
    for d in range(5):
        for key in sorted(_series_keys(d)):
            spec = VAlphaSpec(key[0], dict(key[1]))
            assert _direct_count(spec) == _direct_count(_flipped(spec)), key


def test_both_orientations_count_alike_in_the_oracle():
    # the symmetry as the enumeration sees it, with no engine count
    for d in range(5):
        for key in sorted(_series_keys(d)):
            spec = VAlphaSpec(key[0], dict(key[1]))
            assert count_v_spec(spec, 2) == count_v_spec(_flipped(spec), 2), key


def test_rank_three_frozen_rows():
    assert symbolic_v_alpha(
        VAlphaSpec(3, {(1, 2): "2", (2, 3): "3+", (1, 3): "3+"})
    ) == poly({4: 2, 3: -1})
    assert symbolic_v_alpha(
        VAlphaSpec(3, {(1, 2): "3+", (2, 3): "3+", (1, 3): "3+"})
    ) == poly({4: 3, 3: -2})
    assert symbolic_v_alpha(
        VAlphaSpec(3, {(1, 2): "1-", (2, 3): "1-", (1, 3): "1-"})
    ) == poly({0: 1})


def test_rank_three_unrealizable_key_rejected():
    spec = VAlphaSpec(3, {(1, 2): "3+", (2, 3): "3+", (1, 3): "1-"})
    with pytest.raises(ValueError):
        symbolic_v_alpha(spec)


def test_unrealizable_error_names_the_classes_passed():
    # the memo holds one key per flip class; the error must still name the
    # caller's classes, asked cold or after the flip, in either order
    spec = VAlphaSpec(3, {(1, 2): "1-", (2, 3): "3+", (1, 3): "1-"})
    flipped = _flipped(spec)
    assert flipped.key() != spec.key()
    for order in ((spec, flipped), (flipped, spec)):
        _symbolic_count.cache_clear()
        for s in order:
            with pytest.raises(ValueError) as info:
                symbolic_v_alpha(s)
            assert str(info.value) == (
                f"distance classes {s.key()[1]} are realized by no pure-K datum"
            )
    assert symbolic_v_alpha(VAlphaSpec(4, {pair: "1-" for pair in
                                           [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]})) == 1


def test_rank_one_and_zero_are_trivial():
    assert symbolic_v_alpha(parse_datum("(K(5))")) == poly({0: 1})
    assert symbolic_v_alpha(VAlphaSpec(1, {})) == poly({0: 1})


def test_worked_example_count():
    datum = parse_datum("(K(0),K(2),K(9))")
    assert symbolic_v_alpha(datum) == poly({4: 2, 3: -1})
    assert count_v_alpha(datum, 2) == 24


def test_counts_depend_only_on_distance_classes():
    # Raising an already-large distance never changes the count.
    near = parse_datum("(K(0),K(3))")
    far = parse_datum("(K(0),K(7))")
    assert VAlphaSpec.from_datum(near).key() == VAlphaSpec.from_datum(far).key()
    for p in (2, 3):
        assert count_v_alpha(near, p) == count_v_alpha(far, p)


def _pair_walk(d, x_slots, y_slots, p):
    """Reference for the enumerators: every pair supported on the slots,
    kept when XY = YX and X^2 = Y^3 as GFMatrix products."""
    points = []
    for vals in itertools.product(range(p), repeat=len(x_slots) + len(y_slots)):
        X = [[0] * d for _ in range(d)]
        Y = [[0] * d for _ in range(d)]
        for (i, j), c in zip(x_slots, vals):
            X[i][j] = c
        for (i, j), c in zip(y_slots, vals[len(x_slots):]):
            Y[i][j] = c
        xm, ym = GFMatrix(X, p), GFMatrix(Y, p)
        if xm * ym == ym * xm and xm * xm == ym * ym * ym:
            points.append((xm, ym))
    return points


def test_enumerated_points_match_the_pair_walk():
    for d in range(4):
        slots = [(i, j) for i in range(d) for j in range(i + 1, d)]
        for p in (2, 3):
            points = list(enumerate_v_d_points(d, p))
            assert len(points) == len(set(points))
            assert set(points) == set(_pair_walk(d, slots, slots, p))


def test_patterned_counts_match_the_pair_walk():
    for d in range(4):
        for spec in _realizable_patterns(d):
            walk = _pair_walk(d, spec.free_x(), spec.free_y(), 2)
            assert count_v_spec(spec, 2) == len(walk), spec.key()


@pytest.mark.parametrize("d,p", [(3, 0), (3, 1), (3, 4), (3, 9), (-1, 2)])
def test_enumerators_reject_non_primes_and_negative_ranks(d, p):
    # a composite p once gave wrong counts (896 for the full rank-3 pattern
    # at p = 4, where F_4 has 640 points) and d = -1 counted one point
    full = {(b, h): "3+" for b in range(1, d + 1) for h in range(b + 1, d + 1)}
    message = "is not a prime" if d >= 0 else "rank must be >= 0"
    with pytest.raises(ValueError, match=message):
        # a negative rank is refused already when the spec is built
        count_v_spec(VAlphaSpec(d, full), p)
    with pytest.raises(ValueError, match=message):
        brute_v_d(d, p)
    with pytest.raises(ValueError, match=message):
        next(enumerate_v_d_points(d, p))
    if d >= 0:
        with pytest.raises(ValueError, match=message):
            count_stratum_bruteforce(parse_datum("(K(0),K(2))"), p)


def test_count_budget_errors():
    spec5 = VAlphaSpec(
        5, {(b, h): "1-" for b in range(1, 6) for h in range(b + 1, 6)}
    )
    assert count_v_spec(spec5, 2) == 1  # no free slot: only X = Y = 0
    full5 = VAlphaSpec(5, {(b, h): "3+" for b in range(1, 6) for h in range(b + 1, 6)})
    with pytest.raises(BudgetError, match=f"would walk {3**20} candidates"):
        count_v_spec(full5, 3)
    spec3 = VAlphaSpec(3, {(1, 2): "3+", (2, 3): "3+", (1, 3): "3+"})
    with pytest.raises(BudgetError, match=f"would walk {11**6} candidates"):
        count_v_spec(spec3, 11)


def test_full_rank_five_pattern_counts_the_staircase_variety():
    full5 = VAlphaSpec(5, {(b, h): "3+" for b in range(1, 6) for h in range(b + 1, 6)})
    assert count_v_spec(full5, 2) == 24_064 == staircase_motive(5).evaluate(2)


# ---------------------------------------------------------------------------
# Motive recursion and the staircase table


FROZEN_STAIRCASE = {
    0: poly({0: 1}),
    1: poly({0: 1}),
    2: poly({2: 1}),
    3: poly({4: 3, 3: -2}),
    4: poly({8: 2, 7: 3, 6: -5, 5: 1}),
    5: poly({12: 10, 11: -5, 10: -9, 9: 5}),
    6: poly({18: 5, 17: 21, 16: -30, 15: -9, 14: 15, 12: -1}),
    7: poly({24: 35, 23: 7, 22: -84, 21: 15, 20: 35, 18: -7}),
    8: poly(
        {32: 14, 31: 112, 30: -112, 29: -162, 28: 113, 27: 70, 26: -7, 25: -28, 22: 1}
    ),
}


def test_staircase_motive_frozen_table():
    for d, expected in FROZEN_STAIRCASE.items():
        assert staircase_motive(d) == expected
    with pytest.raises(ValueError):
        staircase_motive(-1)


def test_staircase_motive_is_one_at_q_equals_one():
    for d in range(13):
        assert staircase_motive(d).evaluate(1) == 1


def test_staircase_motive_matches_bruteforce():
    for (d, p), expected in FROZEN_V_COUNTS.items():
        if d <= 3 or p == 2:
            assert brute_v_d(d, p) == expected
            assert staircase_motive(d).evaluate(p) == expected


def test_bruteforce_budget():
    with pytest.raises(BudgetError, match=f"would walk {3**20} candidates"):
        brute_v_d(5, 3)
    with pytest.raises(BudgetError, match=f"would walk {11**6} candidates"):
        brute_v_d(3, 11)


def test_v_d_budget_is_checked_before_the_slots_are_listed():
    # d = 10^4 has about 5 * 10^7 slots; refusing it must not list them
    for call in (lambda: brute_v_d(10**4, 2), lambda: next(enumerate_v_d_points(10**4, 2))):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=r"at least 2\^99990000 candidates"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_motive_table_cone_and_frozen_entry():
    table = MotiveTable()
    assert table.get(0, 0) == poly({0: 1})
    assert table.get(4, 2) == poly({4: 2, 2: -3, 1: 1})
    assert table.get(-1, 0).is_zero()
    assert table.get(1, 2).is_zero()  # a < b
    assert table.get(3, 0).is_zero()  # parity mismatch
    assert table.get(2, -1).is_zero()


def test_motive_entries_reject_non_integers_cold_and_warm():
    # _motive is memoized, and its entry of (4, 2) also answers (4.0, 2)
    _motive.cache_clear()
    for warm in (False, True):
        if warm:
            assert MotiveTable().get(4, 2) == poly({4: 2, 2: -3, 1: 1})
        with pytest.raises(TypeError):
            MotiveTable().get(4.0, 2)
        with pytest.raises(TypeError):
            motive_table_csv([(4, 2.0)])


def test_ranks_reject_non_integers_cold_and_warm():
    # the walk's sums are read by the checked rank, and 2.0 == 2 as an index
    _staircase_walk.cache_clear()
    for warm in (False, True):
        if warm:
            assert staircase_motive(2) == poly({2: 1})
            assert staircase_table_csv(2).endswith("2,q^2\n")
        for call in (
            lambda: staircase_motive(2.0),
            lambda: staircase_motive("3"),
            lambda: staircase_table_csv(2.0),
        ):
            with pytest.raises(TypeError):
                call()


@functools.cache
def _reference_motive(a, b):
    """The three-term motive recursion on {exponent: coefficient} dicts."""
    if a < 0 or b < 0 or a < b or (a - b) % 2:
        return {}
    if a == 0:
        return {0: 1}
    mid = (a + b - 2) // 2
    out = {}
    for e, sign, (a0, b0) in (
        (b, 1, (a - 2, b)),
        (mid, 1, (a - 1, b - 1)),
        (b - 1, -1, (a - 1, b - 1)),
        (a, 1, (a, b - 2)),
        (mid, -1, (a, b - 2)),
    ):
        for f, c in _reference_motive(a0, b0).items():
            out[e + f] = out.get(e + f, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def test_packed_motives_match_the_reference_recursion():
    _motive.cache_clear()
    for a in range(-1, 49):
        for b in range(-1, 49 - max(a, 0)):  # every a + b <= 48
            assert _motive(a, b) == poly(_reference_motive(a, b)), (a, b)

    def reference(d):
        return sum((poly(_reference_motive(2 * d - b, b)) for b in range(d + 1)), poly({}))

    # descending from 40 walks to 40 at once, then reads the sums below it
    for ranks in (range(40, -1, -1), (15, 16, 17, 31, 32, 33)):
        _staircase_walk.cache_clear()
        for d in ranks:
            assert staircase_motive(d) == reference(d), d


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_motive_entries_do_not_depend_on_query_order(order):
    entries = [(2 * top - b, b) for top in range(25) for b in range(top + 1)]
    if order == "descending":
        entries.reverse()
    elif order == "shuffled":
        random.Random(28).shuffle(entries)
    _motive.cache_clear()
    _antidiagonal.cache_clear()
    for a, b in entries:
        assert MotiveTable().get(a, b) == poly(_reference_motive(a, b)), (a, b)
        assert _antidiagonal.cache_info().currsize == 1  # one prefix, never more


def test_motive_entries_walk_only_as_wide_as_asked(monkeypatch):
    walks = []
    walk = varieties._motive_rows

    def spy(top, width):
        walks.append((top, width))
        return walk(top, width)

    monkeypatch.setattr(varieties, "_motive_rows", spy)
    _motive.cache_clear()
    _antidiagonal.cache_clear()
    assert MotiveTable().get(128, 0) == 1
    assert walks == [(64, 1)]
    # a narrower entry of the last antidiagonal reads its prefix; a wider
    # one walks again, and another antidiagonal walks its own
    for a, b in [(40, 8), (44, 4), (38, 10), (20, 2)]:
        assert MotiveTable().get(a, b) == poly(_reference_motive(a, b))
    assert walks == [(64, 1), (24, 9), (24, 11), (11, 3)]
    assert len(_antidiagonal(11)[0]) == 3


def test_motive_ranks_past_the_limit_raise_before_any_walk(monkeypatch):
    def no_walk(*args):  # stands in for _motive_rows, _staircase_levels and _staircase_walk
        raise AssertionError(f"walked {args}")

    monkeypatch.setattr(varieties, "_motive_rows", no_walk)
    monkeypatch.setattr(varieties, "_staircase_levels", no_walk)
    monkeypatch.setattr(varieties, "_staircase_walk", no_walk)
    _motive.cache_clear()
    limit = 2 * MAX_MOTIVE_D
    for call, message in (
        (lambda: staircase_motive(10**9), f"staircase motives stop at rank {MAX_MOTIVE_D}"),
        (lambda: staircase_motive(MAX_MOTIVE_D + 1), "stop at rank"),
        (lambda: staircase_table_csv(MAX_MOTIVE_D + 1), "stop at rank"),
        (lambda: MotiveTable().get(limit + 1, 1), f"motive table entries stop at a = {limit}"),
        (lambda: MotiveTable().get(10**9, 10**9), "stop at a"),
        (lambda: motive_table_csv([(limit + 2, 0)]), "stop at a"),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    # entries outside the cone stay zero without a walk at any size
    assert MotiveTable().get(10**9, 10**9 + 2).is_zero()


def test_packing_width_fits_the_bound():
    # bits for signed digits of absolute value <= bound, a multiple of 8
    assert [_digit_width(5**top) for top in (0, 16, 64, 128)] == [8, 40, 152, 304]
    for bound in (0, 1, 2**6 - 1, 2**6, 2**30, 5**77):
        w = _digit_width(bound)
        assert w % 8 == 0 and bound < 2 ** (w - 2) and w - 8 < bound.bit_length() + 2


def test_rank_64_is_pinned():
    digests = {
        "ca2b79f7009ad44f24eb233a53ce690bdd9edfb0b632c7ebd5bce24e0c84ce2a": staircase_motive(64),
        "47ee6307231285711b809d61b973f4cb7d17e947cdc60afe665b7afe4bc2a2bf": MotiveTable().get(64, 64),
    }
    for digest, value in digests.items():
        assert hashlib.sha256(str(value).encode()).hexdigest() == digest
    assert MotiveTable().get(128, 0) == 1
    assert staircase_motive(64).evaluate(1) == 1


def test_staircase_table_to_rank_64_is_pinned():
    digest = hashlib.sha256(staircase_table_csv(64).encode()).hexdigest()
    assert digest == "47efc6d02914b1f896c6323a3708f718786ab6084776fcc1d7e24bd49df44726"


@functools.cache
def _staircase_from_row_0():
    """Every rank to 64 as the row sums of one walk of _motive_rows from row
    0, decoded through the checking constructor: the entry walk, which
    shares no recursion with the level walk of staircase_motive."""
    w = _digit_width(5**64)
    return [poly(dict(enumerate(_digits(sum(row), w)))) for row in varieties._motive_rows(64, 65)]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_staircase_blocks_match_a_walk_from_row_0(order):
    ranks = list(range(MAX_MOTIVE_D + 1))
    if order == "descending":
        ranks.reverse()
    elif order == "shuffled":
        random.Random(32).shuffle(ranks)
    reference = _staircase_from_row_0()
    for d in ranks:
        _staircase_walk.cache_clear()
        assert staircase_motive(d) == reference[d], (order, "cold", d)
    _staircase_walk.cache_clear()
    for d in ranks:
        assert staircase_motive(d) == reference[d], (order, "warm", d)


def _spy_on_walks(monkeypatch):
    """The top of every _staircase_levels walk, and the width of every decode."""
    walks, decoded = [], []
    walk, unpack = varieties._staircase_levels, varieties._unpack

    def spy_walk(top):
        walks.append(top)
        return walk(top)

    def spy_unpack(n, w):
        decoded.append(w)
        return unpack(n, w)

    monkeypatch.setattr(varieties, "_staircase_levels", spy_walk)
    monkeypatch.setattr(varieties, "_unpack", spy_unpack)
    return walks, decoded


def test_a_cold_block_fills_every_block_below_it(monkeypatch):
    reference = _staircase_from_row_0()
    walks, decoded = _spy_on_walks(monkeypatch)
    _staircase_walk.cache_clear()
    assert staircase_motive(64) == reference[64]
    assert walks == [64] and decoded == [_digit_width(5**64)] * 65  # ranks 0..64 once
    for d in range(MAX_MOTIVE_D + 1):
        assert staircase_motive(d) == reference[d], d
    assert walks == [64] and len(decoded) == 65  # the lower ranks came with it


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_any_pass_decodes_each_rank_once(monkeypatch, seed):
    ranks = list(range(MAX_MOTIVE_D + 1))
    if seed is not None:
        random.Random(seed).shuffle(ranks)
    reference = _staircase_from_row_0()
    walks, decoded = _spy_on_walks(monkeypatch)
    _staircase_walk.cache_clear()
    for d in ranks:
        assert staircase_motive(d) == reference[d], d
    # one walk serves every order, each level walked and each rank decoded once
    assert walks == [64] and len(decoded) == 65


@pytest.mark.parametrize("where", ["decode", "walk"])
def test_a_raise_mid_walk_never_serves_another_ranks_sum(monkeypatch, where):
    # an interrupt between taking a rank and keeping its decode, or inside
    # the walk, must not leave the kept sums out of step with the ranks
    reference = _staircase_from_row_0()
    calls = []
    unpack, walk = varieties._unpack, varieties._staircase_levels

    def interrupt_once():
        calls.append(None)
        if len(calls) == 6:
            raise KeyboardInterrupt

    def flaky_unpack(n, w):
        interrupt_once()
        return unpack(n, w)

    def flaky_walk(top):
        for rank in walk(top):
            interrupt_once()
            yield rank

    if where == "decode":
        monkeypatch.setattr(varieties, "_unpack", flaky_unpack)
    else:
        monkeypatch.setattr(varieties, "_staircase_levels", flaky_walk)
    _staircase_walk.cache_clear()
    with pytest.raises(KeyboardInterrupt):
        staircase_motive(10)
    for d in [5, 4, 5, 6, 12, 0, 64, 10]:
        assert staircase_motive(d) == reference[d], (where, d)


def test_the_walk_holds_no_packed_row_once_rank_64_is_read():
    for ranks in ([64], [3, 64, 10], range(MAX_MOTIVE_D + 1)):
        _staircase_walk.cache_clear()
        for d in ranks:
            staircase_motive(d)
        sums, levels = _staircase_walk()
        assert len(sums) == 65
        assert inspect.getgeneratorstate(levels) == inspect.GEN_CLOSED and levels.gi_frame is None
    _staircase_walk.cache_clear()
    staircase_motive(63)  # the walk stays open below its last level
    assert inspect.getgeneratorstate(_staircase_walk()[1]) == inspect.GEN_SUSPENDED


def test_the_row_sums_of_the_table_are_the_staircase_motives():
    # the table's entry walk and the level walk share no recursion
    _motive.cache_clear()
    _antidiagonal.cache_clear()
    for d in [*range(25), 32]:
        total = sum((MotiveTable().get(2 * d - b, b) for b in range(d + 1)), poly({}))
        assert total == staircase_motive(d), d


def test_csv_exports():
    staircase = staircase_table_csv(3)
    assert staircase == (
        "d,polynomial\n"
        "0,1\n"
        "1,1\n"
        "2,q^2\n"
        "3,3*q^4 - 2*q^3\n"
    )
    assert motive_table_csv([(4, 2)]) == "a,b,polynomial\n4,2,2*q^4 - 3*q^2 + q\n"


# ---------------------------------------------------------------------------
# Module profiles


def _factorization_ops(X, Y):
    Y2 = Y * Y
    A = GFMatrix.block2(X, -Y2, -Y, X)
    Ap = GFMatrix.block2(X, Y2, Y, X)
    return A, Ap


def test_profile_frozen_rank_one():
    z = GFMatrix([[0]], 2)
    assert ab_profile(z, z) == AbProfile(a=2, b=0, w0=0, w1=1, w2=2)


def test_profile_rejects_non_module_pairs():
    with pytest.raises(ValueError):
        ab_profile(GFMatrix.identity(2, 2), GFMatrix.zero(2, 2, 2))
    with pytest.raises(ValueError):
        ab_profile(GFMatrix.zero(2, 2, 2), GFMatrix.zero(2, 2, 3))
    with pytest.raises(ValueError):
        ab_profile(GFMatrix.zero(2, 3, 2), GFMatrix.zero(2, 3, 2))


def test_profile_invariants_all_small_points():
    # p = 2, 3 and 5 read one-byte, two-byte and three-byte lanes
    for d, p in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3), (1, 5), (2, 5)]:
        seen = 0
        for X, Y in enumerate_v_d_points(d, p):
            prof = ab_profile(X, Y)
            assert prof.a + prof.b == 2 * d
            assert prof.w1 == d
            assert prof.w0 == prof.b
            assert prof.w2 == prof.a
            A, Ap = _factorization_ops(X, Y)
            assert len(Ap.kernel_basis()) == prof.a
            assert A.rank() == Ap.rank() == prof.b
            assert h0_t_exact(X, Y)
            seen += 1
        assert seen == FROZEN_V_COUNTS[(d, p)]


def test_profile_invariants_rank_four_full_sweep():
    seen = 0
    for X, Y in enumerate_v_d_points(4, 2):
        prof = ab_profile(X, Y)
        assert prof.a + prof.b == 8
        assert prof.w1 == 4
        assert prof.w0 == prof.b
        A, Ap = _factorization_ops(X, Y)
        assert len(Ap.kernel_basis()) == prof.a
        assert A.rank() == Ap.rank() == prof.b
        assert h0_t_exact(X, Y)
        seen += 1
    assert seen == FROZEN_V_COUNTS[(4, 2)]
    assert seen >= 200


@pytest.mark.parametrize("ker, spanned, t_rows, exact", [
    # a 2-dimensional H0 with T = 0: kernel 2, image 0
    ([(1, 0), (0, 1)], [], [[0, 0], [0, 0]], False),
    # T e1 = e2, T e2 = 0: image and kernel both span(e2)
    ([(1, 0), (0, 1)], [], [[0, 0], [1, 0]], True),
    # T = 1: T0^2 is not 0
    ([(1, 0), (0, 1)], [], [[1, 0], [0, 1]], False),
    # T e1 = e2, T e2 = e3, T e3 = 0 modulo span(e3): exact on the quotient
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 1)], [[0, 0, 0], [1, 0, 0], [0, 1, 0]], True),
    # the same T with nothing divided out: T^2 e1 = e3 survives
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [], [[0, 0, 0], [1, 0, 0], [0, 1, 0]], False),
])
def test_h0_exactness_is_decided_from_the_linear_data(ker, spanned, t_rows, exact):
    # every cusp module checked so far is exact, so the False branch is only
    # reachable through hand-built linear data, packed as _module packs it
    p, n = 3, len(t_rows)
    lanes = _row_lanes(p, n)
    T = GFMatrix(t_rows, p)
    rows, pivots = _rref(map(lanes.pack, spanned), lanes)
    packed_ker, free = _rref(map(lanes.pack, ker), lanes)

    def apply(z):
        return lanes.pack(T.apply(lanes.unpack(z, n)))

    assert _h0_exact(_Module.of(lanes, apply, packed_ker, free, rows, pivots)) is exact


def test_module_memo_never_serves_a_stale_point():
    # _module keeps only the last point: alternating any two points, some
    # with one matrix in common, must give what each computes from an empty
    # memo, and the ab_profile, h0_t_exact pair of the module-profile check
    # builds each point's module once
    points = list(enumerate_v_d_points(3, 2))
    fresh = {}
    for X, Y in points:
        _module.cache_clear()
        prof = ab_profile(X, Y)
        _module.cache_clear()
        fresh[X, Y] = (prof, h0_t_exact(X, Y))
    assert len({prof for prof, _ in fresh.values()}) > 1
    for (X, Y), (U, V) in itertools.permutations(points, 2):
        assert ab_profile(X, Y) == fresh[X, Y][0]
        assert h0_t_exact(U, V) == fresh[U, V][1]
        assert ab_profile(U, V) == fresh[U, V][0]
        assert h0_t_exact(X, Y) == fresh[X, Y][1]
        mod = _module(X, Y)
        assert all(type(part) is tuple for part in (mod.ker, mod.free, mod.rows, mod.pivots, mod.images))

    _module.cache_clear()
    for X, Y in points:
        prof = ab_profile(X, Y)
        assert h0_t_exact(X, Y) and prof == fresh[X, Y][0]
    assert _module.cache_info().misses == len(points) == 32


def test_h0_t_exact_refuses_non_module_pairs():
    with pytest.raises(ValueError, match="cusp relations"):
        h0_t_exact(GFMatrix.identity(2, 2), GFMatrix.zero(2, 2, 2))


@pytest.mark.parametrize("n, p, pairs", [(2, 2, 22), (2, 3, 105), (3, 2, 848)])
def test_profiles_of_every_cusp_pair_match_a_set_reference(n, p, pairs):
    # every (X, Y) with XY = YX and X^2 = Y^3, most of them not staircase
    # points; T0 on ker A / im A' is exact iff the preimages of its kernel
    # and of its image are the same set of vectors.  The profile's w0 and w1
    # are the dimensions of im A' and of that kernel preimage.  Every pair at
    # these sizes is exact, so w1 also pins the rank that exactness reads.
    cells = [(i, j) for i in range(n) for j in range(n)]
    roots = _commutant_roots(cells, cells, p)
    vectors = list(itertools.product(range(p), repeat=2 * n))
    zero, one = GFMatrix.zero(n, n, p), GFMatrix.identity(n, p)
    seen = 0
    for flat in itertools.product(range(p), repeat=n * n):
        Y = GFMatrix([flat[i * n : (i + 1) * n] for i in range(n)], p)
        for xs in roots.points(Y.rows):
            X = GFMatrix([xs[i * n : (i + 1) * n] for i in range(n)], p)
            A, Ap = _factorization_ops(X, Y)
            T = GFMatrix.block2(zero, Y, one, zero)
            assert A * T == T * A and Ap * T == T * Ap  # so T induces T0 on H0
            kernel = [v for v in vectors if not any(A.apply(v))]
            image = {Ap.apply(v) for v in vectors}
            t0_kernel = {v for v in kernel if T.apply(v) in image}
            t0_image = {
                tuple((a + b) % p for a, b in zip(tv, w))
                for tv in map(T.apply, kernel)
                for w in image
            }
            assert h0_t_exact(X, Y) == (t0_kernel == t0_image), (X.rows, Y.rows)
            prof = ab_profile(X, Y)
            assert prof.a + prof.b == 2 * n
            assert [p**prof.a, p**prof.w0, p**prof.w1] == [len(kernel), len(image), len(t0_kernel)]
            seen += 1
    assert seen == pairs


def _all_kernel_vectors(A, p):
    basis = A.kernel_basis()
    width = A.shape[1]
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = [0] * width
        for c, vec in zip(coeffs, basis):
            if c:
                v = [(x + c * y) % p for x, y in zip(v, vec)]
        yield tuple(v)


def test_extension_case_table():
    # Appending a kernel column pair moves (a, b) by one of three fixed
    # steps selected by the filtration position of the appended vector.
    p = 2
    step = {0: (2, 0), 1: (1, 1), 2: (0, 2)}
    cases_seen = set()
    for d in (1, 2, 3):
        for X, Y in enumerate_v_d_points(d, p):
            prof = ab_profile(X, Y)
            A, _ = _factorization_ops(X, Y)
            for u in _all_kernel_vectors(A, p):
                i = classify_kernel_vector(X, Y, u)
                cases_seen.add(i)
                X2, Y2 = extend_point(X, Y, u[:d], u[d:])
                prof2 = ab_profile(X2, Y2)
                assert (prof2.a - prof.a, prof2.b - prof.b) == step[i]
    assert cases_seen == {0, 1, 2}


def test_classify_rejects_non_kernel_vector():
    z = GFMatrix([[0, 0], [0, 0]], 2)
    x = GFMatrix([[0, 1], [0, 0]], 2)
    A, _ = _factorization_ops(x, z)
    bad = (0, 1, 0, 0)
    assert any(A.apply(bad))
    with pytest.raises(ValueError):
        classify_kernel_vector(x, z, bad)
    # a short vector was classified as its truncation
    with pytest.raises(ValueError, match="vector length"):
        classify_kernel_vector(x, z, (1,))


def test_classify_reduces_entries_before_packing():
    # an entry of -1 or p would borrow from, or carry into, the next lane of
    # the packed vector; shifted by +-p, every vector classifies the same
    for d, p in [(2, 2), (2, 3), (3, 3), (2, 5)]:
        rng = random.Random(f"shift:{d}:{p}")
        for X, Y in enumerate_v_d_points(d, p):
            A, _ = _factorization_ops(X, Y)
            for u in _all_kernel_vectors(A, p):
                shifted = [c + p * rng.choice((-2, -1, 1, 2)) for c in u]
                assert classify_kernel_vector(X, Y, shifted) == classify_kernel_vector(X, Y, u)
            for wrong in ((0,) * (2 * d - 1), (0,) * (2 * d + 1)):
                with pytest.raises(ValueError, match="^vector length does not match the matrix$"):
                    classify_kernel_vector(X, Y, wrong)


def test_extend_point_validates_lengths():
    z = GFMatrix([[0]], 2)
    with pytest.raises(ValueError):
        extend_point(z, z, (0, 0), (0,))


def test_enumeration_budget():
    with pytest.raises(BudgetError, match=f"would walk {13**6} candidates"):
        next(enumerate_v_d_points(3, 13))


# ---------------------------------------------------------------------------
# packed F_p lanes


def _pack(values, w):
    return sum(v << (i * w) for i, v in enumerate(values))


def _unpack(x, w, size):
    return [(x >> (i * w)) & ((1 << w) - 1) for i in range(size)]


def _lane_cases():
    for p in (2, 3, 5, 7, 67, 4099):
        largest = p ** _lane_coords(p, 12)
        for size in sorted({1, p, largest}):
            # the closure test's bound and a commutant walk's of 12 products
            for bound in (p * p - 1, 12 * (p - 1) ** 2 + p - 1):
                yield p, size, bound


@pytest.mark.parametrize("p, size, bound", list(_lane_cases()))
def test_lanes_agree_with_per_entry_arithmetic(p, size, bound):
    rng = random.Random(f"{p}:{size}:{bound}")
    lanes = _Lanes(p, size, bound)
    w = lanes.width
    assert w % 8 == 0 and lanes.ones == _pack([1] * size, w)
    # reduce: random lanes, then every lane at the largest value allowed
    for values in ([rng.randrange(bound + 1) for _ in range(size)], [bound] * size):
        assert _unpack(lanes.reduce(_pack(values, w)), w, size) == [v % p for v in values]
    residues = [rng.randrange(p) for _ in range(size)]
    residues[rng.randrange(size)] = 0
    x = _pack(residues, w)
    assert _unpack(lanes.nonzero(x), w, size) == [(1 << (w - 1)) * bool(r) for r in residues]
    assert lanes.nonzero(x).bit_count() == sum(map(bool, residues))
    # a product of a lane in 1..p and a residue, for a varying and a constant
    # multiplier column; (p - 1)^2 + p - 1 more is still within the bound
    factors = [rng.randrange(1, p + 1) for _ in range(size)]
    for column in (residues, [p - 1] * size, [0] * size):
        product = lanes.multiplier(_pack(column, w))(_pack(factors, w))
        assert _unpack(product, w, size) == [a * b for a, b in zip(factors, column)]
        low = _pack([p - 1] * size, w)
        assert _unpack(lanes.reduce(product + low), w, size) == [
            (a * b + p - 1) % p for a, b in zip(factors, column)
        ]
    # select reads the chosen lanes, ascending, off the columns
    chosen = sorted(rng.sample(range(size), min(size, 5)))
    mask = _pack([1 << (w - 1) if i in chosen else 0 for i in range(size)], w)
    assert list(lanes.select([x, lanes.ones], mask)) == [[residues[i], 1] for i in chosen]


def test_lane_digits_follow_product_order():
    for p, count in ((2, 12), (3, 7), (5, 5), (67, 1), (4099, 0)):
        assert _lane_coords(p, 99) == count and p ** count <= _COLUMN < p ** (count + 1)
        lanes = _Lanes(p, p**count, p * p - 1)
        digits = [_unpack(col, lanes.width, lanes.size) for col in lanes.digits]
        assert len(digits) == count
        if count:
            assert list(zip(*digits)) == list(itertools.product(range(p), repeat=count))
    assert _lane_coords(2, 5) == 5
    with pytest.raises(ValueError, match="not a power"):
        _Lanes(3, 10, 8)
