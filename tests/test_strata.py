"""Leading-term data, spiral raising operators, and the stable orbit
decomposition that the series assembly sums over."""

import itertools
import random
from fractions import Fraction

import pytest

from cuspquot.strata import (
    LeadingTermDatum,
    Monomial,
    Orbit,
    base_level_walk,
    parse_datum,
    rank_seats,
    stable_orbit_decomposition,
    zero_datum,
)

from orbit_reference import apply_address, gamma_inverse, is_stable, orbit_address


def M(t_deg, seat):
    return Monomial(t_deg, seat)


WORKED = parse_datum("(K(0),K(2),J(2))")


# ---------------------------------------------------------------------------
# Construction, parsing, printing


def test_parse_str_roundtrip():
    for text in ["(K(0))", "(J(1))", "(K(1),J(1),K(0))", "(K(0),K(2),J(2))"]:
        assert str(parse_datum(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_datum("()")
    with pytest.raises(ValueError):
        parse_datum("(K(0), nonsense)")
    with pytest.raises(ValueError):
        parse_datum("L(2)")


def test_constructor_validation():
    with pytest.raises(ValueError):
        LeadingTermDatum([0, 1], ["K"])
    with pytest.raises(ValueError):
        LeadingTermDatum([-1], ["K"])
    with pytest.raises(ValueError):
        LeadingTermDatum([0], ["X"])
    # int() truncated 2.7 to level 2
    for level in (2.7, 2.0, "2"):
        with pytest.raises(TypeError):
            LeadingTermDatum([level], ["K"])


def test_from_seat_ideals_validation():
    with pytest.raises(ValueError):
        LeadingTermDatum.from_seat_ideals([("J", 0)])
    with pytest.raises(ValueError):
        LeadingTermDatum.from_seat_ideals([("K", -1)])
    with pytest.raises(ValueError):
        LeadingTermDatum.from_seat_ideals([("L", 2)])


# ---------------------------------------------------------------------------
# Worked example: (K(0), K(2), J(2))


def test_worked_example_shape():
    assert WORKED.levels == (0, 2, 1)
    assert WORKED.colors == ("K", "J", "K")  # rank order: seats 1, 3, 2
    assert WORKED.rank_order() == [1, 3, 2]
    assert WORKED.n() == 4


def test_rank_seats_break_level_ties_by_seat():
    assert rank_seats(WORKED.levels) == [0, 2, 1]
    assert rank_seats([2, 0, 2, 0]) == [1, 3, 0, 2]
    assert rank_seats([]) == []
    # gamma_j keeps every rank: the raised datum ranks its colors the same way
    for j in (1, 2, 3):
        raised = WORKED.gamma(j)
        assert [raised.seat_ideals()[s][0] for s in rank_seats(raised.levels)] == list(WORKED.colors)


def test_worked_example_corners_and_standard_set():
    assert WORKED.corners() == [M(2, 1), M(3, 1), M(3, 3), M(4, 2), M(5, 2)]
    assert WORKED.standard_set() == [M(2, 2), M(2, 3), M(3, 2), M(4, 3)]
    assert WORKED.first_corners() == [M(2, 1), M(3, 3), M(4, 2)]


def test_worked_example_exponents():
    assert WORKED.exponents() == (1, 6)


def test_worked_example_restrict_to_K():
    assert WORKED.restrict_to_K() == parse_datum("(K(0),K(2))")


# ---------------------------------------------------------------------------
# Basic invariants


def test_colength_counts_levels_plus_J():
    assert parse_datum("(K(0))").n() == 0
    assert parse_datum("(J(1))").n() == 1
    assert zero_datum("KJK").n() == 1
    assert zero_datum("JJJ").n() == 3


def test_standard_set_size_is_colength():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randrange(1, 5)
        x = LeadingTermDatum(
            [rng.randrange(0, 6) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        assert len(x.standard_set()) == x.n()


def test_distance_matches_floor_formula():
    rng = random.Random(17)
    for _ in range(300):
        d = rng.randrange(2, 7)
        x = LeadingTermDatum(
            [rng.randrange(0, 7) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        comps = x.ranked_components()
        dm = x.distance_matrix()
        for (b, h), delta in dm.items():
            lb, sb, _ = comps[b - 1]
            lh, sh, _ = comps[h - 1]
            floor_val = (
                Fraction(lh) + Fraction(sh, d) - Fraction(lb) - Fraction(sb, d)
            )
            assert delta == floor_val.__floor__()
            assert delta == x.distance(b, h)


def test_distance_refuses_ranks_outside_the_datum():
    # rank 0 wrapped to the last rank, reversed or equal ranks gave a
    # number, and rank 4 raised IndexError
    x = parse_datum("(K(1),J(3),K(0))")
    assert x.distance(1, 3) == 1
    for b, h in [(0, 2), (3, 1), (2, 2), (1, 4)]:
        with pytest.raises(ValueError, match="need 1 <= b < h <= 3"):
            x.distance(b, h)


def test_exponents_frozen_small_cases():
    assert zero_datum("KJ").exponents()[0] == 1  # one ranked (K, J) pair
    assert zero_datum("JK").exponents()[0] == 0
    for colors in itertools.product("JK", repeat=3):
        b, delta = zero_datum(colors).exponents()
        n_j = colors.count("J")
        assert delta == 3 * n_j  # every rank sees every J-seat tail
        assert zero_datum(colors).n() == n_j


# ---------------------------------------------------------------------------
# Raising operators


def test_gamma_frozen_level_example():
    x = LeadingTermDatum([2, 3, 1, 2, 0, 3, 1], ["K"] * 7)
    assert x.gamma(5).levels == (2, 4, 1, 3, 0, 2, 1)


def test_gamma_frozen_ideal_examples():
    x = parse_datum("(K(1),J(1),K(0))")
    assert str(x.gamma(1)) == "(K(1),K(1),J(1))"
    assert str(x.gamma(3)) == "(K(2),J(1),K(0))"


def test_gamma_index_range():
    x = zero_datum("KK")
    with pytest.raises(ValueError):
        x.gamma(0)
    with pytest.raises(ValueError):
        x.gamma(3)


def test_gamma_operators_commute():
    rng = random.Random(2024)
    for _ in range(500):
        d = rng.randrange(1, 7)
        x = LeadingTermDatum(
            [rng.randrange(0, 7) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        i = rng.randrange(1, d + 1)
        j = rng.randrange(1, d + 1)
        assert x.gamma(i).gamma(j) == x.gamma(j).gamma(i)


def test_gamma_increments_colength():
    rng = random.Random(31)
    for _ in range(300):
        d = rng.randrange(1, 7)
        x = LeadingTermDatum(
            [rng.randrange(0, 7) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        j = rng.randrange(1, d + 1)
        assert x.gamma(j).n() == x.n() + 1


def test_gamma_inverse_roundtrip():
    rng = random.Random(47)
    for _ in range(300):
        d = rng.randrange(1, 6)
        x = LeadingTermDatum(
            [rng.randrange(0, 5) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        j = rng.randrange(1, d + 1)
        y = x.gamma(j)
        assert gamma_inverse(y, j) == x
        back = gamma_inverse(x, j)
        if back is not None:
            assert back.gamma(j) == x


# ---------------------------------------------------------------------------
# Stretches


def test_stretches_frozen_cases():
    x = LeadingTermDatum([2, 3, 1, 2, 0, 3, 1], ["K"] * 7)
    assert x.stretches(1) == []
    st5 = x.stretches(5)
    assert len(st5) == 4
    assert sorted(b for b, _ in st5) == [1, 2, 3, 4]
    assert zero_datum("KK").stretches(2) == [(1, 2)]


def test_stretch_count_and_distance_increments():
    rng = random.Random(88)
    for _ in range(400):
        d = rng.randrange(1, 7)
        x = LeadingTermDatum(
            [rng.randrange(0, 7) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        j = rng.randrange(1, d + 1)
        stretched = set(x.stretches(j))
        assert len(stretched) == j - 1
        y = x.gamma(j)
        for b in range(1, j):
            for h in range(j, d + 1):
                bump = 1 if (b, h) in stretched else 0
                assert y.distance(b, h) == x.distance(b, h) + bump


def test_exponent_update_law():
    # Raising adds j-1 to the tail exponent, minus one per stretch whose
    # lower component is J-colored at distance zero; the pair exponent
    # never moves.
    rng = random.Random(123)
    for _ in range(400):
        d = rng.randrange(1, 7)
        x = LeadingTermDatum(
            [rng.randrange(0, 7) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        j = rng.randrange(1, d + 1)
        b1, delta1 = x.exponents()
        b2, delta2 = x.gamma(j).exponents()
        obstructed = sum(
            1
            for (b, h) in x.stretches(j)
            if x.distance(b, h) == 0 and x.colors[b - 1] == "J"
        )
        assert b2 == b1
        assert delta2 == delta1 + (j - 1) - obstructed


# ---------------------------------------------------------------------------
# Stability


def test_is_stable_frozen_cases():
    assert is_stable(parse_datum("(K(0),K(3))"), 2)
    assert not is_stable(parse_datum("(K(0),K(2))"), 2)
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randrange(1, 6)
        x = LeadingTermDatum(
            [rng.randrange(0, 5) for _ in range(d)],
            [rng.choice("JK") for _ in range(d)],
        )
        assert is_stable(x, 1)


def test_stability_thresholds_by_color():
    # J lower component tolerates distance 1; K-K pairs need distance 3.
    assert is_stable(LeadingTermDatum([0, 1], ["J", "K"]), 2)
    assert not is_stable(LeadingTermDatum([0, 0], ["J", "K"]), 2)
    assert is_stable(LeadingTermDatum([0, 3], ["K", "K"]), 2)
    assert not is_stable(LeadingTermDatum([0, 2], ["K", "K"]), 2)
    assert is_stable(LeadingTermDatum([0, 0], ["K", "J"]), 2)


# ---------------------------------------------------------------------------
# Orbit addressing: levels are a free record of the raises applied


def test_orbit_address_frozen_rank_two():
    assert orbit_address(LeadingTermDatum([1, 0], ["K", "K"])) == (1, 0)
    assert orbit_address(LeadingTermDatum([0, 1], ["K", "K"])) == (0, 1)


def test_addresses_act_freely_and_transitively():
    # Exhaustively in small rank: distinct addresses give distinct data,
    # every datum strips back to its address, and each raise bumps one slot.
    for d in range(1, 5):
        for colors in itertools.product("JK", repeat=d):
            seen = {}
            for addr in itertools.product(range(3), repeat=d):
                x = apply_address(zero_datum(colors), addr)
                assert orbit_address(x) == addr
                assert x not in seen
                seen[x] = addr
                for j in range(1, d + 1):
                    bumped = list(addr)
                    bumped[j - 1] += 1
                    assert orbit_address(x.gamma(j)) == tuple(bumped)


def test_address_roundtrip_exhaustive_levels():
    for d in range(1, 4):
        for colors in itertools.product("JK", repeat=d):
            for levels in itertools.product(range(5), repeat=d):
                x = LeadingTermDatum(levels, colors)
                addr = orbit_address(x)
                assert apply_address(zero_datum(x.colors), addr) == x


# ---------------------------------------------------------------------------
# Stable orbit decomposition


def test_rank_one_decomposition():
    orbits = stable_orbit_decomposition(1)
    assert len(orbits) == 2
    bases = {str(o.base) for o in orbits}
    assert bases == {"(K(0))", "(J(1))"}
    assert all(o.generators == (1,) for o in orbits)


def test_orbit_count_formula():
    for d in range(1, 5):
        expected = 2 ** d
        for j in range(2, d + 1):
            expected *= 3 * (d - j + 1) + 1
        assert len(stable_orbit_decomposition(d)) == expected
    with pytest.raises(ValueError):
        stable_orbit_decomposition(0)


def test_decomposition_equals_the_addressed_zero_data():
    # the reference: each color vector's zero datum moved to every box address
    for d in range(1, 5):
        caps = [3 * (d - j + 1) for j in range(2, d + 1)]
        expected = []
        for colors in itertools.product("JK", repeat=d):
            for bs in itertools.product(*(range(c + 1) for c in caps)):
                base = apply_address(zero_datum(colors), (0,) + bs)
                gens = (1,) + tuple(
                    j for j, (b, cap) in enumerate(zip(bs, caps), start=2) if b == cap
                )
                expected.append(Orbit(base, gens))
        assert stable_orbit_decomposition(d) == expected
        assert base_level_walk(d) == [
            (o.base.levels, o.generators) for o in expected[: len(expected) >> d]
        ]
    with pytest.raises(ValueError):
        base_level_walk(0)


def _address_in_orbit(addr, base_addr, generators) -> bool:
    gens = set(generators)
    for j, (a, b) in enumerate(zip(addr, base_addr), start=1):
        diff = a - b
        if diff < 0 or (diff > 0 and j not in gens):
            return False
    return True


def test_orbits_partition_all_data():
    for d in range(1, 4):
        keyed = [
            (o.base.colors, orbit_address(o.base), o.generators)
            for o in stable_orbit_decomposition(d)
        ]
        for colors in itertools.product("JK", repeat=d):
            n_j = colors.count("J")
            for levels in itertools.product(range(13), repeat=d):
                if sum(levels) + n_j > 12:
                    continue
                datum = LeadingTermDatum(levels, colors)
                addr = orbit_address(datum)
                hits = sum(
                    1
                    for oc, oaddr, ogens in keyed
                    if oc == datum.colors and _address_in_orbit(addr, oaddr, ogens)
                )
                assert hits == 1


def test_orbit_bases_are_stable_under_their_generators():
    for d in range(1, 4):
        for orbit in stable_orbit_decomposition(d):
            for j in orbit.generators:
                assert is_stable(orbit.base, j)
