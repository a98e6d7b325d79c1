"""Groebner machinery for finite-colength submodules of the free module
over the subring generated by the square and the cube of the uniformizer."""

import ast
import itertools
import os
import random
import subprocess
import sys

import pytest

import cuspquot
from cuspquot import groebner, oracles, strata
from cuspquot.groebner import (
    Element,
    Monomial,
    PreBasis,
    TruncationError,
    divide,
    divides,
    is_groebner,
    is_groebner_general,
    lcm_set,
    membership,
    reduce_basis,
)
from cuspquot.oracles import count_stratum_bruteforce, stratum_slots
from cuspquot.strata import LeadingTermDatum
from cuspquot.varieties import GFMatrix


def M(t_deg, seat):
    return Monomial(t_deg, seat)


# ---------------------------------------------------------------------------
# Monomials and divisibility


def test_monomial_lives_in_strata():
    # strata holds the leading-term vocabulary and imports nothing from groebner
    assert groebner.Monomial is strata.Monomial
    with open(strata.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    assert not any(
        isinstance(node, ast.ImportFrom) and (node.module or "").endswith("groebner")
        for node in ast.walk(tree)
    )


def test_monomial_order_is_degree_then_seat():
    assert M(2, 1) < M(2, 2) < M(3, 1) < M(3, 2)
    assert str(M(4, 2)) == "T^4*u2"


def test_monomial_order_has_type_omega():
    # Every monomial has finitely many predecessors, counted exactly.
    d = 3
    window = [M(t, s) for t in range(2, 12) for s in range(1, d + 1)]
    for mono in window:
        below = sum(1 for nu in window if nu < mono)
        assert below == (mono.t_deg - 2) * d + (mono.seat - 1)


def test_divides_frozen_cases():
    assert divides(M(2, 1), M(3, 1)) is None  # gap of 1 is not in the ring
    assert divides(M(2, 1), M(5, 1)) == 3
    assert divides(M(2, 1), M(2, 1)) == 0
    assert divides(M(2, 1), M(2, 2)) is None  # seats differ
    assert divides(M(3, 1), M(2, 1)) is None  # cannot divide downward
    assert divides(M(2, 1), M(4, 1)) == 2


def test_lcm_set_frozen_cases():
    assert lcm_set(M(2, 1), M(3, 1)) == (M(5, 1), M(6, 1))
    assert lcm_set(M(3, 1), M(2, 1)) == (M(5, 1), M(6, 1))
    assert lcm_set(M(2, 1), M(2, 1)) == (M(2, 1),)
    assert lcm_set(M(2, 1), M(3, 2)) == ()
    assert lcm_set(M(2, 1), M(5, 1)) == (M(5, 1),)


def test_lcm_set_entries_are_common_multiples():
    for a in range(2, 8):
        for b in range(2, 8):
            for nu in lcm_set(M(a, 1), M(b, 1)):
                assert divides(M(a, 1), nu) is not None
                assert divides(M(b, 1), nu) is not None


# ---------------------------------------------------------------------------
# Elements


def test_element_construction_reduces_and_truncates():
    e = Element({M(2, 1): 5, M(3, 1): 3, M(9, 1): 1}, p=3, trunc=8)
    assert e.terms == {M(2, 1): 2}  # 5 % 3, 3 % 3 drops, T^9 truncated
    assert Element({(4, 2): 1}, p=2, trunc=8).terms == {M(4, 2): 1}
    with pytest.raises(ValueError):
        Element({M(1, 1): 1}, p=2, trunc=8)


def test_element_rejects_a_composite_modulus():
    # over Z/4 the leading coefficient 2 has no inverse (monic() returned 0)
    # and e + e was computed mod 4; construction now refuses the modulus
    with pytest.raises(ValueError, match="4 is not a prime"):
        Element({M(2, 1): 2}, 4, 6)
    with pytest.raises(ValueError, match="9 is not a prime"):
        Element.zero(9, 6)
    with pytest.raises(ValueError, match="1 is not a prime"):
        Element.monomial(M(2, 1), 1, 6)


def test_element_leading_term_is_order_least():
    e = Element({M(5, 1): 1, M(2, 2): 1, M(2, 1): 2}, p=3, trunc=8)
    assert e.leading_monomial() == M(2, 1)
    assert e.leading_coeff() == 2
    assert e.monic().leading_coeff() == 1
    assert e.monic().scale(2) == e
    with pytest.raises(ValueError):
        Element.zero(3, 8).leading_monomial()


def test_element_shift_stays_in_ring():
    e = Element.monomial(M(2, 1), 2, 12)
    assert e.shift(0) == e
    assert e.shift(3) == Element.monomial(M(5, 1), 2, 12)
    with pytest.raises(ValueError):
        e.shift(1)
    with pytest.raises(ValueError):
        e.shift(-2)


def test_element_rejects_non_integer_degrees_seats_and_coefficients():
    # a float degree passed through: reduce_basis reported codimension 1.5
    with pytest.raises(TypeError):
        reduce_basis([Element({M(2.5, 1): 1}, 2, 12)], 1)
    for terms in [{M(2.0, 1): 1}, {M(2, 1.0): 1}, {M(2, 1): 1.5}, {(4, 2): 1.0}]:
        with pytest.raises(TypeError):
            Element(terms, 3, 12)
    with pytest.raises(TypeError):
        Element.monomial(M(2, 1), 2, 12).shift(2.5)
    # p = 2.0 stored the coefficient 1.0, trunc = 12.5 was kept, scale(2.5)
    # returned the coefficient 2.5
    for p, trunc in [(2.0, 12), (3, 12.5)]:
        with pytest.raises(TypeError):
            Element({M(2, 1): 1}, p, trunc)
    with pytest.raises(TypeError):
        Element.monomial(M(2, 1), 3, 12).scale(2.5)


def test_element_mixed_context_rejected():
    a = Element.monomial(M(2, 1), 2, 8)
    b = Element.monomial(M(2, 1), 3, 8)
    c = Element.monomial(M(2, 1), 2, 10)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - c


# ---------------------------------------------------------------------------
# Division


def test_divide_frozen_example():
    f = Element({M(5, 1): 1, M(6, 1): 1}, p=2, trunc=8)
    g = Element.monomial(M(5, 1), 2, 8)
    quots, rem = divide(f, [g])
    assert rem == Element.monomial(M(6, 1), 2, 8)  # T^6/T^5 needs T^1
    assert quots == ({0: 1},)


def test_divide_first_divisor_in_list_order_takes_a_term():
    # Both leads T^2 and T^5 divide T^5 and the T^7 that cancelling T^5 by
    # T^2 + T^4 leaves: the earlier divisor in the list takes each term.
    p, trunc = 2, 10
    f = Element.monomial(M(5, 1), p, trunc)
    g = Element({M(2, 1): 1, M(4, 1): 1}, p, trunc)
    h = Element.monomial(M(5, 1), p, trunc)
    assert divide(f, [g, h]) == (({3: 1, 5: 1, 7: 1}, {}), Element.zero(p, trunc))
    assert divide(f, [h, g]) == (({0: 1}, {}), Element.zero(p, trunc))


def test_divide_rejects_zero_divisor():
    f = Element.monomial(M(2, 1), 2, 8)
    with pytest.raises(ValueError):
        divide(f, [Element.zero(2, 8)])


def _apply_ring_poly(coeffs, g):
    out = Element.zero(g.p, g.trunc)
    for s, c in coeffs.items():
        out = out + g.shift(s).scale(c)
    return out


def test_divide_expression_contract_random():
    rng = random.Random(7041)
    for _ in range(60):
        d = rng.randrange(1, 4)
        p = rng.choice([2, 3])
        trunc = 12
        def rand_elem():
            terms = {
                M(rng.randrange(2, 10), rng.randrange(1, d + 1)): rng.randrange(1, p)
                for _ in range(rng.randrange(1, 4))
            }
            return Element(terms, p, trunc)
        f = rand_elem()
        divisors = [rand_elem() for _ in range(rng.randrange(1, 4))]
        quots, rem = divide(f, divisors)
        # no remainder term divisible by any divisor lead
        for mono in rem.terms:
            assert all(divides(g.leading_monomial(), mono) is None for g in divisors)
        # the expression reconstructs f and no product starts above f's lead
        recon = rem
        for qd, g in zip(quots, divisors):
            prod = _apply_ring_poly(qd, g)
            if not prod.is_zero() and not f.is_zero():
                assert prod.leading_monomial() >= f.leading_monomial()
            recon = recon + prod
        assert recon == f


def test_divide_contract_rebuilds_the_dividend_without_the_sweep(monkeypatch):
    # a sweep that subtracts a wrong multiple of a divisor must be caught; the
    # check rebuilds f from the divisors' own terms, not through Element.shift
    shift = Element.shift

    def dropping_the_top_term(self, s):
        out = shift(self, s)
        return Element._reduced(dict(sorted(out.terms.items())[:-1]), out.p, out.trunc)

    monkeypatch.setattr(Element, "shift", dropping_the_top_term)
    g = Element({M(2, 1): 1, M(5, 1): 1}, 3, 12)
    with pytest.raises(ArithmeticError, match="do not reconstruct the dividend"):
        divide(Element.monomial(M(4, 1), 3, 12), [g])


def test_contract_checks_survive_python_O():
    # a forced breach of the final standard-basis check must raise under -O too
    script = (
        "import sys\n"
        "from cuspquot import groebner\n"
        "groebner.is_groebner = lambda pb: False\n"
        "gen = groebner.Element.monomial(groebner.Monomial(3, 1), 2, 12)\n"
        "try:\n"
        "    groebner.reduce_basis([gen], d=1)\n"
        "except ArithmeticError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    src = os.path.dirname(os.path.dirname(cuspquot.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 the reduced basis fails the standard-basis criterion\n"


# ---------------------------------------------------------------------------
# PreBasis validation


def test_prebasis_validation():
    p, trunc = 2, 10
    g0 = Element.monomial(M(2, 1), p, trunc)
    g1 = Element.monomial(M(3, 1), p, trunc)
    pb = PreBasis([g0, g1], d=1)
    assert len(pb) == 2
    assert list(pb) == [g0, g1]
    with pytest.raises(ValueError):
        PreBasis([], d=1)
    with pytest.raises(ValueError):
        PreBasis([Element.zero(p, trunc)], d=1)
    with pytest.raises(ValueError):
        PreBasis([Element.monomial(M(2, 2), p, trunc)], d=1)  # seat out of range
    with pytest.raises(ValueError):
        PreBasis([g0, Element.monomial(M(4, 1), p, trunc)], d=1)  # T^2 | T^4


# ---------------------------------------------------------------------------
# Reduction to the unique reduced basis


def test_reduce_basis_frozen_single_generator():
    gen = Element({M(2, 1): 1, M(3, 1): 1}, p=5, trunc=10)
    gb = reduce_basis([gen], d=1)
    assert isinstance(gb.datum, LeadingTermDatum)
    assert gb.datum.n() == 1
    assert gb.datum.seat_ideals() == [("J", 1)]
    assert gb.datum.corners() == [M(2, 1)]
    assert gb.datum.standard_set() == [M(3, 1)]
    assert gb.elements == (gen,)


def test_reduce_basis_frozen_codimensions():
    p, trunc = 3, 12
    pair = [Element.monomial(M(2, 1), p, trunc), Element.monomial(M(3, 1), p, trunc)]
    gb0 = reduce_basis(pair, d=1)
    assert gb0.datum.n() == 0
    assert gb0.datum.seat_ideals() == [("K", 0)]
    assert gb0.datum.standard_set() == []

    gb1 = reduce_basis(
        [Element.monomial(M(3, 1), p, trunc), Element.monomial(M(4, 1), p, trunc)],
        d=1,
    )
    assert gb1.datum.n() == 1
    assert gb1.datum.seat_ideals() == [("K", 1)]
    assert gb1.datum.standard_set() == [M(2, 1)]

    gb2 = reduce_basis([Element.monomial(M(3, 1), p, trunc)], d=1)
    assert gb2.datum.n() == 2
    assert gb2.datum.seat_ideals() == [("J", 2)]
    assert gb2.datum.standard_set() == [M(2, 1), M(4, 1)]


def test_membership_frozen():
    p, trunc = 2, 12
    gb = reduce_basis([Element.monomial(M(3, 1), p, trunc)], d=1)
    assert membership(gb, Element.monomial(M(3, 1), p, trunc))
    assert membership(gb, Element.monomial(M(5, 1), p, trunc))
    assert membership(gb, Element({M(3, 1): 1, M(6, 1): 1}, p, trunc))
    assert not membership(gb, Element.monomial(M(2, 1), p, trunc))
    assert not membership(gb, Element.monomial(M(4, 1), p, trunc))


def test_truncation_errors():
    p, trunc = 2, 10
    with pytest.raises(TruncationError):
        reduce_basis([], d=1)
    with pytest.raises(TruncationError):
        reduce_basis([Element.zero(p, trunc)], d=1)
    with pytest.raises(TruncationError):
        # seat 2 never gets a corner
        reduce_basis([Element.monomial(M(2, 1), p, trunc)], d=2)
    with pytest.raises(TruncationError):
        # codimension 8 exceeds the certified bound (10-4)//2 = 3
        reduce_basis([Element.monomial(M(9, 1), p, trunc)], d=1)


def test_reduce_basis_refuses_a_seat_outside_the_rank():
    # each raised KeyError while grouping the corners by seat
    cases = [
        ([Element({M(2, 5): 1}, 2, 12)], 1),
        ([Element.monomial(M(2, 1), 2, 12)], 0),
        ([Element.monomial(M(2, 1), 2, 12), Element.monomial(M(3, 0), 2, 12)], 1),
    ]
    for gens, d in cases:
        with pytest.raises(ValueError, match="seat out of range"):
            reduce_basis(gens, d)


# ---------------------------------------------------------------------------
# Randomized uniqueness and codimension cross-check


def _random_module_generators(rng, d, p, trunc):
    """Random generating set of a small finite-codimension submodule."""
    gens = []
    for seat in range(1, d + 1):
        deg = rng.choice([2, 2, 2, 3])
        gens.append(Element.monomial(M(deg, seat), p, trunc))
    for _ in range(rng.randrange(1, 3)):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            mono = M(rng.randrange(2, 9), rng.randrange(1, d + 1))
            terms[mono] = rng.randrange(1, p)
        gens.append(Element(terms, p, trunc))
    return gens


def _scrambled_generators(rng, gb):
    """A different presentation of the same submodule: unit rescale each
    basis element, add ring multiples of earlier outputs (a triangular,
    invertible change), append redundant combinations, and shuffle."""
    p = gb.p
    out = []
    for g in gb.elements:
        h = g.scale(rng.randrange(1, p))
        for _ in range(rng.randrange(0, 3)):
            if out:
                k = rng.randrange(len(out))
                s = rng.choice([0, 2, 3, 4, 5])
                h = h + out[k].shift(s).scale(rng.randrange(1, p))
        if h.is_zero():
            h = g
        out.append(h)
    for _ in range(rng.randrange(0, 3)):
        i = rng.randrange(len(gb.elements))
        k = rng.randrange(len(gb.elements))
        extra = gb.elements[i].shift(rng.choice([2, 3])) + gb.elements[k].shift(
            rng.choice([0, 2])
        )
        if not extra.is_zero():
            out.append(extra)
    rng.shuffle(out)
    return out


def _window_codim(gens, d, p, trunc):
    """Codimension by plain linear algebra over the truncation window."""
    basis = [M(t, s) for t in range(2, trunc) for s in range(1, d + 1)]
    index = {mono: i for i, mono in enumerate(basis)}
    rows = []
    for g in gens:
        for s in [0] + list(range(2, trunc)):
            h = g.shift(s)
            if h.is_zero():
                continue
            row = [0] * len(basis)
            for mono, c in h.terms.items():
                row[index[mono]] = c
            rows.append(row)
    return len(basis) - GFMatrix(rows, p).rank()


def test_reduced_basis_uniqueness_100_trials():
    rng = random.Random(20240817)
    trunc = 16
    done = 0
    while done < 100:
        d = rng.randrange(1, 4)
        p = rng.choice([2, 3])
        gens = _random_module_generators(rng, d, p, trunc)
        gb = reduce_basis(gens, d)
        if gb.datum.n() > 4:
            continue
        # deterministic and presentation-independent
        assert reduce_basis(gens, d) == gb
        assert reduce_basis(list(reversed(gens)), d) == gb
        assert reduce_basis(gb.elements, d) == gb
        gb2 = reduce_basis(_scrambled_generators(rng, gb), d)
        assert gb2 == gb
        assert gb2.datum == gb.datum
        assert [g.leading_monomial() for g in gb.elements] == gb.datum.corners()
        # codimension agrees with a rank computation that never sees corners
        assert _window_codim(gens, d, p, trunc) == gb.datum.n()
        assert len(gb.datum.standard_set()) == gb.datum.n()
        assert is_groebner(gb.prebasis())
        done += 1


def test_remainder_by_a_reduced_basis_ignores_divisor_order():
    # the remainder by a standard basis is the normal form, whatever the
    # order in which the sweep tries the divisors
    rng = random.Random(20240817)
    trunc = 16
    for _ in range(100):
        d = rng.randrange(1, 4)
        p = rng.choice([2, 3])
        gb = reduce_basis(_random_module_generators(rng, d, p, trunc), d)
        orders = [list(gb.elements), list(reversed(gb.elements))]
        orders.append(rng.sample(gb.elements, len(gb.elements)))
        for f in _random_module_generators(rng, d, p, trunc):
            remainders = {divide(f, order).remainder for order in orders}
            assert len(remainders) == 1
            assert membership(gb, f - remainders.pop())


# ---------------------------------------------------------------------------
# Closure criterion: fast test vs. full pair test


def _candidate_bases(datum, p):
    """Every corner-plus-tails candidate basis over F_p for the datum."""
    slots = stratum_slots(datum)
    corners = datum.corners()
    trunc = 2 * datum.n() + 4
    for vals in itertools.product(range(p), repeat=len(slots)):
        elements = []
        for ci, c in enumerate(corners):
            terms = {c: 1}
            for ((cj, nu), v) in zip(slots, vals):
                if cj == ci and v:
                    terms[nu] = v
            elements.append(Element(terms, p, trunc))
        yield PreBasis(elements, datum.d)


def _small_data(max_d, max_n):
    for d in range(1, max_d + 1):
        choices = [("K", a) for a in range(max_n + 1)] + [
            ("J", a) for a in range(1, max_n + 1)
        ]
        for seats in itertools.product(choices, repeat=d):
            if sum(a for _, a in seats) <= max_n:
                yield LeadingTermDatum.from_seat_ideals(seats)


def test_adjacent_pair_criterion_agrees_with_full_criterion():
    # every passing candidate is the reduced basis of its own stratum, and
    # the passing candidates of a datum are the stratum's F_2-points
    passes = fails = 0
    for datum in _small_data(max_d=2, max_n=3):
        if len(stratum_slots(datum)) > 6:
            continue
        closed = 0
        for pb in _candidate_bases(datum, p=2):
            fast = is_groebner(pb)
            assert fast == is_groebner_general(pb)
            if fast:
                gb = reduce_basis(list(pb), datum.d)
                assert gb.elements == pb.elements
                assert gb.datum == datum
                closed += 1
            else:
                fails += 1
        assert closed == count_stratum_bruteforce(datum, 2), datum
        passes += closed
    assert passes > 0 and fails > 0


def test_single_corner_per_seat_is_always_closed():
    # One corner per seat leaves no adjacent pairs, so closure is automatic.
    datum = LeadingTermDatum.from_seat_ideals([("J", 2), ("J", 1)])
    for pb in _candidate_bases(datum, p=3):
        assert is_groebner(pb)
        assert is_groebner_general(pb)


def _random_prebasis(rng, datum, p):
    """Elements leading with the datum's corners: non-monic leads, random
    standard tails, one window monomial that a corner may divide, a multiple
    of another element added, and the elements shuffled."""
    corners, trunc = datum.corners(), 2 * datum.n() + 4
    window = [M(t, s) for t in range(2, trunc) for s in range(1, datum.d + 1)]
    elements = []
    for c in corners:
        tails = [nu for nu in datum.standard_set() if nu > c and rng.random() < 0.5]
        terms = {nu: rng.randrange(1, p) for nu in tails}
        extra = rng.choice(window)
        if extra > c:
            terms[extra] = rng.randrange(1, p)
        terms[c] = rng.randrange(1, p)
        elements.append(Element(terms, p, trunc))
    for j, g in enumerate(elements):
        k, s = rng.randrange(len(elements)), rng.choice([0, 2, 3])
        if M(corners[k].t_deg + s, corners[k].seat) > corners[j]:
            elements[j] = g + elements[k].shift(s).scale(rng.randrange(1, p))
    rng.shuffle(elements)
    return PreBasis(elements, datum.d)


def test_adjacent_pair_criterion_agrees_with_full_criterion_on_any_presentation():
    # 600 bases with a degree-adjacent pair at p in {2, 3, 5}, beyond the monic,
    # corner-ordered, reduced candidates of the agreement test over F_2
    rng = random.Random(20261019)
    outcomes = {True: 0, False: 0}
    divisible_tails = 0
    while sum(outcomes.values()) < 600:
        d, p = rng.randrange(1, 4), rng.choice([2, 3, 5])
        datum = LeadingTermDatum([rng.randrange(4) for _ in range(d)], rng.choices("JK", k=d))
        if "K" not in datum.colors:
            continue
        pb = _random_prebasis(rng, datum, p)
        leads = {g.leading_monomial() for g in pb}
        divisible_tails += any(
            divides(c, mono) is not None
            for g in pb for mono in g.terms if mono not in leads for c in leads
        )
        fast = is_groebner(pb)
        assert fast == is_groebner_general(pb), [str(g) for g in pb]
        outcomes[fast] += 1
    assert min(outcomes.values()) > 20, outcomes
    assert divisible_tails > 300, divisible_tails


def test_is_groebner_and_the_stratum_oracle_share_one_closure_test(monkeypatch):
    assert oracles._closed_count is groebner._closed_count
    assert not hasattr(oracles, "_closed_candidates") and not hasattr(oracles, "_axpy")
    sizes = []
    closed_count = groebner._closed_count

    def recording(corners, elements, p, trunc, size):
        sizes.append(size)
        return closed_count(corners, elements, p, trunc, size)

    monkeypatch.setattr(groebner, "_closed_count", recording)
    monkeypatch.setattr(oracles, "_closed_count", recording)
    pb = PreBasis([Element({M(2, 1): 1, M(4, 1): 1}, 3, 12), Element({M(3, 1): 2}, 3, 12)], 1)
    assert is_groebner(pb)
    assert sizes == [1]
    assert count_stratum_bruteforce(strata.parse_datum("(K(0),K(2),J(2))"), 2) == 256
    assert sizes == [1, 256]


def test_closure_test_rebuilds_the_dividend_without_its_shift(monkeypatch):
    # a sweep shift that drops the top term must be caught: the check rebuilds
    # the dividend from the elements' own terms, not through groebner._shifted
    pb = PreBasis([Element({M(2, 1): 1, M(4, 1): 1}, 3, 12), Element({M(3, 1): 1}, 3, 12)], 1)
    assert is_groebner(pb)
    shifted = groebner._shifted

    def dropping_the_top_term(element, s, trunc):
        return shifted(element, s, trunc)[:-1]

    monkeypatch.setattr(groebner, "_shifted", dropping_the_top_term)
    with pytest.raises(ArithmeticError, match="do not reconstruct the dividend"):
        is_groebner(pb)
