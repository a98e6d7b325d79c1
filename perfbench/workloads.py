"""The benchmark's workloads: job lists built from a seed, each job with its check.

A job is a name, a ``run`` callable and a ``check`` that returns True when the
value is right.  Every reference comes from another route than the one the job
exercises: the triangular solve for the at-prime numerators, closed forms for
the oracles, presentation independence for reduced bases, and the cold pass for
the warm CLI pass.  The seed picks inputs and job order but never the amount of
work.  Engine functions are reached through their modules (``series.solve_nh``)
so that the traced run sees the calls the checks make too.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from typing import Any, Callable, NamedTuple, Optional


class Job(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    tags: dict


WORKLOADS = ("rank4_prime", "symbolic_chain", "oracle_audit", "cli_session")

# staircase motives for d <= 8, pinned from the enumeration oracle
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

# Stratum-oracle data with 10 and 11 coefficient slots (8 of each).  Each has
# two or three K seats, so every candidate basis runs the S-element divisions.
STRATUM_DATA = {
    10: [
        "(K(3),K(0),J(3))", "(J(1),K(0),K(3))", "(K(2),J(4),K(0))", "(K(4),K(1),J(4))",
        "(K(1),K(4),J(3))", "(K(5),J(2),K(1))", "(K(6),K(2),K(2))", "(K(4),K(4),K(0))",
    ],
    11: [
        "(J(1),K(1),K(4))", "(K(1),J(4),K(0))", "(J(5),K(1),K(1))", "(K(4),K(0),J(2))",
        "(J(5),K(1),K(3))", "(K(5),K(2),K(0))", "(K(2),K(0),K(4))", "(K(3),K(0),K(4))",
    ],
}
STRATUM_PINNED = 2  # slots pinned per datum; the pinned calls cover all p^slots bases
REDUCE_TRIALS = 100


def build(workload: str, seed: int, cli_trace_dir: Optional[str] = None) -> list[Job]:
    """The job list; CLI children of a traced run write their spans to cli_trace_dir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_session":
        return _cli_session(rng, cli_trace_dir)
    groups = {
        "rank4_prime": _rank4_prime,
        "symbolic_chain": _symbolic_chain,
        "oracle_audit": _oracle_audit,
    }[workload](rng)
    # Groups run in a fixed order and the seed shuffles jobs inside each, so
    # which memos and tables are alive together (peak RSS) does not depend on
    # the seed.
    jobs = []
    for group in groups:
        rng.shuffle(group)
        jobs += group
    return jobs


def _job(name: str, run, check, **tags) -> Job:
    return Job(name, run, check, tags)


# ---------------------------------------------------------------------------
# rank4_prime: the at-prime engine through rank 4


def _at_q(tp, p: int) -> list:
    return [c.evaluate(p) for c in tp.coeffs]


def _constants(tp) -> Optional[list]:
    """Coefficients of an at-prime numerator, or None if one is not constant."""
    out = []
    for c in tp.coeffs:
        if set(c.terms) - {0}:
            return None
        out.append(c.coeff(0))
    return out


def _rank4_prime(rng: random.Random) -> list[list[Job]]:
    from cuspquot import series

    def check(d, p, squared, value):
        ref = _at_q(series.solve_nh(d), p)
        if squared:
            ref = [c for a in ref for c in (a, 0)][:-1]
        return _constants(value) == ref

    jobs = []
    for p in (2, 3):
        for d in range(1, 5):
            jobs.append(_job(
                f"hilb_numerator({d},{p})",
                lambda d=d, p=p: series.hilb_numerator(d, p),
                lambda v, d=d, p=p: check(d, p, False, v),
            ))
            jobs.append(_job(
                f"quot_numerator({d},{p})",
                lambda d=d, p=p: series.quot_numerator(d, p),
                lambda v, d=d, p=p: check(d, p, True, v),
            ))
    return [jobs]


# ---------------------------------------------------------------------------
# symbolic_chain: exact q-arithmetic with no enumeration


def _symbolic_chain(rng: random.Random) -> list[list[Job]]:
    from cuspquot import qalgebra, series, varieties

    def motive_ok(d, m):
        if m.evaluate(1) != 1:
            return False
        return d not in FROZEN_STAIRCASE or m == qalgebra.LaurentPolyQ(FROZEN_STAIRCASE[d])

    motives = [
        _job(f"staircase_motive({d})", lambda d=d: varieties.staircase_motive(d),
             lambda m, d=d: motive_ok(d, m))
        for d in range(65)
    ]

    # one fresh table, its a + b = 64 diagonal queried in seeded order
    diagonal = [(64 - b, b) for b in range(33)]
    rng.shuffle(diagonal)

    def table_run():
        table = varieties.MotiveTable()
        return {(a, b): table.get(a, b) for a, b in diagonal}

    def table_ok(entries):
        if any(v.evaluate(1) != (1 if b == 0 else 0) for (a, b), v in entries.items()):
            return False
        total = sum(entries.values(), qalgebra.LaurentPolyQ.zero())
        return total == varieties.staircase_motive(32)

    table = [_job("MotiveTable.get(a+b=64)", table_run, table_ok)]

    def conjecture_run(d):
        f = series.solve_nh(d)
        return (
            f,
            series.nh_guess(d),
            series.functional_equation_check(d, f),
            all(series.root_of_unity_check(d, r, f) for r in range(1, d + 1) if d % r == 0),
            series.cyclotomic_divisibility_check(d, f),
        )

    conjecture = [
        _job(f"solve_nh({d})", lambda d=d: conjecture_run(d),
             lambda v: v[0] == v[1] and all(v[2:]))
        for d in range(1, 17)
    ]

    def symbolic_run(d):
        return (series.hilb_numerator(d), series.quot_numerator(d),
                series.hilb_from_quot(d), series.hilb_series(d))

    def symbolic_ok(d, v):
        h, q, back, direct = v
        return h == series.solve_nh(d) and q == h.substitute_t_square() and back == direct

    symbolic = [
        _job(f"symbolic_series({d})", lambda d=d: symbolic_run(d),
             lambda v, d=d: symbolic_ok(d, v))
        for d in range(4)
    ]
    identity = [
        _job(
            f"affine_cohen_lenstra({n})",
            lambda n=n: (series.affine_cohen_lenstra_coefficient(n) * qalgebra.gl_order(n),
                         series.matrix_count_formula(n)),
            lambda v: v[0] == v[1],
        )
        for n in range(11)
    ]
    return [motives, table, conjecture, symbolic, identity]


# ---------------------------------------------------------------------------
# oracle_audit: brute-force enumeration and reduced bases


def _random_generators(rng: random.Random, d: int, p: int, trunc: int) -> list:
    """Generators of a finite-codimension submodule: one seat monomial of
    degree 2 or 3 per seat (codimension at most 2 a seat) plus random tails."""
    from cuspquot.groebner import Element, Monomial

    gens = [
        Element.monomial(Monomial(rng.choice((2, 2, 2, 3)), seat), p, trunc)
        for seat in range(1, d + 1)
    ]
    for _ in range(rng.randrange(1, 3)):
        terms = {
            Monomial(rng.randrange(2, 9), rng.randrange(1, d + 1)): rng.randrange(1, p)
            for _ in range(rng.randrange(1, 4))
        }
        gens.append(Element(terms, p, trunc))
    return gens


def _scrambled(rng: random.Random, gb) -> list:
    """Another presentation of the same submodule: unit rescales, ring
    multiples of earlier outputs, redundant combinations, shuffled."""
    p = gb.p
    out = []
    for g in gb.elements:
        h = g.scale(rng.randrange(1, p))
        for _ in range(rng.randrange(0, 3)):
            if out:
                k = rng.randrange(len(out))
                h = h + out[k].shift(rng.choice((0, 2, 3, 4, 5))).scale(rng.randrange(1, p))
        out.append(g if h.is_zero() else h)
    for _ in range(rng.randrange(0, 3)):
        extra = (gb.elements[rng.randrange(len(gb.elements))].shift(rng.choice((2, 3)))
                 + gb.elements[rng.randrange(len(gb.elements))].shift(rng.choice((0, 2))))
        if not extra.is_zero():
            out.append(extra)
    rng.shuffle(out)
    return out


def _oracle_audit(rng: random.Random) -> list[list[Job]]:
    from fractions import Fraction

    from cuspquot import groebner, oracles, qalgebra, series, strata, varieties

    pairs = []
    for p in (2, 3):
        for n in range(4):
            pairs.append(_job(
                f"count_nilpotent_pairs({n},{p})",
                lambda n=n, p=p: oracles.count_nilpotent_pairs(n, p),
                lambda v, n=n, p=p: Fraction(v) == series.zhat_coefficient(n).evaluate(p)
                * qalgebra.gl_order(n).evaluate(p),
            ))
            pairs.append(_job(
                f"count_all_pairs({n},{p})",
                lambda n=n, p=p: oracles.count_all_pairs(n, p),
                lambda v, n=n, p=p: v == series.matrix_count_formula(n).evaluate(p),
            ))

    quot_cases = ([(1, n, 2) for n in range(5)] + [(2, n, 2) for n in range(3)]
                  + [(1, n, 3) for n in range(4)])
    quot = [
        _job(f"count_quot_bruteforce({d},{n},{p})",
             lambda d=d, n=n, p=p: oracles.count_quot_bruteforce(d, n, p),
             lambda v, d=d, n=n, p=p: v == series.hilb_series(d).expand(n)[n].evaluate(p))
        for d, n, p in quot_cases
    ]

    brute_cases = [(d, 2) for d in range(5)] + [(d, 3) for d in range(4)]
    brute = [
        _job(f"brute_v_d({d},{p})", lambda d=d, p=p: varieties.brute_v_d(d, p),
             lambda v, d=d, p=p: v == varieties.staircase_motive(d).evaluate(p))
        for d, p in brute_cases
    ]

    def profiles_run(d):
        return [(varieties.ab_profile(X, Y), varieties.h0_t_exact(X, Y))
                for X, Y in varieties.enumerate_v_d_points(d, 2)]

    def profiles_ok(d, points):
        if len(points) != varieties.staircase_motive(d).evaluate(2):
            return False
        return all(
            prof.a + prof.b == 2 * d and prof.w2 == prof.a and prof.w0 == prof.b
            and 2 * prof.w1 == prof.a + prof.b and exact
            for prof, exact in points
        )

    profiles = [
        _job(f"point_profiles({d},2)", lambda d=d: profiles_run(d),
             lambda v, d=d: profiles_ok(d, v))
        for d in range(1, 5)
    ]

    def stratum_run(datum, pinned):
        return sum(
            oracles.count_stratum_bruteforce(datum, 2, pins=dict(zip(pinned, values)))
            for values in itertools.product(range(2), repeat=len(pinned))
        )

    def stratum_ok(datum, count):
        bexp, delta = datum.exponents()
        closed = (varieties.symbolic_v_alpha(datum.restrict_to_K())
                  * qalgebra.LaurentPolyQ.q_power(bexp + delta))
        return count == closed.evaluate(2)

    stratum = []
    for n_slots, texts in STRATUM_DATA.items():
        for text in texts:
            datum = strata.parse_datum(text)
            slots = oracles.stratum_slots(datum)
            if len(slots) != n_slots:
                raise ValueError(f"{text} has {len(slots)} slots, not {n_slots}")
            pinned = rng.sample(slots, STRATUM_PINNED)
            stratum.append(_job(f"count_stratum_bruteforce({text},2)",
                                lambda x=datum, s=pinned: stratum_run(x, s),
                                lambda v, x=datum: stratum_ok(x, v)))

    def reduce_ok(d, gens, trial_rng, gb):
        shuffled = list(gens)
        trial_rng.shuffle(shuffled)
        return (groebner.reduce_basis(shuffled, d) == gb
                and groebner.reduce_basis(_scrambled(trial_rng, gb), d) == gb)

    reduce = []
    for i in range(REDUCE_TRIALS):
        trial_rng = random.Random(rng.random())
        d, p = trial_rng.randrange(1, 4), trial_rng.choice((2, 3))
        gens = _random_generators(trial_rng, d, p, trunc=16)
        reduce.append(_job(f"reduce_basis(trial {i})",
                           lambda g=gens, d=d: groebner.reduce_basis(g, d),
                           lambda gb, d=d, g=gens, r=trial_rng: reduce_ok(d, g, r, gb)))
    return [pairs, quot, brute, profiles, stratum, reduce]


# ---------------------------------------------------------------------------
# cli_session: two passes of a fixed command mix through one fresh cache


class CliResult(NamedTuple):
    returncode: int
    stdout: bytes


CLI_TIMEOUT_S = 60


def _cli_commands(rng: random.Random) -> list[list[str]]:
    orders = [rng.randrange(4, 9) for _ in range(4)]
    # fresh-table entries of like cost (about 12 ms each)
    tables = rng.sample([(40 - b, b) for b in range(8, 17, 2)], 2)
    fmt = [rng.choice(("json", "csv")) for _ in range(3)]
    mix = [
        f"series --d 1 --format {fmt[0]}",
        f"series --d 2 --format {fmt[1]}",
        f"series --d 3 --format {fmt[2]}",
        f"series --d 3 --order {orders[0]}",
        f"series --d 2 --order {orders[1]} --format csv",
        f"series --d 1 --prime 3 --order {orders[2]}",
        "series --d 2 --prime 3",
        "series --d 3 --prime 2",
        "series --d 3 --prime 3 --format csv",
        "series --d 4 --prime 2",
        f"series --d 4 --prime 2 --order {orders[3]} --format csv",
        "motive --d 8",
        "motive --d 16",
        "motive --d 24",
        "motive --d 32",
        f"motive --table {tables[0][0]} {tables[0][1]}",
        f"motive --table {tables[1][0]} {tables[1][1]}",
        "verify --level quick",
        "conjecture --max-d 6",
        "conjecture --max-d 12",
    ]
    return [cmd.split() for cmd in mix]


def _cli_session(rng: random.Random, trace_dir: Optional[str]) -> list[Job]:
    """Children inherit CUSPQUOT_CACHE_DIR (a fresh directory per rep) from the
    worker; when tracing they run through cli_traced.py."""
    commands = _cli_commands(rng)
    traced_main = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
    cold: dict[int, bytes] = {}
    jobs = []
    for pass_name in ("cold", "warm"):
        order = list(range(len(commands)))
        rng.shuffle(order)
        for i in order:
            argv = commands[i]
            index = len(jobs)

            def run(argv=argv, index=index):
                if trace_dir:
                    prefix = os.path.join(trace_dir, f"cli-{index:03d}")
                    cmd = [sys.executable, traced_main, prefix, str(index), *argv]
                else:
                    cmd = [sys.executable, "-m", "cuspquot.cli", *argv]
                done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      timeout=CLI_TIMEOUT_S, check=False)
                return CliResult(done.returncode, done.stdout)

            def check(result, i=i, pass_name=pass_name):
                if result.returncode != 0:
                    return False
                if pass_name == "cold":
                    cold[i] = result.stdout
                    return True
                return cold.get(i) == result.stdout

            jobs.append(_job(" ".join(argv), run, check, cli_pass=pass_name,
                             subcommand=argv[0]))
    return jobs
