"""Command line interface.

Subcommands:
  series      rank-d framed series (rational form, optional expansion)
  motive      staircase motive polynomials
  verify      run the self-check registry and report pass/fail
  conjecture  scan structural identities of the numerators by rank

Exit codes: 0 success, 1 a verify/conjecture check failed or the reader
closed stdout early (a broken pipe, reported without a traceback), 2 bad
usage, out-of-range arguments (series stop at rank series.MAX_D) or an
enumeration over budget.  Every command computes its result afresh; none
keeps results between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import sys
from fractions import Fraction
from typing import Callable, Iterator, Optional

from . import __version__
from .qalgebra import (
    PRIME_TEST_LIMIT,
    LaurentPolyQ,
    check_prime,
    gl_order,
    q_pascal_inverse,
    q_pascal_matrix,
    series_to_json,
    tpoly_from_triples,
)
from .series import (
    MAX_D,
    affine_cohen_lenstra_coefficient,
    cyclotomic_divisibility_check,
    functional_equation_check,
    hilb_from_quot,
    hilb_numerator,
    hilb_series,
    matrix_count_formula,
    nh_guess,
    quot_numerator,
    root_of_unity_check,
    solve_nh,
    zhat_coefficient,
)
from .strata import LeadingTermDatum, parse_datum
from .varieties import (
    MAX_MOTIVE_D,
    BudgetError,
    MotiveTable,
    VAlphaSpec,
    ab_profile,
    brute_v_d,
    count_v_spec,
    enumerate_v_d_points,
    h0_t_exact,
    staircase_motive,
    symbolic_v_alpha,
)
from .oracles import (
    count_all_pairs,
    count_nilpotent_pairs,
    count_quot_bruteforce,
    count_stratum_bruteforce,
)

MAX_CONJECTURE_D = 16
MAX_ORDER = 200


class RangeUsageError(ValueError):
    """Arguments are syntactically fine but outside the supported ranges."""


# ---------------------------------------------------------------------------
# series / motive commands


def _cmd_series(args: argparse.Namespace) -> int:
    d, prime, order = args.d, args.prime, args.order
    if d < 0:
        raise RangeUsageError("--d must be >= 0")
    if prime is not None:
        try:
            check_prime(prime)
        except ValueError:
            raise RangeUsageError(f"--prime {prime} is not a prime below {PRIME_TEST_LIMIT}") from None
    if d > MAX_D:
        raise RangeUsageError(f"series stop at --d {MAX_D}")
    if order is not None and order < 0:
        raise RangeUsageError("--order must be >= 0")
    if order is not None and order > MAX_ORDER:
        raise RangeUsageError(f"--order must be <= {MAX_ORDER}")

    series = hilb_series(d, prime)
    payload = series_to_json(series)
    expansion = None
    if order is not None:
        expansion = [sorted(c.terms.items()) for c in series.expand(order)]

    if args.format == "json":
        obj = {"d": d, "prime": prime, "num": payload["num"], "den": payload["den"]}
        if expansion is not None:
            obj["coefficients"] = expansion
        print(json.dumps(obj, sort_keys=True))
    else:
        lines = ["part,t_exp,q_exp,coeff"]
        for part in ("num", "den"):
            for t_exp, q_exp, coeff in payload[part]:
                lines.append(f"{part},{t_exp},{q_exp},{coeff}")
        if expansion is not None:
            for n, terms in enumerate(expansion):
                for q_exp, coeff in terms:
                    lines.append(f"t^{n},{n},{q_exp},{coeff}")
        print("\n".join(lines))
    return 0


def _cmd_motive(args: argparse.Namespace) -> int:
    if (args.d is None) == (args.table is None):
        raise RangeUsageError("pass exactly one of --d or --table")
    if args.d is not None:
        if not 0 <= args.d <= MAX_MOTIVE_D:
            raise RangeUsageError(f"--d must be within 0..{MAX_MOTIVE_D}")
        print(staircase_motive(args.d))
    else:
        a, b = args.table
        if not (0 <= b <= a <= 2 * MAX_MOTIVE_D):
            raise RangeUsageError(f"--table needs 0 <= B <= A <= {2 * MAX_MOTIVE_D}")
        print(MotiveTable().get(a, b))
    return 0


# ---------------------------------------------------------------------------
# verify: the self-check registry


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


def _chk_closed_forms() -> bool:
    return all(
        hilb_numerator(d) == tpoly_from_triples(triples)
        for d, triples in FROZEN_NH.items()
    )


def _chk_quot_is_square() -> bool:
    return all(
        quot_numerator(d) == hilb_numerator(d).substitute_t_square() for d in range(MAX_D + 1)
    )


def _chk_inverse_transform() -> bool:
    return all(hilb_from_quot(d) == hilb_series(d) for d in range(MAX_D + 1))


def _chk_solve_matches_guess() -> bool:
    return all(solve_nh(d) == nh_guess(d) for d in range(9))


def _chk_engine_matches_solve() -> bool:
    return all(hilb_numerator(d) == solve_nh(d) for d in range(MAX_D + 1))


def _chk_functional_equation() -> bool:
    return all(functional_equation_check(d) for d in range(11))


def _chk_root_of_unity() -> bool:
    return all(
        root_of_unity_check(d, r)
        for d in range(1, 9)
        for r in range(1, d + 1)
        if d % r == 0
    )


def _chk_cyclotomic() -> bool:
    return all(cyclotomic_divisibility_check(d) for d in range(1, 9))


def _chk_staircase_table() -> bool:
    if not all(
        staircase_motive(d) == LaurentPolyQ(terms)
        for d, terms in FROZEN_STAIRCASE.items()
    ):
        return False
    return all(staircase_motive(d).evaluate(1) == 1 for d in range(13))


def _chk_variety_tables() -> bool:
    for p in (2, 3):
        for cls in ("1-", "2", "3+"):
            spec = VAlphaSpec(2, {(1, 2): cls})
            if count_v_spec(spec, p) != symbolic_v_alpha(spec).evaluate(p):
                return False
        for c12, c23, c13 in itertools.product(("1-", "2", "3+"), repeat=3):
            spec = VAlphaSpec(3, {(1, 2): c12, (2, 3): c23, (1, 3): c13})
            try:
                expected = symbolic_v_alpha(spec)
            except ValueError:
                continue
            if count_v_spec(spec, p) != expected.evaluate(p):
                return False
    return True


def _chk_pascal_inverse() -> bool:
    size = 6
    P = q_pascal_matrix(size)
    Pinv = q_pascal_inverse(size)
    for i in range(size):
        for j in range(size):
            want = LaurentPolyQ.one() if i == j else LaurentPolyQ.zero()
            got = sum(
                (P[i][k] * Pinv[k][j] for k in range(size)), LaurentPolyQ.zero()
            )
            if got != want:
                return False
    return True


def _chk_gamma_sampled() -> bool:
    rng = random.Random(20260814)
    for _ in range(150):
        d = rng.randint(1, 5)
        levels = [rng.randint(0, 5) for _ in range(d)]
        colors = [rng.choice("JK") for _ in range(d)]
        datum = LeadingTermDatum(levels, colors)
        i, j = rng.randint(1, d), rng.randint(1, d)
        if datum.gamma(i).gamma(j) != datum.gamma(j).gamma(i):
            return False
        if datum.gamma(j).n() != datum.n() + 1:
            return False
        if len(datum.stretches(j)) != j - 1:
            return False
    return True


def _chk_guess_identity() -> bool:
    return all(
        affine_cohen_lenstra_coefficient(n) * gl_order(n)
        == matrix_count_formula(n)
        for n in range(11)
    )


def _chk_quot_oracle() -> bool:
    cases = (
        [(1, n, 2) for n in range(5)]
        + [(2, n, 2) for n in range(3)]
        + [(1, n, 3) for n in range(4)]
        + [(2, 2, 3), (3, 1, 3), (4, 1, 2)]
    )
    for d, n, p in cases:
        coeff = hilb_series(d, p).expand(n)[n]
        if coeff.evaluate(1) != count_quot_bruteforce(d, n, p):
            return False
    return True


def _chk_pair_counts() -> bool:
    for p in (2, 3):
        for n in range(4):
            zh = zhat_coefficient(n).evaluate(p)
            gl = gl_order(n).evaluate(p)
            if Fraction(count_nilpotent_pairs(n, p)) != zh * gl:
                return False
            if count_all_pairs(n, p) != matrix_count_formula(n).evaluate(p):
                return False
    return True


def _chk_stratum_counts() -> bool:
    if count_stratum_bruteforce(parse_datum("(J(2))"), 2) != 2:
        return False
    for a in range(3):
        for p in (2, 3):
            if count_stratum_bruteforce(parse_datum(f"(K({a}))"), p) != 1:
                return False
    datum = parse_datum("(K(0),K(2),J(2))")
    bexp, delta = datum.exponents()
    expected = symbolic_v_alpha(datum.restrict_to_K()) * LaurentPolyQ.q_power(bexp + delta)
    return count_stratum_bruteforce(datum, 2) == expected.evaluate(2)


def _chk_staircase_brute() -> bool:
    for d in range(5):
        if brute_v_d(d, 2) != staircase_motive(d).evaluate(2):
            return False
    for d in range(4):
        if brute_v_d(d, 3) != staircase_motive(d).evaluate(3):
            return False
    return True


def _chk_module_profiles() -> bool:
    for d in range(1, 4):
        for X, Y in enumerate_v_d_points(d, 2):
            prof = ab_profile(X, Y)
            if prof.a + prof.b != 2 * d or prof.w2 != prof.a or prof.w0 != prof.b:
                return False
            if 2 * prof.w1 != prof.a + prof.b:
                return False
            if not h0_t_exact(X, Y):
                return False
    return True


CHECKS: list[tuple[str, str, Callable[[], bool]]] = [
    ("closed-forms-rank-le-3", "quick", _chk_closed_forms),
    ("unframed-is-t-squared", "quick", _chk_quot_is_square),
    ("inverse-transform-roundtrip", "quick", _chk_inverse_transform),
    ("engine-matches-triangular-solve", "quick", _chk_engine_matches_solve),
    ("triangular-solve-matches-product-form", "quick", _chk_solve_matches_guess),
    ("functional-equation", "quick", _chk_functional_equation),
    ("root-of-unity-collapse", "quick", _chk_root_of_unity),
    ("cyclotomic-divisibility", "quick", _chk_cyclotomic),
    ("staircase-motive-table", "quick", _chk_staircase_table),
    ("variety-class-tables", "quick", _chk_variety_tables),
    ("pascal-matrix-inverse", "quick", _chk_pascal_inverse),
    ("raising-operator-sampled", "quick", _chk_gamma_sampled),
    ("double-sum-matrix-identity", "quick", _chk_guess_identity),
    ("subspace-oracle", "full", _chk_quot_oracle),
    ("matrix-pair-oracle", "full", _chk_pair_counts),
    ("stratum-oracle", "full", _chk_stratum_counts),
    ("staircase-oracle", "full", _chk_staircase_brute),
    ("module-profile-invariants", "full", _chk_module_profiles),
]


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, level, fn in CHECKS:
        if args.level == "quick" and level != "quick":
            continue
        ok = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1
    print(f"{'all checks passed' if not failures else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


def _cmd_conjecture(args: argparse.Namespace) -> int:
    if not 1 <= args.max_d <= MAX_CONJECTURE_D:
        raise RangeUsageError(f"--max-d must be within 1..{MAX_CONJECTURE_D}")
    all_ok = True
    for d in range(1, args.max_d + 1):
        f = solve_nh(d)
        fe = functional_equation_check(d, f)
        rou = all(root_of_unity_check(d, r, f) for r in range(1, d + 1) if d % r == 0)
        cyc = cyclotomic_divisibility_check(d, f)
        positive = all(
            c >= 0 for coeff in f.coeffs for c in coeff.terms.values()
        )
        ok = fe and rou and cyc and positive
        all_ok = all_ok and ok
        print(
            f"d={d} functional_equation={'ok' if fe else 'FAIL'} "
            f"root_of_unity={'ok' if rou else 'FAIL'} "
            f"cyclotomic={'ok' if cyc else 'FAIL'} "
            f"nonnegative_coefficients={'ok' if positive else 'FAIL'}"
        )
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspquot",
        description="Exact point counts of framed modules over the cusp k[[T^2,T^3]].",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="rank-d framed series")
    p_series.add_argument("--d", type=int, required=True, help="module rank")
    p_series.add_argument("--prime", type=int, help="collapse q to this prime")
    p_series.add_argument("--order", type=int, help="also expand through t^ORDER")
    p_series.add_argument("--format", choices=("json", "csv"), default="json")
    p_series.set_defaults(func=_cmd_series)

    p_motive = sub.add_parser("motive", help="staircase motive polynomials")
    p_motive.add_argument("--d", type=int, help="staircase rank")
    p_motive.add_argument(
        "--table", type=int, nargs=2, metavar=("A", "B"), help="two-parameter entry"
    )
    p_motive.set_defaults(func=_cmd_motive)

    p_verify = sub.add_parser("verify", help="run the self-check registry")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.set_defaults(func=_cmd_verify)

    p_conj = sub.add_parser("conjecture", help="scan numerator identities by rank")
    p_conj.add_argument("--max-d", type=int, required=True)
    p_conj.set_defaults(func=_cmd_conjecture)
    return parser


@contextlib.contextmanager
def _exact_ints() -> Iterator[None]:
    """Lift Python's 4300-digit cap on int-to-str (from 3.10.7) for the output:
    an expansion at a large prime has longer coefficients."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _exact_ints():
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at the exit flush
        return code
    except (RangeUsageError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:  # so the exit flush cannot raise
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
