"""Point-count generating series for framed and unframed modules.

hilb_series assembles the rank-d framed series from the stable orbit
decomposition: each orbit contributes the count of its base stratum
times a geometric series in the free raising directions, all placed
over the common denominator (t;q)_d.  The stratum counts are symbolic
in q (varieties.symbolic_v_alpha), so every series is built once in q,
through rank MAX_D, and a series at a prime is that form at q = prime.
The assembly is one pass per rank: base level vectors that read every
color vector alike are grouped, and the sums over orbits run on integers
that pack the polynomials in q and t (Kronecker substitution).  The tails
are applied by shift and subtract, and the numerator is decoded once per
rank, from the sum of the packed color rows; a color row is decoded only
when color_numerators asks for it.
quot_series and hilb_from_quot are the two directions of the
framed/unframed transform.  The forward direction sums the binomial-
weighted shifts of every lower rank on one packed integer, decoded once
per rank (_unframe_sum); quot_numerator and solve_nh both run on it.

The rest of the module holds independent routes to the same numerator
polynomials and the identities used to stress them:

  * solve_nh pins the numerator down from its self-similarity under
    t -> t^2, coefficient by coefficient, its right side being the
    packed transform of the lower-rank solutions;
  * nh_guess is the closed product form (shifted binomial coefficients
    of (-t;q)_d);
  * functional equation, root-of-unity collapse and cyclotomic
    divisibility of the numerators;
  * the nilpotent matrix-pair count that the degree-n coefficient of
    the unframed series must reproduce, and the Cohen-Lenstra style
    double sum it is conjecturally equal to.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import comb
from typing import Iterable, Optional

from .qalgebra import (
    ONE,
    ZERO,
    CyclotomicInt,
    LaurentPolyQ,
    RationalQ,
    TPoly,
    TSeries,
    check_nonnegative,
    check_prime,
    q_pascal_inverse,
    q_pochhammer,
    t_pochhammer,
)
from .strata import Orbit, base_level_walk, rank_seats
from .varieties import (
    VAlphaSpec,
    _digit_width,
    _digits,
    _from_digits,
    distance_class,
    symbolic_v_alpha,
)

__all__ = [
    "hilb_series",
    "hilb_numerator",
    "quot_series",
    "quot_numerator",
    "hilb_from_quot",
    "color_numerators",
    "orbit_contribution",
    "zhat_coefficient",
    "solve_nh",
    "nh_guess",
    "functional_equation_check",
    "root_of_unity_check",
    "cyclotomic_divisibility_check",
    "matrix_count_formula",
    "cohen_lenstra_coefficient",
    "affine_cohen_lenstra_coefficient",
]

MAX_D = 4  # every rank-5 stratum count resolves; rank 5 waits for verify quick to keep rank 4


def _check_prime(prime: Optional[int]) -> None:
    """Every public function that takes a prime checks it here, before any work."""
    if prime is not None:
        check_prime(prime)


def _at(tp: TPoly, prime: Optional[int]) -> TPoly:
    """Every coefficient at q = prime; the symbolic form when prime is None."""
    if prime is None:
        return tp
    values = [c.evaluate(prime) for c in tp.coeffs]
    for v in values:
        if v.denominator != 1:
            raise ValueError(f"non-integral value {v} at q={prime}")
    return TPoly([int(v) for v in values])


def _den_product(js: Iterable[int]) -> TPoly:
    """prod over j in js of the denominator factor 1 - q^(j-1) t."""
    out = TPoly.one()
    for j in js:
        out = out * TPoly([ONE, -LaurentPolyQ.q_power(j - 1)])
    return out


def orbit_contribution(orbit: Orbit, prime: Optional[int] = None) -> TSeries:
    """Series contributed by one stable orbit: base count times geometric tails."""
    _check_prime(prime)
    base = orbit.base
    bexp, delta = base.exponents()
    count = symbolic_v_alpha(base.restrict_to_K())
    num = TPoly.t_power(base.n(), count * LaurentPolyQ.q_power(bexp + delta))
    return TSeries(_at(num, prime), _at(_den_product(orbit.generators), prime))


@functools.cache
def _colorings(d: int) -> list[tuple[tuple[str, ...], list[int], list[int], int]]:
    """Each color vector in product order with its K ranks and J ranks
    (0-based) and b, the number of rank pairs colored (K, J)."""
    out = []
    for colors in itertools.product("JK", repeat=d):
        ks = [r for r, c in enumerate(colors) if c == "K"]
        js = [r for r, c in enumerate(colors) if c == "J"]
        out.append((colors, ks, js, sum(k < j for k in ks for j in js)))
    return out


def _level_invariants(levels: tuple[int, ...]) -> tuple[tuple[str, ...], tuple[int, ...], int, int]:
    """(classes, j_extra, n0, delta0): what every color vector reads off a
    base level vector.

    classes is the distance-class matrix in rank order, one class per rank
    pair (b, h), b < h, in itertools.combinations order; restricting to K
    keeps the rank order and the distances, so the K-pattern of a color
    vector is this matrix on its K ranks (_pattern_keys).  The first corners
    T^(level+2) do not depend on color, and a seat's standard monomials are
    T^2..T^(level+1), plus T^(level+3) when it is J-colored: the datum with
    J ranks js has n = n0 + |js| and delta = delta0 + sum of j_extra over js.
    """
    d = len(levels)
    seats = rank_seats(levels)  # the seat of each rank
    classes = tuple(
        distance_class(levels[seats[h]] - levels[seats[b]] - (seats[b] > seats[h]))
        for b, h in itertools.combinations(range(d), 2)
    )
    corners = [(levels[s] + 2, s) for s in seats]  # monomials as (T-degree, seat)
    delta0 = sum(
        1 for s in range(d) for deg in range(2, levels[s] + 2) for mu in corners if (deg, s) > mu
    )
    j_extra = tuple(sum(1 for mu in corners if (levels[s] + 3, s) > mu) for s in seats)
    return classes, j_extra, sum(levels), delta0


def _pattern_keys(d: int, classes: tuple[str, ...]) -> list[tuple]:
    """The stratum pattern key of every color vector in product order, read
    off the class matrix of a rank-d base level vector: the matrix on the
    color vector's K ranks, renumbered 1..|K|."""
    by_pair = dict(zip(itertools.combinations(range(d), 2), classes))
    return [
        (len(ks), tuple(
            ((i + 1, h + 1), by_pair[ks[i], ks[h]])
            for i, h in itertools.combinations(range(len(ks)), 2)
        ))
        for _, ks, _, _ in _colorings(d)
    ]


@functools.cache
def _color_rows(d: int) -> tuple[dict[tuple[str, ...], int], int, int, TPoly]:
    """(rows, w, s, total): the numerator over (t;q)_d in q by color vector,
    packed, and the whole numerator, decoded; one grouped, packed pass.

    An orbit contributes count * q^(bexp+delta) t^n prod_(j not a generator)
    (1 - q^(j-1) t).  Base level vectors with one class matrix, j_extra and
    generator set read every color vector alike (_level_invariants), so they
    are grouped first (280 level vectors make 140 groups at rank 4) and each
    group carries sum t^n0 q^delta0 over its members; pattern keys are read
    once per class matrix.  A color vector turns a group into the part
    t^|J| q^(b + sum j_extra) times that sum.  The steps, in order: parts
    with one color vector, pattern and generator set share the count, so
    they are summed and multiplied once by the count, packed once per
    pattern; those products are summed per color vector and generator set,
    and each missing tail 1 - q^(j-1) t is applied to the sum as one shift
    and subtract; the results are summed into the color rows, and the sum of
    the rows is decoded once into total.  A row is decoded only when
    color_numerators asks for it (_unpack_row(rows[colors], w, s)).

    All of it runs on integers packed at q = 2^w, t = 2^(w s) (Kronecker
    substitution): packing is a ring map Z[q, t] -> Z, so a row's final
    integer is the image of the row, and the sum of the rows that of the
    numerator.  Every exponent is >= 0 (a count with a negative one raises
    ArithmeticError), and the image of a polynomial is decoded exactly by
    the signed base-2^w digits of _digits, digit s*n + e being [t^n q^e],
    when two bounds hold.  Its q-degree is below s = 1 + the largest part
    q-degree, so digits of different t-powers never meet.  And every
    coefficient is below 2^(w - 2): the coefficient L1 norm is subadditive
    and submultiplicative, a part's sum of monomials has L1 norm at most its
    number of monomials and the tails at most 2^#tails, so a coefficient of
    any sum of parts is at most B = sum over the parts of every color vector
    of #monomials * 2^#tails * L1(count), and w = _digit_width(B).  Both
    bounds are taken over the parts of all color vectors, so they hold for
    each row and for their sum, the numerator.
    """
    d = check_nonnegative(d, "rank")
    if d > MAX_D:
        raise ValueError(f"series stop at rank {MAX_D}")
    # rank 0 has one orbit, the empty datum
    walk = base_level_walk(d) if d else [((), ())]
    groups: dict[tuple, dict[tuple[int, int], int]] = {}  # -> {(n0, delta0): members}
    for levels, generators in walk:
        classes, j_extra, n0, delta0 = _level_invariants(levels)
        sums = groups.setdefault((classes, j_extra, generators), {})
        sums[n0, delta0] = sums.get((n0, delta0), 0) + 1
    keys: dict[tuple, list] = {}  # class matrix -> pattern key of each color vector
    counts: dict[tuple, tuple] = {}  # pattern key -> (terms, L1 norm, degree) of its count
    parts: dict[tuple, list] = {}  # (colors, key, generators) -> [(group, t^, q^ shift)]
    bound = top = 0
    for group, sums in groups.items():
        classes, j_extra, generators = group
        if classes not in keys:
            keys[classes] = _pattern_keys(d, classes)
        tails = [j - 1 for j in range(1, d + 1) if j not in generators]
        size, high = sum(sums.values()), max(e for _, e in sums) + sum(tails)
        for (colors, _, js, b), key in zip(_colorings(d), keys[classes]):
            if key not in counts:
                terms = symbolic_v_alpha(VAlphaSpec(key[0], dict(key[1]))).terms
                if min(terms, default=0) < 0:
                    raise ArithmeticError(f"stratum count of {key} has a negative q-exponent")
                counts[key] = terms, sum(map(abs, terms.values())), max(terms, default=0)
            _, norm, degree = counts[key]
            shift = b + sum(j_extra[r] for r in js)
            parts.setdefault((colors, key, generators), []).append((group, len(js), shift))
            bound += size * norm << len(tails)
            top = max(top, high + shift + degree)
    w, s = _digit_width(bound), top + 1
    packed = {
        group: sum(m << w * (s * n0 + delta0) for (n0, delta0), m in sums.items())
        for group, sums in groups.items()
    }
    packed_counts = {
        key: sum(c << w * e for e, c in terms.items()) for key, (terms, _, _) in counts.items()
    }
    untailed: dict[tuple, int] = {}  # (colors, generators) -> sum of weight * count
    for (colors, key, generators), members in parts.items():
        weight = sum(packed[group] << w * (s * n + e) for group, n, e in members)
        product = weight * packed_counts[key]
        untailed[colors, generators] = untailed.get((colors, generators), 0) + product
    rows = dict.fromkeys((colors for colors, *_ in _colorings(d)), 0)
    for (colors, generators), x in untailed.items():
        for j in range(1, d + 1):
            if j not in generators:
                x -= x << w * (s + j - 1)
        rows[colors] += x
    return rows, w, s, _unpack_row(sum(rows.values()), w, s)


def _unpack_row(n: int, w: int, s: int) -> TPoly:
    """The TPoly packed as n at q = 2^w, t = 2^(w s): digit s n + e is [t^n q^e]."""
    digits = _digits(n, w)
    return TPoly(_from_digits(digits[i : i + s]) for i in range(0, len(digits), s))


def _hilb_q(d: int) -> TPoly:
    return _color_rows(d)[3]


def hilb_numerator(d: int, prime: Optional[int] = None) -> TPoly:
    """Numerator of the rank-d framed series over (t;q)_d: degree d, top coefficient q^(d^2)."""
    _check_prime(prime)
    return _at(_hilb_q(d), prime)


def hilb_series(d: int, prime: Optional[int] = None) -> TSeries:
    return TSeries(hilb_numerator(d, prime), _at(t_pochhammer(d), prime))


def color_numerators(d: int, prime: Optional[int] = None) -> dict[tuple[str, ...], TPoly]:
    """Numerator over (t;q)_d split by the rank color vector of the orbit base."""
    _check_prime(prime)
    rows, w, s, _ = _color_rows(d)
    return {colors: _at(_unpack_row(row, w, s), prime) for colors, row in rows.items()}


def _unframe_sum(d: int, lower: list[TPoly]) -> TPoly:
    """sum over r < d of t^r [d r]_q g_r(q^(d-r) t) (t;q)_(d-r), g_r = lower[r],
    in one packed pass decoded once.

    The framed-to-unframed transform over (t;q)_d, all ranks below d.  Every
    term runs on an integer packed at q = 2^w, t = 2^(w s) (Kronecker
    substitution), a ring map Z[q, t] -> Z, so the final sum is the image of
    the polynomial sum.  With k = d - r, g_r(q^k t) is packed with the
    substitution folded into the exponent, [t^m q^e] of g_r at digit
    (s + k) m + e; each factor 1 - q^i t of (t;q)_k is one shift and
    subtract; [d r]_q at q = 2^w is the exact integer quotient of
    prod_(i<r) (2^(w(d-i)) - 1) by prod_(i<r) (2^(w(i+1)) - 1), built up one
    factor pair per rank; t^r is a shift by w s r.

    The sum is decoded exactly by the signed base-2^w digits of _digits,
    digit s n + e being [t^n q^e], when three bounds hold.  Every exponent
    is >= 0: a g_r with a negative q-exponent raises ArithmeticError before
    anything is packed.  The q-degree of every coefficient is below s: term
    r has q-degree at most max_m (deg g_r[m] + k m) + k(k-1)/2 + r k, the
    last two being the degrees of (t;q)_k and of [d r]_q, and s is one more
    than the largest of these.  And every coefficient is below 2^(w - 2):
    the coefficient L1 norm is subadditive and submultiplicative and kept by
    t -> q^k t and by t^r, L1((t;q)_k) = 2^k, and [d r]_q has nonnegative
    coefficients, so L1([d r]_q) = C(d, r); every coefficient of the sum is
    at most B = sum over r of L1(g_r) 2^k C(d, r), and w = _digit_width(B).
    """
    bound = top = 0
    for r, g in enumerate(lower):
        k = d - r
        for m, c in enumerate(g.coeffs):
            terms = c.terms
            if not terms:
                continue
            if min(terms) < 0:
                raise ArithmeticError(f"rank-{r} numerator has a negative q-exponent")
            top = max(top, max(terms) + k * m + k * (k - 1) // 2 + r * k)
            bound += sum(map(abs, terms.values())) * comb(d, r) << k
    w, s = _digit_width(bound), top + 1
    total, binomial = 0, 1  # binomial = [d r]_q at q = 2^w
    for r, g in enumerate(lower):
        k = d - r
        x = 0
        for c in reversed(g.coeffs):
            x = (x << w * (s + k)) + sum(v << w * e for e, v in c.terms.items())
        for i in range(k):
            x -= x << w * (s + i)
        total += x * binomial << w * s * r
        binomial = binomial * ((1 << w * k) - 1) // ((1 << w * (r + 1)) - 1)
    return _unpack_row(total, w, s)


def quot_numerator(d: int, prime: Optional[int] = None) -> TPoly:
    """Numerator of the rank-d unframed series over (t;q)_d.

    Unframed counts are binomial-weighted shifts of the framed ones:
    the rank-r framed series enters at t -> q^(d-r) t with weight
    [d r]_q t^r.  The r = d term goes first: it checks d.  The ranks
    below d are summed in one packed pass, _unframe_sum.
    """
    _check_prime(prime)
    total = _hilb_q(d).shift_t(d) + _unframe_sum(d, [_hilb_q(r) for r in range(d)])
    return _at(total, prime)


def quot_series(d: int, prime: Optional[int] = None) -> TSeries:
    return TSeries(quot_numerator(d, prime), _at(t_pochhammer(d), prime))


def hilb_from_quot(d: int) -> TSeries:
    """Recover the framed series from the unframed ones (symbolic only).

    The alternating inverse transform: t^-d times the combination of the
    unframed series at t -> q^(d-r) t weighted by row d of the inverse
    q-Pascal matrix, (-1)^(d-r) q^(-C(d-r,2)) [d r]_(q^-1).
    """
    d = check_nonnegative(d, "rank")
    weights = q_pascal_inverse(d + 1)[d]
    total = TPoly.zero()
    for r in range(d + 1):
        part = quot_numerator(r).substitute_t_scale(d - r) * t_pochhammer(d - r)
        total = total + part * weights[r]
    return TSeries(total.shift_t(-d), t_pochhammer(d))


def _over_pochhammer(n: int, parts: Iterable[tuple[LaurentPolyQ, LaurentPolyQ]]) -> RationalQ:
    """The sum of num/den over (num, den) in parts, as one numerator over (q^-1;q^-1)_n.

    Each den must divide (q^-1;q^-1)_n: its weight is the exact quotient,
    and divide_exact raises ValueError if that is not a polynomial.
    """
    pn = q_pochhammer(n, exp_sign=-1)
    num = ZERO
    for part, den in parts:
        num = num + part * pn.divide_exact(den)
    return RationalQ(num, pn)


def zhat_coefficient(n: int) -> RationalQ:
    """[t^n] of the unframed zeta series over all module ranks, over (q^-1;q^-1)_n.

    Sums the framed coefficients with the frame-removal weight
    q^(-d^2 - d(n-d)) / (q^-1;q^-1)_d, term d weighted by
    (q^-1;q^-1)_n / (q^-1;q^-1)_d; needs the framed series of every
    rank up to n, so n is capped by MAX_D.
    """
    n = check_nonnegative(n, "order")
    return _over_pochhammer(n, (
        (LaurentPolyQ.q_power(-d * d - d * (n - d)) * hilb_series(d).expand(n - d)[n - d],
         q_pochhammer(d, exp_sign=-1))
        for d in range(n + 1)
    ))


# ---------------------------------------------------------------------------
# independent routes to the framed numerators


@functools.cache
def solve_nh(d: int) -> TPoly:
    """Framed numerator solved from its self-similarity under t -> t^2.

    f(t^2) - t^d f(t) is the framed-to-unframed transform of the
    lower-rank numerators, summed in one packed pass (_unframe_sum); with
    f normalized by [t^0] = 1 and [t^d] = q^(d^2) the relation determines
    every middle coefficient, and the full relation is re-checked at the
    end.
    """
    d = check_nonnegative(d, "rank")
    if d == 0:
        return TPoly.one()
    rhs = _unframe_sum(d, [solve_nh(r) for r in range(d)])
    a: list[Optional[LaurentPolyQ]] = [None] * (d + 1)
    a[0] = rhs.coeff(0)
    a[d] = LaurentPolyQ.q_power(d * d)
    for m in range(2 * d - 1, d, -1):
        even_part = a[m // 2] if m % 2 == 0 else ZERO
        assert even_part is not None  # m//2 > m-d, solved in an earlier pass
        a[m - d] = even_part - rhs.coeff(m)
    f = TPoly(a)
    if f.substitute_t_square() - f.shift_t(d) != rhs:
        raise ArithmeticError(f"self-similarity solve is inconsistent at rank {d}")
    return f


def nh_guess(d: int) -> TPoly:
    """Closed form: [t^j] = q^(C(j+1,2) + j(d-j)) [t^j](-t;q)_d."""
    d = check_nonnegative(d, "rank")
    # [t^j](-t;q)_d = (-1)^j [t^j](t;q)_d
    return TPoly(
        [
            c * LaurentPolyQ.q_power(j * (j + 1) // 2 + j * (d - j), (-1) ** j)
            for j, c in enumerate(t_pochhammer(d).coeffs)
        ]
    )


def functional_equation_check(d: int, f: Optional[TPoly] = None) -> bool:
    """Coefficient symmetry a_(d-i) = q^(d(d-2i)) a_i, read up to max(d, deg f).

    A coefficient above t^d pairs with one below t^0, so it must vanish.
    """
    d = check_nonnegative(d, "rank")
    if f is None:
        f = solve_nh(d)
    return all(
        f.coeff(d - i) == LaurentPolyQ.q_power(d * (d - 2 * i)) * f.coeff(i)
        for i in range(max(d, f.degree()) + 1)
    )


def root_of_unity_check(d: int, r: int, f: Optional[TPoly] = None) -> bool:
    """At q a primitive r-th root of unity (r | d) the numerator is (1+t^r)^(d/r)."""
    d, r = check_nonnegative(d, "rank"), operator.index(r)
    if r < 1 or d % r != 0:
        raise ValueError(f"order {r} must divide the rank {d}")
    if f is None:
        f = solve_nh(d)
    values = f.at_root_of_unity(r)
    values += [CyclotomicInt.zero(r)] * (d + 1 - len(values))
    for m in range(len(values)):
        expected = comb(d // r, m // r) if m % r == 0 else 0
        if values[m] != expected:
            return False
    return True


def cyclotomic_divisibility_check(d: int, f: Optional[TPoly] = None) -> bool:
    """Divisibility of the numerator at t = -1 by a product of cyclotomics.

    For odd d the factor 1 + q^d t is stripped first (it vanishes at
    t = -1, q = 1): f must vanish at t = -q^-d, and the value at t = -1
    of the cofactor is f(-1) / (1 - q^d).  That value must then be
    divisible by Phi_r(q)^floor((d+r-1)/(2r)) for every odd r <= d.
    """
    d = check_nonnegative(d, "rank")
    if f is None:
        f = solve_nh(d)
    value = f.evaluate_t_symbolic(-1)
    if d % 2:
        if f.substitute_t_scale(-d).evaluate_t_symbolic(-1):
            return False
        value = value.divide_exact(ONE - LaurentPolyQ.q_power(d))
    return all(
        _cyclotomic_power_divides(value, r, (d + r - 1) // (2 * r)) for r in range(1, d + 1, 2)
    )


def _cyclotomic_power_divides(f: LaurentPolyQ, r: int, k: int) -> bool:
    """Whether Phi_r(q)^k divides f in Z[q, q^-1], with no division.

    Phi_r is monic with simple roots, so it does exactly when the Hasse
    derivatives D_j = sum C(e - lo, j) c q^(e - lo - j), j < k, of the
    polynomial q^-lo f vanish at a primitive r-th root of unity.  The
    weights c C(e - lo, j) are updated from j - 1 by an exact integer
    division, and each D_j is folded mod r into a CyclotomicInt.
    """
    terms = f.terms
    lo = min(terms, default=0)
    zero = CyclotomicInt.zero(r)
    spans = [e - lo for e in terms]
    weights = list(terms.values())
    for j in range(k):
        if j:
            weights = [c * (n - j + 1) // j for c, n in zip(weights, spans)]
        folded = [0] * r
        for c, n in zip(weights, spans):
            folded[(n - j) % r] += c
        if CyclotomicInt(r, folded) != zero:
            return False
    return True


# ---------------------------------------------------------------------------
# matrix pair counts and the Cohen-Lenstra style double sum


def matrix_count_formula(n: int) -> LaurentPolyQ:
    """Closed count of all n x n matrix pairs (A, B) with A^2 = B^3, AB = BA."""
    n = check_nonnegative(n, "size")
    total = ZERO
    qq_n = q_pochhammer(n)
    for j in range(n // 2 + 1):
        sign = -1 if j % 2 else 1
        e = (3 * j * j - j) // 2 + n * (n - 2 * j)
        ratio = qq_n.divide_exact(q_pochhammer(j) * q_pochhammer(n - 2 * j))
        total = total + LaurentPolyQ.q_power(e, sign) * ratio
    return total


@functools.cache
def cohen_lenstra_coefficient(n: int) -> RationalQ:
    """[t^n] of the product-form guess for the one-point module-count series.

    The sum over n = m + 2k of q^(-m-k^2) / ((q^-1;q^-1)_m (q^-1;q^-1)_k),
    kept over (q^-1;q^-1)_n: term k is weighted by the exact quotient
    (q^-1;q^-1)_n / ((q^-1;q^-1)_m (q^-1;q^-1)_k), a q^-1-binomial
    [n m] times (q^-1;q^-1)_2k / (q^-1;q^-1)_k.
    Multiplied by |GL_n| this conjecturally counts *nilpotent* matrix
    pairs (A, B) with A^2 = B^3 and AB = BA.
    """
    n = check_nonnegative(n, "order")
    return _over_pochhammer(n, (
        (LaurentPolyQ.q_power(-(n - 2 * k) - k * k),
         q_pochhammer(n - 2 * k, exp_sign=-1) * q_pochhammer(k, exp_sign=-1))
        for k in range(n // 2 + 1)
    ))


def affine_cohen_lenstra_coefficient(n: int) -> RationalQ:
    """[t^n] of the guess series for the whole cuspidal curve, over (q^-1;q^-1)_n.

    The curve is its singular point together with a smooth punctured line
    whose module-count series is the geometric series 1/(1 - t), so the
    curve coefficient is the partial sum of the one-point coefficients;
    the numerator of coefficient j, over (q^-1;q^-1)_j, is weighted by
    (q^-1;q^-1)_n / (q^-1;q^-1)_j, the product of 1 - q^-i over
    i = j+1..n, multiplied up one factor per j from j = n down with no
    division.  Multiplied by |GL_n| it equals matrix_count_formula(n), the
    count of *all* matrix pairs (A, B) with A^2 = B^3 and AB = BA.
    """
    n = check_nonnegative(n, "order")
    weights = [ONE]  # weights[n - j] = (q^-1;q^-1)_n / (q^-1;q^-1)_j
    for i in range(n, 0, -1):
        weights.append(weights[-1] * (ONE - LaurentPolyQ.q_power(-i)))
    num = sum((cohen_lenstra_coefficient(j).num * weights[n - j] for j in range(n + 1)), ZERO)
    return RationalQ(num, weights[n])
