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
framed/unframed transform.  The forward direction, the binomial-weighted
shifts of every lower rank, is read off one walk over antidiagonals
(_unframe_steps): packed integers whose stride drops by one per rank, so
t -> qt is free, stepped one rank at a time by the q-Pascal rule, each
rank decoded once when it is read; quot_numerator and solve_nh both read it.

The rest of the module holds independent routes to the same numerator
polynomials and the identities used to stress them:

  * solve_nh pins the numerator down from its self-similarity under
    t -> t^2, coefficient by coefficient, its right side being the
    transform of the lower-rank solutions, read off one kept walk;
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
from typing import Callable, Generator, Iterable, Optional, Union

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
    _unpack,
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
MAX_SOLVE_D = 51  # cold, solve_nh(51) took 7.6-8.9 s at 427 MiB on a 2-vCPU VM, rank 52 8.1-11.6 s


def _check_prime(prime: Optional[int]) -> None:
    """Every public function that takes a prime checks it here, before any work."""
    if prime is not None:
        check_prime(prime)


def _check_series_rank(d: int) -> int:
    """The rank d, refused before any work past MAX_D."""
    if d > MAX_D:
        raise ValueError(f"series stop at rank {MAX_D}")
    return d


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
    d = _check_series_rank(check_nonnegative(d, "rank"))
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
    """The TPoly packed as n at q = 2^w, t = 2^(w s): digit s n + e is [t^n q^e].

    One repunit addition shifts every signed digit by 2^(w - 1) into
    0..2^w - 1 and one to_bytes call reads them; each slot of s digits,
    less its share of the repunit, is the coefficient [t^n] packed at
    q = 2^w, decoded from its lowest nonzero digit up (_unpack), so the
    zero digits below and above its terms cost one slice, not a digit each.
    """
    size = w // 8
    count = -(-(abs(n).bit_length() // w + 1) // s)  # slots
    bias = int.from_bytes((1 << (w - 1)).to_bytes(size, "little") * s, "little")
    raw = (n + int.from_bytes(bias.to_bytes(size * s, "little") * count, "little")).to_bytes(
        size * s * count, "little"
    )
    step = size * s
    return TPoly(
        _unpack(int.from_bytes(raw[i : i + step], "little") - bias, w)
        for i in range(0, len(raw), step)
    )


def _hilb_q(d: int) -> TPoly:
    return _color_rows(d)[3]


def hilb_numerator(d: int, prime: Optional[int] = None) -> TPoly:
    """Numerator of the rank-d framed series over (t;q)_d: degree d, top coefficient q^(d^2)."""
    _check_prime(prime)
    return _at(_hilb_q(d), prime)


def hilb_series(d: int, prime: Optional[int] = None) -> TSeries:
    return TSeries(hilb_numerator(d, prime), _at(t_pochhammer(d), prime))


def color_numerators(d: int, prime: Optional[int] = None) -> dict[tuple[str, ...], TPoly]:
    """Numerator over (t;q)_d split by the rank color vector of the orbit base.

    The packed rows are kept (_color_rows), not their polynomials: each
    call decodes its 2^d rows again, about 1 ms at rank 4."""
    _check_prime(prime)
    rows, w, s, _ = _color_rows(d)
    return {colors: _at(_unpack_row(row, w, s), prime) for colors, row in rows.items()}


def _packed_sizes(reach: int) -> tuple[int, int]:
    """(w, s0): the digit width and rank-0 stride of an antidiagonal walk
    through rank reach fed with the solved numerators.  Those g_r have L1
    norm 2^r, so every coefficient of the rank-D transform is at most
    sum over r of 2^r 2^(D-r) C(D, r) = 4^D, and its q-degree is below D^2
    (by induction from the solve), so the stride s0 - D of every rank
    D <= reach stays above it."""
    return _digit_width(4**reach), reach * reach + reach + 1


def _pack_shifted(g: TPoly, d: int, w: int, s: int) -> int:
    """t^d g packed at q = 2^w, t = 2^(w s)."""
    x = 0
    for c in reversed(g.coeffs):
        x = (x << w * s) + sum(v << w * e for e, v in c.terms.items())
    return x << w * s * d


def _pascal_parts(us: list[int], w: int, s: int) -> None:
    """In place, U_j of the rank before, packed at stride s + 1 and so read
    at stride s as U_j(qt), becomes P_j = q^-j (1 - t) U_j(qt); the shift by
    q^-j is exact, as every term of U_j(qt) carries q^j."""
    for j, u in enumerate(us):
        us[j] = (u - (u << w * s)) >> w * j


def _pascal_sums(parts: list[int], top: int) -> None:
    """In place, parts[j] becomes U_j = top + sum over i >= j of P_i, for
    j = 0..len(parts), U_len(parts) = top appended."""
    parts.append(top)
    for j in range(len(parts) - 2, -1, -1):
        parts[j] += parts[j + 1]


_Packed = tuple[int, int, int]  # (n, w, s): a TPoly packed at q = 2^w, t = 2^(w s)
_Walk = tuple[list[Union[TPoly, _Packed]], Generator[_Packed, int, None]]


def _unframe_steps(numerator: Callable[[int], TPoly]) -> Generator[_Packed, int, None]:
    """The transform K_D = sum over r < D of t^r [D r]_q g_r(q^(D-r) t) (t;q)_(D-r),
    g_r = numerator(r), for D = 0, 1, ...: primed, each send of the rank
    asked for returns the next K_D packed, (n, w, s) for _unpack_row, and
    g_D is read only when K_(D+1) is asked for, so numerator(D) may read K_D.

    The walk holds, for the last rank D and j = 0..D,
    U_j = sum over j <= r <= D of t^r [D-j r-j]_q g_r(q^(D-r) t) (t;q)_(D-r),
    so U_0 = K_D + t^D g_D.  By the q-Pascal rule
    [n r] = [n-1 r-1] + q^r [n-1 r], U_j of rank D is U_(j+1) of rank D plus
    P_j = q^-j (1 - t) U_j(qt) of rank D - 1, with U_D = t^D g_D; so K_D is
    the sum of the P_j, a few shifts and adds per j.  The integers are
    packed at q = 2^w, t = 2^(w s) (Kronecker substitution, a ring map
    Z[q, t] -> Z), the stride s one lower at each rank: an integer packed at
    stride s + 1 is, read at stride s, the same polynomial at qt.

    K_D is decoded exactly, digit s n + e being [t^n q^e], when three bounds
    hold, and the walk meets them at each rank before it yields it.  Every
    exponent is >= 0: a g_r with a negative q-exponent raises
    ArithmeticError before it is packed.  Every q-degree is below s: term r
    has q-degree at most max_m (deg g_r[m] + k m) + k(k-1)/2 + r k, k = D - r,
    the last two being the degrees of (t;q)_k and [D r]_q.  Every
    coefficient is below 2^(w - 2): the coefficient L1 norm is subadditive,
    submultiplicative and kept by t -> q^k t and t^r, L1((t;q)_k) = 2^k and
    L1([D r]_q) = C(D, r), so a coefficient of K_D is at most
    B = sum over r of L1(g_r) 2^k C(D, r).  The walk is sized by
    _packed_sizes from the largest rank asked so far; a rank past that
    reach, or one whose bounds it does not meet, rebuilds it from the
    numerators read so far, never narrower than that rank's bounds.  Past
    the reach it grows to 4/3 of it or to the rank asked: a step costs about
    D^2 R^3 at reach R, so an ascending pass rebuilds a few times and a pass
    that asks for its top rank late is not walked at twice that rank.
    """
    gs: list[TPoly] = []  # g_r, rank r at index r
    sizes: list[tuple[int, list[tuple[int, int]]]] = []  # L1(g_r), [(m, deg g_r[m])]
    us: list[int] = []  # U_j of rank d - 1 at stride s0 - d + 1, then P_j of rank d
    reach, w, s0 = -1, 0, 0
    asked = yield 0, 8, 1  # primed by _unframe_walk
    for d in itertools.count():
        if d:
            g = numerator(d - 1)
            if any(min(c.terms, default=0) < 0 for c in g.coeffs):
                raise ArithmeticError(f"rank-{d - 1} numerator has a negative q-exponent")
            gs.append(g)
            sizes.append((
                sum(sum(map(abs, c.terms.values())) for c in g.coeffs),
                [(m, max(c.terms)) for m, c in enumerate(g.coeffs) if c.terms],
            ))
            _pascal_sums(us, _pack_shifted(g, d - 1, w, s0 - d + 1))
        bound = top = 0
        for r, (norm, degrees) in enumerate(sizes):
            k = d - r
            bound += norm * comb(d, r) << k
            high = max((e + k * m for m, e in degrees), default=0)
            top = max(top, high + k * (k - 1) // 2 + r * k)
        if d > reach or _digit_width(bound) > w or top >= s0 - d:
            if d > reach:
                reach = max(asked, reach + reach // 3)
            w, s0 = _packed_sizes(reach)
            w, s0 = max(w, _digit_width(bound)), max(s0, d + top + 1)
            us = []
            for r, g in enumerate(gs):
                _pascal_parts(us, w, s0 - r)
                _pascal_sums(us, _pack_shifted(g, r, w, s0 - r))
        _pascal_parts(us, w, s0 - d)
        asked = yield sum(us), w, s0 - d


def _unframe_walk(numerator: Callable[[int], TPoly]) -> _Walk:
    """The transforms of numerator's ranks walked so far, rank D at index D,
    none yet, and the rest of their walk (_unframe_steps), primed."""
    steps = _unframe_steps(numerator)
    next(steps)
    return [], steps


def _unframe_lower(walk: _Walk, d: int) -> TPoly:
    """sum over r < d of t^r [d r]_q g_r(q^(d-r) t) (t;q)_(d-r), read off the
    walk of g_r = numerator(r) (_unframe_walk), advanced only as far as d.
    A rank is decoded when it is read, so a walk read at one rank decodes
    only that one."""
    sums, steps = walk
    while len(sums) <= d:
        sums.append(steps.send(d))
    k = sums[d]
    if not isinstance(k, TPoly):
        k = sums[d] = _unpack_row(*k)
    return k


@functools.cache
def _solved_walk() -> _Walk:
    """The walk fed with the solved numerators, which solve_nh advances."""
    return _unframe_walk(solve_nh)


def quot_numerator(d: int, prime: Optional[int] = None) -> TPoly:
    """Numerator of the rank-d unframed series over (t;q)_d.

    Unframed counts are binomial-weighted shifts of the framed ones:
    the rank-r framed series enters at t -> q^(d-r) t with weight
    [d r]_q t^r.  The r = d term goes first: it checks d.  The ranks
    below d are read off the antidiagonal walk fed with the engine's
    numerators (_unframed_below), the transform that solve_nh reads too.
    """
    _check_prime(prime)
    total = _hilb_q(d).shift_t(d) + _unframed_below(tuple(_hilb_q(r) for r in range(d)))
    return _at(total, prime)


@functools.cache
def _unframed_below(lower: tuple[TPoly, ...]) -> TPoly:
    """The transform of the numerators lower, ranks 0..len(lower) - 1, at
    rank len(lower), read off their own walk.  Kept per numerators, not per
    rank: a rank asked for at two primes is walked once, and numerators
    rebuilt after _color_rows is cleared are walked afresh."""
    return _unframe_lower(_unframe_walk(lower.__getitem__), len(lower))


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
    rank up to n, so n is capped by MAX_D, checked before any work.
    """
    n = _check_series_rank(check_nonnegative(n, "order"))
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
    lower-rank numerators, read off the antidiagonal walk fed with the
    solved numerators (_solved_walk), so rank d adds one q-Pascal step to
    the walk of rank d - 1.  The walk is advanced only as far as d, so each
    rank is walked and decoded once in any order of ranks, the walk is
    closed once rank MAX_SOLVE_D is read, and a step that raises drops it,
    so the next call starts over from rank 0.  With f
    normalized by [t^0] = 1 and [t^d] = q^(d^2) the relation determines
    every middle coefficient, and the full relation is re-checked at the
    end.  Ranks past MAX_SOLVE_D are refused before any work.
    """
    d = check_nonnegative(d, "rank")
    if d > MAX_SOLVE_D:
        raise ValueError(f"the triangular solve stops at rank {MAX_SOLVE_D}")
    if d == 0:
        return TPoly.one()
    walk = _solved_walk()
    try:
        rhs = _unframe_lower(walk, d)
    except BaseException:
        _solved_walk.cache_clear()  # the next call walks from rank 0, never out of step
        raise
    if len(walk[0]) > MAX_SOLVE_D:
        walk[1].close()  # no rank is left to walk: frees the packed state
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
