"""Brute-force oracles over small finite fields.

Everything here counts by exhaustive enumeration, with no input from
the closed formulas it is meant to check.  Before any work each count
hands the number of candidates it will walk to varieties.check_budget,
which raises BudgetError past ENUMERATION_BUDGET instead of hanging:
the Gaussian binomial [dim_total, dim_sub]_p for echelon_subspaces and
[2dn, n]_p for the quot window (all that its walk would meet without
pruning), p^(n^2) matrices B for the nilpotent pairs, p^(n^2+1) for all
pairs (each of the p scalar B has the whole matrix space as commutant),
p^(free slots) for a stratum.
A size only admits or rejects a call; it never enters a count.

count_quot_bruteforce counts invariant subspaces of fixed codimension
directly: a codimension-n submodule contains every element of degree
at least 2n+2 on each seat, so the count happens in the finite window
of per-seat degrees 2..2n+1.  One walk over reduced echelon bases, the
same for every prime, builds a basis one row at a time from the highest
window position down and drops a row as soon as one of its shifts leaves
the span of the rows above it.  The rows are packed rows of
varieties._row_lanes, so the image of a row under a shift is one mask
and one shift of its int, and the span test is varieties._in_span.

count_all_pairs and count_nilpotent_pairs count pairs (A, B) with
AB = BA and A^2 = B^3 one conjugacy orbit of B at a time: A -> gAg^-1 is
a bijection between the solutions for B and for gBg^-1, so one
representative, weighted by its orbit size, stands for the whole orbit.
The orbits come from a flood fill under a cyclic shift, one transvection
and one diagonal matrix, which generate GL_n(F_p), and their sizes are
what the fill reaches; no class-size or centralizer formula enters, so
the counts stay independent of the formulas they audit.  The fill runs on
indices, each matrix the base-p integer of its row-major entries, with a
bytearray of one byte per matrix for what it has seen, which the budget
bounds at 1 MiB.  Each conjugation is a chain of one to four split steps
x -> H[x // p^k] + L[x % p^k], two lookups in tables built, on the first
call for an (n, p), from the maps on entry tuples that define the moves.
For each representative B, varieties._commutant_roots walks the
commutant of B, every cell of A free, and keeps the A with A^2 = B^3: the
walk the staircase-variety counts run over each of their Y.

count_stratum_bruteforce runs groebner's standard-basis test on up to
_COLUMN = 2^12 candidate bases at once, each coefficient a packed column
of varieties._Lanes with one lane per candidate.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Iterable, Iterator, Optional

from .groebner import Element, PreBasis, _closed_count, _closure_lanes
from .qalgebra import check_nonnegative, check_prime
from .strata import LeadingTermDatum, Monomial
from .varieties import BudgetError, _commutant_roots, _in_span, _lane_coords, _row_lanes, check_budget

__all__ = [
    "BudgetError",
    "echelon_subspaces",
    "count_quot_bruteforce",
    "count_nilpotent_pairs",
    "count_all_pairs",
    "count_stratum_bruteforce",
    "stratum_slots",
    "first_corner_slots",
]

Matrix = tuple[int, ...]  # n x n matrix over F_p, row-major


def _check_subspaces(call: str, total: int, k: int, p: int) -> None:
    """check_budget for a walk over the [total, k]_p subspaces of F_p^total,
    at least p^(k*(total-k)): the largest echelon cell alone holds that many."""
    k = min(k, total - k)
    check_budget(call, p, k * (total - k), lambda: math.prod(
        p ** (total - i) - 1 for i in range(k)) // math.prod(p ** (i + 1) - 1 for i in range(k)))


def echelon_subspaces(
    dim_total: int, dim_sub: int, p: int
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Yield (pivots, reduced echelon rows) for every subspace of the given dimension."""
    dim_total, dim_sub = map(operator.index, (dim_total, dim_sub))
    if not 0 <= dim_sub <= dim_total:
        raise ValueError("subspace dimension out of range")
    p = check_prime(p)
    _check_subspaces(f"echelon_subspaces({dim_total}, {dim_sub}, {p})", dim_total, dim_sub, p)
    for pivots in itertools.combinations(range(dim_total), dim_sub):
        pivset = set(pivots)
        free = [(i, j) for i, pc in enumerate(pivots)
                for j in range(pc + 1, dim_total) if j not in pivset]
        for vals in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * dim_total for _ in range(dim_sub)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            yield pivots, [tuple(r) for r in rows]


def count_quot_bruteforce(d: int, n: int, p: int) -> int:
    """Number of codimension-n invariant subspaces of the rank-d framed module.

    The acting operators are the two degree shifts; shifts leaving the
    2..2n+1 window vanish, which is exact in the quotient by the tail
    every codimension-n submodule must contain.

    One walk over reduced echelon bases, for every prime, decides the
    window positions from the highest down: a non-pivot joins the free
    positions above, and a pivot row is 1 at the pivot, takes every value
    at the free positions above it and is 0 elsewhere.  A row is kept only
    when both its shifts lie in the span of the rows already chosen.  A
    shift of a row starts at least two positions above its pivot, so in
    the reduced echelon basis of any subspace holding it, it is a
    combination of rows with higher pivots, which are exactly those rows;
    a refused row lies in no invariant subspace with them above it, and
    each invariant subspace is met once, at its unique reduced basis.
    """
    d, n = map(operator.index, (d, n))
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    p = check_prime(p)
    win = 2 * n
    total = d * win
    keep = total - n
    # the walk without pruning would meet each of the [total, n]_p subspaces once
    _check_subspaces(f"count_quot_bruteforce({d}, {n}, {p})", total, n, p)
    # rows are packed rows of total lanes; the image of a row under a shift
    # keeps the lanes that stay in the window, one mask, and moves them up
    lanes = _row_lanes(p, total)
    w = lanes.width
    shifts = [
        (sum(lanes.field << i * w for i in range(total) if i % win + s < win), s * w) for s in (2, 3)
    ]
    shifts = [(mask, up) for mask, up in shifts if mask]  # none at n = 1
    unit = [1 << j * w for j in range(total)]

    def walk(pos: int, rows: list[int], pivots: list[int], free: list[int]) -> int:
        """Invariant subspaces whose basis rows with pivots above pos are exactly rows;
        free holds the non-pivots above pos."""
        if len(rows) == keep:
            return 1
        if keep - len(rows) > pos + 1:
            return 0
        count = walk(pos - 1, rows, pivots, free + [pos])
        units = [unit[j] for j in free]
        for vals in itertools.product(range(p), repeat=len(free)):
            row = unit[pos] + sum(map(operator.mul, vals, units))
            if all(_in_span(rows, pivots, (row & mask) << up, lanes) for mask, up in shifts):
                count += walk(pos - 1, rows + [row], pivots + [pos], free)
        return count

    return walk(total - 1, [], [], [])


# ---------------------------------------------------------------------------
# matrix pair counts


def _generators(n: int, p: int) -> list[tuple[Callable[[Matrix], Matrix], ...]]:
    """Conjugations B -> g B g^-1 by three generators g of GL_n(F_p), each
    as the maps of flat matrices that apply it in turn.

    The g are the cyclic shift e_i -> e_(i+1), the transvection I + E_01
    and diag(w, 1, ..., 1) with w the least generator of F_p^x; at n = 1
    only the diagonal one is left, and at n = 0 none.  Conjugating I + E_01 by
    powers of the shift gives every I + E_(i,i+1) with indices mod n, and
    their commutators every I + E_ij, which generate SL_n(F_p); the
    diagonal matrix makes the determinant onto F_p^x.  The shift only
    permutes entries and the diagonal move only rescales row 0 and column
    0, one map each; the transvection is a row operation and then a column
    operation, two maps, which _steps applies apart at n = 2.
    """

    def add_row(b: Matrix) -> Matrix:
        # row 0 += row 1
        return tuple([(x + y) % p for x, y in zip(b, b[n : 2 * n])]) + b[n:]

    def sub_column(b: Matrix) -> Matrix:
        # column 1 -= column 0
        m = list(b)
        for k in range(0, n * n, n):
            m[k + 1] = (m[k + 1] - m[k]) % p
        return tuple(m)

    def rescale(b: Matrix, w: int, w_inv: int) -> Matrix:
        # row 0 times w, then column 0 times w^-1
        m = list(b)
        for k in range(n):
            m[k] = m[k] * w % p
        for k in range(n):
            m[k * n] = m[k * n] * w_inv % p
        return tuple(m)

    if not n:
        return []
    moves: list[tuple[Callable[[Matrix], Matrix], ...]] = []
    if n >= 2:
        # entry (i, j) of S B S^-1 is entry (i - 1, j - 1) of B
        shift = operator.itemgetter(*((i - 1) % n * n + (j - 1) % n for i in range(n) for j in range(n)))
        moves += [(shift,), (add_row, sub_column)]
    # w generates F_p^x iff w^((p - 1)/q) != 1 for every prime q dividing p - 1
    primes, rest, q = [], p - 1, 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    w = next(w for w in range(1, p) if all(pow(w, (p - 1) // q, p) != 1 for q in primes))
    if w != 1:
        moves.append((functools.partial(rescale, w=w, w_inv=pow(w, p - 2, p)),))
    return moves


def _index(b: Matrix, p: int) -> int:
    """The index of a matrix: its row-major entries as the base-p digits of
    an integer, the first entry highest, so range(p^(n^2)) lists the
    matrices in itertools.product order."""
    x = 0
    for c in b:
        x = x * p + c
    return x


def _matrix(x: int, n: int, p: int) -> Matrix:
    """The matrix of index x."""
    digits = []
    for _ in range(n * n):
        x, c = divmod(x, p)
        digits.append(c)
    return tuple(reversed(digits))


Step = tuple[int, tuple[int, ...], tuple[int, ...]]  # (p^k, H, L): the step x -> H[x // p^k] + L[x % p^k]


def _split(move: Callable[[Matrix], Matrix], k: int, units: list[Matrix], p: int) -> Optional[Step]:
    """The step at k digits that applies the linear map move to indices, or
    None when the images of the top and the low k digits share a digit.

    move(B) is the sum of the images of the parts of B on any two disjoint
    sets of digits that cover it, and each image lies in the span of the
    images of its part's unit matrices.  When those spans touch disjoint digits the
    sum has no carry, so it is the sum of the two indices.  That gives the
    step, and it builds each table from the tables of its block's leading
    digits and the rest, as an outer sum, wherever they split so; only a
    block that splits nowhere is enumerated through move."""
    size = len(units)
    touched = [{i for i, c in enumerate(move(e)) if c} for e in units]

    def splits(first: int, cut: int, last: int) -> bool:
        return not set().union(*touched[first:cut]) & set().union(*touched[cut:last])

    def table(first: int, last: int) -> list[int]:
        # the index of move(B) for each B that is 0 off the digits first..last - 1,
        # in the order of the index of B
        for cut in range(first + 1, last):
            if splits(first, cut, last):
                rest = table(cut, last)
                return [h + r for h in table(first, cut) for r in rest]
        head, tail = (0,) * first, (0,) * (size - last)
        return [_index(move(head + t + tail), p) for t in itertools.product(range(p), repeat=last - first)]

    top = size - k
    if not splits(0, top, size):
        return None
    return p**k, tuple(table(0, top)), tuple(table(top, size))


@functools.lru_cache(maxsize=16)
def _steps(n: int, p: int) -> tuple[tuple[Step, ...], ...]:
    """For each move of _generators, the split steps that apply it to indices.

    Every step splits below the first ceil(n/2) rows, so no table has more
    than p^(n ceil(n/2)) entries.  A move that splits there is one step:
    the shift and the diagonal move, which permute entries and act within
    rows, and at n >= 3 the transvection, whose rows 0 and 1 lie above the
    split.  Otherwise each of its maps is a step, and a map that mixes the
    two halves within columns splits at the same digits of the transposed
    index, so it runs between two transposes: at n = 2 the transvection is
    four steps.  A move that fixes every unit matrix is the identity, being
    linear, and has no step, so n = 1, with p up to 2^20, builds no table.

    Built on the first call for an (n, p), which count_nilpotent_pairs and
    count_all_pairs then share; sixteen entries hold every (n, p) with
    n >= 2 that the budget admits.  Steps and tables are tuples, so no
    caller can change what a later call is served."""
    size, k = n * n, n * (n // 2)
    units = [(0,) * j + (1,) + (0,) * (size - 1 - j) for j in range(size)]
    chains = []
    for maps in _generators(n, p):

        def move(b: Matrix, maps=maps) -> Matrix:
            for f in maps:
                b = f(b)
            return b

        if all(move(e) == e for e in units):
            chains.append(())
            continue
        step = _split(move, k, units, p)
        if step is not None:
            chains.append((step,))
            continue
        chain: list[Step] = []
        for f in maps:
            step = _split(f, k, units, p)
            if step is None:
                transpose = operator.itemgetter(*(j * n + i for i in range(n) for j in range(n)))
                flip = _split(transpose, k, units, p)
                step = _split(lambda b: transpose(f(transpose(b))), k, units, p)
                if flip is None or step is None:
                    raise ArithmeticError(f"a move of {n} x {n} matrices splits in neither index")
                chain += [flip, step, flip]
            else:
                chain.append(step)
        chains.append(tuple(chain))
    return tuple(chains)


def _orbits(seeds: Iterable[int], n: int, p: int) -> list[tuple[Matrix, int]]:
    """(representative, size) of each conjugacy orbit that meets seeds, an
    iterable of indices.

    A flood fill under the three conjugations of _generators, each applied
    to indices by its chain of _steps, with one byte of seen per matrix:
    the size of an orbit is the number of matrices the fill reaches, and no
    class-size formula enters.  A generating set that fell short of
    GL_n(F_p) would only split orbits.
    """
    chains = _steps(n, p)
    seen = bytearray(p ** (n * n))
    out = []
    for rep in seeds:
        if seen[rep]:
            continue
        seen[rep] = 1
        stack = [rep]
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for chain in chains:
                y = x
                for scale, high, low in chain:
                    y = high[y // scale] + low[y % scale]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        out.append((_matrix(rep, n, p), size))
    return out


def _strictly_upper(n: int, p: int) -> Iterator[int]:
    """The index of every strictly upper triangular matrix, in
    itertools.product order of the entries above the diagonal."""
    weights = [p ** (n * n - 1 - i * n - j) for i in range(n) for j in range(i + 1, n)]
    for vals in itertools.product(range(p), repeat=len(weights)):
        yield sum(map(operator.mul, vals, weights))


def _pairs_over(b: Matrix, n: int, p: int) -> int:
    """Number of A in the commutant of B with A^2 = B^3."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    rows = [b[i * n : (i + 1) * n] for i in range(n)]
    return _commutant_roots(cells, cells, p).number(rows)


def _check_pair_count(call: str, n: int, p: int, extra: int) -> tuple[int, int]:
    """n and p as ints, after checking them and the walk of p^(n^2 + extra)
    candidates, before any work."""
    n, p = check_nonnegative(n, "size"), check_prime(p)
    check_budget(f"{call}({n}, {p})", p, n * n + extra)
    return n, p


def count_nilpotent_pairs(n: int, p: int) -> int:
    """Pairs (A, B) of nilpotent n x n matrices with AB = BA and A^2 = B^3.

    Only B is required nilpotent: A^2 = B^3 already forces A to be
    nilpotent.  Every nilpotent B is conjugate to a strictly upper
    triangular one, so those seed the orbit walk, which then reaches
    exactly the nilpotent B.
    """
    n, p = _check_pair_count("count_nilpotent_pairs", n, p, 0)
    seeds = _strictly_upper(n, p)
    return sum(size * _pairs_over(b, n, p) for b, size in _orbits(seeds, n, p))


def count_all_pairs(n: int, p: int) -> int:
    """Pairs (A, B) of arbitrary n x n matrices with AB = BA and A^2 = B^3."""
    n, p = _check_pair_count("count_all_pairs", n, p, 1)
    return sum(size * _pairs_over(b, n, p) for b, size in _orbits(range(p ** (n * n)), n, p))


# ---------------------------------------------------------------------------
# stratum counts


def stratum_slots(datum: LeadingTermDatum) -> list[tuple[int, Monomial]]:
    """Free coefficient slots (corner index, tail monomial) of reduced bases.

    A reduced basis element leads with its corner and carries tails on
    standard monomials strictly above it.
    """
    std = datum.standard_set()
    return [
        (ci, nu)
        for ci, c in enumerate(datum.corners())
        for nu in std
        if nu > c
    ]


def first_corner_slots(datum: LeadingTermDatum) -> list[tuple[int, Monomial]]:
    """The subset of slots sitting on a first-corner generator."""
    firsts = set(datum.first_corners())
    corners = datum.corners()
    return [(ci, nu) for ci, nu in stratum_slots(datum) if corners[ci] in firsts]


def count_stratum_bruteforce(
    datum: LeadingTermDatum,
    p: int,
    pins: Optional[dict[tuple[int, Monomial], int]] = None,
) -> int:
    """Count reduced bases over F_p whose leading monomials are the datum's corners.

    pins fixes some slot values; the rest range over all of F_p, and a
    choice counts when groebner's standard-basis test passes.  The test runs
    on packed columns of up to _COLUMN candidates in itertools.product
    order: the last free slots are the digit columns of the lanes, packed
    once, and the others, the pinned slots and the corners' 1 are constant.
    """
    p = check_prime(p)
    pins = dict(pins or {})
    slots = stratum_slots(datum)
    unknown = set(pins) - set(slots)
    if unknown:
        raise ValueError(f"pinned slots not in the stratum: {sorted(unknown)}")
    bad = {s: v for s, v in pins.items() if not (isinstance(v, int) and 0 <= v < p)}
    if bad:
        raise ValueError(f"pin values must be integers in range({p}): {bad}")
    free = [s for s in slots if s not in pins]
    call = f"count_stratum_bruteforce({datum}, {p}) with {len(pins)} pinned slots"
    check_budget(call, p, len(free))
    corners, trunc = datum.corners(), 2 * datum.n() + 4
    if corners:  # every candidate leads with them, so one PreBasis checks them all
        PreBasis([Element({c: 1}, p, trunc) for c in corners], datum.d)
    outer = len(free) - _lane_coords(p, len(free))
    lanes = _closure_lanes(p, p ** (len(free) - outer))
    count = 0
    for vals in itertools.product(range(p), repeat=outer):
        cols = [(s, v * lanes.ones) for s, v in itertools.chain(pins.items(), zip(free, vals)) if v]
        cols += zip(free[outer:], lanes.digits)
        elements = [[(c, lanes.ones)] + [(nu, col) for (ci, nu), col in cols if ci == j]
                    for j, c in enumerate(corners)]
        count += _closed_count(corners, elements, p, trunc, lanes.size)
    return count
