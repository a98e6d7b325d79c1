"""Brute-force oracles over small finite fields.

Everything here counts by exhaustive enumeration, with no input from
the closed formulas it is meant to check.  Budgets are hard caps on the
enumeration size; calls past them raise BudgetError instead of hanging.

count_quot_bruteforce counts invariant subspaces of fixed codimension
directly: a codimension-n submodule contains every element of degree
at least 2n+2 on each seat, so the count happens in the finite window
of per-seat degrees 2..2n+1.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .groebner import Element, Monomial, PreBasis, is_groebner
from .qalgebra import is_prime
from .strata import LeadingTermDatum
from .varieties import BudgetError, GFMatrix

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

QUOT_WINDOW_CAP = {2: 14, 3: 10}  # largest allowed d*(2n+2) per prime
STRATUM_BIT_BUDGET = 20


def echelon_subspaces(
    dim_total: int, dim_sub: int, p: int
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Yield (pivots, reduced echelon rows) for every subspace of the given dimension."""
    if not 0 <= dim_sub <= dim_total:
        raise ValueError("subspace dimension out of range")
    for pivots in itertools.combinations(range(dim_total), dim_sub):
        pivset = set(pivots)
        free = [
            (i, j)
            for i, pc in enumerate(pivots)
            for j in range(pc + 1, dim_total)
            if j not in pivset
        ]
        for vals in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * dim_total for _ in range(dim_sub)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            yield pivots, [tuple(r) for r in rows]


def _count_quot_gf2(d: int, n: int) -> int:
    win = 2 * n
    total = d * win
    keep = total - n
    mask2 = sum(1 << (s * win + o) for s in range(d) for o in range(win - 2))
    mask3 = sum(1 << (s * win + o) for s in range(d) for o in range(win - 3))
    count = 0
    for pivots in itertools.combinations(range(total), keep):
        pivset = set(pivots)
        free = [
            (i, j)
            for i, pc in enumerate(pivots)
            for j in range(pc + 1, total)
            if j not in pivset
        ]
        base = [1 << pc for pc in pivots]
        for bits in itertools.product((0, 1), repeat=len(free)):
            rows = base.copy()
            for (i, j), v in zip(free, bits):
                if v:
                    rows[i] |= 1 << j
            ok = True
            for r in rows:
                for mask, sh in ((mask2, 2), (mask3, 3)):
                    img = (r & mask) << sh
                    if img:
                        for i2, pc in enumerate(pivots):
                            if (img >> pc) & 1:
                                img ^= rows[i2]
                        if img:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                count += 1
    return count


def count_quot_bruteforce(d: int, n: int, p: int) -> int:
    """Number of codimension-n invariant subspaces of the rank-d framed module.

    The acting operators are the two degree shifts; shifts leaving the
    2..2n+1 window vanish, which is exact in the quotient by the tail
    every codimension-n submodule must contain.
    """
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    if p not in QUOT_WINDOW_CAP:
        raise BudgetError(f"oracle supports F_2 and F_3 only, not F_{p}")
    if d * (2 * n + 2) > QUOT_WINDOW_CAP[p]:
        raise BudgetError(
            f"window d*(2n+2) = {d * (2 * n + 2)} exceeds the F_{p} cap {QUOT_WINDOW_CAP[p]}"
        )
    if n == 0:
        return 1
    if p == 2:
        return _count_quot_gf2(d, n)
    win = 2 * n
    total = d * win
    count = 0
    for pivots, rows in echelon_subspaces(total, total - n, p):
        ok = True
        for row in rows:
            for sh in (2, 3):
                img = [0] * total
                for idx, v in enumerate(row):
                    if v and idx % win + sh < win:
                        img[idx + sh] = v
                for i2, pc in enumerate(pivots):
                    c = img[pc]
                    if c:
                        r2 = rows[i2]
                        img = [(a - c * b) % p for a, b in zip(img, r2)]
                if any(img):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# matrix pair counts


def _commutant_basis(B: list[list[int]], n: int, p: int) -> list[tuple[int, ...]]:
    """Basis of {A : AB = BA} as flattened n*n vectors."""
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for u in range(n):
                for v in range(n):
                    c = 0
                    if u == i:
                        c += B[v][j]
                    if v == j:
                        c -= B[i][u]
                    row[u * n + v] = c % p
            rows.append(row)
    return GFMatrix(rows, p).kernel_basis()


def _matmul(A: list[list[int]], B: list[list[int]], n: int, p: int) -> list[list[int]]:
    return [
        [sum(A[i][k] * B[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]


def _pairs_for_b(B: list[list[int]], n: int, p: int, sq_cache: dict) -> int:
    """Number of A in the commutant of B with A^2 = B^3."""
    b2 = _matmul(B, B, n, p)
    b3 = tuple(itertools.chain.from_iterable(_matmul(b2, B, n, p)))
    basis = _commutant_basis(B, n, p)
    count = 0
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        flat = [0] * (n * n)
        for c, vec in zip(coeffs, basis):
            if c:
                flat = [(a + c * b) % p for a, b in zip(flat, vec)]
        key = tuple(flat)
        sq = sq_cache.get(key)
        if sq is None:
            A = [flat[i * n : (i + 1) * n] for i in range(n)]
            sq = tuple(itertools.chain.from_iterable(_matmul(A, A, n, p)))
            sq_cache[key] = sq
        if sq == b3:
            count += 1
    return count


def _check_pair_budget(n: int, p: int, nilpotent_only: bool) -> None:
    if n < 0:
        raise ValueError("size must be >= 0")
    allowed = (n <= 3 and p in (2, 3)) or (nilpotent_only and (n, p) == (4, 2))
    if not allowed:
        raise BudgetError(f"pair enumeration budget excludes n={n}, p={p}")


def count_nilpotent_pairs(n: int, p: int) -> int:
    """Pairs (A, B) of nilpotent n x n matrices with AB = BA and A^2 = B^3.

    Only B is filtered for nilpotency: A^2 = B^3 already forces A to be
    nilpotent.
    """
    _check_pair_budget(n, p, nilpotent_only=True)
    if n == 0:
        return 1
    sq_cache: dict = {}
    count = 0
    for flat in itertools.product(range(p), repeat=n * n):
        B = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        Bk = B
        for _ in range(n - 1):
            Bk = _matmul(Bk, B, n, p)
        if any(any(r) for r in Bk):
            continue
        count += _pairs_for_b(B, n, p, sq_cache)
    return count


def count_all_pairs(n: int, p: int) -> int:
    """Pairs (A, B) of arbitrary n x n matrices with AB = BA and A^2 = B^3."""
    _check_pair_budget(n, p, nilpotent_only=False)
    if n == 0:
        return 1
    sq_cache: dict = {}
    count = 0
    for flat in itertools.product(range(p), repeat=n * n):
        B = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        count += _pairs_for_b(B, n, p, sq_cache)
    return count


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
    bit_budget: int = STRATUM_BIT_BUDGET,
) -> int:
    """Count reduced bases over F_p whose leading monomials are the datum's corners.

    pins fixes some slot values; the rest range over all of F_p, and a
    choice counts when the closure test passes.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    pins = dict(pins or {})
    slots = stratum_slots(datum)
    unknown = set(pins) - set(slots)
    if unknown:
        raise ValueError(f"pinned slots not in the stratum: {sorted(unknown)}")
    free = [s for s in slots if s not in pins]
    if p ** len(free) > 1 << bit_budget:
        raise BudgetError(f"{p}^{len(free)} bases exceed the stratum budget")
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
        if is_groebner(PreBasis(elements, datum.d)):
            count += 1
    return count
