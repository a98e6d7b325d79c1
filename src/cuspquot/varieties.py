"""Staircase matrix varieties and module profiles over small prime fields.

The variety attached to a pure-K datum of rank d is the set of strictly
upper triangular pairs (X, Y) over F_p with X^2 = Y^3, XY = YX and the
zero pattern dictated by the datum's pairwise distances: X_bh is forced
to 0 unless distance(b,h) >= 3, Y_bh unless distance(b,h) >= 2.  Only
the truncated distance classes 1-, 2, 3+ matter.  symbolic_v_alpha
counts these varieties as polynomials in q by case splitting, exactly
over every F_q, once per pair of a pattern and its anti-transpose (_flip),
which count one variety.  When every distance is 3+ the variety is the full
staircase variety V_d, whose motive obeys a two-parameter recursion
computed here exactly on big integers that pack each polynomial at
q = 2^w: a table entry on a walk of the recursion's rows, a motive on one
walk of the row polynomial at q^-i, advanced as far as the ranks asked
for.

One enumerator, _cusp_fibres, walks the F_p points of all of them: for
each Y on its slots, _commutant_roots walks the kernel of the linear
condition XY = YX and keeps the X with X^2 = Y^3, its innermost kernel
coordinates packed into the lanes of one int per slot (_Lanes, up to
_COLUMN lanes).  count_v_spec (a patterned variety) and brute_v_d count
its solving lanes, and enumerate_v_d_points (V_d) reads the points off
them; they are the oracles of the closed forms.  The pair counts of
oracles walk the same commutant fibres with every matrix cell free, and
the stratum oracle runs groebner's closure test on the same lanes.  Every
brute-force enumeration, here and in oracles, passes the number of
candidates it will walk to check_budget before any work: past the one
ENUMERATION_BUDGET it raises BudgetError.

The module profile machinery views a point (X, Y) as the R-module
M = F_p^m with x, y acting by X, Y (R the cusp ring), and measures the
kernel/image filtration of the matrix factorization operator on M + M
with the echelon primitives above: ker A, the reduced echelon basis of
im A' and ranks of spans, with no linear solve.  Every row reduction
here, of GFMatrix, of the module profiles and of the subspace oracle in
oracles, runs on packed rows: a vector of n coordinates is one int of n
lanes (_row_lanes), and _rref is the one elimination kernel.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Generator, Iterable, Iterator, NamedTuple, Optional, Sequence

from .qalgebra import LaurentPolyQ, _from_clean, check_nonnegative, check_prime
from .strata import LeadingTermDatum

__all__ = [
    "GFMatrix",
    "VAlphaSpec",
    "AbProfile",
    "MotiveTable",
    "BudgetError",
    "distance_class",
    "count_v_alpha",
    "count_v_spec",
    "symbolic_v_alpha",
    "staircase_motive",
    "brute_v_d",
    "ab_profile",
    "classify_kernel_vector",
    "extend_point",
    "h0_t_exact",
    "enumerate_v_d_points",
    "staircase_table_csv",
    "motive_table_csv",
    "ENUMERATION_BUDGET",
    "check_budget",
]

ENUMERATION_BUDGET = 1 << 20  # candidates one brute-force enumeration may walk


class BudgetError(ValueError):
    """An enumeration would walk more than ENUMERATION_BUDGET candidates."""


def check_budget(call: str, p: int, digits: int, exact: Optional[Callable[[], int]] = None) -> None:
    """BudgetError naming call, before any work, past ENUMERATION_BUDGET candidates.

    The walk has p^digits candidates, or exact() >= p^digits.  Past 64 digits
    the size is not computed, which alone could take unbounded time and memory
    (p >= 2, so the walk is over budget anyway), and p^digits bounds it."""
    size = f"at least {p}^{digits}"
    if digits <= 64:
        size = p ** digits if exact is None else exact()
        if size <= ENUMERATION_BUDGET:
            return
    raise BudgetError(f"{call} would walk {size} candidates, over the budget {ENUMERATION_BUDGET}")


# ---------------------------------------------------------------------------
# small exact linear algebra over F_p on packed lanes: a vector of n
# coordinates is one int of the n lanes of _row_lanes, and a column of
# candidates one int of the lanes of _lanes


def _rref(vectors: Iterable[int], lanes: _Lanes) -> tuple[list[int], list[int]]:
    """Reduced row echelon basis of the span of packed rows; returns (rows,
    pivot lanes), pivots ascending.

    A row step v - c r is one multiply-add, v + (p - c) r.  Each row is 1
    at its pivot and 0 at every other pivot, so the coefficient of every
    row is the lane of v itself at that pivot, and the steps of v against
    all k <= n rows add up before one reduce: a lane is at most
    p - 1 + k (p - 1)^2, within the bound of _row_lanes.  The pivot of a
    new row is its lowest nonzero lane, which holds the lowest set bit of
    the reduced v."""
    p, w, field, reduce = lanes.p, lanes.width, lanes.field, lanes.reduce
    rows: list[int] = []
    pivots: list[int] = []
    for v in vectors:
        acc = v
        for r, piv in zip(rows, pivots):
            c = (v >> piv) & field
            if c:
                acc += (p - c) * r
        if acc != v:
            v = reduce(acc)
        if not v:
            continue
        lead = ((v & -v).bit_length() - 1) // w * w  # the first bit of the pivot lane
        c = (v >> lead) & field
        if c != 1:
            v = reduce(v * pow(c, p - 2, p))
        for i, (r, piv) in enumerate(zip(rows, pivots)):
            c = (r >> lead) & field
            if c:
                rows[i] = reduce(r + (p - c) * v)
        rows.append(v)
        pivots.append(lead)
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return [rows[i] for i in order], [pivots[i] // w for i in order]


def _in_span(rows: Sequence[int], pivots: Sequence[int], v: int, lanes: _Lanes) -> bool:
    """The packed row v lies in the span of packed rows, each 1 at its pivot
    lane, where every other row is 0: the reduced echelon rows of _rref, or
    the kernel basis of _kernel with its free lanes.  As in _rref, the
    coefficient of each row is the lane of v at its pivot, and one reduce
    ends the steps."""
    p, w, field = lanes.p, lanes.width, lanes.field
    acc = v
    for r, piv in zip(rows, pivots):
        c = (v >> piv * w) & field
        if c:
            acc += (p - c) * r
    return not lanes.reduce(acc)


def _combine(coefficients: Iterable[Sequence[int]], vectors: Sequence[int], lanes: _Lanes) -> list[int]:
    """sum_k c[k] vectors[k], reduced, for each coefficient row c: a product
    of a matrix by packed rows or columns, one reduce per row.  Its lanes sum
    len(vectors) products of residues, within the bound of lanes when
    len(vectors) is at most their lane count."""
    reduce = lanes.reduce
    return [reduce(sum(map(operator.mul, row, vectors))) for row in coefficients]


def _kernel(rows: Sequence[int], pivots: Sequence[int], n: int, lanes: _Lanes) -> tuple[list[int], list[int]]:
    """A basis of the v of n lanes with r . v = 0 for every reduced echelon
    row r, and its free lanes: for each lane j that is no pivot,
    e_j - sum_i r_i[j] e_(pivot i), 1 at j and 0 at every other free lane."""
    p, w, field = lanes.p, lanes.width, lanes.field
    taken = set(pivots)
    free = [j for j in range(n) if j not in taken]
    basis = []
    for j in free:
        v = 1 << j * w
        for r, piv in zip(rows, pivots):
            c = (r >> j * w) & field
            if c:
                v += (p - c) << piv * w
        basis.append(v)
    return basis, free


_COLUMN = 1 << 12  # most lanes in a packed column; further coordinates are walked one at a time


def _lane_coords(p: int, n: int) -> int:
    """How many of n coordinates over F_p one packed column holds: the most
    k <= n with p^k <= _COLUMN."""
    k = 0
    while k < n and p ** (k + 1) <= _COLUMN:
        k += 1
    return k


class _Lanes:
    """Columns of size values over F_p, each one int of w-bit lanes: a
    column of candidates, or a packed row of coordinates.

    Lane i of a column x is the field (x >> i*w) & (2^w - 1).  reduce takes
    a column whose lanes are at most bound and returns the column of their
    residues in range(p); the other methods read reduced columns, and a
    reduced column is 0 exactly when every lane is 0.  pack and unpack
    convert a sequence of residues, lane 0 first.

    The lanes of candidate columns, _Lanes(p, size, bound), number a power
    of p: digits holds the digit columns of
    itertools.product(range(p), repeat=count), size = p^count, and lane i
    holds the tuple at index i.  The lanes of packed rows, _Lanes.rows(p,
    n, bound), number n and have no digit columns.

    reduce is one Barrett step on every lane at once.  With 2^k > bound *
    (p - 1) and m = ceil(2^k / p) = (2^k + e) / p, 0 <= e < p, a lane
    v = a p + r <= bound, 0 <= r < p, has v m / 2^k = a + (r + v e / 2^k) / p
    with v e < 2^k, so floor(v m / 2^k) = a.  w holds v m < 2^w, so x * m
    carries nothing from lane to lane; after the shift by k, the low w - k
    bits of each lane are a < 2^(w - k), and the mask drops the bits the
    next lane shifted in; x - a p borrows nothing, as a p <= v.  One lane
    is one residue, and there reduce is x % p, one division in place of
    the Barrett step's two products.

    nonzero is one add and one AND: w also holds 2p, so a residue r < p
    plus 2^(w - 1) - 1 stays below 2^w and reaches the top bit of its lane
    exactly when r > 0.  multiplier(y) multiplies lane by lane by a reduced
    column y: one product when every lane of y holds one value (so always
    at one lane), else one masked, shifted add per bit plane t <
    ceil(log2 p) of y, the mask covering the lanes whose bit t is set.
    Counts of lanes are int.bit_count of a mask of top bits, and select
    reads the set lanes off byte strings, as w is a multiple of 8.
    """

    __slots__ = ("p", "size", "width", "field", "ones", "top", "digits", "reduce", "_low", "_bits")

    def __init__(self, p: int, size: int, bound: int):
        count = 0
        while p**count < size:
            count += 1
        if p**count != size:
            raise ValueError(f"{size} lanes is not a power of {p}")
        self._fill(p, size, bound)
        step = self.width // 8
        self.digits = []
        for run in (p ** (count - 1 - i) for i in range(count)):
            period = b"".join(v.to_bytes(step, "little") * run for v in range(p))
            self.digits.append(int.from_bytes(period * (size // (p * run)), "little"))

    @classmethod
    def rows(cls, p: int, n: int, bound: int) -> "_Lanes":
        """The lanes of a packed row of n coordinates, any n >= 0."""
        out = object.__new__(cls)
        out._fill(p, n, bound)
        out.digits = []
        return out

    def _fill(self, p: int, size: int, bound: int) -> None:
        """Width, Barrett step and masks of size lanes for values up to bound."""
        k = (bound * (p - 1)).bit_length()
        m = -(-(1 << k) // p)
        w = -(-max(bound * m, 2 * p).bit_length() // 8) * 8
        ones = int.from_bytes((1).to_bytes(w // 8, "little") * size, "little")
        self.p, self.size, self.width, self.ones = p, size, w, ones
        self.top = ones << (w - 1)
        self._low = ones * ((1 << (w - 1)) - 1)
        self.field, self._bits = (1 << w) - 1, (p - 1).bit_length()
        quot = ones * ((1 << (w - k)) - 1)

        def reduce(x: int) -> int:
            return x - (((x * m) >> k) & quot) * p

        self.reduce = p.__rmod__ if size == 1 else reduce

    def pack(self, values: Sequence[int]) -> int:
        """The column whose lane i holds values[i]; each value in range(p)."""
        x, w = 0, self.width
        for v in reversed(values):
            x = (x << w) | v
        return x

    def unpack(self, x: int, count: int) -> tuple[int, ...]:
        """The first count lanes of a reduced column."""
        w, field = self.width, self.field
        return tuple((x >> i) & field for i in range(0, count * w, w))

    def nonzero(self, x: int) -> int:
        """The top bit of each nonzero lane of a reduced column."""
        return (x + self._low) & self.top

    def multiplier(self, y: int) -> Callable[[int], int]:
        ones, field = self.ones, self.field
        c = y & field
        if y == c * ones:
            return c.__mul__
        planes = [(t, ((y >> t) & ones) * field) for t in range(self._bits)]
        planes = [(t, plane) for t, plane in planes if plane]

        def times(x: int) -> int:
            out = 0
            for t, plane in planes:
                out += (x & plane) << t
            return out

        return times

    def select(self, cols: Sequence[int], mask: int) -> Iterator[list[int]]:
        """The values in cols of each lane set in mask, ascending; mask holds
        top bits only.  One byte string per column, then O(1) work per
        selected lane, however few there are."""
        size = self.size * self.width // 8
        raws = [c.to_bytes(size, "little") for c in cols]
        flags = mask.to_bytes(size, "little")  # the top byte of a set lane is 0x80, all else 0
        step = self.width // 8
        i = flags.find(128)
        while i >= 0:
            lo, i = i + 1 - step, i + 1
            yield [int.from_bytes(r[lo:i], "little") for r in raws]
            i = flags.find(128, i)


@functools.lru_cache(maxsize=32)
def _lanes(p: int, size: int, bound: int) -> _Lanes:
    """The _Lanes of size lanes for columns up to bound, built once."""
    return _Lanes(p, size, bound)


@functools.lru_cache(maxsize=32)
def _row_lanes(p: int, n: int) -> _Lanes:
    """The lanes of packed rows of n coordinates, built once: a lane may hold
    a sum of up to n products of two residues plus a residue, so a row step
    of _rref and a product of a matrix by a packed vector need one reduce."""
    return _Lanes.rows(p, n, max(n, 1) * (p - 1) ** 2 + p - 1)


class GFMatrix:
    """Dense immutable matrix over F_p."""

    __slots__ = ("rows", "p")

    def __init__(self, rows: Iterable[Sequence[int]], p: int):
        self.p = p = check_prime(p)
        self.rows = tuple(tuple(operator.index(c) % p for c in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix")

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...], p: int) -> "GFMatrix":
        """A matrix from rows that are already tuples of ints in range(p), of
        one width, over a checked prime: nothing is reduced or checked again."""
        out = object.__new__(cls)
        out.rows, out.p = rows, p
        return out

    @classmethod
    def zero(cls, n: int, m: int, p: int) -> "GFMatrix":
        return cls([[0] * m for _ in range(n)], p)

    @classmethod
    def identity(cls, n: int, p: int) -> "GFMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], p)

    @classmethod
    def block2(cls, tl: "GFMatrix", tr: "GFMatrix", bl: "GFMatrix", br: "GFMatrix") -> "GFMatrix":
        if {tr.p, bl.p, br.p} != {tl.p}:
            raise ValueError("blocks over different fields")
        if tl.shape[0] != tr.shape[0] or bl.shape[0] != br.shape[0] or tl.shape[1] != bl.shape[1]:
            raise ValueError("blocks of mismatched shapes")
        if tr.rows and br.rows and tr.shape[1] != br.shape[1]:
            raise ValueError("ragged matrix")
        halves = itertools.chain(zip(tl.rows, tr.rows), zip(bl.rows, br.rows))
        return cls._of(tuple(a + b for a, b in halves), tl.p)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.p == other.p and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows, self.p))

    def __neg__(self) -> "GFMatrix":
        p = self.p
        return GFMatrix._of(tuple(tuple(-a % p for a in r) for r in self.rows), p)

    def __mul__(self, other: "GFMatrix") -> "GFMatrix":
        """Row i of the product is sum_t self[i][t] (row t of other), on
        packed rows: one reduce per row."""
        p = self.p
        n, k = self.shape
        k2, m = other.shape
        if k != k2 or p != other.p:
            raise ValueError("product of matrices of mismatched shapes or different fields")
        lanes = _row_lanes(p, max(k, m))
        products = _combine(self.rows, [lanes.pack(r) for r in other.rows], lanes)
        return GFMatrix._of(tuple(lanes.unpack(x, m) for x in products), p)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """The product with vec, sum_j vec[j] (column j), on packed columns;
        the entries of vec are reduced mod p first, so none spills into the
        next lane."""
        n, m = self.shape
        if len(vec) != m:
            raise ValueError("vector length does not match the matrix")
        p = self.p
        lanes = _row_lanes(p, max(n, m))
        entries = [operator.index(c) % p for c in vec]
        (total,) = _combine([entries], [lanes.pack(c) for c in zip(*self.rows)], lanes)
        return lanes.unpack(total, n)

    def _echelon(self) -> tuple[_Lanes, list[int], list[int]]:
        """The row lanes of this width and the reduced echelon rows and pivots
        of the row space."""
        lanes = _row_lanes(self.p, self.shape[1])
        return (lanes, *_rref(map(lanes.pack, self.rows), lanes))

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of {v : self.apply(v) = 0}."""
        m = self.shape[1]
        lanes, rows, pivots = self._echelon()
        return [lanes.unpack(v, m) for v in _kernel(rows, pivots, m, lanes)[0]]


# ---------------------------------------------------------------------------
# staircase varieties from distance classes


def distance_class(delta: int) -> str:
    if delta <= 1:
        return "1-"
    return "2" if delta == 2 else "3+"


class VAlphaSpec:
    """Zero-pattern of the variety of a pure-K datum: one class per rank pair."""

    __slots__ = ("d", "classes")

    def __init__(self, d: int, classes: dict[tuple[int, int], str]):
        d = check_nonnegative(d, "rank")
        expected = {(b, h) for b in range(1, d + 1) for h in range(b + 1, d + 1)}
        if set(classes) != expected:
            raise ValueError("need exactly one class per ranked pair")
        if any(v not in ("1-", "2", "3+") for v in classes.values()):
            raise ValueError("classes must be '1-', '2' or '3+'")
        self.d = d
        self.classes = dict(classes)

    @classmethod
    def from_datum(cls, datum: LeadingTermDatum) -> "VAlphaSpec":
        if any(c != "K" for c in datum.colors):
            raise ValueError("variety spec needs a pure-K datum")
        return cls(
            datum.d,
            {pair: distance_class(delta) for pair, delta in datum.distance_matrix().items()},
        )

    def key(self) -> tuple:
        return (self.d, tuple(sorted(self.classes.items())))

    def free_x(self) -> list[tuple[int, int]]:
        """0-based (row, col) slots where X is unconstrained."""
        return [(b - 1, h - 1) for (b, h), c in sorted(self.classes.items()) if c == "3+"]

    def free_y(self) -> list[tuple[int, int]]:
        return [(b - 1, h - 1) for (b, h), c in sorted(self.classes.items()) if c != "1-"]


class _Roots(NamedTuple):
    """points(Y), Y a square list of rows, yields the values on the x slots
    of each root X of Y, each in a new list; number(Y) is how many there
    are, read off the lane masks with no X built."""

    points: Callable[[Sequence[Sequence[int]]], Iterator[list[int]]]
    number: Callable[[Sequence[Sequence[int]]], int]


def _commutant_roots(
    x_slots: Sequence[tuple[int, int]], entries: Sequence[tuple[int, int]], p: int
) -> _Roots:
    """The X, zero off x_slots, with XY = YX and X^2 = Y^3 at entries, as
    the _Roots of a Y.

    XY - YX is linear in X, and its kernel has a basis; the last
    _lane_coords of its coordinates run over the lanes of packed _Lanes
    columns, so each slot of X is one column, built once per Y.  The other coordinates are walked by
    an odometer: each step adds one basis vector to the slot columns, and a
    digit that reaches p has added its vector p times, which is zero, and
    carries.  X^2 at an entry (i, j) sums the products over the slot pairs
    (i, k), (k, j); that table depends only on the slots and entries, so it
    is built once here and serves every Y.  Each entry costs one reduce."""
    index = {s: n for n, s in enumerate(x_slots)}
    square = [
        [(index[i, k], index[k, j]) for a, k in x_slots if a == i and (k, j) in index]
        for i, j in entries
    ]
    rows = {i for i, _ in entries}
    seconds = sorted({t for pairs in square for _, t in pairs})
    # a lane sums at most this many products of residues, plus one residue
    terms = max([len(pairs) for pairs in square] + [_lane_coords(p, len(x_slots)), 1])
    bound = terms * (p - 1) ** 2 + p - 1

    def walk(Y: Sequence[Sequence[int]]) -> Iterator[tuple[_Lanes, list[int], int]]:
        """(lanes, slot columns, mask of the lanes that solve) per odometer step
        with a solving lane; the columns change in place after each step."""
        # the coefficient of X_ab in (XY - YX)_ij; a zero row when there is no entry
        system = [
            [(Y[b][j] if a == i else 0) - (Y[i][a] if b == j else 0) for a, b in x_slots]
            for i, j in entries
        ] or [[0] * len(x_slots)]
        basis = GFMatrix(system, p).kernel_basis()
        inner = _lane_coords(p, len(basis))
        cut, lanes = len(basis) - inner, _lanes(p, p**inner, bound)
        reduce, nonzero, multiplier, top = lanes.reduce, lanes.nonzero, lanes.multiplier, lanes.top
        cols = [0] * len(x_slots)
        for v, digit in zip(basis[cut:], lanes.digits):
            for s, c in enumerate(v):
                if c:
                    cols[s] += c * digit
        cols = list(map(reduce, cols))
        steps = [[(s, c * lanes.ones) for s, c in enumerate(v) if c] for v in basis[:cut]]
        cols_y = list(zip(*Y))
        y2 = {i: [sum(map(operator.mul, Y[i], col)) for col in cols_y] for i in rows}
        # X^2 - Y^3 at each entry starts from -Y^3 in every lane
        starts = [-sum(map(operator.mul, y2[i], cols_y[j])) % p * lanes.ones for i, j in entries]
        mults = {t: multiplier(cols[t]) for t in seconds}
        digits = [0] * cut
        while True:
            alive = top
            for pairs, acc in zip(square, starts):
                for s, t in pairs:
                    acc += mults[t](cols[s])
                alive &= ~nonzero(reduce(acc))
                if not alive:
                    break
            else:
                yield lanes, cols, alive
            for k, step in enumerate(steps):
                for s, c in step:
                    cols[s] = col = reduce(cols[s] + c)
                    if s in mults:
                        mults[s] = multiplier(col)
                digits[k] += 1
                if digits[k] < p:
                    break
                digits[k] = 0
            else:
                return

    def points(Y: Sequence[Sequence[int]]) -> Iterator[list[int]]:
        for lanes, cols, alive in walk(Y):
            yield from lanes.select(cols, alive)

    def number(Y: Sequence[Sequence[int]]) -> int:
        return sum(alive.bit_count() for _, _, alive in walk(Y))

    return _Roots(points, number)


def _cusp_fibres(call: str, d: int, x_slots: list, y_slots: list, p: int) -> tuple[_Roots, Iterator[list]]:
    """The roots of the F_p points (X, Y), X on x_slots, and an iterator over
    every Y on y_slots, as a list of rows.

    The roots are _commutant_roots at the entries j - i >= 2, the only ones
    where XY - YX and X^2 - Y^3 can be nonzero.  p and the p^(slots)
    candidates of call are checked at once, d by the callers."""
    check_prime(p)
    check_budget(call, p, len(x_slots) + len(y_slots))

    def fibres() -> Iterator[list]:
        for ys in itertools.product(range(p), repeat=len(y_slots)):
            Y = [[0] * d for _ in range(d)]
            for (i, j), c in zip(y_slots, ys):
                Y[i][j] = c
            yield Y

    return _commutant_roots(x_slots, [(i, j) for i in range(d) for j in range(i + 2, d)], p), fibres()


def count_v_spec(spec: VAlphaSpec, p: int) -> int:
    """Exhaustive point count of the patterned variety over F_p."""
    call = f"count_v_spec(VAlphaSpec({spec.d}, {spec.classes}), {p})"
    roots, fibres = _cusp_fibres(call, spec.d, spec.free_x(), spec.free_y(), p)
    return sum(map(roots.number, fibres))


def count_v_alpha(datum: LeadingTermDatum, p: int) -> int:
    return count_v_spec(VAlphaSpec.from_datum(datum), p)


class _Poly(dict):
    """Integer polynomial in numbered variables, as {monomial: coefficient}.

    A monomial is a sorted tuple of (variable, exponent) pairs; () is 1.
    """

    @classmethod
    def var(cls, v: int) -> "_Poly":
        return cls({((v, 1),): 1})

    def __add__(self, other: "_Poly") -> "_Poly":
        out = _Poly(self)
        for m, c in other.items():
            c += out.get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    def __neg__(self) -> "_Poly":
        return _Poly({m: -c for m, c in self.items()})

    def __sub__(self, other: "_Poly") -> "_Poly":
        return self + -other

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict[tuple, int] = {}
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                exps = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + c1 * c2
        return _Poly({m: c for m, c in out.items() if c})

    def __pow__(self, n: int) -> "_Poly":
        out = self if n else _Poly({(): 1})
        for _ in range(n - 1):
            out = out * self
        return out

    def at_zero(self, v: int) -> "_Poly":
        return _Poly({m: c for m, c in self.items() if all(w != v for w, _ in m)})

    def strip(self, units: frozenset) -> "_Poly":
        """Divide out the largest monomial in the unit variables that divides every term."""
        common: Optional[dict[int, int]] = None
        for m in self:
            exps = {v: e for v, e in m if v in units}
            common = exps if common is None else {
                v: min(e, exps[v]) for v, e in common.items() if v in exps
            }
        if not common:
            return self
        return _Poly({
            tuple((v, e - common.get(v, 0)) for v, e in m if e != common.get(v, 0)): c
            for m, c in self.items()
        })


def _staircase_system(spec: VAlphaSpec) -> tuple[list[_Poly], int]:
    """Entries (i, j), j - i >= 2, of XY - YX and X^2 - Y^3 over Z; the variables
    are the free slots of X, then those of Y."""
    d = spec.d
    X = [[_Poly() for _ in range(d)] for _ in range(d)]
    Y = [[_Poly() for _ in range(d)] for _ in range(d)]
    slots = [(X, s) for s in spec.free_x()] + [(Y, s) for s in spec.free_y()]
    for v, (mat, (i, j)) in enumerate(slots):
        mat[i][j] = _Poly.var(v)
    eqs = []
    for i in range(d):
        for j in range(i + 2, d):
            comm, square = _Poly(), _Poly()
            for k in range(i + 1, j):
                comm = comm + X[i][k] * Y[k][j] - Y[i][k] * X[k][j]
                square = square + X[i][k] * X[k][j]
                for l in range(k + 1, j):
                    square = square - Y[i][k] * Y[k][l] * Y[l][j]
            eqs += [comm, square]
    return eqs, len(slots)


_Q = LaurentPolyQ.q_power(1)
_ONE = _Poly({(): 1})


def _count(eqs: list[_Poly], free: frozenset, units: frozenset) -> LaurentPolyQ:
    """Common zeros of eqs in F_q^free x (F_q^*)^units, as a polynomial in q.

    Every step is an identity of point counts over every finite field: it
    splits a variable into its zero and nonzero cases, or solves an
    equation c*v + r = 0 for v where c is +-1 times a monomial in unit
    variables, so invertible.  A system it cannot resolve raises.

    Counts are memoised on the equations as given: each one's sorted
    terms, in the given equation order, which the rule choice reads.
    A node reads each equation's terms once, into a table by variable, and
    takes every rule choice and the substitution from these tables.
    """
    return _count_system(tuple(tuple(sorted(f.items())) for f in eqs), free, units)


@functools.cache
def _factor(free: int, units: int) -> LaurentPolyQ:
    """q^free (q - 1)^units: the count of the variables no equation uses."""
    return _Q ** free * (_Q - 1) ** units


@functools.cache
def _count_system(system: tuple, free: frozenset, units: frozenset) -> LaurentPolyQ:
    live, tables = [], []  # tables[k] = {v: [(exponent of v, monomial, coefficient)]}
    for f in map(_Poly, system):
        f = f.strip(units)
        if not f:
            continue
        if len(f) == 1:
            ((m, c),) = f.items()
            if all(v in units for v, _ in m):  # a unit times c
                if abs(c) == 1:
                    return LaurentPolyQ.zero()
                raise ArithmeticError(f"the count depends on whether {c} vanishes in F_q")
        table: dict[int, list] = {}
        for m, c in f.items():
            for v, e in m:
                table.setdefault(v, []).append((e, m, c))
        live.append(f)
        tables.append(table)
    used = set().union(*tables)
    factor = _factor(len(free - used), len(units - used))
    free, units = free & used, units & used
    if not live:
        return factor

    # an equation linear in v with coefficient c = +-monomial; fewest non-unit
    # variables in c first, as each one costs a split before v can be solved
    best = None
    for n, table in enumerate(tables):
        for v in sorted(table):
            (e, m, c), *more = table[v]
            if more or e != 1 or abs(c) != 1:
                continue
            splits = [w for w, _ in m if w not in units and w != v]
            cand = (len(splits), v in units, n, v, splits, m, c)
            if best is None or cand[:3] < best[:3]:
                best = cand
    if best is None:
        if not free:
            raise ArithmeticError(f"symbolic count stuck on {len(live)} equations in unit variables")
        weight = {w: sum(len(f) for f, table in zip(live, tables) if w in table) for w in free}
        split = max(sorted(free), key=weight.__getitem__)
    else:
        _, v_unit, n, v, splits, m, c = best
        split = splits[0] if splits else None
    if split is not None:
        zero = [f.at_zero(split) for f in live]
        return factor * (
            _count(zero, free - {split}, units) + _count(live, free - {split}, units | {split})
        )
    if v_unit:  # v != 0 is all v minus v = 0
        zero = [f.at_zero(v) for f in live]
        return factor * (_count(live, free | {v}, units - {v}) - _count(zero, free, units - {v}))
    # v = -r/c; c is invertible here, so clearing denominators keeps the zero set
    r = _Poly({t: a for t, a in live[n].items() if t != m})
    c = _Poly({tuple(p for p in m if p[0] != v): c})
    rest = []
    for k, (f, table) in enumerate(zip(live, tables)):
        if k == n:
            continue
        if v not in table:
            rest.append(f)
            continue
        parts = {0: _Poly(f)}
        for e, t, a in table[v]:
            del parts[0][t]
            parts.setdefault(e, _Poly())[tuple(p for p in t if p[0] != v)] = a
        top = max(parts)
        out = _Poly()
        for e, part in parts.items():
            # part * (-r)^e * c^(top - e), with no product by a power that is 1
            for base, exp in ((-r, e), (c, top - e)):
                if exp and base != _ONE and (power := base**exp) != _ONE:
                    part = part * power
            out = out + part
        rest.append(out)
    return factor * _count(rest, free - {v}, units)


def _realizable(spec: VAlphaSpec) -> bool:
    """Some pure-K datum has exactly these distance classes.

    In rank order a pure-K datum is x_1 < ... < x_d with distinct residues
    mod d (x = d*level + seat - 1), and distance(b, h) = (x_h - x_b) // d.
    A gap of 4d or more between neighbours changes no class that a gap
    smaller by d does, so the search over gaps below 4d is complete.
    """
    d = spec.d

    def extend(xs: list[int]) -> bool:
        h = len(xs) + 1
        if h > d:
            return True
        residues = {x % d for x in xs}
        for x in range(xs[-1] + 1, xs[-1] + 4 * d):
            if x % d not in residues and all(
                distance_class((x - xb) // d) == spec.classes[(b, h)]
                for b, xb in enumerate(xs, start=1)
            ):
                if extend(xs + [x]):
                    return True
        return False

    return d == 0 or extend([0])


def _flip(key: tuple) -> tuple:
    """The pattern key under the anti-transpose (i, j) -> (d-1-j, d-1-i).

    Transposing along the anti-diagonal, M -> J M^T J, keeps X^2 = Y^3 and
    XY = YX, as (XY)^tau = Y^tau X^tau, so both keys count one variety.
    """
    d, pairs = key
    return d, tuple(sorted(((d + 1 - h, d + 1 - b), c) for (b, h), c in pairs))


@functools.cache
def _symbolic_count(key: tuple) -> LaurentPolyQ | str | None:
    """Count of the pattern key, or None when no pure-K datum realizes it.

    The case splitting reads the equation order, so it can be stuck on one
    orientation of a variety and not on the other: then the flip is counted.
    When both are stuck, the first error's message is returned and kept, so
    a repeat call counts neither again.
    """
    spec = VAlphaSpec(key[0], dict(key[1]))
    if not _realizable(spec):  # reversing a datum flips its pattern, so the flip agrees
        return None
    first = None
    for k in dict.fromkeys((key, _flip(key))):
        eqs, nvars = _staircase_system(VAlphaSpec(k[0], dict(k[1])))
        try:
            return _count(eqs, frozenset(range(nvars)), frozenset())
        except ArithmeticError as error:
            first = str(error) if first is None else first
    return first


def symbolic_v_alpha(spec_or_datum: "VAlphaSpec | LeadingTermDatum") -> LaurentPolyQ:
    """Point count in q of the patterned variety, exact over every F_q.

    A pattern and its anti-transpose count one variety, so both are
    memoised on the smaller of the two keys.  Raises ValueError for a
    pattern no pure-K datum realizes, and ArithmeticError where the case
    splitting cannot resolve either orientation (every rank-5 pattern
    resolves; the full rank-6 pattern does not).
    """
    spec = (
        spec_or_datum
        if isinstance(spec_or_datum, VAlphaSpec)
        else VAlphaSpec.from_datum(spec_or_datum)
    )
    key = spec.key()
    count = _symbolic_count(min(key, _flip(key)))
    if count is None:
        raise ValueError(f"distance classes {key[1]} are realized by no pure-K datum")
    if isinstance(count, str):
        raise ArithmeticError(count)
    return count


# ---------------------------------------------------------------------------
# motive of the full staircase variety: a table entry M(a, b) is entry b of
# row (a + b) / 2 of the recursion (_motive_rows), and the rank-d motive is
# the row sum R_d(1) of the row polynomial R_k(x) = sum of M(2k - b, b) x^b
# over b, walked as E_k(i) = R_k(q^-i) by levels k + i (_staircase_levels).
# Both pack at q = 2^w, w = _digit_width(5^top): a row, or an item of rank
# k, has coefficient L1 norm at most 5^k.  The level walk keeps each item
# with its zero low digits shifted out, so it holds 40% of the row walk's bits.


MAX_MOTIVE_D = 64  # staircase_motive ranks; motive table entries reach a = 2 * MAX_MOTIVE_D


def _motive_rows(top: int, width: int) -> Iterator[list[int]]:
    """Rows k = 0..top of the motive recursion, packed at q = 2^w, each
    cut to its columns 0..width - 1, which read nothing to their right.

    Entry b of row k is M(2k - b, b) evaluated at q = 2^w,
    w = _digit_width(5^top), so its coefficients are the signed base-2^w
    digits.  The seed is row 0 = [1], and the step splits off the last
    column pair by the kernel filtration position it lands in: with
    a = 2k - b and rows r = row k, s = row k - 1,

        r[b] = q^b s[b] + q^(k-1) (s[b-1] - s[b-2]) - q^(b-1) s[b-1] + q^a s[b-2],

    four shifts and four adds of packed integers, none of them per term.

    w is wide enough: each entry of row k - 1 feeds at most five signed
    monomial multiples of itself into row k (one into column b, two each
    into b + 1 and b + 2), and a monomial multiple keeps the coefficient
    L1 norm.  So the L1 norms of the entries of row k sum to at most 5^k,
    which bounds every coefficient of every entry and of the row sum by
    5^top < 2^(w - 2).  The digits never carry into each other, and
    _digits reads them back exactly.
    """
    w = _digit_width(5**top)
    row = [1]
    yield row
    for k in range(1, top + 1):
        s = [0, 0, *row, 0]  # s[b + 2] is entry b of row k - 1
        mid = w * (k - 1)
        row = [1]  # M(2k, 0) = M(2k - 2, 0)
        for b in range(1, min(k + 1, width)):
            x, y, z = s[b + 2], s[b + 1], s[b]
            row.append(
                (x << w * b) + ((y - z) << mid) - (y << w * (b - 1)) + (z << w * (2 * k - b))
            )
        yield row


def _staircase_levels(top: int) -> Iterator[int]:
    """The row sums of the motive recursion, ranks 0..top, each packed at
    q = 2^w, w = _digit_width(5^top), with no row walked.

    Row k as a polynomial, R_k(x) = sum over b of M(2k - b, b) x^b, obeys
    the row step of _motive_rows in one line,

        R_k(x) = (1 - x) R_(k-1)(qx) + q^(k-1) x (1 - x) R_(k-1)(x)
                 + q^(2k-2) x^2 R_(k-1)(x/q),   R_0 = 1,

    whose terms in x^(k+1) cancel and whose constant term stays 1, as
    M(2k, 0) does.  So rank k is R_k(1) = E_k(0), where E_k(i) = R_k(q^-i)
    obeys

        E_k(i) = (1 - q^-i) (E_(k-1)(i-1) + q^(k-1-i) E_(k-1)(i))
                 + q^(2k-2-2i) E_(k-1)(i+1),   E_0(i) = 1,

    whose first term is 0 at i = 0.  The walk goes by levels n = k + i:
    level n reads levels n - 1 and n - 2 and its own items of lower k,
    ends with rank n, and only the last two levels are kept.  Each item is
    (low, X), the Laurent polynomial q^low times X at q = 2^w, with the
    zero low digits of X shifted out (its lowest set bit, X & -X, as
    _unpack finds it), so it holds only the span of its exponents.

    w is wide enough: each item is five signed monomial multiples of items
    of rank k - 1, so by induction its coefficient L1 norm is at most 5^k
    <= 5^top < 2^(w - 2), and the digits never carry into each other.
    """
    w = _digit_width(5**top)
    two: list[tuple[int, int]] = []  # level n - 2, E_k(n - 2 - k) at index k
    one = [(0, 1)]  # level n - 1
    yield 1
    for n in range(1, top + 1):
        level = [(0, 1)]  # E_0(n) = 1
        for k in range(1, n + 1):
            i = n - k
            low, x = level[k - 1]  # E_(k-1)(i+1)
            low += 2 * (k - 1 - i)
            if i:
                la, a = two[k - 1]  # E_(k-1)(i-1)
                lb, b = one[k - 1]  # E_(k-1)(i)
                lb += k - 1 - i
                if la <= lb:
                    s, ls = a + (b << w * (lb - la)), la
                else:
                    s, ls = (a << w * (la - lb)) + b, lb
                s, ls = (s << w * i) - s, ls - i  # times 1 - q^-i
                if ls <= low:
                    x, low = s + (x << w * (low - ls)), ls
                else:
                    x = (s << w * (ls - low)) + x
                zeros = (x & -x).bit_length() // w
                x >>= w * zeros
                low += zeros
            level.append((low, x))
        two, one = one, level
        yield x << w * low  # rank n, E_n(0), a polynomial in q


def _digit_width(bound: int) -> int:
    """Bits per packed coefficient when every coefficient has absolute value
    at most bound: bound < 2^(w - 2), w a multiple of 8 for _digits."""
    return (bound.bit_length() + 9) // 8 * 8


def _digits(n: int, w: int) -> list[int]:
    """The signed base-2^w digits of n, least significant first, each of
    absolute value below 2^(w - 2): one repunit addition shifts every digit
    by 2^(w - 1) into 0..2^w - 1, then one to_bytes call and a from_bytes
    per slice read them in linear time."""
    size, half = w // 8, 1 << (w - 1)
    count = abs(n).bit_length() // w + 1
    raw = (n + int.from_bytes(half.to_bytes(size, "little") * count, "little")).to_bytes(
        size * count, "little"
    )
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, len(raw), size)]


def _from_digits(digits: Iterable[int], low: int = 0) -> LaurentPolyQ:
    """sum of digits[i] q^(low + i), its zero digits dropped: trusted ints,
    so the polynomial is built by _from_clean with no second check."""
    return _from_clean({e: c for e, c in enumerate(digits, low) if c})


def _unpack(n: int, w: int) -> LaurentPolyQ:
    """The polynomial packed as n at q = 2^w, decoded from its lowest
    nonzero digit up.  That digit holds the lowest set bit of n, at most
    bit w - 3 of the digit as its absolute value is below 2^(w - 2), so its
    index is (n & -n).bit_length() // w, and the shift by it is exact."""
    if not n:
        return LaurentPolyQ.zero()
    low = (n & -n).bit_length() // w
    return _from_digits(_digits(n >> w * low, w), low)


@functools.lru_cache(maxsize=1)
def _antidiagonal(top: int) -> list[list[int]]:
    """One slot for the widest packed prefix of row top of _motive_rows
    walked so far.

    One entry, keyed by top: a new antidiagonal a + b = 2 top evicts the
    last one before its walk.  _motive replaces the slot's prefix, never
    edits it, so a prefix it has read stays whole."""
    return [[]]


@functools.cache
def _motive(a: int, b: int) -> LaurentPolyQ:
    """The two-parameter motive recursion M(a, b).

    Nonzero only for a >= b >= 0 with a = b mod 2, and defined here for
    a <= 2 * MAX_MOTIVE_D.  Entry b of row (a + b) / 2 of _motive_rows;
    a walk over columns 0..b serves every narrower entry of its
    antidiagonal, since no entry reads to its right, so an entry inside
    the last prefix (_antidiagonal) is read off it, and a wider one walks
    again to width b + 1 after freeing the old prefix.
    """
    if a < 0 or b < 0 or a < b or (a - b) % 2:
        return LaurentPolyQ.zero()
    if a > 2 * MAX_MOTIVE_D:
        raise ValueError(f"motive table entries stop at a = {2 * MAX_MOTIVE_D}")
    top = (a + b) // 2
    slot = _antidiagonal(top)
    row = slot[0]
    if b >= len(row):
        slot[0] = []
        for row in _motive_rows(top, b + 1):
            pass
        slot[0] = row
    return _unpack(row[b], _digit_width(5**top))


class MotiveTable:
    """The two-parameter motive recursion table(a, b), read through _motive."""

    def get(self, a: int, b: int) -> LaurentPolyQ:
        return _motive(operator.index(a), operator.index(b))


@functools.cache
def _staircase_walk() -> tuple[list[LaurentPolyQ], Generator[int, None, None]]:
    """The ranks of _staircase_levels(MAX_MOTIVE_D) decoded so far, rank d
    at index d, and the rest of that walk, which staircase_motive advances."""
    return [], _staircase_levels(MAX_MOTIVE_D)


def staircase_motive(d: int) -> LaurentPolyQ:
    """Motive of the rank-d staircase variety as a polynomial in q.

    It is the sum of M(2d - b, b) over b, the row sum of row d of the
    motive recursion, R_d(1) for the row polynomial R_d, read off the level
    walk of R_k(q^-i) (_staircase_levels), which carries no table entry
    and at most 5^k in coefficient L1 norm at rank k.  One walk to
    MAX_MOTIVE_D (_staircase_walk) is advanced only as far as d, so each
    level is walked and each rank decoded once in any order of ranks, and
    it is closed at its last level.  A step that raises drops the walk, so
    the next call starts over from level 0 rather than read a sum out of
    step with its rank.
    """
    d = _check_motive_rank(d)
    sums, levels = _staircase_walk()
    w = _digit_width(5**MAX_MOTIVE_D)
    try:
        while len(sums) <= d:
            sums.append(_unpack(next(levels), w))
    except BaseException:
        _staircase_walk.cache_clear()
        raise
    if len(sums) > MAX_MOTIVE_D:
        levels.close()  # frees the packed last two levels
    return sums[d]


def _check_motive_rank(d: int) -> int:
    """The rank d as an int, refused before any work past MAX_MOTIVE_D."""
    d = check_nonnegative(d, "rank")
    if d > MAX_MOTIVE_D:
        raise ValueError(f"staircase motives stop at rank {MAX_MOTIVE_D}")
    return d


def _v_d_fibres(name: str, d: int, p: int) -> tuple[list, _Roots, Iterator[list]]:
    """The strictly upper slots, free for X and Y in V_d, and their
    _cusp_fibres.

    d, p and the p^(d(d-1)) candidates are checked before the d(d-1)/2
    slots are listed, so a refused call costs no memory quadratic in d."""
    d = check_nonnegative(d, "rank")
    call = f"{name}({d}, {p})"
    check_prime(p)
    check_budget(call, p, d * (d - 1))
    slots = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return (slots, *_cusp_fibres(call, d, slots, slots, p))


def brute_v_d(d: int, p: int) -> int:
    """Independent count of V_d(F_p) by enumeration."""
    _, roots, fibres = _v_d_fibres("brute_v_d", d, p)
    return sum(map(roots.number, fibres))


def enumerate_v_d_points(d: int, p: int):
    """Yield all (X, Y) GFMatrix pairs in V_d(F_p)."""
    slots, roots, fibres = _v_d_fibres("enumerate_v_d_points", d, p)
    for Y in fibres:
        y_matrix = GFMatrix(Y, p)
        for xs in roots.points(Y):
            X = [[0] * d for _ in range(d)]
            for (i, j), c in zip(slots, xs):
                X[i][j] = c
            yield GFMatrix(X, p), y_matrix


# ---------------------------------------------------------------------------
# module profiles through the matrix factorization operator


class AbProfile(NamedTuple):
    a: int  # dim ker of the factorization operator on M + M
    b: int  # dim of its image
    w0: int  # dim of the inner filtration step (image of the partner operator)
    w1: int
    w2: int


class _Module(NamedTuple):
    """The module M + M of a point, m = dim M, on packed rows of 2m lanes
    (u in the low m lanes, v in the high m): T on packed vectors, the basis
    of ker A with its free lanes, the reduced echelon rows and pivots of
    im A', the images T(ker A) and their rank modulo im A'.  The sequences
    are tuples."""

    lanes: _Lanes
    T: Callable[[int], int]
    ker: tuple[int, ...]
    free: tuple[int, ...]
    rows: tuple[int, ...]
    pivots: tuple[int, ...]
    images: tuple[int, ...]
    t_rank: int

    @classmethod
    def of(
        cls, lanes: _Lanes, T: Callable[[int], int], ker: Sequence[int], free: Sequence[int],
        rows: Sequence[int], pivots: Sequence[int],
    ) -> "_Module":
        """The _Module of the linear data, T(ker A) and its rank modulo
        im A' computed once for ab_profile and h0_t_exact both."""
        images = tuple(map(T, ker))
        t_rank = len(_rref([*rows, *images], lanes)[0]) - len(rows)
        return cls(lanes, T, tuple(ker), tuple(free), tuple(rows), tuple(pivots), images, t_rank)


@functools.lru_cache(maxsize=1)
def _module(X: GFMatrix, Y: GFMatrix) -> _Module:
    """The _Module of (X, Y), after checking that it is a module.

    X and Y are packed once, by rows and by columns; the products of the
    cusp relations, the rows of A = [[X, -Y^2], [-Y, X]] (whose kernel is
    ker A) and the columns of A' = [[X, Y^2], [Y, X]] (whose row space is
    im A') are sums of packed rows, with no matrix product or transpose.
    T(u, v) = (Yv, u) is one sum of columns of Y and one shift.

    The last point is kept, so ab_profile and h0_t_exact on one point build
    its module once; the values are immutable, so no caller can change what
    a later call is served."""
    if X.p != Y.p or X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ValueError("X, Y must be square over the same field")
    p, m = X.p, X.shape[0]
    lanes = _row_lanes(p, 2 * m)
    reduce, pack, w, field = lanes.reduce, lanes.pack, lanes.width, lanes.field
    combine = functools.partial(_combine, lanes=lanes)
    xr, yr = list(map(pack, X.rows)), list(map(pack, Y.rows))
    y2r = combine(Y.rows, yr)  # row i of Y^2 = sum_k Y[i][k] (row k of Y)
    if combine(X.rows, yr) != combine(Y.rows, xr) or combine(X.rows, xr) != combine(Y.rows, y2r):
        raise ValueError("(X, Y) does not satisfy the cusp relations")
    y_cols = list(zip(*Y.rows))
    xc, yc = [pack(c) for c in zip(*X.rows)], list(map(pack, y_cols))
    y2c = combine(y_cols, yc)  # column j of Y^2 = sum_k Y[k][j] (column k of Y)
    shift, minus = m * w, p * lanes.ones  # minus - v is -v in every lane, in 1..p
    a_rows = [x + (reduce(minus - y2) << shift) for x, y2 in zip(xr, y2r)]
    a_rows += [reduce(minus - y) + (x << shift) for x, y in zip(xr, yr)]
    ker, free = _kernel(*_rref(a_rows, lanes), 2 * m, lanes)
    ap_cols = [x + (y << shift) for x, y in zip(xc, yc)] + [y2 + (x << shift) for x, y2 in zip(xc, y2c)]
    rows, pivots = _rref(ap_cols, lanes)
    low = (1 << shift) - 1

    def T(z: int) -> int:
        yv, v = 0, z >> shift
        for col in yc:
            c = v & field
            if c:
                yv += c * col
            v >>= w
        return reduce(yv) + ((z & low) << shift)

    return _Module.of(lanes, T, ker, free, rows, pivots)


def ab_profile(X: GFMatrix, Y: GFMatrix) -> AbProfile:
    """Kernel/image profile of the factorization operator for (X, Y)."""
    mod = _module(X, Y)
    a = len(mod.ker)
    # W1 = vectors of ker A whose T-image falls into im A'; its codimension in
    # ker A is the rank of T(ker A) modulo im A'
    return AbProfile(a=a, b=2 * X.shape[0] - a, w0=len(mod.rows), w1=a - mod.t_rank, w2=a)


def classify_kernel_vector(X: GFMatrix, Y: GFMatrix, u: Sequence[int]) -> int:
    """Smallest filtration step containing u: 0, 1 or 2; u must lie in ker A.

    The entries of u are reduced mod p before they are packed, so none
    spills into the next lane."""
    mod = _module(X, Y)
    if len(u) != 2 * X.shape[0]:
        raise ValueError("vector length does not match the matrix")
    lanes, p = mod.lanes, X.p
    v = lanes.pack([operator.index(c) % p for c in u])
    if not _in_span(mod.ker, mod.free, v, lanes):
        raise ValueError("vector is not in the kernel")
    if _in_span(mod.rows, mod.pivots, v, lanes):
        return 0
    if _in_span(mod.rows, mod.pivots, mod.T(v), lanes):
        return 1
    return 2


def extend_point(X: GFMatrix, Y: GFMatrix, z: Sequence[int], w: Sequence[int]) -> tuple[GFMatrix, GFMatrix]:
    """Append a new last column pair (z, w); stays in the variety iff (z, w) in ker A."""
    p = X.p
    m = X.shape[0]
    if len(z) != m or len(w) != m:
        raise ValueError("column length mismatch")
    xr = [list(row) + [z[i]] for i, row in enumerate(X.rows)] + [[0] * (m + 1)]
    yr = [list(row) + [w[i]] for i, row in enumerate(Y.rows)] + [[0] * (m + 1)]
    return GFMatrix(xr, p), GFMatrix(yr, p)


def _h0_exact(mod: _Module) -> bool:
    """On H0 = span(ker) / span(rows), the map T0 induced by T has image
    equal to kernel.

    mod.rows and mod.pivots are the packed reduced echelon rows of a
    subspace of span(ker), mod.ker is a packed basis, and T maps span(ker)
    and span(rows) into themselves, so T0 is defined.  T0 is exact iff
    T0^2 = 0, i.e. T^2(ker) lies in span(rows), and its rank, t_rank, is
    half of dim H0."""
    if not all(_in_span(mod.rows, mod.pivots, mod.T(tv), mod.lanes) for tv in mod.images):
        return False
    return 2 * mod.t_rank == len(mod.ker) - len(mod.rows)


def h0_t_exact(X: GFMatrix, Y: GFMatrix) -> bool:
    """On H0 = ker A / im A', the induced T has image equal to kernel.

    im A' lies in ker A, and T commutes with A and A': AT - TA and
    A'T - TA' are XY - YX in their top right block and zero elsewhere, and
    _module refuses a pair with XY != YX.  So T induces T0 on H0, and
    _h0_exact decides exactness from im A', ker A and T."""
    return _h0_exact(_module(X, Y))


# ---------------------------------------------------------------------------
# CSV export


def staircase_table_csv(max_d: int) -> str:
    lines = ["d,polynomial"]
    for d in range(_check_motive_rank(max_d) + 1):
        lines.append(f"{d},{staircase_motive(d)}")
    return "\n".join(lines) + "\n"


def motive_table_csv(pairs: Iterable[tuple[int, int]]) -> str:
    lines = ["a,b,polynomial"]
    for a, b in pairs:
        a, b = operator.index(a), operator.index(b)
        lines.append(f"{a},{b},{_motive(a, b)}")
    return "\n".join(lines) + "\n"
