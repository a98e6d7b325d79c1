"""Groebner bases for finite-colength submodules over the cusp ring.

The ambient ring is the complete monomial subring R generated by T^2 and
T^3 inside k[[T]]; the module is F = R^d, and every submodule handled here
sits inside mF (m the maximal ideal of R) and has finite codimension.
Computations happen modulo T^N F for a truncation bound N supplied by the
caller; N must be at least 2*codim + 4 for the answers to be faithful, and
reduce_basis() rejects anything whose computed codimension exceeds (N-4)/2.
A reduced basis reports its stratum as a strata.LeadingTermDatum.

Monomial order: compare T-degree first, then seat index (u_1 < ... < u_d
< T); the LEADING term of an element is its order-least term.  T^a divides
T^b on the same seat iff b - a is 0 or >= 2, because T^1 is missing from R.
divide() sweeps the terms upward once: multiplying by T^s keeps this order,
so cancelling a term by a divisor adds only larger terms, and it ends.
One standard-basis test, _closed_count, serves is_groebner and the stratum
oracle; is_groebner_general, the full criterion over divide, checks it.
"""

from __future__ import annotations

import itertools
from operator import index
from typing import Iterable, NamedTuple, Optional, Sequence

from .qalgebra import check_prime
from .strata import LeadingTermDatum, Monomial
from .varieties import _Lanes, _lanes

__all__ = [
    "Monomial",
    "Element",
    "PreBasis",
    "ReducedGB",
    "DivisionResult",
    "TruncationError",
    "divides",
    "lcm_set",
    "divide",
    "is_groebner",
    "is_groebner_general",
    "reduce_basis",
    "membership",
]


class TruncationError(ValueError):
    """The requested computation cannot be certified within the window."""


def _semigroup(n: int) -> bool:
    """Membership in the exponent semigroup {0, 2, 3, 4, ...}."""
    return n == 0 or n >= 2


def divides(mu: Monomial, nu: Monomial) -> Optional[int]:
    """Quotient T-degree when mu divides nu, else None."""
    if mu.seat != nu.seat:
        return None
    diff = nu.t_deg - mu.t_deg
    return diff if _semigroup(diff) else None


def lcm_set(mu: Monomial, nu: Monomial) -> tuple[Monomial, ...]:
    """Minimal common multiples; empty unless the seats agree.

    Same degree: the monomial itself.  Degrees a and a+1: two minimal
    common multiples T^(a+3), T^(a+4) (the T^5/T^6 pattern for T^2, T^3).
    Otherwise the larger degree divides into the smaller's multiples and
    the set is a single monomial.
    """
    if mu.seat != nu.seat:
        return ()
    a, b = sorted((mu.t_deg, nu.t_deg))
    if a == b:
        return (Monomial(a, mu.seat),)
    if b == a + 1:
        return (Monomial(a + 3, mu.seat), Monomial(a + 4, mu.seat))
    return (Monomial(b, mu.seat),)


class Element:
    """Element of mF over F_p, truncated below T^trunc; immutable.  A modulus p
    that is not a prime raises ValueError at construction."""

    __slots__ = ("terms", "p", "trunc")

    def __init__(self, terms: dict[Monomial, int], p: int, trunc: int):
        p, trunc = check_prime(p), index(trunc)
        clean: dict[Monomial, int] = {}
        for (t_deg, seat), c in terms.items():
            mono = Monomial(index(t_deg), index(seat))
            if t_deg < 2:
                raise ValueError(f"monomial {mono} is outside mF")
            if t_deg >= trunc:
                continue
            c = index(c) % p
            if c:
                clean[mono] = c
        self.terms = clean
        self.p = p
        self.trunc = trunc

    @classmethod
    def _reduced(cls, terms: dict[Monomial, int], p: int, trunc: int) -> "Element":
        """An element from clean terms, without the per-term pass of __init__.

        The keys must be Monomials of degree in [2, trunc) and the
        coefficients in 1..p-1; the arithmetic methods build their results
        through here.
        """
        out = object.__new__(cls)
        out.terms = terms
        out.p = p
        out.trunc = trunc
        return out

    @classmethod
    def monomial(cls, mono: Monomial, p: int, trunc: int, coeff: int = 1) -> "Element":
        return cls({mono: coeff}, p, trunc)

    @classmethod
    def zero(cls, p: int, trunc: int) -> "Element":
        return cls({}, p, trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def _compat(self, other: "Element") -> None:
        if self.p != other.p or self.trunc != other.trunc:
            raise ValueError("mixed prime or truncation")

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero element has no leading term")
        return min(self.terms)

    def leading_coeff(self) -> int:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Element":
        p = self.p
        inv = pow(self.leading_coeff(), p - 2, p)
        return self.scale(inv)

    def scale(self, c: int) -> "Element":
        p = self.p
        c = index(c) % p
        if c == 1:
            return self
        # a composite modulus can send a product to 0, so zeros are dropped
        terms = {m: r for m, v in self.terms.items() if (r := v * c % p)}
        return Element._reduced(terms, p, self.trunc)

    def __add__(self, other: "Element") -> "Element":
        return self._combine(other, 1)

    def __sub__(self, other: "Element") -> "Element":
        return self._combine(other, -1)

    def _combine(self, other: "Element", sign: int) -> "Element":
        """self + sign * other, dropping the terms that cancel."""
        self._compat(other)
        p = self.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = (out.get(m, 0) + sign * c) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Element._reduced(out, p, self.trunc)

    def shift(self, s: int) -> "Element":
        """Multiply by T^s for s in the exponent semigroup."""
        if not _semigroup(index(s)):
            raise ValueError(f"T^{s} is not in the ring")
        trunc = self.trunc
        terms = {
            Monomial(m.t_deg + s, m.seat): c
            for m, c in self.terms.items()
            if m.t_deg + s < trunc
        }
        return Element._reduced(terms, self.p, trunc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (self.terms, self.p, self.trunc) == (other.terms, other.p, other.trunc)

    def __hash__(self) -> int:
        return hash((frozenset(self.terms.items()), self.p, self.trunc))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            parts.append(str(mono) if c == 1 else f"{c}*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Element({{{', '.join(f'{m!r}: {c}' for m, c in sorted(self.terms.items()))}}}, p={self.p}, trunc={self.trunc})"


class DivisionResult(NamedTuple):
    quotients: tuple[dict[int, int], ...]
    remainder: Element


def divide(f: Element, divisors: Sequence[Element]) -> DivisionResult:
    """Divide f by the ordered list of divisors in one ascending sweep.

    Each step pops the order-least term of a working copy of f: the first
    divisor whose leading term divides it cancels it in place, else it
    moves to the remainder.  A cancellation adds only terms above the
    popped one (T^s keeps the order) and below trunc, so the sweep ends.
    Every call checks the contract (no remainder term divisible by a
    divisor lead, no quotient term below the lead of f, f rebuilt) and
    raises ArithmeticError on a breach.  The quotients follow the divisor
    order; by a standard basis the remainder is the unique normal form.
    """
    divisors = list(divisors)
    for g in divisors:
        if g.is_zero():
            raise ValueError("zero divisor in division")
        f._compat(g)
    p = f.p
    leads = [g.leading_monomial() for g in divisors]
    quots: list[dict[int, int]] = [{} for _ in divisors]
    work = dict(f.terms)
    rem_terms: dict[Monomial, int] = {}
    while work:
        mono = min(work)
        for j, lm in enumerate(leads):
            s = divides(lm, mono)
            if s is not None:
                break
        else:
            rem_terms[mono] = work.pop(mono)
            continue
        # the lead of T^s*g cancels mono; its other terms land above mono
        q = quots[j][s] = work[mono] * pow(divisors[j].terms[lm], p - 2, p) % p
        for key, v in divisors[j].shift(s).terms.items():
            r = (work.get(key, 0) - q * v) % p
            if r:
                work[key] = r
            else:
                del work[key]
    rem = Element._reduced(rem_terms, p, f.trunc)
    # division-expression contract checks
    for mono in rem.terms:
        if any(divides(lm, mono) is not None for lm in leads):
            raise ArithmeticError(f"remainder term {mono} is divisible by a divisor lead")
    if not f.is_zero():
        lead = f.leading_monomial()
        recon = dict(rem_terms)
        for qd, g, lm in zip(quots, divisors, leads):
            for s, q in qd.items():
                if Monomial(lm.t_deg + s, lm.seat) < lead:
                    raise ArithmeticError("a quotient term starts below the lead of the dividend")
                for (t_deg, seat), v in g.terms.items():
                    if t_deg + s < f.trunc:
                        key = Monomial(t_deg + s, seat)
                        recon[key] = (recon.get(key, 0) + q * v) % p
        if {m: c for m, c in recon.items() if c} != f.terms:
            raise ArithmeticError("quotients and remainder do not reconstruct the dividend")
    return DivisionResult(tuple(quots), rem)


class PreBasis:
    """Tuple of nonzero elements with mutually indivisible leading terms."""

    __slots__ = ("elements", "d", "p", "trunc")

    def __init__(self, elements: Iterable[Element], d: int):
        elems = tuple(elements)
        if not elems:
            raise ValueError("empty prebasis")
        p, trunc = elems[0].p, elems[0].trunc
        for g in elems:
            if g.is_zero():
                raise ValueError("zero element in prebasis")
            g._compat(elems[0])
            for mono in g.terms:
                if not 1 <= mono.seat <= d:
                    raise ValueError(f"seat out of range in {g}")
        leads = [g.leading_monomial() for g in elems]
        for i, mi in enumerate(leads):
            for j, mj in enumerate(leads):
                if i != j and divides(mi, mj) is not None:
                    raise ValueError(f"leading terms not mutually indivisible: {mi}, {mj}")
        self.elements = elems
        self.d = d
        self.p = p
        self.trunc = trunc

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _closure_lanes(p: int, size: int) -> _Lanes:
    """The lanes of _closed_count's columns: no lane it reduces exceeds p^2 - 1."""
    return _lanes(p, size, p * p - 1)


def _shifted(element: list, s: int, trunc: int) -> list:
    """T^s times an element given as (monomial, column) pairs, below T^trunc."""
    return [(Monomial(nu.t_deg + s, nu.seat), col) for nu, col in element if nu.t_deg + s < trunc]


def _closed_count(corners: list[Monomial], elements: list, p: int, trunc: int, size: int) -> int:
    """How many of size candidates pass; corners ascend and are every candidate's leads.

    elements[j] is the monic g_j as (monomial, column) pairs, lead first, each
    column reduced in the size _closure_lanes, one lane per candidate.  Per
    seat with two corners, divide's sweep of T^3 g0 - T^2 g1 and
    T^4 g0 - T^3 g1 runs on columns (the divisor is the first corner dividing
    the term) with its three contract checks, the dividend rebuilt from the
    elements' own terms, not through _shifted.  Every sum is reduced as it is
    made, a residue plus at most a product of a residue and a lane in 1..p,
    so no lane exceeds p^2 - 1; a reduced column is 0 exactly when it is 0
    for every candidate."""
    lanes = _closure_lanes(p, size)
    reduce, nonzero = lanes.reduce, lanes.nonzero
    times = {col: lanes.multiplier(col) for element in elements for _, col in element}
    minus = p * lanes.ones  # minus - q is -q in every lane, in 1..p
    ok = lanes.top
    for j0, j1 in itertools.combinations(range(len(corners)), 2):
        for s in (3, 4) if corners[j0].seat == corners[j1].seat else ():
            f: dict[Monomial, int] = {}  # T^s*g0 - T^(s-1)*g1
            for sign, j, shift in ((1, j0, s), (p - 1, j1, s - 1)):
                for mono, col in _shifted(elements[j], shift, trunc):
                    f[mono] = f.get(mono, 0) + sign * col
            f = {mono: reduce(col) for mono, col in f.items()}
            work, rem, quotients = dict(f), {}, []
            waiting = lanes.top  # the candidate's lead of f is not yet swept
            while work:
                mono = min(work)
                q = work.pop(mono)
                if mono in f:
                    waiting &= ~nonzero(f[mono])
                j = next((j for j, c in enumerate(corners) if divides(c, mono) is not None), None)
                if j is None:
                    rem[mono] = q
                elif q:
                    if nonzero(q) & waiting:
                        raise ArithmeticError("a quotient term starts below the lead of the dividend")
                    # the lead of T^s*g_j cancels mono; its tails land above it
                    shift = mono.t_deg - corners[j].t_deg
                    quotients.append((j, shift, q))
                    neg = minus - q
                    for key, col in _shifted(elements[j], shift, trunc)[1:]:
                        work[key] = reduce(work.get(key, 0) + times[col](neg))
            for mono, col in rem.items():
                if col and any(divides(c, mono) is not None for c in corners):
                    raise ArithmeticError(f"remainder term {mono} is divisible by a divisor lead")
                ok &= ~nonzero(col)
            recon = dict(rem)
            for j, shift, q in quotients:
                for nu, col in elements[j]:
                    if nu.t_deg + shift < trunc:
                        key = Monomial(nu.t_deg + shift, nu.seat)
                        recon[key] = reduce(recon.get(key, 0) + times[col](q))
            if any(recon.get(m, 0) != f.get(m, 0) for m in recon.keys() | f.keys()):
                raise ArithmeticError("quotients and remainder do not reconstruct the dividend")
    return ok.bit_count()


def is_groebner(pb: PreBasis) -> bool:
    """Degree-adjacent pairs only (a PreBasis has at most two, adjacent leads per
    seat): _closed_count on one-lane columns, each coefficient its own column."""
    gens = sorted((g.monic() for g in pb), key=Element.leading_monomial)
    elements = [sorted(g.terms.items()) for g in gens]
    return _closed_count([g.leading_monomial() for g in gens], elements, pb.p, pb.trunc, 1) == 1


def is_groebner_general(pb: PreBasis) -> bool:
    """Full criterion: every S-element over every minimal common multiple reduces to 0."""
    divisors = list(pb.elements)
    for i, gi in enumerate(divisors):
        for gj in divisors[i + 1 :]:
            mi, mj = gi.leading_monomial(), gj.leading_monomial()
            for nu in lcm_set(mi, mj):
                s = gi.monic().shift(nu.t_deg - mi.t_deg) - gj.monic().shift(nu.t_deg - mj.t_deg)
                if not divide(s, divisors).remainder.is_zero():
                    return False
    return True


class ReducedGB(NamedTuple):
    """Reduced Groebner basis with the leading-term datum of its stratum."""

    elements: tuple[Element, ...]
    datum: LeadingTermDatum
    p: int
    trunc: int

    def prebasis(self) -> PreBasis:
        return PreBasis(self.elements, self.datum.d)


def reduce_basis(generators: Iterable[Element], d: int) -> ReducedGB:
    """Complete the generators to the unique reduced Groebner basis.

    Adds reduced S-element remainders until the criterion passes, then
    rewrites one generator per corner as corner-minus-remainder.  The
    result depends only on the submodule generated, not on the
    presentation; its datum is the stratum's leading-term datum, whose
    n() is the codimension.  Raises ValueError for a term on a seat
    outside 1..d, and TruncationError when the codimension exceeds
    (trunc-4)/2 or when some seat has no leading term at all.
    """
    generators = list(generators)
    for g in generators:
        if any(not 1 <= mono.seat <= d for mono in g.terms):
            raise ValueError(f"seat out of range in {g}")
    G = [g.monic() for g in generators if not g.is_zero()]
    if not G:
        raise TruncationError("no nonzero generators: submodule not finite-codimension")
    p, trunc = G[0].p, G[0].trunc

    pending = [(i, j) for i in range(len(G)) for j in range(i)]
    while pending:
        i, j = pending.pop()
        gi, gj = G[i], G[j]
        mi, mj = gi.leading_monomial(), gj.leading_monomial()
        for nu in lcm_set(mi, mj):
            s = gi.shift(nu.t_deg - mi.t_deg) - gj.shift(nu.t_deg - mj.t_deg)
            rem = divide(s, G).remainder
            if not rem.is_zero():
                G.append(rem.monic())
                pending.extend((len(G) - 1, k) for k in range(len(G) - 1))

    leads = sorted({g.leading_monomial() for g in G})
    corners = [
        m for m in leads
        if not any(other != m and divides(other, m) is not None for other in leads)
    ]
    degrees: dict[int, list[int]] = {s: [] for s in range(1, d + 1)}
    for mono in corners:
        degrees[mono.seat].append(mono.t_deg)
    ideals = []
    for s, degs in degrees.items():
        if not degs:
            raise TruncationError(
                f"seat {s} has no corner in the window: submodule not finite-codimension"
            )
        # indivisible degrees on one seat differ by exactly 1: a seat has one or two
        ideals.append(("J", degs[0] - 1) if len(degs) == 1 else ("K", degs[0] - 2))
    datum = LeadingTermDatum.from_seat_ideals(ideals)
    n = datum.n()
    bound = (trunc - 4) // 2
    if n > bound:
        raise TruncationError(f"codimension {n} exceeds the certified bound {bound}")

    reduced = []
    for mono in corners:
        rem = divide(Element.monomial(mono, p, trunc), G).remainder
        reduced.append(Element.monomial(mono, p, trunc) - rem)
    gb = ReducedGB(tuple(reduced), datum, p, trunc)
    if not is_groebner(gb.prebasis()):
        raise ArithmeticError("the reduced basis fails the standard-basis criterion")
    return gb


def membership(gb: ReducedGB, f: Element) -> bool:
    return divide(f, gb.elements).remainder.is_zero()
