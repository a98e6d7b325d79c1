"""Monomials, leading-term data and the spiral raising operators.

A leading-term datum records, for each seat of F = R^d, which monomial
ideal type the seat carries: J(a) with one corner T^(a+1), or K(a) with
the corner pair T^(a+2), T^(a+3).  Internally a datum is a level vector
indexed by seat plus a color vector indexed by RANK, where components are
ranked by (level, seat).  The raising operator gamma_j fixes the j-1
lowest-ranked components and cycles the remaining levels one seat to the
right among the remaining seats; the level that wraps around to the
leftmost free seat is raised by one.  Ranks are preserved, so the
rank-indexed color vector never moves.
"""

from __future__ import annotations

import itertools
import re
from operator import index
from typing import NamedTuple, Sequence

__all__ = [
    "LeadingTermDatum",
    "Monomial",
    "Orbit",
    "base_level_walk",
    "parse_datum",
    "rank_seats",
    "stable_orbit_decomposition",
]

_IDEAL_RE = re.compile(r"([JK])\((\d+)\)")


def rank_seats(levels: Sequence[int]) -> list[int]:
    """Seats (0-based) sorted by (level, seat): entry r is the seat of rank r + 1."""
    return sorted(range(len(levels)), key=lambda s: (levels[s], s))


class Monomial(NamedTuple):
    """T^t_deg * u_seat; tuple order (t_deg, seat) is the module order."""

    t_deg: int
    seat: int

    def __str__(self) -> str:
        return f"T^{self.t_deg}*u{self.seat}"


class LeadingTermDatum:
    """Levels (seat-indexed) plus colors (rank-indexed); immutable."""

    __slots__ = ("levels", "colors")

    def __init__(self, levels: Sequence[int], colors: Sequence[str]):
        levels = tuple(map(index, levels))
        colors = tuple(colors)
        if len(levels) != len(colors):
            raise ValueError("levels and colors must have equal length")
        if any(l < 0 for l in levels):
            raise ValueError("levels must be nonnegative")
        if any(c not in ("J", "K") for c in colors):
            raise ValueError("colors must be 'J' or 'K'")
        self.levels = levels
        self.colors = colors

    @property
    def d(self) -> int:
        return len(self.levels)

    # -- ranking ----------------------------------------------------------

    def rank_order(self) -> list[int]:
        """Seats (1-based) sorted by (level, seat); entry r-1 is rank r's seat."""
        return [s + 1 for s in rank_seats(self.levels)]

    def ranked_components(self) -> list[tuple[int, int, str]]:
        """(level, seat, color) triples in rank order."""
        return [
            (self.levels[s - 1], s, self.colors[r])
            for r, s in enumerate(self.rank_order())
        ]

    def seat_ideals(self) -> list[tuple[str, int]]:
        """Per seat: ("J", a) or ("K", a) with J(a) at level a-1, K(a) at level a."""
        color_of_seat = dict(zip(self.rank_order(), self.colors))
        out = []
        for s in range(1, self.d + 1):
            l = self.levels[s - 1]
            c = color_of_seat[s]
            out.append((c, l + 1 if c == "J" else l))
        return out

    @classmethod
    def from_seat_ideals(cls, ideals: Sequence[tuple[str, int]]) -> "LeadingTermDatum":
        levels = []
        for kind, a in ideals:
            if kind == "J":
                if a < 1:
                    raise ValueError("J(a) needs a >= 1")
                levels.append(a - 1)
            elif kind == "K":
                if a < 0:
                    raise ValueError("K(a) needs a >= 0")
                levels.append(a)
            else:
                raise ValueError(f"unknown ideal kind {kind!r}")
        return cls(levels, [ideals[s][0] for s in rank_seats(levels)])

    # -- invariants of the datum ------------------------------------------

    def n(self) -> int:
        """Colength: sum of levels plus the number of J components."""
        return sum(self.levels) + sum(1 for c in self.colors if c == "J")

    def corners(self) -> list[Monomial]:
        out = []
        for s, (kind, a) in enumerate(self.seat_ideals(), start=1):
            if kind == "J":
                out.append(Monomial(a + 1, s))
            else:
                out.append(Monomial(a + 2, s))
                out.append(Monomial(a + 3, s))
        return sorted(out)

    def standard_set(self) -> list[Monomial]:
        """Monomials of mF not divisible by any corner."""
        out = []
        for s, (kind, a) in enumerate(self.seat_ideals(), start=1):
            if kind == "J":
                degs = list(range(2, a + 1)) + [a + 2]
            else:
                degs = list(range(2, a + 2))
            out.extend(Monomial(deg, s) for deg in degs)
        return sorted(out)

    def first_corners(self) -> list[Monomial]:
        """mu^0 per rank: T^(level+2) on the component's seat."""
        return [Monomial(l + 2, s) for l, s, _ in self.ranked_components()]

    def distance(self, b: int, h: int) -> int:
        """Distance between ranks b < h (1-based)."""
        if not 1 <= b < h <= self.d:
            raise ValueError(f"ranks ({b}, {h}) need 1 <= b < h <= {self.d}")
        comps = self.ranked_components()
        lb, sb, _ = comps[b - 1]
        lh, sh, _ = comps[h - 1]
        return lh - lb - (1 if sb > sh else 0)

    def distance_matrix(self) -> dict[tuple[int, int], int]:
        return {
            (b, h): self.distance(b, h)
            for b in range(1, self.d + 1)
            for h in range(b + 1, self.d + 1)
        }

    def exponents(self) -> tuple[int, int]:
        """(b, delta): the two q-exponents of the stratum count.

        b counts ranked pairs colored (K, J); delta sums, over all
        components, the standard monomials above the component's mu^0.
        """
        b = 0
        for i in range(self.d):
            for j in range(i + 1, self.d):
                if self.colors[i] == "K" and self.colors[j] == "J":
                    b += 1
        std = self.standard_set()
        delta = sum(1 for mu0 in self.first_corners() for nu in std if nu > mu0)
        return b, delta

    def restrict_to_K(self) -> "LeadingTermDatum":
        """The sub-datum of K-colored components, seats renumbered in order."""
        comps = self.ranked_components()
        keep = sorted((s, l) for l, s, c in comps if c == "K")
        levels = [l for _, l in keep]
        return LeadingTermDatum(levels, ["K"] * len(levels))

    # -- spiral raising ----------------------------------------------------

    def _moved_seats(self, j: int) -> list[int]:
        if not 1 <= j <= self.d:
            raise ValueError(f"gamma index {j} out of range 1..{self.d}")
        order = self.rank_order()
        return sorted(order[j - 1 :])

    def gamma(self, j: int) -> "LeadingTermDatum":
        """Apply the j-th raising operator."""
        avail = self._moved_seats(j)
        m = len(avail)
        new_levels = list(self.levels)
        for k in range(m):
            target = avail[(k + 1) % m]
            new_levels[target - 1] = self.levels[avail[k] - 1] + (1 if k == m - 1 else 0)
        return LeadingTermDatum(new_levels, self.colors)

    def stretches(self, j: int) -> list[tuple[int, int]]:
        """Rank pairs (b, h), b < j <= h, whose distance gamma_j raises by 1.

        Seat positions decide membership: with i_b, i_h the seats of ranks
        b, h and i_h' the seat of rank h after the raise, the pair is
        stretched iff the three seats occur in one of the cyclic orders
        (i_h, i_b, i_h'), (i_h', i_h, i_b), (i_b, i_h', i_h).  When rank h
        keeps its seat (only one seat moves, so the cycle has length one and
        the level climbs by 1) every lower rank is stretched against it.
        """
        before = self.rank_order()
        after = self.gamma(j).rank_order()  # gamma_j keeps every rank, moving seats
        out = []
        for b in range(1, j):
            ib = before[b - 1]
            for h in range(j, self.d + 1):
                ih = before[h - 1]
                ih2 = after[h - 1]
                if (
                    ih == ih2
                    or (ih < ib < ih2)
                    or (ih2 < ih < ib)
                    or (ib < ih2 < ih)
                ):
                    out.append((b, h))
        return out

    # -- text form -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeadingTermDatum):
            return NotImplemented
        return self.levels == other.levels and self.colors == other.colors

    def __hash__(self) -> int:
        return hash((self.levels, self.colors))

    def __str__(self) -> str:
        return "(" + ",".join(f"{k}({a})" for k, a in self.seat_ideals()) + ")"

    def __repr__(self) -> str:
        return f"LeadingTermDatum(levels={self.levels!r}, colors={self.colors!r})"


def parse_datum(text: str) -> LeadingTermDatum:
    """Parse the seat-indexed text form, e.g. "(K(1),J(1),K(0))"."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    ideals = [(k, int(a)) for k, a in _IDEAL_RE.findall(body)]
    if not ideals or _IDEAL_RE.sub("", body).strip("), ("):
        raise ValueError(f"cannot parse datum text {text!r}")
    return LeadingTermDatum.from_seat_ideals(ideals)


class Orbit(NamedTuple):
    """A stable orbit: base datum plus the raising indices that act freely."""

    base: LeadingTermDatum
    generators: tuple[int, ...]


def zero_datum(colors: Sequence[str]) -> LeadingTermDatum:
    """All levels zero; ranks follow seats, so colors read seat by seat."""
    return LeadingTermDatum([0] * len(colors), colors)


def _box_caps(d: int) -> list[int]:
    """Cap of the base exponent for j = 2..d: 3(d-j+1)."""
    return [3 * (d - j + 1) for j in range(2, d + 1)]


def base_level_walk(d: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(levels, generators) of the stable orbit bases of rank d, in box order.

    Base addresses run over the box 0 <= b_j <= 3(d-j+1) for j >= 2 (with
    b_1 = 0), last index fastest; gamma_1 always generates, and gamma_j
    generates exactly when b_j sits on the box boundary.  The raising
    operators move levels only, so the walk needs no colors: it is an
    odometer that applies one gamma_j per step to the datum of its prefix.
    """
    if d < 1:
        raise ValueError("rank must be >= 1")
    caps = _box_caps(d)
    out = []

    def walk(datum: LeadingTermDatum, j: int, generators: tuple[int, ...]) -> None:
        if j > d:
            out.append((datum.levels, generators))
            return
        cap = caps[j - 2]
        for b in range(cap + 1):
            if b:
                datum = datum.gamma(j)
            walk(datum, j + 1, (generators + (j,)) if b == cap else generators)

    walk(zero_datum("K" * d), 2, (1,))
    return out


def stable_orbit_decomposition(d: int) -> list[Orbit]:
    """Finite list of stable orbits partitioning all data of the given rank.

    For each color vector, the bases of base_level_walk(d) in box order.
    """
    walk = base_level_walk(d)
    return [
        Orbit(LeadingTermDatum(levels, colors), generators)
        for colors in itertools.product("JK", repeat=d)
        for levels, generators in walk
    ]
