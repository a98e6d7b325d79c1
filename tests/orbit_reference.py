"""Orbit addressing of leading-term data: a reference that only tests read.

The engine walks the stable orbit bases forward (strata.base_level_walk)
and never needs to undo a raise.  These functions invert the raising
operators, so every datum gets an address a with
gamma_1^a1 ... gamma_d^ad (zero datum) = datum, and they decide stability
pair by pair.  Tests check the walk, the orbit partition and the raising
laws against them.
"""

from cuspquot.strata import LeadingTermDatum


def gamma_inverse(x: LeadingTermDatum, j: int):
    """The datum that gamma_j raises to x, or None when there is none."""
    avail = sorted(x.rank_order()[j - 1 :])
    m = len(avail)
    if x.levels[avail[0] - 1] < 1:
        return None
    old_levels = list(x.levels)
    for k in range(m):
        src = avail[(k + 1) % m]
        old_levels[avail[k] - 1] = x.levels[src - 1] - (1 if k == m - 1 else 0)
    if min(old_levels) < 0:
        return None
    cand = LeadingTermDatum(old_levels, x.colors)
    return cand if cand.gamma(j) == x else None


def is_stable(x: LeadingTermDatum, j: int) -> bool:
    """Stability under gamma_j: every pair b < j <= h keeps its shape.

    A J-colored lower rank needs distance >= 1; a K-K pair needs
    distance >= 3.  gamma_1 never breaks anything.
    """
    for b in range(1, j):
        cb = x.colors[b - 1]
        for h in range(j, x.d + 1):
            delta = x.distance(b, h)
            if cb == "J" and delta < 1:
                return False
            if cb == "K" and x.colors[h - 1] == "K" and delta < 3:
                return False
    return True


def orbit_address(x: LeadingTermDatum) -> tuple[int, ...]:
    """Exponents a with gamma_1^a1 ... gamma_d^ad (zero datum) = x."""
    addr = [0] * x.d
    work = x
    for j in range(x.d, 0, -1):
        while (prev := gamma_inverse(work, j)) is not None:
            work = prev
            addr[j - 1] += 1
    assert not any(work.levels), "address stripping did not reach zero"
    return tuple(addr)


def apply_address(x: LeadingTermDatum, addr) -> LeadingTermDatum:
    """gamma_1^a1 ... gamma_d^ad applied to x."""
    assert len(addr) == x.d
    for j, a in enumerate(addr, start=1):
        for _ in range(a):
            x = x.gamma(j)
    return x
