"""Orbit references that only tests read.

Orbit addressing of leading-term data: the engine walks the stable orbit
bases forward (strata.base_level_walk) and never needs to undo a raise.
These functions invert the raising operators, so every datum gets an
address a with gamma_1^a1 ... gamma_d^ad (zero datum) = datum, and they
decide stability pair by pair.  Tests check the walk, the orbit partition
and the raising laws against them.

Conjugacy orbits of matrices: flood_orbits is a flood fill over a set of
flat matrix tuples, the reference for the pair oracle's fill on integer
indices, and transvection_moves is a second generating set of GL_n(F_p),
every I + E_ij and one diagonal matrix, to run it under.

Commutant roots: commutant_roots_odometer walks the kernel of XY = YX one
coefficient vector at a time, the walk that varieties._commutant_roots
packs into lanes; the packed walk is checked against it.
"""

import functools
import operator

from cuspquot.strata import LeadingTermDatum
from cuspquot.varieties import GFMatrix


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


def flood_orbits(seeds, moves):
    """(representative, size) of each orbit that meets seeds, flat matrix
    tuples, under the group that the tuple maps moves generate; the size
    is the number of matrices the fill reaches, in seed order."""
    seen = set()
    out = []
    for rep in seeds:
        if rep in seen:
            continue
        seen.add(rep)
        stack = [rep]
        size = 0
        while stack:
            b = stack.pop()
            size += 1
            for move in moves:
                c = move(b)
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        out.append((rep, size))
    return out


def composed(moves):
    """One tuple map per move of oracles._generators, applying its maps in turn."""

    def compose(maps):
        def move(b):
            for f in maps:
                b = f(b)
            return b

        return move

    return [compose(maps) for maps in moves]


def transvection_moves(n: int, p: int):
    """Conjugations B -> g B g^-1 of flat n x n matrices, for the n(n-1) + 1
    generators g of GL_n(F_p): every transvection I + E_ij and
    diag(w, 1, ..., 1) with w a generator of F_p^x."""

    def transvect(b, i, j):
        # row i += row j, then column j -= column i
        m = list(b)
        for k in range(n):
            m[i * n + k] = (m[i * n + k] + m[j * n + k]) % p
        for k in range(n):
            m[k * n + j] = (m[k * n + j] - m[k * n + i]) % p
        return tuple(m)

    def rescale(b, w, w_inv):
        # row 0 times w, then column 0 times w^-1
        m = list(b)
        for k in range(n):
            m[k] = m[k] * w % p
        for k in range(n):
            m[k * n] = m[k * n] * w_inv % p
        return tuple(m)

    moves = [functools.partial(transvect, i=i, j=j) for i in range(n) for j in range(n) if i != j]
    w = next(w for w in range(1, p) if len({pow(w, e, p) for e in range(p - 1)}) == p - 1)
    if w != 1:
        moves.append(functools.partial(rescale, w=w, w_inv=pow(w, p - 2, p)))
    return moves


def commutant_roots_odometer(x_slots, entries, p):
    """roots(Y): the values on x_slots of each X, zero off x_slots, with
    XY = YX and X^2 = Y^3 at entries.

    An odometer over the coefficients of a kernel basis of X -> XY - YX:
    each step adds one basis vector, and a digit that reaches p has added
    its vector p times, which is zero, and carries.  Each X is checked
    entry by entry with plain % arithmetic."""
    index = {s: n for n, s in enumerate(x_slots)}
    square = [
        [(index[i, k], index[k, j]) for a, k in x_slots if a == i and (k, j) in index]
        for i, j in entries
    ]
    rows = {i for i, _ in entries}

    def roots(Y):
        system = [
            [(Y[b][j] if a == i else 0) - (Y[i][a] if b == j else 0) for a, b in x_slots]
            for i, j in entries
        ] or [[0] * len(x_slots)]
        basis = GFMatrix(system, p).kernel_basis()
        cols = list(zip(*Y))
        y2 = {i: [sum(map(operator.mul, Y[i], col)) for col in cols] for i in rows}
        y3 = [sum(map(operator.mul, y2[i], cols[j])) % p for i, j in entries]
        vec = [0] * len(x_slots)
        digits = [0] * len(basis)
        while True:
            if all(sum(vec[s] * vec[t] for s, t in pairs) % p == c for pairs, c in zip(square, y3)):
                yield list(vec)
            for k, step in enumerate(basis):
                vec = [(a + b) % p for a, b in zip(vec, step)]
                digits[k] += 1
                if digits[k] < p:
                    break
                digits[k] = 0
            else:
                return

    return roots
