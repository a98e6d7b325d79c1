"""Per-entry F_p linear algebra that only tests read.

The engine packs a vector into the lanes of one int (varieties._row_lanes)
and reduces rows there.  These functions do the same work one list entry at
a time, as the engine did before the rows were packed, and the packed
kernel, GFMatrix.rank, kernel_basis, apply and products are checked against
them.  Vectors are sequences of ints, reduced mod p on entry.
"""

import operator


def rref(vectors, p):
    """Reduced row echelon basis of the span; returns (rows, pivot columns)."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = [c % p for c in vec]
        for r, piv in zip(rows, pivots):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, r)]
        lead = next((i for i, c in enumerate(v) if c), None)
        if lead is None:
            continue
        inv = pow(v[lead], p - 2, p)
        v = [c * inv % p for c in v]
        for r, piv in zip(rows, pivots):
            c = r[lead]
            if c:
                r[:] = [(a - c * b) % p for a, b in zip(r, v)]
        rows.append(v)
        pivots.append(lead)
    order = sorted(range(len(rows)), key=lambda i: pivots[i])
    return [tuple(rows[i]) for i in order], [pivots[i] for i in order]


def in_span(rows, pivots, vec, p):
    """vec lies in the span of reduced echelon rows with these pivots."""
    v = [c % p for c in vec]
    for r, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, r)]
    return not any(v)


def rank(rows, p):
    return len(rref(rows, p)[0])


def kernel_basis(rows, width, p):
    """Basis of {v : every row . v = 0}, one vector per non-pivot column."""
    reduced, pivots = rref(rows, p)
    out = []
    for j in (j for j in range(width) if j not in pivots):
        v = [0] * width
        v[j] = 1
        for r, piv in zip(reduced, pivots):
            v[piv] = (-r[j]) % p
        out.append(tuple(v))
    return out


def apply(rows, vec, p):
    return tuple(sum(map(operator.mul, row, vec)) % p for row in rows)


def product(a_rows, b_rows, p):
    cols = list(zip(*b_rows))
    return tuple(tuple(sum(map(operator.mul, row, col)) % p for col in cols) for row in a_rows)
