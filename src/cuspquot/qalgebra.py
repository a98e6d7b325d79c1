"""Exact coefficient arithmetic for the counting engine.

Everything here is integer-exact: Laurent polynomials in q over Z,
polynomials in t whose coefficients are Laurent polynomials, q- and
t-rational values kept as a numerator over the fixed denominator they
naturally have, and cyclotomic integers for evaluating at roots of unity.
No floats anywhere.

A LaurentPolyQ is a dict {exponent: coefficient} that never holds a zero
coefficient; __eq__ and __hash__ rely on that.  Public constructors check
that they are given integers, and arithmetic hands its results, already
clean, to the private _from_clean without a second pass.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Iterable, Optional, Union

__all__ = [
    "LaurentPolyQ",
    "RationalQ",
    "TPoly",
    "TSeries",
    "CyclotomicInt",
    "q_pochhammer",
    "t_pochhammer",
    "q_binomial",
    "q_binomial_inv",
    "gl_order",
    "q_pascal_matrix",
    "q_pascal_inverse",
    "cyclotomic_poly",
    "tpoly_to_triples",
    "tpoly_from_triples",
    "series_to_json",
    "is_prime",
    "check_prime",
    "check_nonnegative",
    "PRIME_TEST_LIMIT",
]

QValue = Union[int, Fraction]


class LaurentPolyQ:
    """Laurent polynomial in q with integer coefficients, immutable.

    The terms are one dict {exponent: coefficient} that never holds a zero
    coefficient, so two polynomials are equal exactly when their dicts are,
    and the hash needs no sorting.  The public constructor checks that every
    exponent and coefficient is an integer and drops zeros; arithmetic
    results are built by _from_clean, which takes such a dict as it is.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[int, int]] = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                e, c = operator.index(e), operator.index(c)
                if c:
                    clean[e] = c
        self._terms = clean

    @classmethod
    def zero(cls) -> "LaurentPolyQ":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolyQ":
        return cls({0: 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPolyQ":
        return cls({0: c})

    @classmethod
    def q_power(cls, e: int, c: int = 1) -> "LaurentPolyQ":
        return cls({e: c})

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def coeff(self, e: int) -> int:
        return self._terms.get(e, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def is_unit(self) -> bool:
        """True when the polynomial is a single term +-q^k."""
        return len(self._terms) == 1 and abs(next(iter(self._terms.values()))) == 1

    def unit_inverse(self) -> "LaurentPolyQ":
        if not self.is_unit():
            raise ValueError(f"not a unit: {self}")
        ((e, c),) = self._terms.items()
        return _from_clean({-e: c})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPolyQ):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentPolyQ | int") -> "LaurentPolyQ":
        if isinstance(other, int):
            other = LaurentPolyQ.const(other)
        elif not isinstance(other, LaurentPolyQ):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        _merge(out, b, 0, 1)
        return _from_clean(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolyQ":
        return _from_clean({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPolyQ | int") -> "LaurentPolyQ":
        if isinstance(other, int):
            other = LaurentPolyQ.const(other)
        elif not isinstance(other, LaurentPolyQ):
            return NotImplemented
        out = dict(self._terms)
        _merge(out, other._terms, 0, -1)
        return _from_clean(out)

    def __rsub__(self, other: int) -> "LaurentPolyQ":
        return LaurentPolyQ.const(other) - self

    def __mul__(self, other: "LaurentPolyQ | int") -> "LaurentPolyQ":
        if isinstance(other, int):
            other = LaurentPolyQ.const(other)
        elif not isinstance(other, LaurentPolyQ):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = {}
        for s, k in b.items():
            _merge(out, a, s, k)
        return _from_clean(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolyQ":
        if n < 0:
            raise ValueError("negative power; use unit_inverse for units")
        out = LaurentPolyQ.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute_q(self, k: int) -> "LaurentPolyQ":
        """q -> q^k for a nonzero integer k (k may be negative)."""
        k = operator.index(k)
        if k == 0:
            raise ValueError("q -> q^0 is not a substitution")
        return _from_clean({e * k: c for e, c in self._terms.items()})

    def evaluate(self, value: QValue) -> Fraction:
        """The value at q = a/b, in integers until one Fraction at the end.

        With lo and hi the extreme exponents, the value is
        a^lo b^-hi * sum c a^(e - lo) b^(hi - e), and the sum is one
        ascending Horner pass that raises a and b to each gap between
        exponents, so a sparse q^(10^6) costs one step.
        """
        v = Fraction(value)
        terms = self._terms
        if not terms:
            return Fraction(0)
        a, b = v.numerator, v.denominator
        exps = sorted(terms)
        lo, hi = exps[0], exps[-1]
        if a == 0 and lo < 0:
            raise ZeroDivisionError("negative exponent at q=0")
        total, apow, prev = 0, 1, lo
        for e in exps:
            if e != prev:
                gap, prev = e - prev, e
                apow *= a**gap
                if b != 1:
                    total *= b**gap
            total += terms[e] * apow
        num = total * (a**lo if lo > 0 else 1) * (b**-hi if hi < 0 else 1)
        den = (a**-lo if lo < 0 else 1) * (b**hi if hi > 0 else 1)
        return Fraction(num, den)

    def at_root_of_unity(self, r: int) -> "CyclotomicInt":
        """The value at x, a primitive r-th root of unity: exponents fold mod r."""
        r = operator.index(r)
        if r < 1:
            raise ValueError("cyclotomic order must be >= 1")
        folded = [0] * r
        for e, c in self._terms.items():
            folded[e % r] += c
        return CyclotomicInt(r, folded)

    def divide_exact(self, other: "LaurentPolyQ") -> "LaurentPolyQ":
        q = self.try_divide(other)
        if q is None:
            raise ValueError(f"({self}) is not divisible by ({other})")
        return q

    def try_divide(self, other: "LaurentPolyQ") -> Optional["LaurentPolyQ"]:
        """Exact quotient in Z[q, q^-1], or None if the division fails.

        Long division from the top term down, in integers.  Over Q the
        quotient is unique, so once a step's leading coefficient is not a
        multiple of the divisor's, no quotient exists in Z[q, q^-1].
        """
        g = other._terms
        if not g:
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self._terms)
        if not rem:
            return _from_clean({})
        gdeg = max(g)
        glead = g[gdeg]
        lowest = min(rem) - min(g)  # no quotient term can lie below q^lowest
        quot = {}
        while rem:
            top = max(rem)
            s = top - gdeg
            if s < lowest:
                return None
            c, r = divmod(rem[top], glead)
            if r:
                return None
            quot[s] = c
            _merge(rem, g, s, -c)
        return _from_clean(quot)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPolyQ({self._terms!r})"


def _from_clean(terms: dict[int, int]) -> LaurentPolyQ:
    """The polynomial with these terms, for an int dict with no zero coefficient.

    The dict is taken, not copied; every arithmetic result is built here.
    """
    p = object.__new__(LaurentPolyQ)
    p._terms = terms
    return p


def _merge(out: dict[int, int], terms: dict[int, int], s: int, k: int) -> None:
    """out += k * q^s * p in place, for p with these terms and k nonzero.

    A coefficient that cancels is deleted, so out keeps the no-zero
    invariant.  LaurentPolyQ addition, subtraction, multiplication and
    exact division all run through this one loop.
    """
    for e, c in terms.items():
        e += s
        c = out.get(e, 0) + c * k
        if c:
            out[e] = c
        else:
            del out[e]


ONE = LaurentPolyQ.one()
ZERO = LaurentPolyQ.zero()


class RationalQ:
    """A numerator over the denominator it naturally has; equality by cross-multiplication.

    Fractions are never added: a sum of q-rational terms is built as one
    numerator over a common denominator that each term's denominator
    divides, such as (q^-1;q^-1)_n for a Cohen-Lenstra coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolyQ, den: LaurentPolyQ = ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalQ):
            return self.num * other.den == other.num * self.den
        if isinstance(other, (int, LaurentPolyQ)):
            return self.num == self.den * other
        return NotImplemented

    def __hash__(self) -> int:
        raise TypeError("RationalQ is not hashable (no canonical form)")

    def __mul__(self, other: "RationalQ | LaurentPolyQ | int") -> "RationalQ":
        if isinstance(other, RationalQ):
            return RationalQ(self.num * other.num, self.den * other.den)
        if isinstance(other, (int, LaurentPolyQ)):
            return RationalQ(self.num * other, self.den)
        return NotImplemented

    __rmul__ = __mul__

    def evaluate(self, value: QValue) -> Fraction:
        d = self.den.evaluate(value)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={value}")
        return self.num.evaluate(value) / d

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalQ({self.num!r}, {self.den!r})"


class TPoly:
    """Polynomial in t with LaurentPolyQ coefficients, immutable."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[LaurentPolyQ] = ()):
        cs = [c if isinstance(c, LaurentPolyQ) else LaurentPolyQ.const(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def one(cls) -> "TPoly":
        return cls([ONE])

    @classmethod
    def t_power(cls, n: int, coeff: LaurentPolyQ = ONE) -> "TPoly":
        if n < 0:
            raise ValueError("TPoly exponents are nonnegative")
        return cls([ZERO] * n + [coeff])

    @property
    def coeffs(self) -> tuple[LaurentPolyQ, ...]:
        return self._coeffs

    def degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, n: int) -> LaurentPolyQ:
        if 0 <= n < len(self._coeffs):
            return self._coeffs[n]
        return ZERO

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = TPoly([LaurentPolyQ.const(other)])
        if not isinstance(other, TPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self._coeffs), len(other._coeffs))
        return TPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self) -> "TPoly":
        return TPoly([-c for c in self._coeffs])

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __mul__(self, other: "TPoly | LaurentPolyQ | int") -> "TPoly":
        if isinstance(other, (LaurentPolyQ, int)):
            return TPoly([c * other for c in self._coeffs])
        out = [ZERO] * (len(self._coeffs) + len(other._coeffs))
        for i, a in enumerate(self._coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other._coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return TPoly(out)

    __rmul__ = __mul__

    def shift_t(self, n: int) -> "TPoly":
        """Multiply by t^n; n may be negative when the low coefficients vanish."""
        if n >= 0:
            return TPoly([ZERO] * n + list(self._coeffs))
        if any(not c.is_zero() for c in self._coeffs[: -n]):
            raise ValueError(f"not divisible by t^{-n}")
        return TPoly(self._coeffs[-n:])

    def substitute_t_scale(self, a: int) -> "TPoly":
        """t -> q^a * t."""
        return TPoly([c * LaurentPolyQ.q_power(a * m) for m, c in enumerate(self._coeffs)])

    def substitute_q(self, k: int) -> "TPoly":
        return TPoly([c.substitute_q(k) for c in self._coeffs])

    def substitute_t_square(self) -> "TPoly":
        """t -> t^2."""
        out = [ZERO] * (2 * len(self._coeffs))
        for m, c in enumerate(self._coeffs):
            out[2 * m] = c
        return TPoly(out)

    def evaluate_t_symbolic(self, t_value: int) -> LaurentPolyQ:
        """Plug an integer for t, keeping q symbolic: each coefficient times
        t_value^m is merged into one dict, and one LaurentPolyQ is built."""
        t_value = operator.index(t_value)
        out: dict[int, int] = {}
        k = 1
        for c in self._coeffs:
            if k:
                _merge(out, c._terms, 0, k)
            k *= t_value
        return _from_clean(out)

    def at_root_of_unity(self, r: int) -> list["CyclotomicInt"]:
        return [c.at_root_of_unity(r) for c in self._coeffs]

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for m, c in enumerate(self._coeffs):
            if c.is_zero():
                continue
            if m == 0:
                parts.append(f"{c}")
            else:
                tm = "t" if m == 1 else f"t^{m}"
                parts.append(f"({c})*{tm}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TPoly({list(self._coeffs)!r})"


class TSeries:
    """Rational series in t: a TPoly numerator over a TPoly denominator.

    Every series of the engine lives over (t;q)_d and none is added to
    another.  The denominator must have a unit constant term (+-q^k) so
    that the series expansion stays inside Z[q, q^-1].
    """

    __slots__ = ("num", "den")

    def __init__(self, num: TPoly, den: TPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not den.coeff(0).is_unit():
            raise ValueError("series denominator needs a unit constant term")
        self.num = num
        self.den = den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("TSeries is not hashable (no canonical form)")

    def expand(self, order: int) -> list[LaurentPolyQ]:
        """Coefficients of t^0 .. t^order of the series expansion."""
        inv0 = self.den.coeff(0).unit_inverse()
        out: list[LaurentPolyQ] = []
        for k in range(order + 1):
            acc = self.num.coeff(k)
            for j in range(1, min(k, self.den.degree()) + 1):
                acc = acc - self.den.coeff(j) * out[k - j]
            out.append(acc * inv0)
        return out

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"TSeries({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# primality of the field size

PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime, bases <= 41


@functools.lru_cache(maxsize=None, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below PRIME_TEST_LIMIT; ValueError from there on.

    TypeError for a non-integer such as 2.0.  Memoized by type as well as
    value, so 2.0 never hits the entry of 2: GFMatrix checks its modulus on
    every construction."""
    if operator.index(n) >= PRIME_TEST_LIMIT:
        raise ValueError(f"primality is only decided below {PRIME_TEST_LIMIT}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = odd * 2^twos
    ladders = ([pow(a, (n - 1) >> k, n) for k in range(twos, 0, -1)] for a in bases)
    return all(ladder[0] == 1 or n - 1 in ladder for ladder in ladders)


def check_prime(p: int) -> int:
    """operator.index(p) if p is a prime, else ValueError; every prime check goes through here."""
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    return operator.index(p)


def check_nonnegative(n: int, what: str) -> int:
    """operator.index(n) if n >= 0, else ValueError; every rank, order or size check goes through here."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"{what} must be >= 0")
    return n


# ---------------------------------------------------------------------------
# q-combinatorics


def q_pochhammer(n: int, exp_sign: int = 1) -> LaurentPolyQ:
    """(q;q)_n for exp_sign=+1, (q^-1;q^-1)_n for exp_sign=-1."""
    n = check_nonnegative(n, "pochhammer length")
    if exp_sign not in (1, -1):
        raise ValueError("exp_sign must be +-1")
    out = ONE
    for i in range(1, n + 1):
        out = out * (ONE - LaurentPolyQ.q_power(exp_sign * i))
    return out


@functools.cache
def _t_pochhammers() -> list[TPoly]:
    """(t;q)_d built so far, d at index d, which t_pochhammer extends."""
    return [TPoly.one()]


def t_pochhammer(d: int) -> TPoly:
    """(t;q)_d = prod_{i=0}^{d-1} (1 - q^i t) as a TPoly.

    Each rank is one factor times the rank below, kept in _t_pochhammers and
    filled upward in a loop, so a deep rank needs no recursion."""
    d = check_nonnegative(d, "pochhammer length")
    out = _t_pochhammers()
    while len(out) <= d:
        out.append(out[-1] * TPoly([ONE, -LaurentPolyQ.q_power(len(out) - 1)]))
    return out[d]


def q_binomial(d: int, r: int) -> LaurentPolyQ:
    """Gaussian binomial [d r]_q, computed by exact division."""
    if r < 0 or r > d:
        raise ValueError(f"q_binomial out of range: d={d}, r={r}")
    num = ONE
    for i in range(r):
        num = num * (ONE - LaurentPolyQ.q_power(d - i))
    return num.divide_exact(q_pochhammer(r))


def q_binomial_inv(d: int, r: int) -> LaurentPolyQ:
    """[d r] evaluated at q -> q^-1."""
    return q_binomial(d, r).substitute_q(-1)


def gl_order(n: int) -> LaurentPolyQ:
    """|GL_n(F_q)| = q^(n^2) (q^-1;q^-1)_n as a polynomial in q."""
    return LaurentPolyQ.q_power(n * n) * q_pochhammer(n, exp_sign=-1)


def q_pascal_matrix(size: int) -> list[list[LaurentPolyQ]]:
    """Lower-triangular matrix P with P[i][j] = [i j] at q -> q^-1."""
    size = check_nonnegative(size, "size")
    return [
        [q_binomial_inv(i, j) if j <= i else ZERO for j in range(size)]
        for i in range(size)
    ]


def q_pascal_inverse(size: int) -> list[list[LaurentPolyQ]]:
    """Inverse of q_pascal_matrix: entries (-1)^(i-j) q^(-C(i-j,2)) [i j]_(q^-1)."""
    size = check_nonnegative(size, "size")
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            if j > i:
                row.append(ZERO)
            else:
                k = i - j
                sign = -1 if k % 2 else 1
                row.append(
                    LaurentPolyQ.q_power(-(k * (k - 1) // 2), sign) * q_binomial_inv(i, j)
                )
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# Cyclotomic integers (root-of-unity evaluation stays symbolic)


def _poly_divmod_monic(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomial f by monic g; coefficients ascending."""
    assert g and g[-1] == 1
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * max(len(rem) - dg, 0)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top]
        if c:
            quot[top - dg] = c
            for i, gc in enumerate(g):
                rem[top - dg + i] -= c * gc
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


@functools.cache
def cyclotomic_poly(r: int) -> list[int]:
    """Coefficients (ascending) of the r-th cyclotomic polynomial."""
    r = operator.index(r)
    if r < 1:
        raise ValueError("cyclotomic order must be >= 1")
    f = [-1] + [0] * (r - 1) + [1]  # x^r - 1
    for d in range(1, r):
        if r % d == 0:
            f, rem = _poly_divmod_monic(f, cyclotomic_poly(d))
            assert not rem
    return f


class CyclotomicInt:
    """Element of Z[x]/Phi_r(x), x a primitive r-th root of unity."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int]):
        phi = cyclotomic_poly(order)
        deg = len(phi) - 1
        cs = list(coeffs)
        if len(cs) > deg:
            _, cs = _poly_divmod_monic(cs, phi)
        cs = cs + [0] * (deg - len(cs))
        self.order = order
        self.coeffs = tuple(cs[:deg])

    @classmethod
    def zero(cls, order: int) -> "CyclotomicInt":
        return cls(order, [])

    @classmethod
    def one(cls, order: int) -> "CyclotomicInt":
        return cls(order, [1])

    @classmethod
    def from_int(cls, order: int, c: int) -> "CyclotomicInt":
        return cls(order, [c])

    def _check(self, other: "CyclotomicInt") -> None:
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "CyclotomicInt | int") -> "CyclotomicInt":
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.order, other)
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return CyclotomicInt(self.order, a)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.order, [-c for c in self.coeffs])

    def __sub__(self, other: "CyclotomicInt | int") -> "CyclotomicInt":
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.order, other)
        return self + (-other)

    def __mul__(self, other: "CyclotomicInt | int") -> "CyclotomicInt":
        if isinstance(other, int):
            return CyclotomicInt(self.order, [c * other for c in self.coeffs])
        self._check(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return CyclotomicInt(self.order, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CyclotomicInt":
        if n < 0:
            raise ValueError("negative power")
        out = CyclotomicInt.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.order, other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicInt({self.order}, {list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# JSON forms: a polynomial is a list of [t_exp, q_exp, coeff] triples,
# a series is {"num": [...], "den": [...]}.


def tpoly_to_triples(tp: TPoly) -> list[list[int]]:
    out = []
    for m, c in enumerate(tp.coeffs):
        for e in sorted(c.terms):
            out.append([m, e, c.coeff(e)])
    return out


def tpoly_from_triples(triples: Iterable[Iterable[int]]) -> TPoly:
    by_t: dict[int, dict[int, int]] = {}
    for t_exp, q_exp, coeff in triples:
        t_exp, q_exp = operator.index(t_exp), operator.index(q_exp)
        if t_exp < 0:
            raise ValueError(f"negative t-exponent in triple {[t_exp, q_exp, coeff]}")
        d = by_t.setdefault(t_exp, {})
        d[q_exp] = d.get(q_exp, 0) + operator.index(coeff)
    if not by_t:
        return TPoly.zero()
    top = max(by_t)
    return TPoly([LaurentPolyQ(by_t.get(m, {})) for m in range(top + 1)])


def series_to_json(s: TSeries) -> dict:
    return {"num": tpoly_to_triples(s.num), "den": tpoly_to_triples(s.den)}
