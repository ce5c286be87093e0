"""Exact arithmetic in Z[zeta_m], the ring of integers of Q(zeta_m).

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(m)-1),
reduced modulo the m-th cyclotomic polynomial.  The representation is
unique, so equality, hashing and the "is this a rational integer" test
are all coefficient comparisons.  Coefficients are Python ints and may
grow without bound.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import InputError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, constant term first.

    Computed by exact division of x^m - 1 by Phi_d over the proper
    divisors d of m.
    """
    if m < 1:
        raise InputError(f"conductor must be >= 1, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    # den is monic; the division is exact by construction
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact cyclotomic division")
    return out


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[int, tuple]:
    """phi(m) and the sparse rows of x^e mod Phi_m for phi(m) <= e < m.

    Each row is (e, ((i, c), ...)) with c != 0 the coordinate of zeta^e
    on zeta^i.  The rows are built once per conductor by shifting x^e to
    x^(e+1) and cancelling the top term with Phi_m; only their nonzero
    entries are kept (132 of them at m = 57 or 63, one row at prime m).
    """
    phi_poly = cyclotomic_polynomial(m)
    deg = len(phi_poly) - 1
    rows = []
    prev = [0] * (deg - 1) + [1]  # x^(deg-1)
    for e in range(deg, m):
        top = prev[-1]
        row = [0] + prev[:-1]
        if top:
            for i in range(deg):
                row[i] -= top * phi_poly[i]
        rows.append((e, tuple((i, c) for i, c in enumerate(row) if c)))
        prev = row
    return deg, tuple(rows)


def _reduce(m: int, buf: list[int]) -> tuple[int, ...]:
    """Reduce sum(buf[e] * x^e) modulo Phi_m; buf is consumed.

    x^m = 1 folds every exponent below m, then one pass applies the rows
    of the conductor's table.  Rows land below phi(m), so nothing
    cascades.  len(buf) must be at least phi(m).
    """
    for e in range(len(buf) - 1, m - 1, -1):
        buf[e - m] += buf[e]
    deg, rows = _reduction_table(m)
    top = len(buf)
    for e, row in rows:
        if e >= top:
            break
        c = buf[e]
        if c:
            for i, r in row:
                buf[i] += c * r
    return tuple(buf[:deg])


# Below this many coordinates the schoolbook loop beats packing: the
# two cost the same at phi(m) = 10 (CPython 3.11, 2-vCPU Xeon VM).
_KRONECKER_MIN_DEGREE = 10


def _schoolbook_product(a, b) -> list[int]:
    """Coefficients of a(x) * b(x) in Z[x] by the quadratic loop."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return prod


def _pack(coeffs, bits: int) -> int:
    """sum(c * 2^(bits*i)) by Horner's rule; signed digits are fine."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << bits) + c
    return acc


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of a(x) * b(x), len(a) == len(b), by one integer product.

    Each operand is evaluated at x = 2^s for a digit width of w whole
    bytes, s = 8w, multiplied once, and the product read back digit by
    digit.  Product coefficient k is a sum of at most n = len(a) terms
    a_i b_j, so |c_k| <= n * max|a_i| * max|b_j| = bound, and w is the
    least byte count with 2^(s-1) > bound (one spare bit for the sign).
    Adding 2^(s-1) to every digit then puts each in (0, 2^s): the biased
    digits are the base-2^s expansion of the biased product, with no
    carry between them, so unpacking is exact.
    """
    n = 2 * len(a) - 1
    bound = len(a) * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return [0] * n
    w = bound.bit_length() // 8 + 1
    s = 8 * w
    pa = _pack(a, s)
    product = pa * pa if a is b else pa * _pack(b, s)
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    raw = (product + bias).to_bytes(n * w, "little")
    half = 1 << (s - 1)
    return [int.from_bytes(raw[i:i + w], "little") - half
            for i in range(0, n * w, w)]


def degree(m: int) -> int:
    """phi(m), the rank of Z[zeta_m] as a Z-module."""
    return len(cyclotomic_polynomial(m)) - 1


class CycInt:
    """An element of Z[zeta_m] in reduced power-basis coordinates."""

    __slots__ = ("m", "coeffs", "_hash")

    def __init__(self, m: int, coeffs: tuple[int, ...]):
        self.m = m
        self.coeffs = coeffs
        self._hash = None

    # --- constructors ---

    @classmethod
    def from_coeffs(cls, m: int, coeffs) -> CycInt:
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != degree(m):
            raise InputError(
                f"expected {degree(m)} coordinates for conductor {m}, "
                f"got {len(coeffs)}")
        return cls(m, coeffs)

    @classmethod
    def integer(cls, m: int, n: int) -> CycInt:
        return cls(m, (int(n),) + (0,) * (degree(m) - 1))

    @classmethod
    def zero(cls, m: int) -> CycInt:
        return cls.integer(m, 0)

    @classmethod
    def one(cls, m: int) -> CycInt:
        return cls.integer(m, 1)

    @classmethod
    def root_of_unity(cls, m: int, k: int = 1) -> CycInt:
        """zeta_m ** k."""
        buf = [0] * m
        buf[k % m] = 1
        return cls(m, _reduce(m, buf))

    @classmethod
    def from_exponent_counts(cls, m: int, counts) -> CycInt:
        """sum(counts[e] * zeta^e for e in range(len(counts))), reduced."""
        buf = list(counts)
        buf += [0] * (m - len(buf))
        return cls(m, _reduce(m, buf))

    # --- ring structure ---

    def _coerce(self, other) -> CycInt:
        if isinstance(other, CycInt):
            if other.m != self.m:
                raise InputError(
                    f"conductor mismatch: {self.m} vs {other.m}")
            return other
        if isinstance(other, int):
            return CycInt.integer(self.m, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.m, tuple(a + b
                                    for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CycInt:
        return CycInt(self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product in Z[zeta_m].

        The polynomial product comes from one big-integer multiply by
        Kronecker substitution (see _kronecker_product), or from the
        schoolbook loop when phi(m) < 10, where that is faster; either is
        then reduced by the conductor's table.  A rational-integer factor
        just scales the coordinates.
        """
        if isinstance(other, int):
            return CycInt(self.m, tuple(other * a for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational_integer():
            return self * other.coeffs[0]
        if self.is_rational_integer():
            return other * self.coeffs[0]
        a, b = self.coeffs, other.coeffs
        if len(a) < _KRONECKER_MIN_DEGREE:
            prod = _schoolbook_product(a, b)
        else:
            prod = _kronecker_product(a, b)
        return CycInt(self.m, _reduce(self.m, prod))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> CycInt:
        if e < 0:
            raise InputError("negative powers leave Z[zeta_m]")
        result = CycInt.one(self.m)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational_integer() and self.coeffs[0] == other
        return (isinstance(other, CycInt) and self.m == other.m
                and self.coeffs == other.coeffs)

    def __hash__(self):
        """hash((m, coeffs)), computed on the first call and kept, as no
        CycInt changes after construction."""
        h = self._hash
        if h is None:
            h = self._hash = hash((self.m, self.coeffs))
        return h

    def __repr__(self) -> str:
        return f"CycInt(m={self.m}, {list(self.coeffs)})"

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # --- queries ---

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational_integer(self) -> int:
        if not self.is_rational_integer():
            raise InputError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def galois(self, t: int) -> CycInt:
        """Apply the automorphism zeta -> zeta^t, for t a unit mod m.

        Coordinate i moves to exponent i*t mod m, a permutation of the
        exponents below m because t is a unit; one reduction by the
        conductor's table then returns to the power basis.
        """
        m = self.m
        if gcd(t, m) != 1:
            raise InputError(f"t={t} is not a unit modulo {m}")
        buf = [0] * m
        for i, c in enumerate(self.coeffs):
            buf[i * t % m] = c
        return CycInt(m, _reduce(m, buf))


def modulus_squared(z: CycInt) -> CycInt:
    """z times its complex conjugate, i.e. z * z.galois(m - 1); for
    conductor <= 2, m - 1 is the identity and this is z*z."""
    return z * z.galois(z.m - 1)
