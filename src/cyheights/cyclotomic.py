"""Exact arithmetic in Z[zeta_m], the ring of integers of Q(zeta_m).

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(m)-1),
reduced modulo the m-th cyclotomic polynomial.  The representation is
unique, so equality, hashing and the "is this a rational integer" test
are all coefficient comparisons.  Coefficients are Python ints and may
grow without bound.
"""

from __future__ import annotations

import cmath
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
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row e gives the basis coordinates of zeta^e.

    Rows are provided for 0 <= e <= max(2*phi(m) - 2, m - 1), enough for
    both products of reduced elements and raw root-of-unity exponents.
    """
    phi_poly = cyclotomic_polynomial(m)
    deg = len(phi_poly) - 1
    top_exponent = max(2 * deg - 2, m - 1)
    rows: list[tuple[int, ...]] = []
    for e in range(deg):
        row = [0] * deg
        row[e] = 1
        rows.append(tuple(row))
    # zeta^deg = -(low-order part of Phi_m), then shift-and-reduce upward
    for e in range(deg, top_exponent + 1):
        prev = rows[e - 1]
        shifted = [0] + list(prev[:-1])
        top = prev[-1]
        if top:
            for i in range(deg):
                shifted[i] -= top * phi_poly[i]
        rows.append(tuple(shifted))
    return tuple(rows)


def degree(m: int) -> int:
    """phi(m), the rank of Z[zeta_m] as a Z-module."""
    return len(cyclotomic_polynomial(m)) - 1


class CycInt:
    """An element of Z[zeta_m] in reduced power-basis coordinates."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: tuple[int, ...]):
        self.m = m
        self.coeffs = coeffs

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
        row = _reduction_rows(m)[k % m]
        return cls(m, row)

    @classmethod
    def from_exponent_counts(cls, m: int, counts) -> CycInt:
        """sum(counts[e] * zeta^e for e in range(m)), reduced."""
        rows = _reduction_rows(m)
        deg = degree(m)
        out = [0] * deg
        for e, c in enumerate(counts):
            if c:
                row = rows[e % m]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return cls(m, tuple(out))

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
        if isinstance(other, int):
            return CycInt(self.m, tuple(other * a for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        deg = len(a)
        prod = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        rows = _reduction_rows(self.m)
        out = list(prod[:deg])
        for e in range(deg, 2 * deg - 1):
            c = prod[e]
            if c:
                row = rows[e]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return CycInt(self.m, tuple(out))

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
        return hash((self.m, self.coeffs))

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
        """Apply the automorphism zeta -> zeta^t, for t a unit mod m."""
        if gcd(t, self.m) != 1:
            raise InputError(f"t={t} is not a unit modulo {self.m}")
        rows = _reduction_rows(self.m)
        deg = len(self.coeffs)
        out = [0] * deg
        for i, c in enumerate(self.coeffs):
            if c:
                row = rows[(i * t) % self.m]
                for k in range(deg):
                    if row[k]:
                        out[k] += c * row[k]
        return CycInt(self.m, tuple(out))


def modulus_squared(z: CycInt) -> CycInt:
    """z times its complex conjugate, i.e. z * z.galois(m - 1).

    For conductor <= 2 conjugation is trivial and this is z*z.
    """
    if z.m <= 2:
        return z * z
    return z * z.galois(z.m - 1)


def complex_embed(z: CycInt) -> complex:
    """Evaluate the coordinates at exp(2*pi*i/m).  For reporting only."""
    zeta = cmath.exp(2j * cmath.pi / z.m)
    acc = 0j
    power = 1 + 0j
    for c in z.coeffs:
        acc += c * power
        power *= zeta
    return acc
