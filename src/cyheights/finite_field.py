"""Deterministic construction of GF(p^f) from a modulus and a generator.

Field elements are encoded as plain integers in [0, q): the element with
coefficient vector (c_0, ..., c_{f-1}) against the power basis of the
modulus is encoded as sum(c_i * p**i).  The encoding order doubles as the
canonical ordering used to select the modulus and the generator, so two
constructions of the same field agree bit for bit, across runs and across
machines.

Polynomials over Z/n are coefficient lists with the constant term first;
n is p here and p^k in the p-adic ring R_k, which shares the helpers.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from .errors import BudgetError, InputError, InternalCheckError

# Largest q of a field, whose walk may fill a q-entry table, in elements.
DEFAULT_TABLE_BUDGET = 1 << 24


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale inputs."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def frobenius_subgroup(p: int, m: int) -> tuple[int, ...]:
    """The cyclic subgroup {p^j mod m} of (Z/m)^*, in power order.

    Requires gcd(p, m) = 1 and m >= 2.
    """
    if m < 2:
        raise InputError(f"modulus m must be >= 2, got {m}")
    if gcd(p, m) != 1:
        raise InputError(f"gcd(p, m) must be 1, got p={p}, m={m}")
    powers = [1]
    x = p % m
    while x != 1:
        powers.append(x)
        x = (x * p) % m
    return tuple(powers)


def order_mod(p: int, m: int) -> int:
    """Least f >= 1 with p**f = 1 (mod m), the order of <p> in (Z/m)^*."""
    return len(frobenius_subgroup(p, m))


def units_mod(m: int) -> list[int]:
    """The units t of Z/m, 0 < t < m, in increasing order."""
    return [t for t in range(1, m) if gcd(t, m) == 1]


def _factorize(n: int) -> dict[int, int]:
    facts: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            facts[d] = facts.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        facts[n] = facts.get(n, 0) + 1
    return facts


# --- polynomial helpers over Z/n, constant term first ---


def _poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % n
    return _poly_trim(out)


def _poly_rem(a: list[int], mod: list[int], n: int) -> list[int]:
    # mod must be monic
    a = list(a)
    deg_m = len(mod) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        c = a[i] % n
        if c:
            for j in range(deg_m + 1):
                a[i - deg_m + j] = (a[i - deg_m + j] - c * mod[j]) % n
    del a[deg_m:]
    if not a:
        a = [0]
    return _poly_trim(a)


def _poly_pow(a: list[int], e: int, mod: list[int], n: int) -> list[int]:
    """a**e modulo the monic mod, by square and multiply."""
    result = [1]
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, a, n), mod, n)
        a = _poly_rem(_poly_mul(a, a, n), mod, n)
        e >>= 1
    return result


def _poly_from_enc(k: int, p: int) -> list[int]:
    if k == 0:
        return [0]
    digits = []
    while k:
        digits.append(k % p)
        k //= p
    return digits


def _enc_from_poly(a: list[int], p: int) -> int:
    enc = 0
    for c in reversed(a):
        enc = enc * p + (c % p)
    return enc


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for k in range(p**d):
            low = _poly_from_enc(k, p)
            div = low + [0] * (d - len(low)) + [1]
            if _poly_rem(poly, div, p) == [0]:
                return False
    return True


def _smallest_irreducible(p: int, f: int) -> list[int]:
    # Candidates x^f + (digits of k), scanned in increasing encoding order:
    # this is exactly lexicographic order on the coefficient tuple read
    # leading coefficient first.
    for k in range(p**f):
        low = _poly_from_enc(k, p)
        poly = low + [0] * (f - len(low)) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise InternalCheckError(  # pragma: no cover
        "no irreducible polynomial found; this cannot happen")


class FiniteField:
    """Immutable GF(p^f): its modulus and a generator g, and no tables.

    Addition works on integer encodings; a caller that needs logarithms
    walks powers() once and keeps what it reads.  Instances are safe to
    share between processes; nothing is mutated after construction.
    """

    __slots__ = ("p", "f", "q", "modulus", "generator")

    def __init__(self, p: int, f: int, modulus: tuple[int, ...],
                 generator: int):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus
        self.generator = generator

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, f={self.f})"

    def powers(self) -> Iterator[int]:
        """Yield g^0, ..., g^(q-2) by steps x -> g*x; after the last,
        raise InternalCheckError unless the walk closes at 1."""
        step = _multiplier(self.p, self.f, self.modulus, self.generator)
        cur = 1
        for _ in range(self.q - 1):
            yield cur
            cur = step(cur)
        if cur != 1:
            raise InternalCheckError("generator order check failed")

    # --- element arithmetic on encodings ---

    def _combine(self, a: int, b: int, sign: int) -> int:
        """a + sign * b, one base-p digit at a time (XOR for p = 2)."""
        q = self.q
        if not (0 <= a < q and 0 <= b < q):
            raise InputError(
                f"field encodings lie in [0, {q}), got {a} and {b}")
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        shift = 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += (da + sign * db) % p * shift
            shift *= p
        return out

    def add(self, a: int, b: int) -> int:
        return self._combine(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        return self._combine(a, b, -1)

    def neg(self, a: int) -> int:
        return self._combine(0, a, -1)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{f-1}) of an encoded element."""
        if not 0 <= a < self.q:
            raise InputError(
                f"field encodings lie in [0, {self.q}), got {a}")
        digits = _poly_from_enc(a, self.p)
        return tuple(digits + [0] * (self.f - len(digits)))

    def encode(self, coeffs) -> int:
        """The encoding of c_0 + c_1 x + ..., each c_i read mod p."""
        coeffs = list(coeffs)
        if len(coeffs) > self.f:
            raise InputError(f"GF({self.p}^{self.f}) elements have at most "
                             f"{self.f} coordinates, got {len(coeffs)}")
        return _enc_from_poly(coeffs, self.p)


def _enc_pow(enc: int, e: int, modulus, p: int) -> int:
    """enc**e on encodings, modulo the field's modulus."""
    if len(modulus) == 2:  # f = 1: elements are residues mod p
        return pow(enc, e, p)
    return _enc_from_poly(_poly_pow(_poly_from_enc(enc, p), e, modulus, p), p)


def _has_full_order(enc: int, q: int, prime_factors: dict[int, int],
                    modulus: list[int], p: int) -> bool:
    """True iff enc has multiplicative order exactly q - 1."""
    n = q - 1
    return _enc_pow(enc, n, modulus, p) == 1 and all(
        _enc_pow(enc, n // ell, modulus, p) != 1 for ell in prime_factors)


def _multiplier(p: int, f: int, modulus, generator: int):
    """The map x -> generator * x on encodings, as plain integer work.

    Multiplication by g is F_p-linear, so it is fixed by the images
    g * x^i (i < f), computed once with the polynomial helpers.  Each
    image is packed one coefficient per bit slot, and the digits of x are
    read in chunks of at most 256 values, each looked up in a table of
    the summed images for that chunk.  For p = 2 a slot is one bit and
    the sum is XOR, so the result is the encoding itself; for odd p the
    slots hold unreduced sums and are reduced mod p at the end.
    """
    if f == 1:
        return lambda x: x * generator % p
    gen_poly = _poly_from_enc(generator, p)
    images = [_poly_rem(_poly_mul([0] * i + [1], gen_poly, p),
                        list(modulus), p) for i in range(f)]
    width = 1 if p == 2 else (f * (p - 1) ** 2).bit_length()
    packed = [sum(c << (width * k) for k, c in enumerate(image))
              for image in images]
    digits = 1  # digits per chunk
    while p ** (digits + 1) <= 256:
        digits += 1
    tables = []
    for start in range(0, f, digits):
        table = [0]
        for row in packed[start:start + digits]:
            if p == 2:
                table += [t ^ row for t in table]
            else:
                table = [t + d * row for d in range(p) for t in table]
        tables.append(table)

    if p == 2:
        if len(tables) == 1:
            return tables[0].__getitem__

        low = (1 << digits) - 1

        def step(x: int) -> int:
            out = 0
            for table in tables:
                out ^= table[x & low]
                x >>= digits
            return out
        return step

    chunk = p**digits
    mask = (1 << width) - 1
    shifts = [width * k for k in reversed(range(f))]

    def step(x: int) -> int:
        acc = 0
        for table in tables:
            x, d = divmod(x, chunk)
            acc += table[d]
        out = 0
        for shift in shifts:
            out = out * p + (acc >> shift & mask) % p
        return out
    return step


def build_field(p: int, f: int, *,
                table_budget: int = DEFAULT_TABLE_BUDGET) -> FiniteField:
    """Construct GF(p^f) deterministically.

    The modulus is the lexicographically smallest monic irreducible of
    degree f (coefficient tuple compared leading term first) and the
    generator is the smallest encoding of multiplicative order q - 1.
    No work here is O(q); the budget bounds what powers() walks fill.
    """
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    if f < 1:
        raise InputError(f"extension degree f must be >= 1, got {f}")
    q = p**f
    if q > table_budget:
        raise BudgetError(
            f"table-size budget exceeded: q = {p}^{f} = {q} > {table_budget}"
        )

    if f == 1:
        modulus = [0, 1]  # the linear polynomial x; elements are residues mod p
    else:
        modulus = _smallest_irreducible(p, f)

    prime_factors = _factorize(q - 1) if q > 2 else {}
    generator = None
    if q == 2:
        generator = 1
    else:
        # For f > 1 the constants 1..p-1 have order dividing p - 1 < q - 1.
        for cand in range(p if f > 1 else 1, q):
            if _has_full_order(cand, q, prime_factors, modulus, p):
                generator = cand
                break
    assert generator is not None
    return FiniteField(p, f, tuple(modulus), generator)

