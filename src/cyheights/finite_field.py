"""Deterministic construction of GF(p^f) from a modulus and a generator.

Field elements are encoded as plain integers in [0, q): the element with
coefficient vector (c_0, ..., c_{f-1}) against the power basis of the
modulus is encoded as sum(c_i * p**i).  The encoding order doubles as the
canonical ordering used to select the modulus and the generator, so two
constructions of the same field agree bit for bit, across runs and across
machines.

Polynomials over Z/n are coefficient lists with the constant term first.
_Ring is Z/n[x]/(M) on packed integers, one digit per coordinate: n is p
here and p^k in the p-adic ring R_k, which shares it.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator
from itertools import compress
from math import gcd, isqrt

from .errors import BudgetError, InputError, InternalCheckError, check_budget

# Largest q of a field, whose walk may fill a q-entry table, in elements.
DEFAULT_TABLE_BUDGET = 1 << 24


# Miller-Rabin to the first k prime bases proves primality below psi_k, the
# least strong pseudoprime to them all; PRIMALITY_BOUND = psi_13.  The table
# holds (psi_k, k) where psi_k grows (Pomerance, Selfridge and Wagstaff 1980;
# Jaeschke 1993; Jiang and Deng 2014; Sorenson and Webster 2017; Math. Comp.).
PRIMALITY_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASE_PREFIXES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                  (2152302898747, 5), (3474749660383, 6),
                  (341550071728321, 7), (3825123056546413051, 9),
                  (318665857834031151167461, 12), (PRIMALITY_BOUND, 13))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the shortest prefix of the prime
    bases 2..41 proven for n, a proof for n < PRIMALITY_BOUND; from the
    bound up it raises BudgetError."""
    if n >= PRIMALITY_BOUND:
        raise BudgetError(f"primality budget exceeded: n >= {PRIMALITY_BOUND}"
                          ", where Miller-Rabin to bases 2..41 is no proof")
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    k = next(k for bound, k in _BASE_PREFIXES if n < bound)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in _PRIME_BASES[:k]:  # a witness unless x = 1 or some x^(2^j) = -1
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << j, n) != n - 1 for j in range(s)):
            return False
    return True


def _check_sieve(lo: int, hi: int) -> None:
    """BudgetError (errors.check_budget) unless the hi - lo + isqrt(hi - 1)
    + 1 bytes of the two tables sieving [lo, hi) fit DEFAULT_TABLE_BUDGET."""
    lo = max(lo, 2)
    size = max(hi - lo, 0) + isqrt(max(hi - 1, 0)) + 1
    check_budget(size, DEFAULT_TABLE_BUDGET, "table-size budget exceeded: "
                 f"sieving [{lo}, {hi}) takes {{}} bytes")


def _primes_in(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), sieved over that window alone by the primes
    up to isqrt(hi - 1), after _check_sieve: a proof of each."""
    _check_sieve(lo, hi)
    lo, root = max(lo, 2), isqrt(max(hi - 1, 0))
    base, window = bytearray([1]) * (root + 1), bytearray([1]) * (hi - lo)
    for n in range(2, root + 1):
        if base[n]:  # no smaller prime divides n
            base[n * n::n] = bytes(len(range(n * n, root + 1, n)))
            start = max(n * n, -(-lo // n) * n)
            window[start - lo::n] = bytes(len(range(start, hi, n)))
    return list(compress(range(lo, hi), window))


def _least_prime(lo: int, hi: int, m: int = 1) -> int | None:
    """The least prime in [lo, hi) prime to m, by an is_prime walk, or
    None."""
    if m == 0:  # gcd(n, 0) = n, so no n >= 2 is prime to 0
        return None
    return next((n for n in range(max(lo, 2), hi)
                 if gcd(n, m) == 1 and is_prime(n)), None)


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


# --- coefficient vectors and the packed ring Z/n[x]/(M) ---


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


def _barrett(n: int, top: int) -> tuple[int, int, int]:
    """(width, shift, magic) that reduce packed digits mod n at once:
    every 0 <= s <= top has s // n == s * magic >> shift and
    s * magic < 2^width, so a digit of width bits times magic carries
    into no other digit.  For n = 2^k, s // n is s >> k."""
    if n & (n - 1) == 0:
        shift, magic = n.bit_length() - 1, 1
    else:
        shift = ((top + 1) * n - 1).bit_length()  # 2^shift >= (top + 1) n
        magic = -(-(1 << shift) // n)
    return (top * magic).bit_length(), shift, magic


class _Ring:
    """Z/n[x]/(M) for a monic M of degree f, each element one int.

    Coordinate i of an element, in [0, n), is the digit of width bits
    at bit i * width.  A product is one big-integer multiply, a fold of
    its f - 1 top digits, each times the packed row x^(f+j) mod M, and
    one Barrett pass that reduces every digit mod n at once.  No digit
    of the fold exceeds top = (n-1)^2 (f + (n-1) f(f-1)/2): digit i of
    the product is a sum of at most f products of coordinates, the top
    digits sum to f(f-1)/2 such products, and a row's coordinates are
    below n.  The rows are made by the first product that has top
    digits, so a ring whose products stay below degree f makes none.
    """

    __slots__ = ("n", "f", "width", "shift", "magic", "keep", "x_f", "rows")

    def __init__(self, modulus, n: int):
        f = len(modulus) - 1
        self.n, self.f = n, f
        top = (n - 1) ** 2 * (f + (n - 1) * f * (f - 1) // 2)
        w, shift, self.magic = _barrett(n, top)
        self.width, self.shift = w, shift
        self.keep = ((1 << (w - shift)) - 1) * (
            ((1 << f * w) - 1) // ((1 << w) - 1))  # quotient bits per digit
        self.x_f = self.pack([-c for c in modulus[:f]])  # -(M - x^f)
        self.rows = None

    def _fold_rows(self) -> list[int]:
        """x^f, ..., x^(2f-2) mod M, each the one before times x."""
        w, cut = self.width, (self.f - 1) * self.width
        rows = [self.x_f]
        for _ in range(self.f - 2):
            row = rows[-1]
            rows.append(self._reduce(((row & ((1 << cut) - 1)) << w)
                                     + (row >> cut) * self.x_f))
        self.rows = rows
        return rows

    def pack(self, coeffs) -> int:
        """The element c_0 + c_1 x + ..., each c_i read mod n."""
        w, n = self.width, self.n
        packed = 0
        for c in reversed(coeffs):
            packed = (packed << w) + c % n
        return packed

    def unpack(self, a: int) -> list[int]:
        """The f coordinates of an element."""
        w = self.width
        digit = (1 << w) - 1
        return [a >> i * w & digit for i in range(self.f)]

    def images(self, y: int) -> list[list[int]]:
        """The coordinates of y * x^i, i < f: the columns of the linear
        map x -> y * x on coordinate vectors."""
        return [self.unpack(self.mul(y, 1 << i * self.width))
                for i in range(self.f)]

    def _reduce(self, a: int) -> int:
        """Every digit of a, each at most top, reduced mod n."""
        return a - (a * self.magic >> self.shift & self.keep) * self.n

    def mul(self, a: int, b: int) -> int:
        w, cut = self.width, self.f * self.width
        digit = (1 << w) - 1
        acc = a * b
        high = acc >> cut
        if high:
            acc &= (1 << cut) - 1
            for row in self.rows or self._fold_rows():
                acc += (high & digit) * row
                high >>= w
        return self._reduce(acc)

    def pow(self, a: int, e: int) -> int:
        """a^e by square and multiply, left to right."""
        if self.f == 1:  # an element is its one coordinate
            return pow(a, e, self.n)
        if e == 0:
            return 1
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def coprime(self, a: int, b: int) -> bool:
        """gcd(a, b) is a unit, for n prime and a, b packed polynomials
        with coordinates in [0, n) of degree at most f, not both 0.
        Euclid's algorithm; each step cancels the top coordinate of a
        against b made monic."""
        w, n = self.width, self.n
        while b:
            bits = (b.bit_length() - 1) // w * w  # at b's top coordinate
            # -(b - lead x^deg) / lead, so a + c x^j * b_neg cancels c x^j
            b_neg = self._reduce((b & ((1 << bits) - 1))
                                 * (n - pow(b >> bits, -1, n)))
            while a >> bits:  # deg a >= deg b
                cut = (a.bit_length() - 1) // w * w
                a = self._reduce((a & ((1 << cut) - 1))
                                 + (a >> cut) * (b_neg << cut - bits))
            a, b = b, a
        return a >> w == 0


def _irreducible(modulus: list[int], p: int) -> bool:
    """Ben-Or's test (1981) of a monic M of degree f over F_p: M is
    irreducible iff gcd(x^(p^i) - x, M) = 1 for every i <= f/2, as
    x^(p^i) - x is the product of the monic irreducibles whose degree
    divides i.  Each x^(p^i) is the p-th power of the one before, so a
    reducible M is refused once i reaches the degree of its smallest
    factor; while p^i < f the power is x^(p^i) itself, and no product
    folds."""
    ring = _Ring(modulus, p)
    packed, x = ring.pack(modulus), 1 << ring.width
    h = x
    for _ in range(ring.f // 2):  # i = 1, ..., f // 2
        h = ring.pow(h, p)
        if not ring.coprime(packed, ring._reduce(h + (p - 1) * x)):
            return False
    return True


def _smallest_irreducible(p: int, f: int) -> list[int]:
    """The first monic irreducible of degree f over F_p among x^f + (the
    digits of k), k = 0, 1, ...: increasing encoding order is exactly
    lexicographic order on the coefficient tuple read leading
    coefficient first."""
    for k in range(p**f):
        low = _poly_from_enc(k, p)
        modulus = low + [0] * (f - len(low)) + [1]
        if _irreducible(modulus, p):
            return modulus
    raise InternalCheckError(  # pragma: no cover
        "no irreducible polynomial found; this cannot happen")


class FiniteField:
    """Immutable GF(p^f): its modulus and a generator g, and no tables.

    Addition works on integer encodings; products of the field come from
    the walk, power_blocks() or powers(), which a caller that needs
    logarithms runs once, keeping what it reads.
    Instances are safe to share between processes; nothing is mutated
    after construction.
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
        """Yield g^0, ..., g^(q-2), read off power_blocks()."""
        for block in self.power_blocks(max(1, isqrt(self.q - 1))):
            yield from block

    def power_blocks(self, length: int) -> Iterator[list[int]]:
        """Yield g^0, ..., g^(q-2) as lists of length powers, the last
        list possibly shorter; after the last list, raise InternalCheckError
        unless the walk closes at 1.

        Every product comes from _block_products, in big-integer passes
        with no Python-level work per element.  The first list is the
        start of a shorter walk, the lists of power_blocks(isqrt(length))
        joined and cut to length powers; every later one is the first
        times h^k, h = g^length.  The closing check, last * g = 1, is a
        product of _Ring, which shares only the Barrett helper with the
        kernel.
        """
        if length < 1:
            raise InputError(f"list length must be >= 1, got {length}")
        p, f, n = self.p, self.f, self.q - 1
        length = min(length, n)
        block = [1]
        if length > 1:
            block = []
            for part in self.power_blocks(isqrt(length)):
                block += part
                if len(block) >= length:
                    break
            del block[length:]
        yield block
        done = length
        ring = _Ring(self.modulus, p)
        g = ring.pack(_poly_from_enc(self.generator, p))
        if done < n:
            h = ring.mul(ring.pack(_poly_from_enc(block[-1], p)), g)
            products = _block_products(p, f, block, ring.images(h))
        while done < n:
            block = next(products)
            del block[n - done:]
            done += len(block)
            yield block
        if ring.mul(ring.pack(_poly_from_enc(block[-1], p)), g) != 1:
            raise InternalCheckError("generator order check failed")

    # --- element arithmetic on encodings ---

    def _combine(self, a: int, b: int, sign: int) -> int:
        """a + sign * b, one base-p digit at a time (XOR for p = 2); for
        f = 1 an encoding is the residue itself, so one reduction mod p."""
        q = self.q
        if not (0 <= a < q and 0 <= b < q):
            raise InputError(
                f"field encodings lie in [0, {q}), got {a} and {b}")
        p = self.p
        if self.f == 1:
            return (a + sign * b) % p
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


def _has_full_order(a: int, q: int, prime_factors: dict[int, int],
                    ring: _Ring) -> bool:
    """True iff the element a of ring has multiplicative order exactly
    q - 1.  The powers (q-1)/ell come first, as most candidates fail one
    of them; a^(q-1) = 1 is then left only for a candidate that passes
    them all."""
    n = q - 1
    return all(ring.pow(a, n // ell) != 1
               for ell in prime_factors) and ring.pow(a, n) == 1


def _block_products(p: int, f: int, block: list[int],
                    images: list[list[int]]) -> Iterator[list[int]]:
    """Yield block * h, block * h^2, ..., in big-integer passes.

    images are the coefficient lists of h * x^i (i < f).  Each cell of
    one big integer holds an element of the block, or one of the
    h * x^i, as f slots.  For every digit position i the cells' i-th
    digits are packed once into a column; block * y, y = h^k, is then
    the sum of the columns, each times the packed image y * x^i, so a
    product costs f multiplications of big integers by small ones.  For
    odd p the slot sums are reduced mod p all at once (Barrett: s // p
    is s * magic >> shift for every slot sum s) and the digits are
    merged pairwise into encodings; for p = 2 a slot is one bit, the sum
    is XOR and the cell is the encoding.  The cells of the h * x^i,
    times y and reduced, are the images of y * h, the next multiplier.
    """
    cells = block + [_enc_from_poly(image, p) for image in images]
    n = len(cells)
    if p == 2:
        width, slots = 1, f
    else:  # f * (p - 1)^2 is the largest slot sum
        width, shift, magic = _barrett(p, f * (p - 1) ** 2)
        slots = 1 << (f - 1).bit_length()  # room for the pairwise merges
    cell = 8
    while cell < slots * width:
        cell *= 2
    code = {8: "B", 16: "H", 32: "I"}.get(cell, "Q")
    stride = max(1, cell // 64)

    def spread(pattern: int) -> int:  # pattern in every cell
        return int.from_bytes(pattern.to_bytes(cell // 8, "little") * n,
                              "little")

    def pack(column: list[int]) -> int:  # column[k] in cell k
        words = array(code, bytes(n * cell // 8))
        words[::stride] = array(code, column)
        if sys.byteorder == "big":
            words.byteswap()
        return int.from_bytes(words, "little")

    columns = [pack([c // d % p for c in cells])
               for d in (p**i for i in range(f))]
    if p != 2:
        keep = spread(sum(((1 << (width - shift)) - 1) << (width * k)
                          for k in range(f)))
    merges = []  # (bits, p^span, groups of span slots that take a partner)
    span = 1
    while p != 2 and span < f:
        group = (1 << (span * width)) - 1
        merges.append((span * width, p**span, spread(sum(
            group << (width * k) for k in range(0, f, 2 * span)))))
        span *= 2
    ones = (1 << cell) - 1
    first_image = cell * (n - f)

    state = [sum(c << (width * k) for k, c in enumerate(image))
             for image in images]
    while True:
        acc = 0
        for column, image in zip(columns, state):
            acc = acc ^ column * image if p == 2 else acc + column * image
        if p != 2:
            acc -= (acc * magic >> shift & keep) * p
        state = [acc >> (first_image + cell * i) & ones for i in range(f)]
        for bits, scale, groups in merges:
            acc = (acc & groups) + scale * (acc >> bits & groups)
        words = array(code, acc.to_bytes(n * cell // 8, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield words[:(n - f) * stride:stride].tolist()


def build_field(p: int, f: int, *,
                table_budget: int = DEFAULT_TABLE_BUDGET) -> FiniteField:
    """Construct GF(p^f) deterministically.

    The modulus is the lexicographically smallest monic irreducible of
    degree f (coefficient tuple compared leading term first) and the
    generator is the smallest encoding of multiplicative order q - 1,
    each from one search for every f and q: the modulus of a prime field
    is x, and the generator of GF(2) is 1.  No work here is O(q); the
    budget (errors.check_budget) bounds what powers() walks fill.
    """
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    if f < 1:
        raise InputError(f"extension degree f must be >= 1, got {f}")
    q = p**f
    check_budget(q, table_budget,
                 f"table-size budget exceeded: q = {p}^{f} = {{}}")

    modulus = _smallest_irreducible(p, f)  # x for f = 1: residues mod p
    ring = _Ring(modulus, p)
    prime_factors = _factorize(q - 1)
    # For f > 1 the constants 1..p-1 have order dividing p - 1 < q - 1.
    for generator in range(p if f > 1 else 1, q):
        if _has_full_order(ring.pack(_poly_from_enc(generator, p)), q,
                           prime_factors, ring):
            break
    else:
        raise InternalCheckError(  # pragma: no cover
            f"GF({p}^{f}) has no generator; this cannot happen")
    return FiniteField(p, f, tuple(modulus), generator)

