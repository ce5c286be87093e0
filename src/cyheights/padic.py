"""P-adic valuations of cyclotomic integers at a canonical prime above p.

Because gcd(p, m) = 1, the prime p is unramified in Q(zeta_m) and the
completion at a prime P above p is the unramified extension of Q_p of
degree f.  We model its ring of integers truncated mod p^k as
R_k = (Z/p^k)[x] / (M) where M is the field modulus of GF(p^f) read over
Z/p^k.  This is the ring GF(p^f) is built as, with p replaced by p^k, so
R_k arithmetic is the field's packed ring kernel run modulo p^k.  The
m-th roots of unity in R_k are Teichmuller lifts of those in
GF(p^f); evaluating a cyclotomic integer at such a lift and taking the
minimum p-adic valuation of its R_k coordinates computes ord_P exactly
whenever the answer is below the precision k.

The canonical P is pinned by sending zeta to the Teichmuller lift of
g^-((q-1)/m), with g the field's canonical generator.  Paired with the
canonical character chi(g) = zeta of the character-sum code, this is the
choice under which Jacobi-sum valuations match Stickelberger exponents.
"""

from __future__ import annotations

from operator import mul

from .cyclotomic import CycInt, degree
from .errors import InputError, InternalCheckError
from .finite_field import FiniteField, _poly_from_enc, _Ring


class PadicContext:
    """Truncated unramified ring R_k with a fixed primitive m-th root of unity.

    Immutable after construction; rebuild with a larger k rather than
    mutating.
    """

    __slots__ = ("field", "m", "k", "pk", "modulus", "zeta_hat",
                 "_zeta_columns")

    def __init__(self, field: FiniteField, m: int, k: int):
        p, f, q = field.p, field.f, field.q
        if m < 1:
            raise InputError(f"conductor must be >= 1, got {m}")
        if (q - 1) % m != 0:
            raise InputError(f"m={m} does not divide q-1={q - 1}")
        if k < 1:
            raise InputError(f"precision k must be >= 1, got {k}")
        self.field = field
        self.m = m
        self.k = k
        self.pk = p**k
        self.modulus = tuple(c % self.pk for c in field.modulus)

        # Teichmuller lift of the residue g^-((q-1)/m), by one power: if
        # a = b mod p^j then a^q = b^q mod p^(j+f), and the residue agrees
        # with its lift mod p, so its q^i-th power agrees mod p^(1+fi),
        # which is p^k or finer for i = ceil((k-1)/f).
        residues = _Ring(field.modulus, p)
        root = residues.unpack(residues.pow(
            residues.pack(_poly_from_enc(field.generator, p)),
            (q - 1) - (q - 1) // m))
        ring = _Ring(self.modulus, self.pk)
        z = ring.pow(ring.pack(root), q**(-(-(k - 1) // f)))
        if ring.pow(z, q) != z:
            raise InternalCheckError("Teichmuller lift did not stabilize")
        if ring.pow(z, m) != 1:
            raise InternalCheckError("lifted root of unity has wrong order")
        self.zeta_hat = tuple(ring.unpack(z))
        if [d % p for d in self.zeta_hat] != root:
            raise InternalCheckError("Teichmuller lift moved the residue")
        # each power of zeta_hat is the one before times zeta_hat
        power, powers = 1, [ring.unpack(1)]
        for _ in range(degree(m) - 1):
            power = ring.mul(power, z)
            powers.append(ring.unpack(power))
        # column i holds coordinate i of zeta_hat^0, ..., zeta_hat^(phi-1)
        self._zeta_columns = tuple(zip(*powers))

    def __repr__(self) -> str:
        return (f"PadicContext(p={self.field.p}, f={self.field.f}, "
                f"m={self.m}, k={self.k})")


def default_precision(f: int, r: int) -> int:
    """Working precision f*r + 2: Jacobi-sum valuations are at most f*r."""
    return f * r + 2


def padic_valuation(z: CycInt, ctx: PadicContext) -> int | None:
    """ord_P of z at the canonical prime, or None when z = 0 mod p^k, so
    that only the lower bound ord_P(z) >= k is known.

    The image of z in R_k is computed on the power basis, one coordinate
    at a time as the dot product of z's coordinates with a column of the
    powers of zeta_hat; since R_k is unramified, ord_P is the minimum of
    the coordinate valuations.
    """
    if z.m != ctx.m:
        raise InputError(f"conductor mismatch: {z.m} vs context {ctx.m}")
    pk = ctx.pk
    image = [sum(map(mul, z.coeffs, column)) % pk
             for column in ctx._zeta_columns]
    p = ctx.field.p
    best = None
    for coord in image:
        if coord == 0:
            continue
        v = 0
        while coord % p == 0:
            coord //= p
            v += 1
        if best is None or v < best:
            best = v
            if best == 0:
                break
    return best
