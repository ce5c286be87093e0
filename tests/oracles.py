"""Reference computations that the tests hold the package's fast paths to.

Each oracle computes its value from the definition and shares no
shortcut with the code it checks.  This module imports only
cyheights.finite_field, cyheights.cyclotomic, cyheights.errors and the
standard library (test_oracles_import_only_the_lower_layers reads its
imports), so no oracle can borrow a step from the layers it checks.
"""

from __future__ import annotations

import cmath
from collections import Counter, defaultdict
from math import gcd

from cyheights.cyclotomic import CycInt, _schoolbook_product
from cyheights.errors import BudgetError, InputError
from cyheights.finite_field import (FiniteField, _enc_from_poly, _factorize,
                                    _poly_from_enc, frobenius_subgroup)

DEFAULT_NAIVE_BUDGET = 10**7


# --- polynomials over Z/n as coefficient lists, constant term first: the
# reference for the packed ring of cyheights.finite_field ---


def _poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], n: int) -> list[int]:
    return _poly_trim([c % n for c in _schoolbook_product(a, b)])


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


def _enc_mul(a: int, b: int, modulus, p: int) -> int:
    """a * b on encodings, modulo the field's modulus."""
    product = _poly_mul(_poly_from_enc(a, p), _poly_from_enc(b, p), p)
    return _enc_from_poly(_poly_rem(product, modulus, p), p)


def _enc_pow(enc: int, e: int, modulus, p: int) -> int:
    """enc**e on encodings, modulo the field's modulus."""
    if len(modulus) == 2:  # f = 1: elements are residues mod p
        return pow(enc, e, p)
    return _enc_from_poly(_poly_pow(_poly_from_enc(enc, p), e, modulus, p), p)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for k in range(p**d):
            low = _poly_from_enc(k, p)
            div = low + [0] * (d - len(low)) + [1]
            if _poly_rem(poly, div, p) == [0]:
                return False
    return True


def field_by_trial_division(p: int, f: int) -> tuple[tuple[int, ...], int]:
    """The modulus and generator of GF(p^f) by the definitions: the first
    monic irreducible of degree f in encoding order, by trial division,
    and the first encoding whose powers (q-1)/ell are not 1 and whose
    power q - 1 is, by list arithmetic."""
    q = p**f
    for k in range(q):
        low = _poly_from_enc(k, p)
        modulus = low + [0] * (f - len(low)) + [1]
        if _is_irreducible(modulus, p):
            break
    n = q - 1
    generator = next(c for c in range(1, q)
                     if _enc_pow(c, n, modulus, p) == 1
                     and all(_enc_pow(c, n // ell, modulus, p) != 1
                             for ell in _factorize(n)))
    return tuple(modulus), generator


def _check_alpha(alpha: tuple[int, ...], m: int) -> int:
    """Validate an exponent vector; returns r = len(alpha) - 2."""
    if (len(alpha) < 3 or any(not 0 < a < m for a in alpha)
            or sum(alpha) % m):
        raise InputError(f"{alpha} is no exponent vector mod {m}")
    return len(alpha) - 2


def jacobi_sum_naive(alpha: tuple[int, ...], field: FiniteField, m: int,
                     *, budget: int = DEFAULT_NAIVE_BUDGET) -> CycInt:
    """Literal enumeration oracle for character_sums.jacobi_sum: its logs
    mod m come from its own walk of field.powers().

    Walks all (v_1, ..., v_r) in (F_q^*)^r, solves for v_{r+1}, and
    tallies character exponents.  Enumeration size q^r must stay within
    budget.
    """
    r = _check_alpha(alpha, m)
    q = field.q
    if (q - 1) % m != 0:
        raise InputError(f"order m={m} does not divide q-1={q - 1}")
    if q**r > budget:
        raise BudgetError(
            f"naive-oracle budget exceeded: q^r = {q}^{r} = {q**r} > {budget}")

    e = [0] * q
    for k, x in enumerate(field.powers()):
        e[x] = k % m
    exps = alpha[1:]
    counts = [0] * m
    minus_one = field.neg(1)
    units = range(1, q)

    def walk(depth: int, acc_sum: int, acc_exp: int) -> None:
        if depth == r:
            v_last = field.sub(minus_one, acc_sum)
            if v_last:
                counts[(acc_exp + exps[r] * e[v_last]) % m] += 1
            return
        a = exps[depth]
        for v in units:
            walk(depth + 1, field.add(acc_sum, v), acc_exp + a * e[v])

    walk(0, 0, 0)
    total = CycInt.from_exponent_counts(m, counts)
    if r % 2:
        return -total
    return total


def stickelberger_exponent(alpha: tuple[int, ...], p: int, m: int) -> int:
    """sum over t in <p> of [sum_{j>=1} <t * a_j / m>].

    [x] and <x> are the integer and fractional parts; the component a_0
    is excluded from the inner sum.  This is ord_P of the Jacobi sum
    j(alpha) at the canonical prime P, by its per-vector definition.
    """
    total = 0
    for t in frobenius_subgroup(p, m):
        s = 0
        for a in alpha[1:]:
            s += (t * a) % m
        total += s // m
    return total


def exponent_histogram_by_states(m: int, r: int, subgroup: tuple[int, ...]
                                 ) -> Counter:
    """The histogram of sum over t in subgroup of [sum_{j>=1} <t * a_j / m>]
    over all exponent vectors, by a dynamic program that holds each state
    (sum of a_i mod m, sum of w(a_i)) as a dict entry with its number of
    partial vectors, w(a) = sum over t in subgroup of (t * a mod m).  The
    first r + 1 steps add an entry 1..m-1 one transition at a time; the
    closing entry is -(sum so far) mod m, which must be nonzero."""
    w = [sum((t * a) % m for t in subgroup) for a in range(m)]
    f = len(subgroup)
    states = {(0, 0): 1}
    for _ in range(r + 1):
        grown: defaultdict = defaultdict(int)
        for (s, total), count in states.items():
            for a in range(1, m):
                grown[(s + a) % m, total + w[a]] += count
        states = grown
    exponents: Counter = Counter()
    for (s, total), count in states.items():
        if s:
            exponents[(total + w[m - s]) // m - f] += count
    return exponents


def teichmuller_by_iteration(field: FiniteField, m: int, k: int
                             ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The field modulus read mod p^k and the Teichmuller lift of
    g^-((q-1)/m) in (Z/p^k)[x] / (modulus), padded to f coordinates.

    The lift is the limit of x -> x^q from the residue: each round gains
    at least one p-adic digit, so the iteration stops repeating within
    k + 1 rounds.
    """
    p, f, q = field.p, field.f, field.q
    pk = p**k
    modulus = [c % pk for c in field.modulus]
    z = _poly_pow(_poly_from_enc(field.generator, p), (q - 1) - (q - 1) // m,
                  list(field.modulus), p)
    for _ in range(k + 1):
        nxt = _poly_pow(z, q, modulus, pk)
        if nxt == z:
            break
        z = nxt
    else:
        raise AssertionError("Teichmuller lift did not stabilize")
    return tuple(modulus), tuple(z + [0] * (f - len(z)))


def zeta_columns_by_products(zeta_hat: tuple[int, ...], modulus, pk: int,
                             count: int) -> tuple[tuple[int, ...], ...]:
    """Coordinate columns of zeta_hat^0, ..., zeta_hat^(count - 1) in
    (Z/pk)[x] / (modulus), each power the one before times zeta_hat by a
    polynomial product and a remainder by the monic modulus."""
    f, z, mod = len(zeta_hat), list(zeta_hat), list(modulus)
    powers = [[1]]
    for _ in range(count - 1):
        powers.append(_poly_rem(_poly_mul(powers[-1], z, pk), mod, pk))
    return tuple(zip(*(power + [0] * (f - len(power)) for power in powers)))


def complex_embed(z: CycInt) -> complex:
    """Evaluate the coordinates at exp(2*pi*i/m)."""
    zeta = cmath.exp(2j * cmath.pi / z.m)
    acc = 0j
    power = 1 + 0j
    for c in z.coeffs:
        acc += c * power
        power *= zeta
    return acc


def hnf_rows_by_elimination(rows: list[tuple[int, int]]
                            ) -> tuple[tuple[int, int], tuple[int, int]]:
    """Hermite normal form [[a, b], [0, c]] of a rank-2 integer row span
    by gcd elimination: the rows with a nonzero first entry are reduced
    by the least of them until one is left."""
    work = [list(r) for r in rows if r != (0, 0)]
    while True:
        nonzero = [r for r in work if r[0] != 0]
        if len(nonzero) <= 1:
            break
        nonzero.sort(key=lambda r: abs(r[0]))
        pivot = nonzero[0]
        for r in nonzero[1:]:
            t = r[0] // pivot[0]
            r[0] -= t * pivot[0]
            r[1] -= t * pivot[1]
        work = [r for r in work if r != [0, 0]]
    pivot_rows = [r for r in work if r[0] != 0]
    tail = [r[1] for r in work if r[0] == 0]
    if not pivot_rows or not any(tail):
        raise InputError("generators do not span a rank-2 lattice")
    a, b = pivot_rows[0]
    if a < 0:
        a, b = -a, -b
    c = 0
    for y in tail:
        c = gcd(c, y)
    return (a, b % c), (0, c)
