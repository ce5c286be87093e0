"""Jacobi sums over GF(q), evaluated exactly in Z[zeta_m].

The canonical multiplicative character of order m sends the field's
generator g to zeta_m; concretely chi(x) = zeta^(e(x)) with
e(x) = dlog(x) mod m, which is well defined because m divides q - 1.

For an exponent vector (a_0, ..., a_{r+1}) the Jacobi sum is

    j(alpha) = (-1)^r * sum chi(v_1)^(a_1) * ... * chi(v_{r+1})^(a_{r+1})

over the solutions of 1 + v_1 + ... + v_{r+1} = 0 with all v_i nonzero.
Equivalently it is the (r+1)-fold additive convolution of the tables
f_a(x) = chi(x)^a (with f_a(0) = 0) evaluated at -1, times (-1)^r.

The production evaluator exploits that every partial convolution
g = f_{a_1} * ... * f_{a_s} is scaling-equivariant,
g(lambda*z) = chi(lambda)^(a_1+...+a_s) * g(z), hence is determined by
the pair (g(0), g(1)).  Folding in one more factor costs a single
two-variable Jacobi sum J(s, b) = sum_{y != 0,1} chi(1-y)^s chi(y)^b.
Each J(s, b) is read off the cyclotomic numbers
(i, j)_m = #{y != 0,1 : e(1-y) = i, e(y) = j}, which one O(q) pass per
character fills (Berndt-Evans-Williams, Gauss and Jacobi Sums, ch. 2);
a J then costs O(min(q, m^2)).  The values produced are
identical, coefficient for coefficient, to the dense convolution; the
independent check is a literal enumeration of the solutions, which the
tests keep with their other oracles (tests/oracles.py).

Jacobi sums are fixed by Frobenius: x -> x^p permutes the solutions of
1 + v_1 + ... + v_{r+1} = 0 and sends chi to chi^p, so
j(p*alpha) = j(alpha), that is sigma_p(j) = j (Ireland-Rosen, ch. 14).
jacobi_sum_table relies on it to fill a table with one Galois image per
coset of <p> in (Z/m)^*, and checks it on every sum it evaluates.  It
makes each image once: an evaluated sum that is an image of an earlier
one takes its images by coset arithmetic.  The table records each
Galois orbit of its values once, and the fermat layer reads the orbits
from it, checking them (fermat._checked_jacobi_sums) rather than
finding them again.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from math import isqrt

from .cyclotomic import CycInt
from .errors import InputError, InternalCheckError
from .finite_field import FiniteField, frobenius_subgroup, units_mod

class Character:
    """The canonical order-m multiplicative character of a finite field.

    One O(q) pass reads field.power_blocks() into logs mod m and counts
    the cyclotomic numbers from them; only e(-1) and the cyclotomic
    numbers are kept.  The pass runs in list and big-integer passes,
    with no Python-level call per element.  A block of the walk holds
    m * s powers, s = isqrt((q-1)/m), so the slice block[j::m] holds
    the s or so powers with log j mod m.  The logs go into an array of
    q items, each wide enough for a pair key e(y-1) * m + e(y) (one byte
    for m <= 16, two for m <= 256), dropped once the keys are counted."""

    __slots__ = ("m", "p", "q", "minus_one_exp", "cyclotomic_numbers")

    def __init__(self, field: FiniteField, m: int):
        if m < 1:
            raise InputError(f"character order must be >= 1, got {m}")
        q, p = field.q, field.p
        if (q - 1) % m != 0:
            raise InputError(f"order m={m} does not divide q-1={q - 1}")
        self.m, self.p, self.q = m, p, q
        code = next(c for c in "BHIQ" if m * m <= 1 << 8 * array(c).itemsize)
        e = array(code, [0]) * q  # e[x] = dlog(x) mod m for x != 0
        for block in field.power_blocks(m * max(1, isqrt((q - 1) // m))):
            for j in range(1, m):
                for x in block[j::m]:
                    e[x] = j
        minus_one = self.minus_one_exp = e[field.neg(1)]
        # (i, j, #{y outside {0, 1} : e(1-y) = i, e(y) = j}), with
        # e(1-y) = e(-1) + e(y-1).  Only the constant digit of y changes
        # in y - 1, so its encoding is y - 1, or y + p - 1 when that digit
        # is 0.  before[k] = e(y-1) at y = k + 2.  Read as big integers,
        # before * m + e[2:] holds the key e(y-1) * m + e(y) < m^2 in the
        # item of y, as no item carries into the next; 2^16 items a time.
        before = e[1:-1]
        before[p - 2::p] = e[2 * p - 1::p]
        counts, order = Counter(), sys.byteorder
        for k in range(0, q - 2, 1 << 16):
            part = before[k:k + (1 << 16)]
            keys = (int.from_bytes(part, order) * m
                    + int.from_bytes(e[k + 2:k + 2 + len(part)], order))
            counts.update(memoryview(keys.to_bytes(
                len(part) * e.itemsize, order)).cast(code))
        self.cyclotomic_numbers = tuple(
            ((minus_one + key // m) % m, key % m, count)
            for key, count in counts.items())

    def two_variable_sum(self, s: int, b: int) -> CycInt:
        """J(s, b) = sum over y outside {0, 1} of chi(1-y)^s chi(y)^b,
        read off the cyclotomic numbers in O(min(q, m^2))."""
        m = self.m
        counts = [0] * m
        for i, j, count in self.cyclotomic_numbers:
            counts[(s * i + b * j) % m] += count
        return CycInt.from_exponent_counts(m, counts)


def _check_alpha(alpha: tuple[int, ...], m: int) -> int:
    """Validate an exponent vector; returns r = len(alpha) - 2."""
    if len(alpha) < 3:
        raise InputError("exponent vector needs at least 3 components")
    if any(not 0 < a < m for a in alpha):
        raise InputError(
            f"components of {alpha} must lie strictly between 0 and {m}")
    if sum(alpha) % m != 0:
        raise InputError(f"components of {alpha} must sum to 0 mod {m}")
    return len(alpha) - 2


def jacobi_sum(alpha: tuple[int, ...], chi: Character) -> CycInt:
    """The Jacobi sum j(alpha) for the canonical character.

    Exactly equals (-1)^r times the sum of chi(v_1)^(a_1) ... over
    solutions of 1 + v_1 + ... + v_{r+1} = 0 in nonzero field elements;
    a_0 does not enter the summand.
    """
    m = chi.m
    r = _check_alpha(alpha, m)
    q = chi.q
    neg = chi.minus_one_exp

    # state of the partial convolution: value at 0, value at 1, total twist
    s = alpha[1]
    c0 = CycInt.zero(m)
    c1 = CycInt.one(m)
    for b in alpha[2:]:
        if (s + b) % m == 0:
            new_c0 = c1 * CycInt.root_of_unity(m, s * neg) * (q - 1)
        else:
            new_c0 = CycInt.zero(m)
        c0, c1 = new_c0, c0 + c1 * chi.two_variable_sum(s, b)
        s = (s + b) % m
    # s = -a_0 mod m is nonzero, so the value at -1 comes from the c1 branch
    value_at_minus_one = CycInt.root_of_unity(m, s * neg) * c1
    if r % 2:
        return -value_at_minus_one
    return value_at_minus_one


def _frobenius_cosets(subgroup: tuple[int, ...], m: int) -> list[list[int]]:
    """(Z/m)^* split into cosets t*<p>, <p> given as subgroup (from
    frobenius_subgroup), each listed in power order from its least unit t."""
    cosets, covered = [], set()
    for t in units_mod(m):
        if t not in covered:
            coset = [t * u % m for u in subgroup]
            covered.update(coset)
            cosets.append(coset)
    return cosets


class JacobiTable(dict):
    """Jacobi sums keyed by sorted exponent vector, as jacobi_sum_table
    fills it.  orbits lists each Galois orbit of the values once, in the
    order the fill met it: its distinct members sigma_t(j), one per coset
    t<p> in coset order (_frobenius_cosets), so the evaluated sum j comes
    first.  The orbits partition the table's distinct values."""

    __slots__ = ("orbits",)


def jacobi_sum_table(chi: Character, multisets) -> JacobiTable:
    """Jacobi sums of exponent multisets, each given as its sorted vector.

    j(alpha) is a product of Gauss sums, one per component, so it is
    symmetric in all r + 2 components and one value serves a multiset.
    One multiset per (Z/m)^*-orbit is evaluated; the rest of its orbit is
    filled via j(t*alpha) = sigma_t(j(alpha)).  Since j(p*alpha) =
    j(alpha), sigma_t(j) is needed once per coset representative t of
    (Z/m)^*/<p> and stored under the sorted key of every t*u*alpha, u in
    <p>.  Each Galois image is made once: an evaluated j that is already
    sigma_t(j0) of an earlier orbit takes its images by coset arithmetic,
    sigma_s(j) = sigma_{st}(j0), and only a j outside every earlier
    orbit calls CycInt.galois, once per coset but the identity; that j
    starts a new orbit, which the table's orbits record.  Hard check:
    sigma_p(j) = j for every evaluated j, else InternalCheckError.  The
    table, a JacobiTable, holds every multiset in the orbits asked for.
    """
    m, p = chi.m, chi.p
    cosets = _frobenius_cosets(frobenius_subgroup(p, m), m)
    coset_of = {s: k for k, coset in enumerate(cosets) for s in coset}
    table = JacobiTable()
    table.orbits = []
    # every image made so far: value -> (images of its orbit, coset index)
    known: dict[CycInt, tuple[list[CycInt], int]] = {}
    for alpha in multisets:
        if alpha in table:
            continue
        j = jacobi_sum(alpha, chi)
        if j.galois(p % m) != j:
            raise InternalCheckError(
                f"sigma_p does not fix j({alpha}) = {j!r}")
        if j in known:  # j = sigma_t(j0), so sigma_s(j) = sigma_{st}(j0)
            orbit, k = known[j]
            t = cosets[k][0]
            images = [orbit[coset_of[coset[0] * t % m]] for coset in cosets]
        else:
            images = [j] + [j.galois(coset[0]) for coset in cosets[1:]]
            for k, image in enumerate(images):
                known.setdefault(image, (images, k))
            table.orbits.append(list(dict.fromkeys(images)))
        for k, coset in enumerate(cosets):
            # the table holds whole <p>-orbits, so one key answers for t*<p>
            if tuple(sorted(coset[0] * a % m for a in alpha)) in table:
                continue
            for s in coset:
                table[tuple(sorted(s * a % m for a in alpha))] = images[k]
    return table
