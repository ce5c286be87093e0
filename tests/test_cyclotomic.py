import cmath
import random
from math import gcd

import pytest

from cyheights.cyclotomic import (CycInt, complex_embed,
                                  cyclotomic_polynomial, degree,
                                  modulus_squared)
from cyheights.errors import InputError


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)            # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)             # x + 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)          # x^2 + 1
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@pytest.mark.parametrize("m", range(1, 31))
def test_cyclotomic_factorization_identity(m):
    # the product of Phi_d over d | m must equal x^m - 1
    prod = [1]
    for d in range(1, m + 1):
        if m % d == 0:
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (m - 1) + [1]
    assert prod == expected


def test_degree_is_euler_phi():
    assert [degree(m) for m in [1, 2, 3, 4, 5, 6, 8, 12]] == [
        1, 1, 2, 2, 4, 2, 4, 4]


def test_root_of_unity_relations():
    for m in [3, 4, 5, 8, 12]:
        zeta = CycInt.root_of_unity(m)
        assert zeta * CycInt.root_of_unity(m, m - 1) == CycInt.one(m)
        assert zeta**m == CycInt.one(m)
    # m = 4: zeta * zeta = -1
    z4 = CycInt.root_of_unity(4)
    assert z4 * z4 == CycInt.integer(4, -1)


def test_zero_annihilates():
    z = CycInt.one(5) + CycInt.root_of_unity(5)
    assert z * CycInt.zero(5) == CycInt.zero(5)
    assert not CycInt.zero(5)
    assert z


def test_int_promotion():
    z = CycInt.root_of_unity(4)
    assert 2 * z + 1 == CycInt.from_coeffs(4, [1, 2])
    assert (1 - z) + (z - 1) == CycInt.zero(4)


def test_conductor_mismatch_rejected():
    with pytest.raises(InputError):
        CycInt.one(4) + CycInt.one(5)
    with pytest.raises(InputError):
        CycInt.one(4) * CycInt.one(5)


def test_galois_identity_and_example():
    z = CycInt.from_coeffs(4, [3, 7])
    assert z.galois(1) == z
    # m = 4, t = 3: zeta -> zeta^3 = -zeta
    assert CycInt.root_of_unity(4).galois(3) == -CycInt.root_of_unity(4)


def test_galois_group_action_law():
    rng = random.Random(7)
    for m in [5, 8, 12]:
        units = [t for t in range(1, m) if gcd(t, m) == 1]
        for _ in range(20):
            z = CycInt.from_coeffs(
                m, [rng.randint(-9, 9) for _ in range(degree(m))])
            t1, t2 = rng.choice(units), rng.choice(units)
            assert (z.galois(t2).galois(t1)
                    == z.galois((t1 * t2) % m))


def test_galois_rejects_non_units():
    with pytest.raises(InputError):
        CycInt.one(4).galois(2)


def test_galois_is_ring_homomorphism():
    rng = random.Random(11)
    m = 5
    for _ in range(20):
        a = CycInt.from_coeffs(m, [rng.randint(-5, 5) for _ in range(4)])
        b = CycInt.from_coeffs(m, [rng.randint(-5, 5) for _ in range(4)])
        t = rng.choice([2, 3, 4])
        assert (a * b).galois(t) == a.galois(t) * b.galois(t)
        assert (a + b).galois(t) == a.galois(t) + b.galois(t)


def test_modulus_squared_examples():
    assert modulus_squared(CycInt.one(5)) == CycInt.one(5)
    assert modulus_squared(CycInt.root_of_unity(5)) == CycInt.one(5)
    # (1 + i)(1 - i) = 2
    z = CycInt.one(4) + CycInt.root_of_unity(4)
    assert modulus_squared(z) == CycInt.integer(4, 2)


def test_modulus_squared_is_nonnegative_integer_on_real_norms():
    # |z|^2 agrees with the complex absolute value squared
    rng = random.Random(3)
    for m in [3, 4, 5]:
        for _ in range(10):
            z = CycInt.from_coeffs(
                m, [rng.randint(-4, 4) for _ in range(degree(m))])
            exact = modulus_squared(z)
            approx = abs(complex_embed(z)) ** 2
            assert abs(complex_embed(exact) - approx) < 1e-6


def test_complex_embed_values():
    assert complex_embed(CycInt.one(7)) == pytest.approx(1.0)
    assert abs(complex_embed(CycInt.root_of_unity(4)) - 1j) < 1e-12
    z = CycInt.root_of_unity(5) + CycInt.root_of_unity(5, 4)
    assert abs(complex_embed(z) - 2 * cmath.cos(2 * cmath.pi / 5)) < 1e-12
    assert complex_embed(z).real == pytest.approx(0.6180339887498949)


def test_complex_embed_is_multiplicative():
    rng = random.Random(5)
    for m in [4, 5, 12]:
        for _ in range(15):
            a = CycInt.from_coeffs(
                m, [rng.randint(-20, 20) for _ in range(degree(m))])
            b = CycInt.from_coeffs(
                m, [rng.randint(-20, 20) for _ in range(degree(m))])
            lhs = complex_embed(a * b)
            rhs = complex_embed(a) * complex_embed(b)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_rational_integer_recognition():
    assert CycInt.integer(5, 42).is_rational_integer()
    assert CycInt.integer(5, 42).as_rational_integer() == 42
    z = CycInt.root_of_unity(5)
    assert not z.is_rational_integer()
    with pytest.raises(InputError):
        z.as_rational_integer()
    # zeta + zeta^2 + zeta^3 + zeta^4 = -1 for m = 5
    total = sum((CycInt.root_of_unity(5, k) for k in range(1, 5)),
                CycInt.zero(5))
    assert total == CycInt.integer(5, -1)


def test_power_operator():
    z = CycInt.root_of_unity(8)
    assert z**0 == CycInt.one(8)
    assert z**8 == CycInt.one(8)
    assert z**3 == CycInt.root_of_unity(8, 3)
    with pytest.raises(InputError):
        z**-1


def test_from_coeffs_validates_length():
    with pytest.raises(InputError):
        CycInt.from_coeffs(5, [1, 2, 3])


def test_hash_and_eq_against_int():
    assert CycInt.integer(4, 3) == 3
    assert CycInt.root_of_unity(4) != 1
    assert len({CycInt.one(4), CycInt.one(4), CycInt.zero(4)}) == 2
