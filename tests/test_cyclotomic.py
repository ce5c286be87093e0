import cmath
import random
from math import gcd

import pytest

from cyheights.cyclotomic import (CycInt, _kronecker_product,
                                  cyclotomic_polynomial, degree,
                                  modulus_squared)
from cyheights.errors import InputError
from oracles import complex_embed


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)            # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)             # x + 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)          # x^2 + 1
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert -2 in cyclotomic_polynomial(105)  # the least m with |c| > 1


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


# --- the kernels against the dense row-scan code they replaced ---


def _ref_rows(m):
    """Dense rows of zeta^e on the power basis, 0 <= e <= max(2 phi - 2,
    m - 1), by shifting and cancelling the top term with Phi_m."""
    phi_poly = cyclotomic_polynomial(m)
    deg = len(phi_poly) - 1
    rows = [[int(i == e) for i in range(deg)] for e in range(deg)]
    for _ in range(deg, max(2 * deg - 2, m - 1) + 1):
        prev = rows[-1]
        row = [0] + prev[:-1]
        for i in range(deg):
            row[i] -= prev[-1] * phi_poly[i]
        rows.append(row)
    return rows


def _ref_combine(m, pairs):
    """sum(c * zeta^e) over (e, c) pairs, e below the rows' range."""
    rows = _ref_rows(m)
    out = [0] * degree(m)
    for e, c in pairs:
        for i, r in enumerate(rows[e]):
            out[i] += c * r
    return tuple(out)


def _ref_mul(a, b):
    """Schoolbook product, then the dense rows."""
    prod = [0] * (2 * len(a.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            prod[i + j] += ai * bj
    return _ref_combine(a.m, enumerate(prod))


def _ref_galois(z, t):
    return _ref_combine(z.m, ((i * t % z.m, c)
                              for i, c in enumerate(z.coeffs)))


def _ref_from_exponent_counts(m, counts):
    return _ref_combine(m, ((e % m, c) for e, c in enumerate(counts)))


KERNEL_CONDUCTORS = [1, 2, 3, 4, 8, 12, 57, 63, 73, 105]

# 0, +-1 and +-(2^k +- 1) on both sides of the byte boundaries
_EDGE_VALUES = [0, 1, -1] + [
    sign * ((1 << k) + d) for k in (7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64)
    for d in (-1, 1) for sign in (1, -1)]


def _mixed(rng, m, kind):
    deg = degree(m)
    if kind == "edge":
        return CycInt.from_coeffs(m, [rng.choice(_EDGE_VALUES)
                                      for _ in range(deg)])
    if kind == "huge":
        return CycInt.from_coeffs(m, [rng.choice((1, -1, 0))
                                      * rng.getrandbits(1000)
                                      for _ in range(deg)])
    if kind == "extreme":
        # one magnitude throughout: a product of two such elements has
        # its middle coefficient on the packing bound
        top = rng.choice(_EDGE_VALUES[3:])
        return CycInt.from_coeffs(m, [top] * deg)
    return CycInt.from_coeffs(m, [rng.randint(-300, 300)
                                  for _ in range(deg)])


@pytest.mark.parametrize("m", KERNEL_CONDUCTORS)
def test_product_matches_schoolbook(m):
    rng = random.Random(1000 + m)
    kinds = ["small", "edge", "huge", "extreme"]
    for ka in kinds:
        for kb in kinds:
            for _ in range(3):
                a, b = _mixed(rng, m, ka), _mixed(rng, m, kb)
                assert (a * b).coeffs == _ref_mul(a, b)
                assert (a * a).coeffs == _ref_mul(a, a)
                assert (-a * b).coeffs == _ref_mul(-a, b)
    zero = CycInt.zero(m)
    a = _mixed(rng, m, "huge")
    assert a * zero == zero and zero * a == zero and zero * zero == zero


@pytest.mark.parametrize("n", range(1, 13))
def test_kronecker_product_at_every_small_length(n):
    # products below the schoolbook cut-off never pack, so the packing is
    # checked here directly against the plain polynomial product
    rng = random.Random(4000 + n)
    for _ in range(30):
        a = tuple(rng.choice(_EDGE_VALUES) for _ in range(n))
        b = tuple(rng.choice(_EDGE_VALUES) for _ in range(n))
        top = rng.choice(_EDGE_VALUES[3:])
        for x, y in ((a, b), (a, a), ((top,) * n, (-top,) * n)):
            assert _kronecker_product(x, y) == _poly_mul(x, y)


@pytest.mark.parametrize("m", KERNEL_CONDUCTORS)
def test_galois_matches_row_scan(m):
    rng = random.Random(2000 + m)
    units = [t for t in range(1, m + 1) if gcd(t, m) == 1]
    if m > 63:
        units = rng.sample(units, 12)
    for t in units:
        for kind in ("small", "edge", "huge"):
            z = _mixed(rng, m, kind)
            assert z.galois(t).coeffs == _ref_galois(z, t)
        assert CycInt.zero(m).galois(t) == CycInt.zero(m)


@pytest.mark.parametrize("m", KERNEL_CONDUCTORS)
def test_exponent_counts_and_roots_match_row_scan(m):
    rng = random.Random(3000 + m)
    draws = [lambda: rng.randint(-50, 50),
             lambda: rng.choice(_EDGE_VALUES),
             lambda: rng.getrandbits(1000) - (1 << 999)]
    for draw in draws:
        counts = [draw() for _ in range(m)]
        assert (CycInt.from_exponent_counts(m, counts).coeffs
                == _ref_from_exponent_counts(m, counts))
    assert CycInt.from_exponent_counts(m, [0] * m) == CycInt.zero(m)
    for k in range(-m, 2 * m):
        assert (CycInt.root_of_unity(m, k).coeffs
                == _ref_from_exponent_counts(m, [int(e == k % m)
                                                 for e in range(m)]))
