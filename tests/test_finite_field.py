import pytest

from cyheights.errors import BudgetError, InputError
from cyheights.finite_field import (_enc_from_poly, _factorize,
                                    _has_full_order, _poly_from_enc,
                                    _poly_mul, _poly_rem, _smallest_irreducible,
                                    build_field, frobenius_subgroup, is_prime,
                                    order_mod)


def _reference_field(p, f):
    """GF(p^f) by polynomial arithmetic alone: the generator is found by
    polynomial powering and the tables by one _poly_mul + _poly_rem per
    element, the walk build_field made before it became a linear map."""
    q = p**f
    modulus = [0, 1] if f == 1 else _smallest_irreducible(p, f)

    def times(a, b):
        return _poly_rem(_poly_mul(a, b, p), modulus, p)

    def power(enc, e):
        base, result = _poly_from_enc(enc, p), [1]
        while e:
            if e & 1:
                result = times(result, base)
            base = times(base, base)
            e >>= 1
        return _enc_from_poly(result, p)

    n = q - 1
    generator = 1 if q == 2 else next(
        c for c in range(1, q) if power(c, n) == 1
        and all(power(c, n // ell) != 1 for ell in _factorize(n)))
    exp = []
    gen_poly, cur = _poly_from_enc(generator, p), [1]
    for _ in range(n):
        exp.append(_enc_from_poly(cur, p))
        cur = times(cur, gen_poly)
    assert _enc_from_poly(cur, p) == 1
    return tuple(modulus), generator, tuple(exp)


def _times(field, a, b):
    """a * b by polynomial arithmetic modulo the field's modulus, sharing
    nothing with the walk of powers()."""
    p = field.p
    product = _poly_mul(_poly_from_enc(a, p), _poly_from_enc(b, p), p)
    return _enc_from_poly(_poly_rem(product, list(field.modulus), p), p)


def _frobenius(field, a):
    """a^p read off the walk of powers()."""
    if a == 0:
        return 0
    exp = tuple(field.powers())
    return exp[exp.index(a) * field.p % (field.q - 1)]


# p = 2 across the 8-bit chunk edges, odd p at f = 1, 2 and 3 and 3^7 (a
# table of 3^5 = 243 entries and one of 3^2), and a prime near 10^5
REFERENCE_FIELDS = [
    (2, 1), (2, 7), (2, 8), (2, 9), (2, 16),
    (3, 1), (13, 1), (3, 2), (7, 2), (131, 2), (3, 3), (5, 3), (3, 7),
    (100003, 1)]


@pytest.mark.parametrize("p,f", REFERENCE_FIELDS)
def test_tables_match_the_polynomial_walk(p, f):
    field = build_field(p, f)
    assert (field.modulus, field.generator, tuple(field.powers())) == (
        _reference_field(p, f))


@pytest.mark.parametrize("p,f", [(p, f) for p, f in REFERENCE_FIELDS
                                 if f >= 2])
def test_generator_search_may_skip_the_constants(p, f):
    # build_field starts its scan at p when f > 1; a scan from 1 must
    # find the same generator
    field = build_field(p, f)
    q = p**f
    factors = _factorize(q - 1)
    assert field.generator == next(
        c for c in range(1, q)
        if _has_full_order(c, q, factors, list(field.modulus), p))
    assert field.generator >= p


def test_order_mod_examples():
    assert order_mod(11, 5) == 1  # 11 = 1 mod 5
    assert order_mod(2, 5) == 4   # 2, 4, 3, 1
    assert order_mod(3, 8) == 2   # 3, 1


def test_order_mod_rejects_bad_input():
    with pytest.raises(InputError):
        order_mod(10, 5)
    with pytest.raises(InputError):
        order_mod(3, 1)


def test_order_mod_is_least():
    for p, m in [(2, 7), (3, 7), (5, 11), (7, 9), (2, 15)]:
        f = order_mod(p, m)
        assert pow(p, f, m) == 1
        for d in range(1, f):
            assert pow(p, d, m) != 1
        assert frobenius_subgroup(p, m) == tuple(pow(p, j, m)
                                                 for j in range(f))


def test_prime_field_f5():
    field = build_field(5, 1)
    assert field.modulus == (0, 1)  # the linear polynomial x
    assert field.generator == 2     # smallest primitive root mod 5
    assert list(field.powers()) == [1, 2, 4, 3]


def test_f9_tables():
    field = build_field(3, 2)
    assert field.q == 9
    assert field.modulus == (1, 0, 1)  # x^2 + 1, lexicographically first
    # the walk is a bijection from Z/8 onto the 8 units
    assert sorted(field.powers()) == list(range(1, 9))


def test_f2_degenerate():
    field = build_field(2, 1)
    assert field.generator == 1
    assert field.q == 2
    assert tuple(field.powers()) == (1,)


def test_exp_examples():
    field = build_field(3, 2)
    g, exp = field.generator, tuple(field.powers())
    assert exp[0] == 1
    assert exp[1] == g
    assert exp[2] == _times(field, g, g)


@pytest.mark.parametrize("p,f", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_exp_is_homomorphism(p, f):
    field = build_field(p, f)
    exp, n = tuple(field.powers()), field.q - 1
    for i in range(n):
        for j in range(n):
            assert _times(field, exp[i], exp[j]) == exp[(i + j) % n]


def test_generator_order_and_minimality():
    field = build_field(3, 2)

    def order(x):
        k, acc = 1, x
        while acc != 1:
            acc = _times(field, acc, x)
            k += 1
        return k

    assert order(field.generator) == 8
    for smaller in range(1, field.generator):
        assert order(smaller) < 8


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_modulus_is_irreducible_no_roots(p, f):
    # degree 2 and 3 polynomials are irreducible iff they have no roots
    field = build_field(p, f)
    assert f in (2, 3)
    for x in range(p):
        value = sum(c * x**i for i, c in enumerate(field.modulus)) % p
        assert value != 0


def test_addition_and_negation():
    field = build_field(3, 2)
    for a in range(field.q):
        assert field.add(a, field.neg(a)) == 0
        assert field.add(a, 0) == a
        for b in range(field.q):
            assert field.add(a, b) == field.add(b, a)
            assert field.sub(field.add(a, b), b) == a


def test_mul_inv():
    field = build_field(5, 2)
    exp = tuple(field.powers())
    for a in range(1, field.q):
        inverse = exp[-exp.index(a) % (field.q - 1)]
        assert _times(field, a, inverse) == 1


@pytest.mark.parametrize("p,f", [(3, 4), (2, 6)])
def test_frobenius_fixes_exactly_the_prime_field(p, f):
    field = build_field(p, f)
    fixed = [x for x in range(field.q) if _frobenius(field, x) == x]
    # the fixed points are exactly the p constant polynomials
    assert sorted(fixed) == list(range(p))


def test_frobenius_is_additive_and_multiplicative():
    field = build_field(3, 2)
    for x in range(field.q):
        for y in range(field.q):
            assert (_frobenius(field, field.add(x, y))
                    == field.add(_frobenius(field, x), _frobenius(field, y)))
            assert (_frobenius(field, _times(field, x, y))
                    == _times(field, _frobenius(field, x),
                              _frobenius(field, y)))


def test_build_field_is_deterministic():
    a = build_field(7, 2)
    b = build_field(7, 2)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert tuple(a.powers()) == tuple(b.powers())


def test_build_field_rejects_bad_input():
    with pytest.raises(InputError):
        build_field(10, 1)
    with pytest.raises(InputError):
        build_field(7, 0)
    with pytest.raises(BudgetError):
        build_field(2, 30)
    with pytest.raises(BudgetError):
        build_field(7, 4, table_budget=2000)


def test_coeffs_encode_roundtrip():
    for p, f in [(3, 3), (2, 4), (5, 1)]:
        field = build_field(p, f)
        assert field.coeffs(0) == (0,) * f
        for a in range(field.q):
            c = field.coeffs(a)
            assert c == tuple(a // p**i % p for i in range(f))
            assert field.encode(c) == a
        # elements whose top digit is zero, e.g. p^j for j < f - 1
        for j in range(f - 1):
            assert field.coeffs(p**j) == (0,) * j + (1,) + (0,) * (f - 1 - j)
        assert field.encode([1] + [0] * (f - 1)) == 1
        assert field.encode([0] * f) == 0


def _ref_add(p, a, b):
    """The digit loop FiniteField.add ran before add, sub and neg shared
    one loop."""
    if p == 2:
        return a ^ b
    out, shift = 0, 1
    while a or b:
        out += ((a % p + b % p) % p) * shift
        a //= p
        b //= p
        shift *= p
    return out


def _ref_neg(p, a):
    if p == 2:
        return a
    out, shift = 0, 1
    while a:
        d = a % p
        if d:
            out += (p - d) * shift
        a //= p
        shift *= p
    return out


@pytest.mark.parametrize("p,f", [(p, f) for p in (2, 3, 5, 7)
                                 for f in (1, 2, 3, 4)])
def test_add_sub_neg_match_reference_loops(p, f):
    field = build_field(p, f)
    q = field.q
    # 0, every one-digit value, values with f digits and everything
    # between, so operands of different digit counts meet
    elements = sorted({0, 1, p - 1, q - 1, q // p, q // p - 1}
                      | set(range(0, q, max(1, q // 40))))
    for a in elements:
        assert field.neg(a) == _ref_neg(p, a)
        for b in elements:
            assert field.add(a, b) == _ref_add(p, a, b)
            assert field.sub(a, b) == _ref_add(p, a, _ref_neg(p, b))



@pytest.mark.parametrize("p,f", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)])
def test_add_sub_neg_reject_encodings_outside_the_field(p, f):
    field = build_field(p, f)
    q = field.q
    for bad in (-1, -q, q, q + 1, 2 * q):
        with pytest.raises(InputError, match="encodings"):
            field.neg(bad)
        with pytest.raises(InputError, match="encodings"):
            field.coeffs(bad)
        for a, b in ((bad, 0), (0, bad), (bad, q - 1)):
            with pytest.raises(InputError, match="encodings"):
                field.add(a, b)
            with pytest.raises(InputError, match="encodings"):
                field.sub(a, b)
    with pytest.raises(InputError, match="at most"):
        field.encode([1] * (f + 1))

def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
