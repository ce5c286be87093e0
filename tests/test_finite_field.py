import random
from math import isqrt

import pytest

from cyheights import finite_field
from cyheights.errors import BudgetError, InputError
from cyheights.finite_field import (PRIMALITY_BOUND, _enc_from_poly,
                                    _factorize, _has_full_order,
                                    _poly_from_enc, _Ring, build_field,
                                    frobenius_subgroup, is_prime)
from oracles import _enc_mul, _poly_mul, _poly_rem, field_by_trial_division


def _reference_field(p, f):
    """GF(p^f) by polynomial arithmetic alone: the modulus by trial
    division, the generator by list powers and the tables by one
    _poly_mul + _poly_rem per element, the walk build_field made before
    it became a linear map."""
    modulus, generator = field_by_trial_division(p, f)

    def times(a, b):
        return _poly_rem(_poly_mul(a, b, p), list(modulus), p)

    n = p**f - 1
    exp = []
    gen_poly, cur = _poly_from_enc(generator, p), [1]
    for _ in range(n):
        exp.append(_enc_from_poly(cur, p))
        cur = times(cur, gen_poly)
    assert _enc_from_poly(cur, p) == 1
    return modulus, generator, tuple(exp)


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
# table of 3^5 = 243 entries and one of 3^2), a prime near 10^5, and the
# fields of the fields_warm benchmark round not listed before
REFERENCE_FIELDS = [
    (2, 1), (2, 7), (2, 8), (2, 9), (2, 16),
    (3, 1), (13, 1), (3, 2), (7, 2), (131, 2), (3, 3), (5, 3), (3, 7),
    (100003, 1), (7, 3), (2, 6), (3, 5)]


@pytest.mark.parametrize("p,f", REFERENCE_FIELDS)
def test_tables_match_the_polynomial_walk(p, f):
    field = build_field(p, f)
    assert (field.modulus, field.generator, tuple(field.powers())) == (
        _reference_field(p, f))


# lists of one power, lengths that divide q - 1 or leave a shorter last
# list, and walks of a few lists
@pytest.mark.parametrize("p,f,length", [(5, 3, 1), (2, 9, 7), (3, 7, 46),
                                        (131, 2, 100), (2, 8, 64),
                                        (7, 2, 24)])
def test_power_blocks_are_the_walk_in_order(p, f, length):
    field = build_field(p, f)
    blocks = list(field.power_blocks(length))
    assert [x for block in blocks for x in block] == list(
        _reference_field(p, f)[2])
    assert {len(block) for block in blocks[:-1]} == {length}
    assert 0 < len(blocks[-1]) <= length
    with pytest.raises(InputError):
        next(field.power_blocks(0))


# p = 2 with f >= 3, an odd p with f >= 2 and a prime field: every list
# length, up to one past the group order
@pytest.mark.parametrize("p,f", [(2, 5), (3, 3), (31, 1)])
def test_every_list_length_walks_the_group(p, f):
    field = build_field(p, f)
    q, g = field.q, field.generator
    walk = [1]
    while len(walk) < q - 1:
        walk.append(_enc_mul(walk[-1], g, field.modulus, p))
    for length in range(1, q + 1):
        blocks = list(field.power_blocks(length))
        assert len(blocks[0]) == min(length, q - 1)
        assert [x for block in blocks for x in block] == walk


@pytest.mark.parametrize("p,f", [(p, f) for p, f in REFERENCE_FIELDS
                                 if f >= 2])
def test_generator_search_may_skip_the_constants(p, f):
    # build_field starts its scan at p when f > 1; a scan from 1 must
    # find the same generator
    field = build_field(p, f)
    q = p**f
    factors = _factorize(q - 1)
    ring = _Ring(field.modulus, p)
    assert field.generator == next(
        c for c in range(1, q)
        if _has_full_order(ring.pack(_poly_from_enc(c, p)), q, factors, ring))
    assert field.generator >= p


def test_full_order_needs_the_power_q_minus_1_to_be_1():
    # modulo the reducible x^2 over GF(2), x passes the only power test,
    # x^((q-1)/3) = x != 1, but x^3 = 0: the last check refuses it.  x is
    # a generator modulo the irreducible x^2 + x + 1
    for modulus, full in (([0, 0, 1], False), ([1, 1, 1], True)):
        ring = _Ring(modulus, 2)
        assert _has_full_order(ring.pack([0, 1]), 4, {3: 1}, ring) is full


def test_order_mod_examples():
    assert len(frobenius_subgroup(11, 5)) == 1  # 11 = 1 mod 5
    assert len(frobenius_subgroup(2, 5)) == 4   # 2, 4, 3, 1
    assert len(frobenius_subgroup(3, 8)) == 2   # 3, 1


def test_order_mod_rejects_bad_input():
    with pytest.raises(InputError):
        frobenius_subgroup(10, 5)
    with pytest.raises(InputError):
        frobenius_subgroup(3, 1)


def test_order_mod_is_least():
    for p, m in [(2, 7), (3, 7), (5, 11), (7, 9), (2, 15)]:
        f = len(frobenius_subgroup(p, m))
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
    assert field.modulus == (0, 1)  # x, from the modulus search
    assert field.generator == 1     # the search's first candidate
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



@pytest.mark.parametrize("p", [3, 5, 1009, 100003])
def test_prime_field_add_sub_neg_match_the_digit_loop(p):
    # for f = 1 the sum is one reduction mod p; the digit loop it skips
    # stays the reference, on both ends of the range and random pairs
    field = build_field(p, 1)
    rng = random.Random(p)
    pairs = [(a, b) for a in (0, 1, p - 1) for b in (0, 1, p - 1)]
    pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(300)]
    for a, b in pairs:
        assert field.add(a, b) == _ref_add(p, a, b)
        assert field.sub(a, b) == _ref_add(p, a, _ref_neg(p, b))
        assert field.neg(b) == _ref_neg(p, b)
    for bad in (-1, p, 2 * p - 1):
        with pytest.raises(InputError, match="encodings"):
            field.add(bad, 0)
        with pytest.raises(InputError, match="encodings"):
            field.sub(0, bad)
        with pytest.raises(InputError, match="encodings"):
            field.neg(bad)


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


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(-3, 10**5))


@pytest.mark.parametrize("n", [
    1152271,                     # 43 * 127 * 211, a Carmichael number
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # ... to every prime base up to 31
    318665857834031151167461,    # ... to every prime base up to 37
])
def test_is_prime_rejects_strong_pseudoprimes(deadline, n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [10**12 + 39, 10**18 + 3, 10**18 + 9])
def test_is_prime_accepts_large_primes(deadline, n):
    assert is_prime(n)


def _strong_probable_prime(n, a):
    """n passes one round of Miller-Rabin to base a: with n - 1 = d*2^t,
    d odd, a^d = 1 or a^(d*2^i) = -1 for some i < t."""
    d, t = n - 1, 0
    while d % 2 == 0:
        d, t = d // 2, t + 1
    x = pow(a, d, n)
    if x == 1:
        return True
    for _ in range(t):
        if x == n - 1:
            return True
        x = x * x % n
    return False


BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_each_base_prefix_bound_is_a_strong_pseudoprime():
    # (psi, k) proves k bases below psi; psi itself passes every base up
    # to the next entry's k and fails the base after, so the next prefix
    # is needed from psi up
    table = finite_field._BASE_PREFIXES
    assert [k for _, k in table] == sorted({k for _, k in table})
    assert table[-1] == (PRIMALITY_BOUND, len(BASES))
    assert finite_field._PRIME_BASES == BASES
    for (bound, _), (_, k_next) in zip(table, table[1:]):
        passed = [_strong_probable_prime(bound, a) for a in BASES]
        assert passed[:k_next] == [True] * (k_next - 1) + [False], bound
        assert not is_prime(bound)


@pytest.mark.parametrize("bound", [bound for bound, _ in
                                   finite_field._BASE_PREFIXES])
def test_is_prime_matches_all_bases_near_each_bound(bound):
    # below PRIMALITY_BOUND the 13-base test is a proof, so is_prime must
    # agree with it on both sides of every point where its prefix grows
    for n in range(bound - 2000, min(bound + 2001, PRIMALITY_BOUND)):
        full = all(n % a for a in BASES) and all(
            _strong_probable_prime(n, a) for a in BASES)
        assert is_prime(n) == (full or n in BASES), n


def test_is_prime_raises_from_its_proven_bound(deadline):
    # the least strong pseudoprime to every prime base up to 41
    bound = 3317044064679887385961981
    assert not is_prime(bound - 1)
    for n in (bound, bound + 2, 10**30 + 57):
        with pytest.raises(BudgetError, match=str(bound)):
            is_prime(n)
