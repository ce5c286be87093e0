"""The packed ring Z/n[x]/(M) and Ben-Or's irreducibility test of
cyheights.finite_field, held to the list arithmetic and the trial
division of oracles.py, which share no step with them."""

import random

import pytest

from cyheights.finite_field import (_irreducible, _poly_from_enc, _Ring,
                                    build_field, is_prime)
from oracles import (_is_irreducible, _poly_mul, _poly_pow, _poly_rem,
                     field_by_trial_division)


def _padded(poly, f):
    return poly + [0] * (f - len(poly))


def _moduli(f, n, rng):
    """A random monic modulus of degree f over Z/n and x^f + x^(f-1):
    over Z/2 every row x^(f+j) mod x^f + x^(f-1) is x^(f-1), so the
    product of two elements with every coordinate n - 1 reaches the
    fold's digit bound at coordinate f - 1, the edge of the digit
    width."""
    return [[rng.randrange(n) for _ in range(f)] + [1],
            [0] * (f - 1) + [1, 1]]


# f = 1..24 with n = 2, an odd prime, and p^k at the working precision
# k = f r + 2 of the p-adic ring for r = 1..4, with p = 2 and p odd
@pytest.mark.parametrize("f", range(1, 25))
def test_ring_matches_list_arithmetic(f):
    rng = random.Random(f)
    r = 1 + f % 4
    for n in (2, (3, 5, 7, 131)[f % 4], 2 ** (f * r + 2),
              (3, 5, 7)[f % 3] ** (f * r + 2)):
        for modulus in _moduli(f, n, rng):
            ring = _Ring(modulus, n)

            def element(coeffs):
                packed = ring.pack(coeffs)
                assert ring.unpack(packed) == _padded(
                    [c % n for c in coeffs], f)
                return packed

            def oracle(poly):
                return _padded(_poly_rem(poly, modulus, n), f)

            edge = [n - 1] * f
            pairs = [(edge, edge)] + [
                ([rng.randrange(n) for _ in range(f)],
                 [rng.randrange(n) for _ in range(f)]) for _ in range(3)]
            for a, b in pairs:
                assert ring.unpack(ring.mul(element(a), element(b))) == (
                    oracle(_poly_mul(a, b, n)))
            # remainders: the fold rows, and x^j times the edge element
            if f > 1:
                assert [ring.unpack(row) for row in ring._fold_rows()] == [
                    oracle([0] * j + [1]) for j in range(f, 2 * f - 1)]
            for j in range(f):
                assert ring.unpack(ring.mul(element(edge), 1 << j * ring.width)
                                   ) == oracle([0] * j + edge)
            for e in (0, 1, 2, 3, rng.randrange(1 << 10)):
                a = [rng.randrange(n) for _ in range(f)]
                assert ring.unpack(ring.pow(element(a), e)) == _padded(
                    _poly_pow(a, e, modulus, n), f)
                assert ring.unpack(ring.pow(element(edge), e)) == _padded(
                    _poly_pow(edge, e, modulus, n), f)


@pytest.mark.parametrize("p, degree", [(2, 6), (3, 6), (5, 4), (7, 4)])
def test_ben_or_matches_trial_division(p, degree):
    irreducible = 0
    for f in range(1, degree + 1):
        for k in range(p**f):
            modulus = _padded(_poly_from_enc(k, p), f) + [1]
            verdict = _irreducible(modulus, p)
            assert verdict == _is_irreducible(modulus, p), modulus
            irreducible += verdict
    # the number of monic irreducibles of degree 1..degree over F_p
    assert irreducible == {2: 2 + 1 + 2 + 3 + 6 + 9, 3: 3 + 3 + 8 + 18 + 48
                           + 116, 5: 5 + 10 + 40 + 150,
                           7: 7 + 21 + 112 + 588}[p]


def test_fields_match_the_trial_division_build():
    # every field with q <= 2^14: the modulus and the generator of the
    # walk's field are those of trial division and list powers
    fields = [(p, f) for p in range(2, 1 << 14) if is_prime(p)
              for f in range(1, 15) if p**f <= 1 << 14]
    assert len(fields) == 1900 + 31 + 9 + 5 + 3 + 3 + 2 + 2 + 6
    for p, f in fields:
        field = build_field(p, f)
        assert (field.modulus, field.generator) == (
            field_by_trial_division(p, f)), (p, f)
