import json

import pytest

from cyheights.errors import BudgetError, InputError
from cyheights.finite_field import build_field, is_prime, order_mod


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


def test_prime_field_f5():
    field = build_field(5, 1)
    assert field.modulus == (0, 1)  # the linear polynomial x
    assert field.generator == 2     # smallest primitive root mod 5
    assert [field.exp[i] for i in range(4)] == [1, 2, 4, 3]


def test_f9_tables():
    field = build_field(3, 2)
    assert field.q == 9
    assert field.modulus == (1, 0, 1)  # x^2 + 1, lexicographically first
    # dlog is a bijection from the 8 units onto Z/8
    entries = [v for v in field.dlog if v is not None]
    assert sorted(entries) == list(range(8))
    assert field.dlog[0] is None


def test_f2_degenerate():
    field = build_field(2, 1)
    assert field.generator == 1
    assert field.q == 2
    assert field.dlog[1] == 0


def test_dlog_examples_and_errors():
    field = build_field(3, 2)
    g = field.generator
    assert field.dlog[1] == 0
    assert field.dlog[g] == 1
    assert field.dlog[field.mul(g, g)] == 2
    assert field.dlog[0] is None


@pytest.mark.parametrize("p,f", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_dlog_is_homomorphism(p, f):
    field = build_field(p, f)
    n = field.q - 1
    for x in field.units():
        for y in field.units():
            assert (field.dlog[field.mul(x, y)]
                    == (field.dlog[x] + field.dlog[y]) % n)


def test_generator_order_and_minimality():
    field = build_field(3, 2)

    def order(x):
        k, acc = 1, x
        while acc != 1:
            acc = field.mul(acc, x)
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
    for a in field.elements():
        assert field.add(a, field.neg(a)) == 0
        assert field.add(a, 0) == a
        for b in field.elements():
            assert field.add(a, b) == field.add(b, a)
            assert field.sub(field.add(a, b), b) == a


def test_mul_inv():
    field = build_field(5, 2)
    for a in field.units():
        assert field.mul(a, field.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


@pytest.mark.parametrize("p,f", [(3, 4), (2, 6)])
def test_frobenius_fixes_exactly_the_prime_field(p, f):
    field = build_field(p, f)
    fixed = [x for x in field.elements() if field.pth_power(x) == x]
    # the fixed points are exactly the p constant polynomials
    assert sorted(fixed) == list(range(p))


def test_frobenius_is_additive_and_multiplicative():
    field = build_field(3, 2)
    for x in field.elements():
        for y in field.elements():
            assert (field.pth_power(field.add(x, y))
                    == field.add(field.pth_power(x), field.pth_power(y)))
            assert (field.pth_power(field.mul(x, y))
                    == field.mul(field.pth_power(x), field.pth_power(y)))


def test_build_field_is_deterministic():
    a = build_field(7, 2)
    b = build_field(7, 2)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert a.exp == b.exp
    assert a.dlog == b.dlog


def test_build_field_rejects_bad_input():
    with pytest.raises(InputError):
        build_field(10, 1)
    with pytest.raises(InputError):
        build_field(7, 0)
    with pytest.raises(BudgetError):
        build_field(2, 30)
    with pytest.raises(BudgetError):
        build_field(7, 4, table_budget=2000)


def test_cache_roundtrip(tmp_path):
    cold = build_field(7, 2, cache_dir=str(tmp_path))
    assert (tmp_path / "gf_p7_f2_v1.json").exists()
    warm = build_field(7, 2, cache_dir=str(tmp_path))
    assert warm.modulus == cold.modulus
    assert warm.generator == cold.generator
    assert warm.exp == cold.exp
    assert warm.dlog == cold.dlog


def test_cache_ignores_corrupt_file(tmp_path):
    path = tmp_path / "gf_p7_f2_v1.json"
    path.write_text("not json")
    field = build_field(7, 2, cache_dir=str(tmp_path))
    assert field.q == 49


@pytest.mark.parametrize("corrupt", [
    lambda d: {**d, "dlog": d["dlog"][:3]},
    lambda d: {**d, "dlog": [0] + d["dlog"][1:]},
    lambda d: {**d, "dlog": d["dlog"][:2] + [0] + d["dlog"][3:]},
    lambda d: {**d, "dlog": [None, 0.0] + d["dlog"][2:]},
    lambda d: {**d, "dlog": [None] + [str(i) for i in d["dlog"][1:]]},
    lambda d: {**d, "modulus": "x^2+1"},
    lambda d: {**d, "modulus": [1, 1]},
    lambda d: {**d, "generator": None},
    lambda d: {**d, "generator": 49},
    lambda d: {**d, "generator": d["dlog"].index(2)},
    lambda d: list(d),
], ids=["short", "dlog0", "not-permutation", "float", "str", "modulus-type",
        "modulus-degree", "generator-type", "generator-range",
        "generator-not-dlog-1", "not-an-object"])
def test_cache_rejects_malformed_tables(tmp_path, corrupt):
    cold = build_field(7, 2, cache_dir=str(tmp_path))
    path = tmp_path / "gf_p7_f2_v1.json"
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    warm = build_field(7, 2, cache_dir=str(tmp_path))
    assert (warm.modulus, warm.generator, warm.exp, warm.dlog) == (
        cold.modulus, cold.generator, cold.exp, cold.dlog)
    assert json.loads(path.read_text())["dlog"] == list(cold.dlog)


def test_coeffs_encode_roundtrip():
    field = build_field(3, 3)
    for a in field.elements():
        assert field.encode(field.coeffs(a)) == a


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
