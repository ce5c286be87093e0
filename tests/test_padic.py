import importlib.util
import random
import sys
from pathlib import Path

import pytest

from cyheights import finite_field, padic
from cyheights.cyclotomic import CycInt, degree, modulus_squared
from cyheights.errors import InputError, InternalCheckError
from cyheights.finite_field import build_field
from cyheights.padic import PadicContext, default_precision, padic_valuation
from oracles import teichmuller_by_iteration, zeta_columns_by_products


@pytest.fixture(scope="module")
def f9():
    return build_field(3, 2)


def test_trivial_conductor():
    field = build_field(5, 1)
    ctx = PadicContext(field, 1, 3)
    assert ctx.zeta_hat == (1,)


def test_lifted_root_satisfies_exact_relations(f9):
    ctx = PadicContext(f9, 4, 4)
    # zeta_hat^4 = 1 and zeta_hat^2 = -1 exactly in R_4
    minus_one = padic_valuation(CycInt.root_of_unity(4, 2) + 1, ctx)
    assert minus_one is None  # the image of zeta^2 + 1 is exactly 0
    one = padic_valuation(CycInt.root_of_unity(4, 4) - 1, ctx)
    assert one is None


def test_lifted_root_reduces_to_order_m_element(f9):
    ctx = PadicContext(f9, 4, 5)
    residue = f9.encode(c % 3 for c in ctx.zeta_hat)
    # the residue has exact multiplicative order 4 in GF(9)
    exp = tuple(f9.powers())
    log = exp.index
    assert log(residue) % 2 == 0 and log(residue) % 4 != 0
    powers = {1}
    acc = residue
    for _ in range(3):
        powers.add(acc)
        acc = exp[(log(acc) + log(residue)) % 8]
    assert acc == 1 and len(powers) == 4


def test_valuation_of_constants(f9):
    ctx = PadicContext(f9, 4, 6)
    assert padic_valuation(CycInt.integer(4, 1), ctx) == 0
    assert padic_valuation(CycInt.integer(4, 3), ctx) == 1
    # q = p^f = 9 has valuation f = 2 (ord_P is unnormalized)
    assert padic_valuation(CycInt.integer(4, 9), ctx) == 2
    assert padic_valuation(CycInt.zero(4), ctx) is None  # >= k = 6


def test_valuation_is_additive(f9):
    rng = random.Random(17)
    ctx = PadicContext(f9, 4, 12)
    for _ in range(40):
        a = CycInt.from_coeffs(4, [rng.randint(-15, 15) for _ in range(2)])
        b = CycInt.from_coeffs(4, [rng.randint(-15, 15) for _ in range(2)])
        va = padic_valuation(a, ctx)
        vb = padic_valuation(b, ctx)
        if va is None or vb is None or va + vb >= ctx.k:
            continue
        assert padic_valuation(a * b, ctx) == va + vb


def test_valuation_norm_consistency(f9):
    rng = random.Random(23)
    ctx = PadicContext(f9, 4, 12)
    for _ in range(40):
        z = CycInt.from_coeffs(4, [rng.randint(-10, 10) for _ in range(2)])
        v = padic_valuation(z, ctx)
        vconj = padic_valuation(z.galois(3), ctx)
        vnorm = padic_valuation(modulus_squared(z), ctx)
        if None not in (v, vconj, vnorm):
            assert v + vconj == vnorm


def test_context_validations(f9):
    with pytest.raises(InputError):
        PadicContext(f9, 5, 4)   # 5 does not divide q - 1 = 8
    with pytest.raises(InputError):
        PadicContext(f9, 3, 4)   # gcd fine but 3 does not divide 8
    with pytest.raises(InputError):
        PadicContext(f9, 4, 0)
    field = build_field(2, 4)
    with pytest.raises(InputError):
        PadicContext(field, 4, 3)  # p | m, so m does not divide q - 1


def test_conductor_mismatch(f9):
    ctx = PadicContext(f9, 4, 4)
    with pytest.raises(InputError):
        padic_valuation(CycInt.one(5), ctx)


def test_default_precision():
    assert default_precision(4, 3) == 14


def test_larger_conductor_context():
    field = build_field(7, 4)  # q = 2401, 5 | q - 1
    ctx = PadicContext(field, 5, 6)
    assert len(ctx.zeta_hat) == 4
    # zeta_hat^5 = 1 exactly: the image of zeta^5 - 1 vanishes in R_6
    gone = padic_valuation(CycInt.root_of_unity(5) ** 5 - 1, ctx)
    assert gone is None
    # 7 is still a uniformizer upstairs
    assert padic_valuation(CycInt.integer(5, 7), ctx) == 1
    assert degree(5) == 4


# --- reference R_k kernels: fixed-length vectors, constant first ---


def _rk_mul(a, b, modulus, pk):
    """a * b in R_k by the dedicated loop PadicContext used before it
    shared the field's polynomial helpers."""
    f = len(a)
    prod = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % pk
    # reduce modulo the monic lift of the field modulus
    for e in range(2 * f - 2, f - 1, -1):
        c = prod[e]
        if c:
            prod[e] = 0
            for i in range(f):
                prod[e - f + i] = (prod[e - f + i] - c * modulus[i]) % pk
    return prod[:f]


def _rk_pow(a, e, modulus, pk):
    f = len(a)
    result = [1] + [0] * (f - 1)
    base = list(a)
    while e:
        if e & 1:
            result = _rk_mul(result, base, modulus, pk)
        base = _rk_mul(base, base, modulus, pk)
        e >>= 1
    return result


def _ref_lift(field, m, k):
    """zeta_hat and the power columns by the fixed-length kernels."""
    p, f, q = field.p, field.f, field.q
    pk = p**k
    modulus = tuple(c % pk for c in field.modulus)
    z = list(field.coeffs(tuple(field.powers())[(q - 1) - (q - 1) // m]))
    for _ in range(k + 1):
        nxt = _rk_pow(z, q, modulus, pk)
        if nxt == z:
            break
        z = nxt
    assert _rk_pow(z, m, modulus, pk) == [1] + [0] * (f - 1)
    powers = [[1] + [0] * (f - 1)]
    for _ in range(degree(m) - 1):
        powers.append(_rk_mul(powers[-1], z, modulus, pk))
    return tuple(z), tuple(zip(*powers))


def _ref_valuation(z, ctx):
    """The accumulate loop the column image replaced: sum c_i * zeta_hat^i
    coordinate by coordinate, reducing mod p^k after every term."""
    f, p, pk = ctx.field.f, ctx.field.p, ctx.pk
    powers = [[1] + [0] * (f - 1)]
    for _ in range(degree(ctx.m) - 1):
        powers.append(_rk_mul(powers[-1], list(ctx.zeta_hat), ctx.modulus,
                              pk))
    image = [0] * f
    for c, power in zip(z.coeffs, powers):
        for i in range(f):
            image[i] = (image[i] + c * power[i]) % pk
    valuations = []
    for coord in image:
        if coord:
            v = 0
            while coord % p == 0:
                coord //= p
                v += 1
            valuations.append(v)
    return min(valuations, default=None)


@pytest.mark.parametrize("p, f, m, k", [(2, 4, 5, 3), (2, 6, 21, 4),
                                        (2, 6, 63, 5), (3, 2, 8, 4),
                                        (5, 1, 4, 3), (7, 3, 57, 3)])
def test_column_image_matches_accumulate_loop(p, f, m, k):
    ctx = PadicContext(build_field(p, f), m, k)
    rng = random.Random(31 * m + p)
    kinds = set()
    for _ in range(80):
        # a common factor p^shift with shift up to k + 1 reaches the
        # ">= k" branch; mixed signs and sizes exercise the reduction
        shift = rng.randint(0, k + 1)
        z = CycInt.from_coeffs(m, [
            p**shift * rng.choice((0, 1, -1, rng.randint(-10**6, 10**6),
                                   rng.getrandbits(200)))
            for _ in range(degree(m))])
        val = padic_valuation(z, ctx)
        assert val == _ref_valuation(z, ctx)
        kinds.add(val is not None)
    assert kinds == {True, False}


# f = 1 (twice); moduli with zero coefficients (x^2 + 1, x^4 + x + 1,
# x^6 + x + 1, x^4 + x + 2, x^2 + 2); lifts and powers whose top
# coordinate is 0 mod p^k, which the shared helpers trim: zeta_hat at
# (2, 6, 9, 1) and (3, 4, 5, 1), zeta_hat^7 at (2, 4, 15, 2), zeta_hat^2
# at (5, 2, 8, 3)
@pytest.mark.parametrize("p, f, m, k", [(5, 1, 4, 3), (7, 1, 3, 2),
                                        (3, 2, 8, 4), (2, 4, 15, 2),
                                        (2, 6, 9, 1), (2, 6, 21, 3),
                                        (3, 4, 5, 1), (5, 2, 8, 3)])
def test_context_matches_fixed_length_kernels(p, f, m, k):
    field = build_field(p, f)
    ctx = PadicContext(field, m, k)
    zeta_hat, columns = _ref_lift(field, m, k)
    assert ctx.zeta_hat == zeta_hat
    assert len(ctx.zeta_hat) == f
    assert ctx._zeta_columns == columns
    rng = random.Random(7 * m + k)
    for _ in range(40):
        shift = rng.randint(0, k + 1)
        z = CycInt.from_coeffs(m, [p**shift * rng.randint(-10**4, 10**4)
                                   for _ in range(degree(m))])
        assert padic_valuation(z, ctx) == _ref_valuation(z, ctx)


# the five stickelberger shapes of the fields_warm benchmark round, with
# f = 9, 6, 3, 3, 5, and two f = 1 fields
@pytest.mark.parametrize("p, m, r", [(2, 73, 1), (2, 63, 1), (7, 57, 1),
                                     (5, 31, 1), (3, 11, 2), (11, 5, 3),
                                     (31, 10, 1)])
def test_power_columns_match_products_and_remainders(p, m, r):
    f = next(f for f in range(1, m) if (p**f - 1) % m == 0)
    ctx = PadicContext(build_field(p, f), m, default_precision(f, r))
    assert ctx._zeta_columns == zeta_columns_by_products(
        ctx.zeta_hat, ctx.modulus, ctx.pk, degree(m))


def _lift_matches_iteration(field, m, k):
    ctx = PadicContext(field, m, k)
    assert ((ctx.modulus, ctx.zeta_hat)
            == teichmuller_by_iteration(field, m, k))


def _benchmark_ops():
    """perfbench/ops.py, loaded from its file: the operations of the
    benchmark's workloads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "ops.py"
    spec = importlib.util.spec_from_file_location("perfbench_ops", path)
    ops = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = ops  # dataclasses looks the module up
    try:
        spec.loader.exec_module(ops)
    finally:
        del sys.modules[spec.name]
    return ops


def test_lift_matches_iteration_on_the_benchmark_fields():
    # every stickelberger op of fields_cold and fields_warm, full and
    # smoke size, at the working precision of the op
    ops = _benchmark_ops()
    shapes = set()
    for workload in ("fields_cold", "fields_warm"):
        for smoke in (False, True):
            for pool in ops.classes(workload, smoke):
                for op in pool:
                    args = dict(zip(op.argv[1::2], op.argv[2::2]))
                    shapes.add(tuple(int(args[key])
                                     for key in ("--p", "--m", "--r")))
    assert len(shapes) == 47
    for p, m, r in sorted(shapes):
        f = ops.order_mod(p, m)
        _lift_matches_iteration(build_field(p, f), m, default_precision(f, r))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("f", range(1, 13))
def test_lift_matches_iteration_for_every_degree(p, f):
    # m the largest divisor of q - 1 up to 400, at the least precisions
    # and at the working precision of r = 3
    field = build_field(p, f)
    m = max(d for d in range(1, 401) if (field.q - 1) % d == 0)
    for k in (1, 2, default_precision(f, 3)):
        _lift_matches_iteration(field, m, k)


def test_a_lift_one_round_short_does_not_stabilize(monkeypatch):
    # GF(9), m = 8, k = 4: the lift is the residue to the power q^2; a
    # ring that stops at q leaves a z with z^q != z, which the first of
    # the three checks must name
    field, m, k = build_field(3, 2), 8, 4

    class ShortLift(finite_field._Ring):
        __slots__ = ()

        def pow(self, a, e):
            if self.n == 3**k and e == field.q**2:
                e = field.q
            return super().pow(a, e)

    monkeypatch.setattr(padic, "_Ring", ShortLift)
    with pytest.raises(InternalCheckError, match="did not stabilize"):
        PadicContext(field, m, k)
