import random
from fractions import Fraction

import pytest

from cyheights.errors import BudgetError, InputError
from cyheights.fermat import INFINITE, HeightValue, height_fermat
from cyheights.kummer import (AbelianData, EllipticCurve, abelian_height,
                              ec_count_points, kummer_report,
                              lattice_from_generators, lattice_index,
                              legendre, period_lattice, product_p_rank,
                              standard_lattice)


def _primes(lo, hi):
    return [p for p in range(lo, hi)
            if p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))]


def test_legendre_small():
    assert [legendre(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]


def test_curve_validation():
    with pytest.raises(InputError):
        EllipticCurve.create(4, 0, 1)
    with pytest.raises(InputError):
        EllipticCurve.create(3, 0, 1)   # p >= 5 only
    with pytest.raises(InputError):
        EllipticCurve.create(7, 0, 0)   # singular
    with pytest.raises(InputError):
        EllipticCurve.create(5, 0, 5)   # b = 0 mod 5, singular


def test_point_counts_by_enumeration():
    # independent oracle: enumerate all affine points directly
    for p in (5, 7, 11, 13):
        curve = EllipticCurve.create(p, 0, 1)
        affine = sum(1 for x in range(p) for y in range(p)
                     if (y * y - x**3 - 1) % p == 0)
        assert ec_count_points(curve) == affine + 1
    assert ec_count_points(EllipticCurve.create(5, 0, 1)) == 6
    assert ec_count_points(EllipticCurve.create(7, 0, 1)) == 12


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 997, 10007])
def test_residue_table_count_matches_legendre_sweep(p):
    for a, b in [(0, 1), (2, 3), (1, 1), (-1, 0), (5, 7)]:
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue  # singular reduction
        sweep = p + 1 + sum(legendre(x**3 + a * x + b, p) for x in range(p))
        assert ec_count_points(EllipticCurve.create(p, a, b)) == sweep


def test_trace_and_hasse():
    assert kummer_report(5)["trace"] == 0
    assert kummer_report(7)["trace"] == -4
    for p in _primes(5, 200):
        if (4 * 8 + 27 * 9) % p == 0:
            continue  # y^2 = x^3 + 2x + 3 degenerates at p | 275
        trace = kummer_report(p, 2, 3)["trace"]
        assert trace * trace <= 4 * p


def test_point_count_budget():
    with pytest.raises(BudgetError):
        ec_count_points(EllipticCurve.create(101, 0, 1), budget=50)


def test_p_rank_examples():
    assert kummer_report(5)["p_rank"] == 0
    assert kummer_report(7)["p_rank"] == 1
    assert kummer_report(13)["p_rank"] == 1


def test_supersingular_pattern_mod_3():
    for p in _primes(5, 1000):
        rank = kummer_report(p)["p_rank"]
        assert (rank == 0) == (p % 3 == 2)


def test_abelian_height_three_cases():
    assert abelian_height(AbelianData(3, 3)) == HeightValue.finite(1)
    assert abelian_height(AbelianData(3, 2)) == HeightValue.finite(2)
    assert abelian_height(AbelianData(3, 1)) == INFINITE
    assert abelian_height(AbelianData(3, 0)) == INFINITE
    with pytest.raises(InputError):
        abelian_height(AbelianData(1, 1))
    with pytest.raises(InputError):
        AbelianData(3, 4)
    with pytest.raises(InputError):
        AbelianData(3, -1)


def test_abelian_height_other_dimensions():
    for n, rank, height in [(2, 2, HeightValue.finite(1)),
                            (2, 1, HeightValue.finite(2)), (2, 0, INFINITE),
                            (4, 4, HeightValue.finite(1)),
                            (4, 3, HeightValue.finite(2)), (4, 0, INFINITE)]:
        assert abelian_height(AbelianData(n, rank)) == height


def test_product_p_rank():
    assert product_p_rank(1, 1, 1) == 3
    assert product_p_rank(0, 0, 0) == 0
    assert product_p_rank() == 0


def test_kummer_example_heights():
    assert kummer_report(7)["quotient_height"] == 1
    assert kummer_report(5)["quotient_height"] == "inf"
    assert kummer_report(13)["quotient_height"] == 1
    with pytest.raises(InputError):
        kummer_report(4)
    with pytest.raises(InputError):
        kummer_report(3)


def test_kummer_report_predicts_only_the_standard_curve():
    assert kummer_report(7) == {
        "p": 7, "a": 0, "b": 1, "points": 12, "trace": -4, "p_rank": 1,
        "abelian_dim": 3, "curve_formal_height": 1, "quotient_height": 1,
        "predicted_height": 1, "agree": True}
    report = kummer_report(11, 12, 3)  # a is reduced mod p
    assert (report["a"], report["b"]) == (1, 3)
    assert report["predicted_height"] is None and report["agree"] is None
    assert report["points"] == ec_count_points(EllipticCurve.create(11, 1, 3))


@pytest.mark.parametrize("p,a,b", [(7, 7, 8), (5, -10, -4), (11, 0, -10)])
def test_kummer_report_reads_the_standard_curve_after_reduction(p, a, b):
    # y^2 = x^3 + a x + b with (a, b) = (0, 1) mod p is the standard curve,
    # and its closed-form prediction applies
    assert kummer_report(p, a, b) == kummer_report(p)
    assert kummer_report(p, a, b)["agree"] is True


def test_kummer_example_agrees_with_fermat_cubic():
    # both the quotient threefold and the Fermat cubic curve see the same
    # ordinary/supersingular dichotomy for the j = 0 curve
    for p in _primes(5, 100):
        if p % 3 == 0:
            continue
        quotient = kummer_report(p)["quotient_height"]
        cubic = height_fermat(p, 3, 1)
        if quotient != "inf":
            assert quotient == 1
            assert cubic == HeightValue.finite(1)
        else:
            assert cubic == HeightValue.finite(2)


# --- period lattices ---


def test_period_lattice_eisenstein():
    lattice = period_lattice((1, 1, 1))  # omega a primitive cube root of 1
    std = standard_lattice((1, 1, 1))
    assert lattice == std
    assert lattice_index(lattice, std) == 1


def test_period_lattice_gaussian():
    lattice = period_lattice((1, 0, 1))  # omega = i
    assert lattice == standard_lattice((1, 0, 1))
    assert lattice.contains(1, 0) and lattice.contains(0, 1)
    assert not lattice.contains(Fraction(1, 2), 0)


def test_period_lattice_half_i():
    # omega = i/2 satisfies 4x^2 + 1 = 0; powers bring in denominators
    lattice = period_lattice((4, 0, 1))
    assert lattice.basis == ((Fraction(1, 4), Fraction(0)),
                             (Fraction(0), Fraction(1, 4)))
    index = lattice_index(lattice, standard_lattice((4, 0, 1)))
    assert index == Fraction(1, 16)
    assert index != 0


@pytest.mark.parametrize("poly", [(1, 1, 2), (1, 0, 3), (1, 1, 5), (1, 0, 11)])
def test_monic_omega_gives_standard_lattice(poly):
    assert period_lattice(poly) == standard_lattice(poly)


def test_min_poly_validation():
    with pytest.raises(InputError):
        period_lattice((1, 0, -1))   # discriminant 4 > 0, omega real
    with pytest.raises(InputError):
        period_lattice((0, 1, 1))    # not quadratic
    with pytest.raises(InputError):
        period_lattice((-1, 0, -1))  # leading coefficient must be positive
    with pytest.raises(InputError):
        period_lattice((2, 2, 2))    # not primitive


def test_lattice_rank_validation():
    with pytest.raises(InputError):
        lattice_from_generators((1, 0, 1), [(1, 0), (2, 0)])
    with pytest.raises(InputError):
        lattice_index(period_lattice((1, 0, 1)),
                      period_lattice((1, 1, 1)))


def test_identical_lattices_have_index_one():
    lattice = period_lattice((1, 1, 1))
    assert lattice_index(lattice, lattice) == 1


def test_lattice_equality_ignores_generating_set():
    a = lattice_from_generators((1, 0, 1), [(1, 0), (0, 1)])
    b = lattice_from_generators((1, 0, 1), [(1, 0), (0, 1), (3, 5), (-2, 7)])
    assert a == b
    assert hash(a) == hash(b)


def test_index_is_multiplicative_on_chains():
    rng = random.Random(59)
    poly = (1, 0, 1)
    for _ in range(10):
        scales = [Fraction(rng.randint(1, 6), rng.randint(1, 6))
                  for _ in range(3)]
        lattices = [lattice_from_generators(
            poly, [(s, 0), (0, s)]) for s in scales]
        l1, l2, l3 = lattices
        assert lattice_index(l1, l3) == (lattice_index(l1, l2)
                                         * lattice_index(l2, l3))


def test_index_direction():
    # refining a lattice by 1/2 in both coordinates quarters the covolume
    poly = (1, 0, 1)
    fine = lattice_from_generators(poly, [(Fraction(1, 2), 0),
                                          (0, Fraction(1, 2))])
    coarse = standard_lattice(poly)
    assert lattice_index(fine, coarse) == Fraction(1, 4)
    assert lattice_index(coarse, fine) == 4
